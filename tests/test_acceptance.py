"""Acceptance criteria A1-A9, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
All tolerances are fixed here; shared full-length runs come from
session-scoped fixtures in conftest.py.
"""

import math
from dataclasses import replace

import numpy as np

from nfscatter import solver
from nfscatter.analysis import beat_period, entanglement_report, excitation_pattern, storage_suppression
from nfscatter.model import (
    DEFAULT_GAMMA,
    WAVE_NUMBER_K,
    HyperfineSchedule,
    MirrorSpec,
    PulseSpec,
    SampleSpec,
    ScenarioConfig,
    Segment,
    depth_nodes,
    derived_timings,
    envelope_attenuation,
    validate_scenario,
)
from nfscatter.presets import preset_scenario
from nfscatter.solver import run_scenario
from reference_oracles import OracleCurve, first_order_amplitude, relative_l2

GAMMA = 1.0 / 141.1
DB30 = 30.0 * GAMMA
TAU = math.pi / DB30


def check(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_A1_backward_onset_delay(fig2a_run):
    _, traces, _ = fig2a_run
    fa, ba = np.abs(traces.fwd_amp), np.abs(traces.bwd_amp)
    onset_f = traces.t_grid[np.argmax(fa > 1e-9 * fa.max())]
    onset_b = traces.t_grid[np.argmax(ba > 1e-9 * ba.max())]
    delay = onset_b - onset_f
    check("A1", abs(delay - TAU) <= 0.1,
          f"backward onset delay {delay:.4f} ns vs tau = pi/delta_b = {TAU:.4f} ns (tol 0.1)")


def test_A2_residual_forward_attenuation(fig2a_run):
    _, traces, _ = fig2a_run
    sel = traces.mirror_in_beam & (traces.t_grid > 0.0)
    ratio = float(np.sum(np.abs(traces.fwd_detected[sel]) ** 2)
                  / np.sum(np.abs(traces.fwd_amp[sel]) ** 2))
    check("A2", abs(ratio - 0.01) <= 0.001,
          f"detected/unattenuated forward energy for t < t_d is {ratio:.5f} (target 0.01 +- 10%)")


def test_A3_thin_sample_oracle_equivalence(single_pass_run):
    sc, traces, _ = single_pass_run
    theta = sc.pulse.area
    ref = theta * first_order_amplitude(sc.sample.xi, DEFAULT_GAMMA,
                                        sc.schedule.segments[0].delta_b, traces.t_grid)
    err = relative_l2(OracleCurve(traces.t_grid, traces.fwd_amp),
                      OracleCurve(traces.t_grid, ref.astype(complex)),
                      (0.1, 150.0))
    check("A3", err < 0.01,
          f"xi=0.01 single-pass forward amplitude vs first-order oracle: rel L2 {err:.5f} < 0.01")


def test_A4_storage_is_phase_selective(fig2a_run, gated_run_factory):
    _, traces, _ = fig2a_run
    ratio = storage_suppression(traces, 22.2, 100.0)
    ok_main = ratio <= 1e-2

    # control: switch off at a beat antinode (delta_b * t = 2*pi) instead
    t_anti = 2.0 * math.pi / DB30
    control = validate_scenario(ScenarioConfig(
        sample=SampleSpec(xi=1.0, n_depth=201),
        pulse=PulseSpec(mode="impulsive", area=1e-3),
        mirror=MirrorSpec(reflectivity=0.99, delay_tau=TAU, disable_time=7.39),
        schedule=HyperfineSchedule((Segment(0.0, DB30), Segment(t_anti, 0.0), Segment(100.0, DB30))),
        t_end=110.0,
        dt=0.005,
    ))
    traces_c, _ = run_scenario(control)
    ratio_c = storage_suppression(traces_c, t_anti, 100.0)
    ok_ctrl = ratio_c > 0.3
    check("A4", ok_main and ok_ctrl,
          f"node switch-off suppression {ratio:.2e} <= 1e-2; antinode control {ratio_c:.3f} > 0.3")


def test_A5_branch_balance_tracks_prediction(fig2a_run, fig2b_run, gated_run_factory):
    window = (100.0, 200.0)
    measured = {}
    for name, run in (("fig2a", fig2a_run), ("fig2b", fig2b_run)):
        _, traces, _ = run
        measured[name] = entanglement_report(traces, window)["balance"]
    ok_window = all(0.85 <= b <= 1.25 for b in measured.values())

    ratios = []
    for xi in (0.5, 1.0, 2.0):
        if xi == 1.0:
            balance = measured["fig2b"]
        else:
            _, traces, _ = gated_run_factory(xi=xi, disable_time=7.39)
            balance = entanglement_report(traces, window)["balance"]
        predicted = 0.99 / envelope_attenuation(xi, GAMMA, DB30)
        ratios.append((xi, balance, predicted, balance / predicted))
    ok_track = all(abs(r - 1.0) <= 0.20 for _, _, _, r in ratios)
    detail = (f"balance fig2a={measured['fig2a']:.4f} fig2b={measured['fig2b']:.4f} in [0.85, 1.25]; "
              + "; ".join(f"xi={xi}: {b:.3f}/{p:.3f}={r:.3f}" for xi, b, p, r in ratios))
    check("A5", ok_window and ok_track, detail)


def test_A6_symmetric_antisymmetric_control(fig2b_run, fig2c_run):
    _, traces_b, _ = fig2b_run
    _, traces_c, _ = fig2c_run
    rep_b = entanglement_report(traces_b, (100.0, 200.0))
    rep_c = entanglement_report(traces_c, (100.0, 200.0))
    dev_c = abs(abs(rep_c["mean_phase_rad"]) - math.pi)
    ok = (rep_b["classification"] == "symmetric" and abs(rep_b["mean_phase_rad"]) < 0.2
          and rep_c["classification"] == "antisymmetric" and dev_c < 0.2)

    # the two runs differ only by the inversion event at t_invert
    sb, sc = fig2b_run[0], fig2c_run[0]
    t_inv = derived_timings(DB30).t_invert
    segs_b = [(s.t_start, s.delta_b) for s in sb.schedule.segments]
    segs_c = [(s.t_start, s.delta_b) for s in sc.schedule.segments]
    expected_c = [segs_b[0], (t_inv, -DB30), (segs_b[1][0], 0.0), (segs_b[2][0], -DB30)]
    ok_diff = (segs_c == expected_c
               and sb.sample == sc.sample and sb.mirror == sc.mirror and sb.pulse == sc.pulse)
    check("A6", ok and ok_diff,
          f"fig2b {rep_b['classification']} |phase|={abs(rep_b['mean_phase_rad']):.4f} < 0.2; "
          f"fig2c {rep_c['classification']} |phase-pi|={dev_c:.4f} < 0.2; "
          f"configs differ only by inversion at {t_inv:.4f} ns: {ok_diff}")


def test_A7_beat_period(fig2a_run):
    _, traces, _ = fig2a_run
    period = beat_period(traces.t_grid, traces.fwd_detected ** 2, (0.0, 23.0))
    check("A7", abs(period - TAU) <= 0.05 * TAU,
          f"pre-storage beat node spacing {period:.4f} ns vs pi/delta_b = {TAU:.4f} ns (tol 5%)")


def test_A8_standing_wave_pattern(fig2b_run, fig2c_run):
    _, _, snaps_b = fig2b_run
    _, _, snaps_c = fig2c_run
    k = WAVE_NUMBER_K

    s_grid_b, density_b = excitation_pattern(snaps_b[0], k)
    s_grid_c, density_c = excitation_pattern(snaps_c[0], k)
    cell = s_grid_b[1] - s_grid_b[0]
    s_b = s_grid_b[int(np.argmax(density_b))]
    s_c = s_grid_c[int(np.argmax(density_c))]

    # modulation period from the spacing of the two interior maxima structure
    d = density_c
    maxima_c = [s_grid_c[i] for i in range(1, len(d) - 1) if d[i] > d[i - 1] and d[i] >= d[i + 1]]
    mod_period = maxima_c[1] - maxima_c[0] if len(maxima_c) >= 2 else math.nan

    period = 2.0 * math.pi / k               # carrier period, angstrom
    sine_peak = 0.25 * period                # pi/(2k) = 0.215 angstrom
    half_period = 0.5 * period               # pi/k = 0.430 angstrom
    ok = (abs(s_b - 0.0) <= cell
          and abs(s_c - sine_peak) <= cell and abs(sine_peak - 0.215) < 1e-3
          and abs(mod_period - half_period) <= cell and abs(half_period - 0.430) < 1e-3)
    check("A8", ok,
          f"fig2b max at s={s_b:.4f} A (cos), fig2c max at s={s_c:.4f} A (sin, target 0.215), "
          f"modulation period {mod_period:.4f} A (target 0.430, cell {cell:.4f})")


def test_A8_flat_control():
    from nfscatter.solver import CoherenceSnapshot

    k = 2.0 * math.pi * 14.413 / 12.39842
    ones = np.full(9, 0.5 + 0j)
    zeros = np.zeros(9, dtype=complex)
    _, density = excitation_pattern(
        CoherenceSnapshot(t=0.0, f31=ones, f42=ones.copy(), b31=zeros, b42=zeros.copy()), k)
    flat = np.ptp(density) <= 1e-12 * np.max(density)
    check("A8-flat", flat, "single-branch pattern is flat (traveling excitation)")


def test_A9_property_suite(fig2a_run, monkeypatch):
    sc, traces, _ = fig2a_run

    # linearity: pulse-area scaling is exact
    small = validate_scenario(replace(
        preset_scenario("fig2a"), t_end=40.0,
        pulse=PulseSpec(mode="impulsive", area=3e-4)))
    big = validate_scenario(replace(
        preset_scenario("fig2a"), t_end=40.0,
        pulse=PulseSpec(mode="impulsive", area=9e-4)))
    tr_s, _ = run_scenario(small)
    tr_b, _ = run_scenario(big)
    lin_err = float(np.max(np.abs(tr_b.fwd_amp - 3.0 * tr_s.fwd_amp))
                    / np.max(np.abs(tr_b.fwd_amp)))
    ok_lin = lin_err <= 1e-12

    # realness of the recorded fields: every field of the scheme is real, so the traces are float64
    ok_real = traces.fwd_amp.dtype == np.float64 and traces.bwd_amp.dtype == np.float64

    # R = 0 silences the backward channel exactly
    quiet = validate_scenario(replace(
        preset_scenario("fig2a"), t_end=40.0,
        mirror=MirrorSpec(reflectivity=0.0, delay_tau=TAU, disable_time=7.39)))
    tr_q, _ = run_scenario(quiet)
    ok_r0 = bool(np.all(tr_q.bwd_amp == 0.0))

    # causality: nothing backward before one round trip
    ok_causal = bool(np.all(traces.bwd_amp[traces.t_grid < TAU] == 0.0))

    # convergence: refine the collocation by four depth nodes (dt only samples the exact-in-time
    # solution, and n_depth only the snapshot grid, so neither enters the traces)
    monkeypatch.setattr(solver, "depth_nodes", lambda xi: depth_nodes(xi) + 4)
    tr_f, _ = run_scenario(sc)
    err_f = relative_l2(OracleCurve(traces.t_grid, traces.fwd_amp),
                        OracleCurve(tr_f.t_grid, tr_f.fwd_amp), (0.0, 200.0))
    err_b = relative_l2(OracleCurve(traces.t_grid, traces.bwd_amp),
                        OracleCurve(tr_f.t_grid, tr_f.bwd_amp), (TAU + 0.1, 200.0))
    ok_conv = err_f < 1e-10 and err_b < 1e-10

    check("A9", ok_lin and ok_real and ok_r0 and ok_causal and ok_conv,
          f"linearity {lin_err:.2e} <= 1e-12; float64 traces {ok_real}; "
          f"R=0 backward silent {ok_r0}; causal {ok_causal}; "
          f"convergence N+4 depth nodes: fwd {err_f:.1e}, bwd {err_b:.1e} < 1e-10")
