"""The depth-marching solver against an independent per-step reference loop.

``reference_run`` steps the same discrete scheme the plain way: every time
step sweeps both fields across the slab with a cumulative trapezoid, takes
an exponential-midpoint half step, sweeps again and takes the full step.
It shares no code with the solver beyond ``gaussian_input``.  Both are the
same discretisation, so they agree to rounding; the bound is 1e-10 of each
array's largest magnitude.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from nfscatter import MirrorSpec, PulseSpec, SampleSpec, ScenarioConfig, gaussian_input, run_scenario, validate_scenario
from nfscatter import solver
from nfscatter.model import CLEBSCH_A, DEFAULT_GAMMA, HyperfineSchedule, Segment
from nfscatter.presets import preset_scenario
from nfscatter.solver import NumericalError

GAMMA = 1.0 / 141.1
DB30 = 30.0 * GAMMA
TAU = math.pi / DB30


def reference_run(sc):
    """(fwd, bwd, {step: state}) with state (branch, family, depth), both branches in physical depth."""
    a, dt, n_t, n_u = CLEBSCH_A, sc.dt, sc.n_steps + 1, sc.sample.n_depth
    kappa, du, tau, t_off, pulse = 1j * sc.eta_l * a, 1.0 / (n_u - 1), sc.tau, sc.mirror.disable_time, sc.pulse
    r = math.sqrt(sc.mirror.reflectivity)
    fwd, bwd = np.zeros(n_t, dtype=complex), np.zeros(n_t, dtype=complex)

    def gated(t_exit):
        return t_exit >= 0.0 and (t_off is None or t_exit + 0.5 * tau <= t_off)

    def level_at(t):  # the last schedule segment starting at or before t, else the first
        segs = sc.schedule.segments
        return ([seg.delta_b for seg in segs if seg.t_start <= t] or [segs[0].delta_b])[-1]

    def integral(s):  # cumulative trapezoid of s from u = 0
        return np.concatenate(([0.0], np.cumsum(0.5 * du * (s[1:] + s[:-1]))))

    def fields(x, t, n_rec):  # n_rec: forward back-face samples recorded so far
        drive = gaussian_input(t, pulse) if pulse.mode == "gaussian" else 0.0
        om_f = drive + kappa * integral(x[0].sum(0))
        t_exit, feed = t - tau, 0.0
        if r > 0.0 and gated(t_exit):
            xs = t_exit / dt
            j = int(xs)
            feed = fwd[n_rec - 1] if j >= n_rec - 1 else fwd[j] + (fwd[j + 1] - fwd[j]) * (xs - j)
        return np.array([om_f, -r * feed + kappa * integral(x[1].sum(0)[::-1])[::-1]])

    def advance(x, om, h, level):
        lam = np.array([-(0.5 * DEFAULT_GAMMA + 1j * level), -(0.5 * DEFAULT_GAMMA - 1j * level)])
        e = np.exp(lam * h)[:, None]
        return e * x + (0.25j * a * (e - 1.0) / lam[:, None]) * om[:, None, :]

    kicks = {}
    if pulse.mode == "impulsive":
        kicks.setdefault(round(pulse.t0 / dt), []).append((0, 1.0))
        if r > 0.0 and gated(pulse.t0):
            kicks.setdefault(math.ceil((pulse.t0 + tau) / dt - 1e-9), []).append((1, -r))
    snap_steps = {round(t / dt) for t in sc.record_snapshots_at}
    x, snaps = np.zeros((2, 2, n_u), dtype=complex), {}
    for i in range(n_t):
        t = i * dt
        for branch, scale in kicks.get(i, []):
            x[branch] += 0.25j * a * scale * pulse.area
        om = fields(x, t, i)
        fwd[i], bwd[i] = om[0, -1], om[1, 0]
        if i in snap_steps:
            snaps[i] = x.copy()
        if i < n_t - 1:
            level = level_at(t)
            x = advance(x, fields(advance(x, om, 0.5 * dt, level), t + 0.5 * dt, i + 1), dt, level)
    return fwd, bwd, snaps


def node_map(sc, level):
    """The 2x2 one-step map of an interior depth node, from the reference's own coefficients."""
    a, dt, gamma = CLEBSCH_A, sc.dt, DEFAULT_GAMMA
    w = 1j * sc.eta_l * a * 0.5 / (sc.sample.n_depth - 1)
    lam = np.array([-(0.5 * gamma + 1j * level), -(0.5 * gamma - 1j * level)])
    e_h, e_f = np.exp(0.5 * dt * lam), np.exp(dt * lam)
    p_h, p_f = 0.25j * a * (e_h - 1.0) / lam, 0.25j * a * (e_f - 1.0) / lam
    return np.diag(e_f) + w * np.outer(p_f, e_h + w * p_h.sum())


def eigen_gap(sc, level):
    """|mu1 - mu2| / |mean| of the interior map's eigenvalues, negative where they are a complex pair."""
    m = node_map(sc, level)
    disc = (0.25 * (m[0, 0] - m[1, 1]) ** 2 + m[0, 1] * m[1, 0]).real
    return math.copysign(2.0 * math.sqrt(abs(disc)) / abs(0.5 * (m[0, 0] + m[1, 1])), disc)


def coalescing_level(sc, gap=0.0):
    """delta_b in (0, 2 gamma) where the interior map's eigen_gap is ``gap``; at 0 the eigenvalues coincide."""
    lo, hi = 1e-6 * GAMMA, 2.0 * GAMMA
    assert eigen_gap(sc, lo) > gap > eigen_gap(sc, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if eigen_gap(sc, mid) > gap else (lo, mid)
    return lo


BASE = ScenarioConfig(
    sample=SampleSpec(xi=1.0, n_depth=21),
    pulse=PulseSpec(area=1e-3, t0=0.5),
    mirror=MirrorSpec(reflectivity=0.81, delay_tau=TAU, disable_time=8.0),
    schedule=HyperfineSchedule.constant(DB30),
    t_end=30.0,
    dt=0.01,
    record_snapshots_at=(12.0, 29.0),
)


def with_mirror(**kwargs):
    return replace(BASE, mirror=replace(BASE.mirror, **kwargs))


def kick_on_segment_start():
    """The reflected prompt lands on the first step of a segment, so of a time block.

    The feedback interpolates the forward trace at t - tau, which already
    drives the backward branch at the midpoint before that step, so the kick
    adds to a nonzero state; a snapshot records the kicked step.
    """
    ib = math.ceil((0.5 + TAU) / 0.01 - 1e-9)
    return replace(with_mirror(disable_time=None),
                   schedule=HyperfineSchedule((Segment(0.0, DB30), Segment(ib * 0.01, -DB30))),
                   record_snapshots_at=(12.0, ib * 0.01, 29.0))


def fig2c_short():
    cfg = preset_scenario("fig2c")
    return replace(cfg, sample=replace(cfg.sample, n_depth=41), t_end=120.0, dt=0.05)


def coalescing(xi=5.0, gap=0.0):
    cfg = replace(BASE, sample=SampleSpec(xi=xi, n_depth=11))
    return replace(cfg, schedule=HyperfineSchedule.constant(coalescing_level(validate_scenario(cfg), gap)))


def nearest_pair(xi=5.0):
    """The first float delta_b past the exceptional point at which the eigenvalues are a complex pair."""
    cfg = replace(BASE, sample=SampleSpec(xi=xi, n_depth=11))
    sc = validate_scenario(cfg)
    level = coalescing_level(sc)
    while eigen_gap(sc, level) >= 0.0:
        level = math.nextafter(level, math.inf)
    return replace(cfg, schedule=HyperfineSchedule.constant(level))


def free_mode_across_blocks():
    """The field goes off while Re f31 != 0 and stays off over several time blocks.

    With the field off Re f31 takes no input and no kick and hands nothing
    on, so the march carries it as z0*mu^m without a scan; xi = 50 cuts the
    blocks short, as in extreme_coupling.  Snapshots sit on the switch-off
    step and in later blocks of the field-off segment.
    """
    return replace(BASE, sample=SampleSpec(xi=50.0, n_depth=11), pulse=PulseSpec(area=1e-5, t0=0.0),
                   schedule=HyperfineSchedule((Segment(0.0, 0.0125), Segment(90.0, 0.0))), t_end=1500.0, dt=3.0,
                   record_snapshots_at=(90.0, 561.0, 1200.0))


# signed eigen_gap of the cases on either side of the exceptional point: real and
# distinct above 0, a complex pair below; xi = 20 makes the field-off gap large
# enough (1.4e-4) for the real side to reach 1e-4
NEAR_COALESCING = {"coalescing_real_1e-4": 1e-4, "coalescing_real_1e-8": 1e-8,
                   "coalescing_pair_1e-4": -1e-4, "coalescing_pair_1e-8": -1e-8}


CASES = {
    "gaussian": lambda: replace(BASE, pulse=PulseSpec(mode="gaussian", area=1e-3, fwhm=0.3, t0=2.0)),
    # the shortest round trip a reflecting mirror may have is one step
    "tau_one_step": lambda: with_mirror(delay_tau=0.01),
    "tau_one_step_gaussian": lambda: replace(with_mirror(delay_tau=0.01, disable_time=None),
                                             pulse=PulseSpec(mode="gaussian", area=1e-3, fwhm=0.3, t0=2.0)),
    "tau_off_grid": lambda: with_mirror(delay_tau=2.3456),
    "ungated": lambda: with_mirror(disable_time=None),
    "reflectivity_zero": lambda: with_mirror(reflectivity=0.0),
    # R = 0 is no mirror, which runs with any round trip
    "mirror_absent": lambda: with_mirror(reflectivity=0.0, delay_tau=0.0),
    "late_pulse": lambda: replace(with_mirror(disable_time=None), pulse=PulseSpec(area=1e-3, t0=12.0)),
    "pulse_after_gate": lambda: replace(BASE, pulse=PulseSpec(area=1e-3, t0=10.0)),
    "fig2c_segments": fig2c_short,
    "xi_zero": lambda: replace(BASE, sample=SampleSpec(xi=0.0, n_depth=21)),
    "field_off": lambda: replace(BASE, schedule=HyperfineSchedule.constant(0.0)),
    "coalescing_eigenvalues": coalescing,
    # the worst-conditioned complex pair a float delta_b reaches, still one complex mode
    "coalescing_pair_nearest": nearest_pair,
    "extreme_coupling": lambda: replace(BASE, sample=SampleSpec(xi=50.0, n_depth=11), pulse=PulseSpec(area=1e-5, t0=0.0),
                                        schedule=HyperfineSchedule.constant(0.0), t_end=27000.0, dt=3.0,
                                        record_snapshots_at=(12.0, 300.0)),
    "kick_on_segment_start": kick_on_segment_start,
    "free_mode_across_blocks": free_mode_across_blocks,
    "snapshot_on_kick": lambda: replace(BASE, record_snapshots_at=(0.5, math.ceil((0.5 + TAU) / 0.01 - 1e-9) * 0.01)),
    **{name: (lambda gap=gap: coalescing(20.0, gap)) for name, gap in NEAR_COALESCING.items()},
}


def assert_close(got, ref, name):
    scale = np.abs(ref).max()
    if scale == 0.0:
        assert np.all(got == 0.0), name
    else:
        err = np.abs(got - ref).max() / scale
        assert err <= 1e-10, f"{name}: relative max error {err:.2e}"


@functools.lru_cache(maxsize=None)
def case_reference(case):
    """``reference_run`` of one CASES entry, computed once for the tests that read it."""
    return reference_run(validate_scenario(CASES[case]()))


def check_against_reference(case):
    sc = validate_scenario(CASES[case]())
    traces, snapshots = run_scenario(sc)
    fwd, bwd, snaps = case_reference(case)
    # the scheme keeps both fields exactly real (conjugate lines, imaginary kicks,
    # real inputs); the solver marches f31 alone in real coordinates
    assert np.all(fwd.imag == 0.0) and np.all(bwd.imag == 0.0)
    assert np.all(traces.fwd_amp.imag == 0.0) and np.all(traces.bwd_amp.imag == 0.0)
    assert_close(traces.fwd_amp, fwd, "fwd")
    assert_close(traces.bwd_amp, bwd, "bwd")
    assert len(snapshots) == len(snaps)
    for snap, step in zip(snapshots, sorted(snaps)):
        assert snap.t == pytest.approx(step * sc.dt)
        for name, got, ref in (("f31", snap.f31, snaps[step][0, 0]), ("f42", snap.f42, snaps[step][0, 1]),
                               ("b31", snap.b31, snaps[step][1, 0]), ("b42", snap.b42, snaps[step][1, 1])):
            assert_close(got, ref, f"t = {snap.t} {name}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_march_matches_reference_loop(case):
    check_against_reference(case)


@pytest.mark.parametrize("case", sorted(CASES))
def test_march_matches_reference_loop_in_short_blocks(case, monkeypatch):
    # 50-step blocks: every case crosses many block boundaries, complex and float64 ones
    # among them, and kicks and snapshots at whole or half ns (dt 0.01) land on a block's
    # first step
    monkeypatch.setattr(solver, "_BLOCK", 50)
    check_against_reference(case)


@pytest.mark.parametrize("case", sorted(CASES))
def test_reference_keeps_lines_conjugate(case):
    # the invariant the solver's march rests on, checked on the loop that marches
    # both lines of both branches independently: f42 = -conj(f31), b42 = -conj(b31)
    # in every snapshot, and real fields (their sum is the field's source) in the traces
    fwd, bwd, snaps = case_reference(case)
    for name, trace in (("fwd", fwd), ("bwd", bwd)):
        assert np.abs(trace.imag).max() <= 1e-13 * np.abs(trace).max(), name
    for step, x in snaps.items():
        for branch, (line31, line42) in zip("fb", x):
            scale = np.abs(line31).max()
            assert np.abs(line42 + line31.conj()).max() <= 1e-13 * scale, f"step {step} {branch}42"


def test_cases_reach_their_regimes():
    # the coalescing case sits on the exceptional point of the interior map; in
    # the extreme case |mu|^-m overflows within _BLOCK steps, so the run holds
    # several blocks cut short to keep |mu|^(+-m) within [1e-8, 1e8]
    sc = validate_scenario(CASES["coalescing_eigenvalues"]())
    mu = np.linalg.eigvals(node_map(sc, sc.schedule.segments[0].delta_b))
    assert abs(mu[0] - mu[1]) < 1e-6 * abs(mu[0])
    # the cases beside it sit on their side of the exceptional point, at their gap:
    # a complex pair is marched as one complex mode, real eigenvalues in the
    # real Schur basis
    for name, gap in NEAR_COALESCING.items():
        sc = validate_scenario(CASES[name]())
        level = sc.schedule.segments[0].delta_b
        assert eigen_gap(sc, level) == pytest.approx(gap, rel=1e-3), name
        mu = np.linalg.eigvals(node_map(sc, level))
        if gap > 0.0:
            assert np.all(np.abs(mu.imag) < 1e-3 * np.abs(mu[0] - mu[1])), name
        else:
            assert abs(mu[0] - mu[1].conjugate()) < 1e-3 * abs(mu[0] - mu[1]), name
    sc = validate_scenario(CASES["coalescing_pair_nearest"]())
    assert -1e-10 < eigen_gap(sc, sc.schedule.segments[0].delta_b) < 0.0
    sc = validate_scenario(CASES["extreme_coupling"]())
    rate = np.abs(np.log(np.abs(np.linalg.eigvals(node_map(sc, 0.0))))).max()
    assert math.log(np.finfo(float).max) / rate < solver._BLOCK
    assert 2 * math.log(1e8) / rate < sc.n_steps
    # the field goes off with Re f31 a large share of the state, for more than two blocks
    sc = validate_scenario(CASES["free_mode_across_blocks"]())
    t_off = sc.schedule.segments[1].t_start
    x = case_reference("free_mode_across_blocks")[2][round(t_off / sc.dt)]
    assert np.abs(x[:, 0].real).max() > 0.5 * np.abs(x[:, 0]).max()
    rate = np.abs(np.log(np.abs(np.linalg.eigvals(node_map(sc, 0.0))))).max()
    assert 2 * math.log(1e8) / rate < (sc.t_end - t_off) / sc.dt


@pytest.fixture
def scanned(monkeypatch):
    """The dtype of every prefix sum the march makes, in order."""
    dtypes = []
    monkeypatch.setattr(solver, "_scan", lambda z, *args: dtypes.append(z.dtype) or np.add.accumulate(z, *args))
    return dtypes


def test_march_scans_only_driven_or_read_coordinates(scanned):
    # one block per run, both branches: with the field off Re f31 takes no input and no
    # kick and hands nothing on, so each node scans Im f31 alone; a complex pair is one
    # complex scan, and real eigenvalues with the field on take two float64 scans
    # (node 0, with no self term, has a complex pair there)
    for case, node0, interior in (("field_off", [float], [float]), ("gaussian", [complex], [complex]),
                                  ("coalescing_real_1e-4", [complex], [float, float])):
        sc = validate_scenario(CASES[case]())
        scanned.clear()
        run_scenario(sc)
        assert scanned == 2 * (node0 + interior * (sc.sample.n_depth - 1)), case


def test_time_blocks_span_block_steps(scanned):
    # a 12,001-step field-off run is one block (one float64 scan per node and branch);
    # a complex segment of _BLOCK + 1 steps is two
    for cfg, dtype, blocks in ((replace(BASE, schedule=HyperfineSchedule.constant(0.0), t_end=120.0), float, 1),
                               (replace(BASE, t_end=solver._BLOCK * BASE.dt), complex, 2)):
        sc = validate_scenario(cfg)
        scanned.clear()
        run_scenario(sc)
        assert scanned == [dtype] * (blocks * 2 * sc.sample.n_depth), (sc.n_steps + 1, dtype)


@pytest.mark.parametrize("present", [False, True])
def test_first_non_finite_time_matches_reference(present):
    # a representable step map whose state overflows a few steps after the prompt
    mirror = BASE.mirror if present else replace(BASE.mirror, reflectivity=0.0)
    sc = validate_scenario(replace(BASE, sample=SampleSpec(xi=1e60, n_depth=41), pulse=PulseSpec(area=1e-3, t0=5.0),
                                   mirror=mirror, t_end=8.0, record_snapshots_at=()))
    with np.errstate(over="ignore", invalid="ignore"):
        fwd, bwd, _ = reference_run(sc)
        bad = np.flatnonzero(~(np.isfinite(fwd) & np.isfinite(bwd)))[0]
        with pytest.raises(NumericalError, match=f"t = {bad * sc.dt:.4f} ns"):
            run_scenario(sc)
