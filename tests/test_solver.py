import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nfscatter import solver
from nfscatter.model import (CLEBSCH_A, DEFAULT_GAMMA, DEPTH_NODES, HyperfineSchedule, MirrorSpec, PulseSpec,
                             SampleSpec, ScenarioConfig, ScenarioError, validate_scenario)
from nfscatter.presets import preset_scenario
from nfscatter.solver import gaussian_input, run_scenario
from reference_oracles import OracleCurve, constant_field_forward, relative_l2
from test_march_reference import expm

GAMMA = 1.0 / 141.1
DB30 = 30.0 * GAMMA
A = math.sqrt(2.0 / 3.0)
KICK = 0.25j * A * 1e-3  # coherence deposited by a prompt of area 1e-3


def small_scenario(**kwargs):
    base = dict(
        sample=SampleSpec(xi=0.5, n_depth=41),
        pulse=PulseSpec(mode="impulsive", area=1e-3),
        mirror=MirrorSpec(reflectivity=0.0, delay_tau=0.0),
        schedule=HyperfineSchedule.constant(DB30),
        t_end=20.0,
        dt=0.01,
    )
    base.update(kwargs)
    return validate_scenario(ScenarioConfig(**base))


def replace_snapshot(sc, times):
    cfg = ScenarioConfig(
        sample=sc.sample, pulse=sc.pulse, mirror=sc.mirror, schedule=sc.schedule,
        t_end=sc.t_end, dt=sc.dt, record_snapshots_at=tuple(times),
    )
    return validate_scenario(cfg)


def step_of(sc, t):
    return round(t / sc.dt)


class TestInitState:
    def test_all_zero(self):
        # before the pulse arrives every coherence and both fields are zero
        sc = replace_snapshot(small_scenario(sample=SampleSpec(xi=0.5, n_depth=201),
                                             pulse=PulseSpec(area=1e-3, t0=2.0)), (0.0, 1.99))
        traces, snaps = run_scenario(sc)
        for snap in snaps:
            for arr in (snap.f31, snap.f42, snap.b31, snap.b42):
                assert arr.shape == (201,)
                assert np.all(arr == 0.0)
        assert snaps[0].t == 0.0
        before = traces.t_grid < 2.0
        assert np.all(traces.fwd_amp[before] == 0.0) and np.all(traces.bwd_amp[before] == 0.0)

    def test_custom_depth(self):
        sc = replace_snapshot(small_scenario(sample=SampleSpec(xi=0.5, n_depth=200)), (1.0,))
        _, snaps = run_scenario(sc)
        assert all(arr.shape == (200,) for arr in (snaps[0].f31, snaps[0].b42))

    def test_deterministic(self):
        sc = replace_snapshot(small_scenario(), (3.0,))
        (ta, sa), (tb, sb) = run_scenario(sc), run_scenario(sc)
        assert np.array_equal(ta.fwd_amp, tb.fwd_amp) and np.array_equal(ta.bwd_amp, tb.bwd_amp)
        assert np.array_equal(sa[0].f31, sb[0].f31) and sa[0].t == sb[0].t


class TestApplyImpulse:
    # a snapshot taken at a kick step shows the coherence right after the kick
    def test_forward_kick(self):
        sc = replace_snapshot(small_scenario(pulse=PulseSpec(area=1e-3, t0=1.0)), (1.0,))
        _, snaps = run_scenario(sc)
        assert np.allclose(snaps[0].f31, KICK) and np.allclose(snaps[0].f42, KICK)
        assert np.all(snaps[0].b31 == 0.0)

    def test_zero_area_noop(self):
        # the reflected prompt has area -sqrt(R)*theta: at R = 0 it deposits nothing
        mirror = MirrorSpec(reflectivity=0.0, delay_tau=math.pi / DB30)
        sc = replace_snapshot(small_scenario(mirror=mirror), (mirror.delay_tau + 0.01, 19.0))
        _, snaps = run_scenario(sc)
        for snap in snaps:
            assert np.all(snap.b31 == 0.0) and np.all(snap.b42 == 0.0)

    def test_backward_reflected_kick(self):
        # the reflected prompt lands at exactly t0 + tau, between two steps: one float before
        # it the backward branch is still empty
        mirror = MirrorSpec(reflectivity=0.99, delay_tau=math.pi / DB30, disable_time=7.39)
        sc = small_scenario(sample=SampleSpec(xi=0.0, n_depth=41), mirror=mirror)
        assert sc.tau / sc.dt % 1.0 > 0.1
        _, snaps = run_scenario(replace_snapshot(sc, (math.nextafter(sc.tau, 0.0), sc.tau)))
        assert np.all(snaps[0].b31 == 0.0)
        expected = -0.25j * A * math.sqrt(0.99) * 1e-3
        assert np.allclose(snaps[1].b31, expected, rtol=1e-12, atol=0.0)
        assert np.allclose(snaps[1].b42, snaps[1].b31)


class TestBlochStep:
    # with xi = 0 there is no radiated field, so a kicked coherence evolves freely
    def test_pure_decay(self):
        sc = small_scenario(sample=SampleSpec(xi=0.0, n_depth=11),
                            schedule=HyperfineSchedule.constant(0.0))
        _, snaps = run_scenario(replace_snapshot(sc, (0.5, 7.0, 19.5)))
        for snap in snaps:
            assert np.allclose(snap.f31, KICK * math.exp(-0.5 * GAMMA * snap.t), rtol=1e-9, atol=0.0)

    def test_decay_and_precession(self):
        sc = small_scenario(sample=SampleSpec(xi=0.0, n_depth=11))
        _, snaps = run_scenario(replace_snapshot(sc, (0.25, 3.0, 11.0)))
        for snap in snaps:
            decay = math.exp(-0.5 * GAMMA * snap.t)
            phase = cmath.exp(-1j * DB30 * snap.t)
            assert np.allclose(snap.f31, KICK * decay * phase, rtol=1e-9, atol=0.0)
            assert np.allclose(snap.f42, KICK * decay / phase, rtol=1e-9, atol=0.0)

    def test_zero_field_closed_form_over_many_steps(self):
        # xi = 0 disables the radiated field entirely; the coherence sum must
        # follow exp(-gamma t/2) cos(delta_b t) of the bare kick
        sc = small_scenario(sample=SampleSpec(xi=0.0, n_depth=11))
        traces, snaps = run_scenario(replace_snapshot(sc, (5.0, 17.0)))
        for snap in snaps:
            s = (snap.f31 + snap.f42)[0]
            expected = 1j * 0.5 * A * 1e-3 * math.exp(-0.5 * GAMMA * snap.t) * math.cos(DB30 * snap.t)
            assert s == pytest.approx(expected, rel=1e-9)


class TestFieldSweep:
    def test_zero_coherence_keeps_boundaries(self):
        # xi = 0: the field equals its boundary value, the drive at the front face
        sc = small_scenario(sample=SampleSpec(xi=0.0, n_depth=41),
                            pulse=PulseSpec(mode="gaussian", area=1e-3, fwhm=0.3, t0=2.0))
        traces, _ = run_scenario(sc)
        drive = gaussian_input(traces.t_grid, sc.pulse)
        assert np.allclose(traces.fwd_amp, drive, rtol=1e-12, atol=0.0)
        assert np.all(traces.bwd_amp == 0.0)

    def test_constant_source(self):
        # right after the kick the coherence sum is uniform, so the trapezoid
        # sweep is exact: Omega_F(L) = i*eta_l*a*(f31 + f42), Omega_F(0) = 0
        sc = small_scenario()
        traces, _ = run_scenario(sc)
        i0 = step_of(sc, sc.pulse.t0)
        assert traces.fwd_amp[i0] == pytest.approx(1j * sc.eta_l * A * 2.0 * KICK, rel=1e-12)
        assert np.all(traces.fwd_amp[:i0] == 0.0)

    def test_impulse_emits_first_order_amplitude(self):
        sc = small_scenario(sample=SampleSpec(xi=0.01, n_depth=201))
        traces, _ = run_scenario(sc)
        i0 = step_of(sc, sc.pulse.t0)
        assert traces.fwd_amp[i0] == pytest.approx(-2.0 * 0.01 * GAMMA * 1e-3, rel=1e-12)


class TestMirrorFeedback:
    def test_no_mirror(self):
        mirror = MirrorSpec(reflectivity=0.0, delay_tau=1.0)
        traces, _ = run_scenario(small_scenario(mirror=mirror))
        assert np.all(traces.bwd_amp == 0.0)
        assert np.any(traces.fwd_amp != 0.0)

    def test_prompt_admitted_and_delayed_rejected(self):
        # xi = 0 and a resolved drive: the back face sees the drive itself.
        # The prompt meets the mirror at t0 + tau/2 < t_d and comes back at
        # t0 + tau; its tail, leaving once t_exit + tau/2 > t_d, is not reflected
        pulse = PulseSpec(mode="gaussian", area=1e-3, fwhm=0.3, t0=1.0)
        mirror = MirrorSpec(reflectivity=0.99, delay_tau=14.78, disable_time=1.0 + 7.39 + 0.25)
        sc = small_scenario(sample=SampleSpec(xi=0.0, n_depth=41), pulse=pulse, mirror=mirror)
        traces, _ = run_scenario(sc)
        t_exit = traces.t_grid - sc.tau
        i0 = step_of(sc, pulse.t0)
        peak = -math.sqrt(0.99) * traces.fwd_amp[i0]
        assert traces.bwd_amp[i0 + step_of(sc, sc.tau)] == pytest.approx(peak, rel=1e-9)
        late = t_exit + 0.5 * sc.tau > mirror.disable_time
        tail = np.interp(t_exit[late], traces.t_grid, traces.fwd_amp.real)
        assert np.all(tail[: 10] > 0.0)  # delayed light does reach the mirror ...
        assert np.all(traces.bwd_amp[late] == 0.0)  # ... and is rejected

    def test_underrun_is_zero(self):
        # nothing has come back from the mirror before one round trip
        mirror = MirrorSpec(reflectivity=0.99, delay_tau=5.0)
        traces, _ = run_scenario(small_scenario(mirror=mirror))
        assert np.all(traces.bwd_amp[traces.t_grid < 5.0 - 1e-9] == 0.0)
        assert np.all(traces.bwd_amp[traces.t_grid >= 5.0] != 0.0)


class TestDelayLine:
    @pytest.mark.parametrize("tau, disable_time", [
        (2.3456, 6.0),        # round trip off the step grid, gated
        (0.01, 6.0),          # the shortest round trip allowed: one step
        (2.3456, None),       # never disabled
    ])
    def test_backward_boundary_is_delayed_forward(self, tau, disable_time):
        # xi = 0: fwd_amp is the drive and bwd_amp the mirror boundary value,
        # -sqrt(R) * fwd_amp(t - tau) interpolated on the grid while the gate is open
        pulse = PulseSpec(mode="gaussian", area=1e-3, fwhm=1.5, t0=4.0)
        mirror = MirrorSpec(reflectivity=0.64, delay_tau=tau, disable_time=disable_time)
        sc = small_scenario(sample=SampleSpec(xi=0.0, n_depth=11), pulse=pulse, mirror=mirror)
        traces, _ = run_scenario(sc)
        t = traces.t_grid
        assert np.allclose(traces.fwd_amp, gaussian_input(t, pulse), rtol=1e-12, atol=0.0)

        t_exit = t - tau
        gate = (t_exit >= 0.0) & (True if disable_time is None else t_exit + 0.5 * tau <= disable_time)
        delayed = (np.interp(t_exit, t, traces.fwd_amp.real)
                   + 1j * np.interp(t_exit, t, traces.fwd_amp.imag))
        expected = np.where(gate, -0.8 * delayed, 0.0)
        scale = np.abs(traces.fwd_amp).max()
        np.testing.assert_allclose(traces.bwd_amp, expected, rtol=1e-12, atol=1e-12 * scale)
        assert np.all(traces.bwd_amp[~gate] == 0.0)
        if disable_time is not None:
            assert np.abs(delayed[~gate & (t_exit >= 0.0)]).max() > 1e-3 * scale

    def test_forward_branch_ignores_mirror(self):
        # nothing reflects at the front face, so the forward trace is the same
        # with the mirror reflecting, absent (R = 0, tau = 0) or at R = 0, to the last bit
        base = replace(preset_scenario("fig2b"), t_end=30.0, record_snapshots_at=())
        runs = {
            "mirror": base,
            "absent": replace(base, mirror=replace(base.mirror, reflectivity=0.0, delay_tau=0.0)),
            "R0": replace(base, mirror=replace(base.mirror, reflectivity=0.0)),
        }
        traces = {name: run_scenario(cfg)[0] for name, cfg in runs.items()}
        assert np.any(traces["mirror"].bwd_amp != 0.0)
        for name in ("absent", "R0"):
            assert np.array_equal(traces[name].fwd_amp, traces["mirror"].fwd_amp), name
            assert np.all(traces[name].bwd_amp == 0.0), name


class TestExactEventTimes:
    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c"])
    def test_presets_do_not_depend_on_dt(self, request, name):
        # every event acts at its exact time, so dt samples only the output: the preset at the
        # default dt 0.02 is the same code at dt 0.004 on every 5th row, and so are the
        # 60 ns snapshots
        sc, traces, snaps = request.getfixturevalue(f"{name}_run")
        assert sc.dt == 0.02
        fine, fine_snaps = run_scenario(replace(preset_scenario(name), dt=0.004))
        assert np.allclose(fine.t_grid[::5], traces.t_grid, rtol=0.0, atol=1e-12)
        for got, ref in ((traces.fwd_amp, fine.fwd_amp[::5]), (traces.bwd_amp, fine.bwd_amp[::5])):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
        assert [s.t for s in snaps] == [s.t for s in fine_snaps] == ([60.0] if name != "fig2a" else [])
        for snap, ref in zip(snaps, fine_snaps):
            for got, want in ((snap.f31, ref.f31), (snap.b31, ref.b31)):
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_zero_window_returns_the_prompt_alone(self):
        # with the gate closing as the prompt meets the mirror (disable_time = t0 + tau/2) the
        # mirror returns the prompt and nothing after it: fig2b's backward trace up to the
        # switch-off is -sqrt(R) times the constant-field oracle one round trip late.  tau =
        # 14.78 ns is 739 steps, so those rows sit on the oracle's uniform grid from 0
        cfg = preset_scenario("fig2b")
        tau = 14.78
        sc = validate_scenario(replace(cfg, mirror=replace(cfg.mirror, delay_tau=tau,
                                                           disable_time=cfg.pulse.t0 + 0.5 * tau)))
        traces, _ = run_scenario(sc)
        t_off = sc.schedule.segments[1].t_start
        back = traces.t_grid >= sc.pulse.t0 + tau - 1e-9
        rows = back & (traces.t_grid < t_off)
        oracle = constant_field_forward(np.arange(rows.sum()) * sc.dt, sc.sample.xi, sc.pulse.area, GAMMA, DB30)
        want = -math.sqrt(sc.mirror.reflectivity) * oracle
        assert np.abs(traces.bwd_amp[rows] - want).max() <= 1e-9 * np.abs(want).max()
        assert np.all(traces.bwd_amp[~back] == 0.0)


class TestRunScenario:
    def test_backward_onset_delay(self, fig2a_run):
        sc, traces, _ = fig2a_run
        fa, ba = np.abs(traces.fwd_amp), np.abs(traces.bwd_amp)
        on_f = traces.t_grid[np.argmax(fa > 1e-9 * fa.max())]
        on_b = traces.t_grid[np.argmax(ba > 1e-9 * ba.max())]
        assert on_b - on_f == pytest.approx(math.pi / DB30, abs=0.1)

    def test_no_mirror_means_no_backward(self, single_pass_run):
        _, traces, _ = single_pass_run
        assert np.all(traces.bwd_amp == 0.0)
        assert not traces.mirror_in_beam.any()
        # quantum beat present in the forward intensity
        i_fwd = np.abs(traces.fwd_amp) ** 2
        assert i_fwd.max() > 100 * i_fwd[np.argmin(np.abs(traces.t_grid - 0.5 * math.pi / DB30))]

    def test_detected_equals_raw_when_mirror_gone(self, fig2a_run):
        _, traces, _ = fig2a_run
        off = ~traces.mirror_in_beam
        assert np.array_equal(traces.fwd_detected[off], traces.fwd_amp[off])

    def test_metadata_hash(self, fig2a_run):
        sc, traces, _ = fig2a_run
        assert traces.metadata["config_hash"] == sc.config_hash

    def test_numerical_guard_reports_time(self):
        # an enormous thickness, which once overflowed the first field sweep, is past the
        # collocation's reach: validation rejects it by name before anything runs
        with pytest.raises(ScenarioError, match="sample.xi"):
            small_scenario(sample=SampleSpec(xi=1e300, n_depth=41), pulse=PulseSpec(area=1e-3))

    def test_numerical_guard_reports_late_time(self):
        # the same thickness with the prompt at t0 = 5 ns: rejected by validation as well
        with pytest.raises(ScenarioError, match="sample.xi"):
            small_scenario(sample=SampleSpec(xi=1e300, n_depth=41), pulse=PulseSpec(area=1e-3, t0=5.0))


class TestLinearRegimeMonitor:
    """The RuntimeWarning above LINEAR_FIELD_WARN*gamma counts only the field the slab adds."""

    @staticmethod
    def fig2b_short(xi, pulse=None):
        cfg = preset_scenario("fig2b")
        return validate_scenario(replace(cfg, t_end=40.0, record_snapshots_at=(),
                                         sample=replace(cfg.sample, xi=xi), pulse=pulse or cfg.pulse))

    def test_large_input_pulse_is_not_counted(self):
        # the gaussian input peaks at 0.44 gamma, but the slab adds far less
        sc = self.fig2b_short(1.0, PulseSpec(mode="gaussian", area=1e-3, fwhm=0.3, t0=2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces, _ = run_scenario(sc)
        assert np.abs(traces.fwd_amp).max() > 0.4 * GAMMA

    def test_thick_slab_warns(self):
        # impulsive at xi = 100: the scattered peak is 0.2 gamma
        with pytest.warns(RuntimeWarning, match="linear-regime"):
            run_scenario(self.fig2b_short(100.0))

    def test_below_threshold_is_quiet(self):
        # impulsive at xi = 40: the scattered peak is 0.08 gamma
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_scenario(self.fig2b_short(40.0))


class TestGaussianInput:
    def test_area_normalization(self):
        pulse = PulseSpec(mode="gaussian", area=1e-3, fwhm=0.3, t0=2.0)
        t = np.linspace(0.0, 4.0, 40001)
        integral = np.trapezoid(gaussian_input(t, pulse), t)
        assert integral == pytest.approx(1e-3, rel=1e-6)

    def test_far_tail_vanishes(self):
        pulse = PulseSpec(mode="gaussian", area=1e-3, fwhm=0.1, t0=1.0)
        assert gaussian_input(5.0, pulse) < 1e-30

    def test_impulsive_limit(self):
        # resolved pulse converges to the impulsive-mode traces as fwhm -> 0
        tau = math.pi / DB30
        fwhm = 0.05 / DB30
        sigma = fwhm / (2 * math.sqrt(2 * math.log(2)))
        t0 = 1.0
        t_d = 0.5 * tau + t0 + 6 * sigma

        def scenario(mode, fwhm_v):
            return validate_scenario(ScenarioConfig(
                sample=SampleSpec(xi=1.0, n_depth=201),
                pulse=PulseSpec(mode=mode, area=1e-3, fwhm=fwhm_v, t0=t0),
                mirror=MirrorSpec(reflectivity=0.99,
                                  delay_tau=tau, disable_time=t_d),
                schedule=HyperfineSchedule.constant(DB30),
                t_end=60.0,
                dt=0.005,
            ))

        ref, _ = run_scenario(scenario("impulsive", None))
        errs = []
        for f in (fwhm, 0.5 * fwhm):
            got, _ = run_scenario(scenario("gaussian", f))
            s = f / (2 * math.sqrt(2 * math.log(2)))
            err_f = relative_l2(
                OracleCurve(got.t_grid, got.fwd_amp),
                OracleCurve(ref.t_grid, ref.fwd_amp),
                (t0 + 6 * s + 0.1, 60.0),
            )
            err_b = relative_l2(
                OracleCurve(got.t_grid, got.bwd_amp),
                OracleCurve(ref.t_grid, ref.bwd_amp),
                (t0 + tau + 6 * s + 0.1, 60.0),
            )
            assert err_f < 0.01 and err_b < 0.01
            errs.append(err_f)
        assert errs[1] < errs[0]  # shrinking fwhm converges

    def test_backward_kick_matches_channel_three(self):
        # the reflected pulse must deposit the same backward coherence as the
        # analytic -sqrt(R)*theta kick of the impulsive mode
        tau = math.pi / DB30
        fwhm = 0.02 / DB30
        sigma = fwhm / (2 * math.sqrt(2 * math.log(2)))
        t0 = 0.5
        t_d = 0.5 * tau + t0 + 6 * sigma
        snap_t = 18.0

        def scenario(mode, fwhm_v):
            return validate_scenario(ScenarioConfig(
                sample=SampleSpec(xi=0.05, n_depth=101),
                pulse=PulseSpec(mode=mode, area=1e-3, fwhm=fwhm_v, t0=t0),
                mirror=MirrorSpec(reflectivity=0.99,
                                  delay_tau=tau, disable_time=t_d),
                schedule=HyperfineSchedule.constant(DB30),
                t_end=20.0,
                dt=0.005,
                record_snapshots_at=(snap_t,),
            ))

        _, snaps_imp = run_scenario(scenario("impulsive", None))
        _, snaps_g = run_scenario(scenario("gaussian", fwhm))
        b_imp = snaps_imp[0].b31
        b_g = snaps_g[0].b31
        assert np.linalg.norm(b_g - b_imp) / np.linalg.norm(b_imp) < 0.01


def test_runs_where_long_double_is_double(monkeypatch):
    # the propagator is float64 throughout: where numpy's long double is float64 (Windows,
    # arm64 macOS) fig2b runs, and gives the same traces and snapshots to the last bit
    ref, ref_snaps = run_scenario(preset_scenario("fig2b"))
    finfo = np.finfo
    monkeypatch.setattr(np, "finfo", lambda t: finfo(np.float64 if t is np.longdouble else t))
    got, got_snaps = run_scenario(preset_scenario("fig2b"))
    assert np.array_equal(got.fwd_amp, ref.fwd_amp) and np.array_equal(got.bwd_amp, ref.bwd_amp)
    assert np.array_equal(got_snaps[0].f31, ref_snaps[0].f31) and np.array_equal(got_snaps[0].b31, ref_snaps[0].b31)


def test_propagator_built_once_per_splitting(monkeypatch):
    # fig2b has three schedule segments at two splittings (field on, off, on again), and a
    # reflecting mirror: one propagator per splitting, shared by both branches.  Its feedback
    # window (0.002 ns) holds no output row, so no drive tables are built; a gaussian pulse's
    # window builds them for the one splitting it falls in
    built, passed = [], []
    propagator, solve = solver._Propagator, solver._solve
    monkeypatch.setattr(solver, "_Propagator", lambda *args: built.append(propagator(*args)) or built[-1])
    monkeypatch.setattr(solver, "_solve", lambda props, *args: passed.append(props) or solve(props, *args))
    run_scenario(preset_scenario("fig2b"))
    assert len(built) == 2 and len(passed) == 2 and passed[0] is passed[1]
    assert sorted(passed[0]) == [0.0, pytest.approx(DB30)]
    assert sorted(map(id, passed[0].values())) == sorted(map(id, built))
    assert all(p.table is not None and p.drive is None for p in built)

    built.clear()
    run_scenario(replace(preset_scenario("fig2b"), pulse=PulseSpec(mode="gaussian", area=1e-3, fwhm=0.5, t0=10.0)))
    assert [p.drive is not None for p in built] == [p is passed[-1][DB30] for p in built]


@pytest.mark.parametrize("delta_b", [0.0, DB30])
@pytest.mark.parametrize("xi, n", DEPTH_NODES)
def test_power_table_matches_direct_exp(xi, n, delta_b):
    # the propagator's e^(M h) within a step (its Taylor polynomial) and its powers Phi^m
    # (products of the squares of Phi) against the reference loops' own scaling-and-squaring
    # exponential, on each node-count row at its largest xi, with the field off and on, at dt
    # 0.02; the reference's squarings make its own error grow with m: measured worst 1.3e-17
    # within a step and 2.0e-13 at m = 1000
    eta_l = 6.0 * DEFAULT_GAMMA * xi
    prop = solver._Propagator(n, 0.5 * eta_l * CLEBSCH_A ** 2, delta_b, 0.02, -2.0 * eta_l * CLEBSCH_A)
    m, eye = prop.taylor[1], np.eye(2 * n)
    for h in (-0.005, 0.0137, 0.02):
        assert np.abs(prop.flow(eye, h) - expm(m * h)).max() <= 1e-16, h
    for steps in (1, 15, 16, 17, 50, 255, 256, 1000):
        ref = expm(m * (steps * 0.02))
        assert np.abs(prop.power(eye, steps) - ref).max() <= 5e-16 * steps * np.abs(ref).max(), steps


@pytest.mark.parametrize("delta_b", [0.0, DB30])
@pytest.mark.parametrize("xi, n", DEPTH_NODES)
def test_free_stretch_matches_direct_sum(xi, n, delta_b):
    # the row writer on a stretch shorter than, as long as and longer than a table row, from
    # the state a kick of area 1 leaves, against the read-out of the direct march y <- Phi y,
    # on each node-count row at its largest xi, with the field off and on; the state it
    # returns is the march's at the last row.  Measured worst: 6.4e-14 of the peak
    eta_l = 6.0 * DEFAULT_GAMMA * xi
    prop = solver._Propagator(n, 0.5 * eta_l * CLEBSCH_A ** 2, delta_b, 0.02, -2.0 * eta_l * CLEBSCH_A)
    y = np.zeros(2 * n)
    y[n] = 0.25 * CLEBSCH_A
    for steps in (1, 17, 255, 256, 257, 1000):
        trace = np.zeros(steps)
        last = prop.rows(y, trace)
        march = [y]
        for _ in range(steps - 1):
            march.append(prop.squares[0] @ march[-1])
        ref = prop.read * np.array(march)[:, n]
        assert np.abs(trace - ref).max() <= 2e-13 * np.abs(ref).max(), steps
        assert np.abs(last - march[-1]).max() <= 2e-13 * np.abs(march[-1]).max(), steps
