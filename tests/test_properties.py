import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nfscatter import (
    MirrorSpec,
    PulseSpec,
    SampleSpec,
    ScenarioConfig,
    Segment,
    derived_timings,
    envelope_attenuation,
    run_scenario,
    validate_scenario,
)
from nfscatter.model import HyperfineSchedule
from nfscatter.solver import _stretches

GAMMA = 1.0 / 141.1
DB30 = 30.0 * GAMMA


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_timing_ratios_exact(delta_b):
    t = derived_timings(delta_b)
    assert t.tau == pytest.approx(2.0 * t.t_invert, rel=1e-12)
    assert 3.0 * t.tau == pytest.approx(2.0 * t.t_off, rel=1e-12)


LEVELS = [DB30, -DB30, 2 * DB30, 0.0]


@st.composite
def segment_lists(draw):
    """Up to four segments after the field's opening DB30, each at its own 0.01 ns tick in [0.5, 18]."""
    n = draw(st.integers(min_value=0, max_value=4))
    ticks = sorted(draw(st.lists(
        st.integers(min_value=50, max_value=1800), min_size=n, max_size=n, unique=True)))
    return [Segment(tick / 100.0, draw(st.sampled_from(LEVELS))) for tick in ticks]


@given(st.lists(st.floats(min_value=-5.0, max_value=25.0), min_size=1, max_size=6, unique=True),
       st.lists(st.sampled_from(LEVELS), min_size=6, max_size=6),
       st.lists(st.floats(min_value=-1.0, max_value=21.0), max_size=3))
def test_segment_steps_give_every_step_one_level(times, levels, events):
    # segments may start at any time, before 0 and past t_end = 20 ns, and the events
    # (kicks, window ends, snapshots) too: the run is cut at each at its exact time
    times = sorted(times)
    times[0] = min(times[0], 0.0)
    sc = validate_scenario(ScenarioConfig(
        sample=SampleSpec(xi=0.3, n_depth=11),
        pulse=PulseSpec(),
        mirror=MirrorSpec(reflectivity=0.0, delay_tau=0.0),
        schedule=HyperfineSchedule(tuple(Segment(t, lvl) for t, lvl in zip(times, levels))),
        t_end=20.0,
        dt=0.02,
    ))
    segs = sc.schedule.segments
    stretches = list(_stretches(sc, events))
    # the stretches tile [0, t_end], one starting at every cut
    assert stretches[0][0] == 0.0 and stretches[-1][1] == sc.t_end
    assert all(s[1] == nxt[0] for s, nxt in zip(stretches, stretches[1:]))
    assert [s[0] for s in stretches] == sorted({t for t in (0.0, *times[1:], *events) if 0.0 <= t <= sc.t_end})
    # each runs at the level of the last segment starting at or before it, and no segment
    # starts inside it; the rows go through the stretches in order, each in the stretch
    # that holds its time, a time within 1e-9 of a step below a cut counting as at it
    rows = []
    for k, (a, b, level, first, stop) in enumerate(stretches):
        assert level == [s.delta_b for s in segs if s.t_start <= a][-1]
        assert not any(a < s.t_start < b for s in segs)
        assert all(a / sc.dt - 1e-9 <= i for i in range(first, stop))
        assert k == len(stretches) - 1 or all(i < b / sc.dt - 1e-9 for i in range(first, stop))
        rows += range(first, stop)
    assert rows == list(range(sc.n_steps + 1))


@given(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.01, max_value=5.0),
       st.floats(min_value=0.01, max_value=5.0))
def test_envelope_attenuation_monotone(xi, db_small, db_extra):
    assert envelope_attenuation(xi, GAMMA, db_small) >= envelope_attenuation(xi + 0.1, GAMMA, db_small)
    assert envelope_attenuation(xi, GAMMA, db_small + db_extra) >= envelope_attenuation(xi, GAMMA, db_small)


def mini_scenario(segments, reflectivity=0.8, area=1e-3, t_end=16.0):
    tau = 3.0
    return validate_scenario(ScenarioConfig(
        sample=SampleSpec(xi=0.3, n_depth=31),
        pulse=PulseSpec(mode="impulsive", area=area),
        mirror=MirrorSpec(reflectivity=reflectivity,
                          delay_tau=tau, disable_time=2.0),
        schedule=HyperfineSchedule((Segment(0.0, DB30), *segments)),
        t_end=t_end,
        dt=0.02,
        record_snapshots_at=(7.0, 15.0),
    ))


@settings(max_examples=8, deadline=None)
@given(segment_lists())
def test_realness_under_arbitrary_schedules(segments):
    # real pulse area and the real mirror coefficient keep the fields real
    # and the coherence sums on the imaginary axis (f42 = -conj(f31))
    traces, snaps = run_scenario(mini_scenario(segments))
    scale_f = np.max(np.abs(traces.fwd_amp)) or 1.0
    scale_b = np.max(np.abs(traces.bwd_amp)) or 1.0
    assert np.max(np.abs(traces.fwd_amp.imag)) <= 1e-9 * scale_f
    assert np.max(np.abs(traces.bwd_amp.imag)) <= 1e-9 * scale_b
    for snap in snaps:
        assert np.allclose(snap.f42, -np.conj(snap.f31), atol=1e-12)
        assert np.allclose(snap.b42, -np.conj(snap.b31), atol=1e-12)
        s = snap.f31 + snap.f42
        if np.max(np.abs(s)) > 0:
            assert np.max(np.abs(s.real)) <= 1e-9 * np.max(np.abs(s))


@settings(max_examples=6, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0))
def test_linearity_in_pulse_area(scale):
    assume(abs(scale - 1.0) > 1e-3)
    base, _ = run_scenario(mini_scenario([], area=1e-4))
    scaled, _ = run_scenario(mini_scenario([], area=scale * 1e-4))
    ref = np.max(np.abs(base.fwd_amp))
    assert np.max(np.abs(scaled.fwd_amp - scale * base.fwd_amp)) <= 1e-12 * scale * ref
    ref_b = np.max(np.abs(base.bwd_amp))
    assert np.max(np.abs(scaled.bwd_amp - scale * base.bwd_amp)) <= 1e-12 * scale * max(ref_b, ref)


def test_causality_and_zero_reflectivity():
    traces, _ = run_scenario(mini_scenario([]))
    tau = 3.0
    assert np.all(traces.bwd_amp[traces.t_grid < tau] == 0.0)

    silent = validate_scenario(ScenarioConfig(
        sample=SampleSpec(xi=0.3, n_depth=31),
        pulse=PulseSpec(mode="impulsive", area=1e-3),
        mirror=MirrorSpec(reflectivity=0.0, delay_tau=3.0, disable_time=2.0),
        schedule=HyperfineSchedule.constant(DB30),
        t_end=16.0,
        dt=0.02,
    ))
    traces0, _ = run_scenario(silent)
    assert np.all(traces0.bwd_amp == 0.0)


def test_storage_freeze_decay_thin_sample():
    # entered at a beat node, the frozen coherence sum decays as exp(-G t/2);
    # collective redistribution is O(xi) and negligible for a thin slab
    t_off = derived_timings(DB30).t_off
    sc = validate_scenario(ScenarioConfig(
        sample=SampleSpec(xi=0.01, n_depth=41),
        pulse=PulseSpec(mode="impulsive", area=1e-3),
        mirror=MirrorSpec(reflectivity=0.0, delay_tau=0.0),
        schedule=HyperfineSchedule((Segment(0.0, DB30), Segment(t_off, 0.0))),
        t_end=90.0,
        dt=0.005,
        record_snapshots_at=(25.0, 85.0),
    ))
    traces, snaps = run_scenario(sc)
    early, late = snaps
    expected = np.abs(early.f31 + early.f42) * math.exp(-0.5 * GAMMA * (late.t - early.t))
    got = np.abs(late.f31 + late.f42)
    assert np.max(np.abs(got - expected)) <= 0.01 * np.max(expected)
    # emitted intensity in the window is bounded by the frozen source
    in_window = (traces.t_grid >= 25.0) & (traces.t_grid <= 85.0)
    frozen_bound = (sc.eta_l * math.sqrt(2 / 3) * np.max(np.abs(early.f31 + early.f42))) ** 2
    assert np.max(np.abs(traces.fwd_amp[in_window]) ** 2) <= 2.0 * frozen_bound


def test_branch_thickness_symmetry(fig2b_run):
    # both retrieval envelopes must decay with the same effective thickness:
    # fit the log beat-peak slope of each branch and compare the xi estimates
    _, traces, _ = fig2b_run
    t, fwd, bwd = traces.t_grid, np.abs(traces.fwd_detected), np.abs(traces.bwd_amp)

    def xi_estimate(env):
        sel = (t >= 105.0) & (t <= 195.0)
        tt, ee = t[sel], env[sel]
        peaks = [i for i in range(1, len(ee) - 1) if ee[i] >= ee[i - 1] and ee[i] > ee[i + 1]
                 and ee[i] > 0.2 * ee.max()]
        times = np.array([tt[i] for i in peaks])
        amps = np.array([ee[i] for i in peaks])
        slope = np.polyfit(times, np.log(amps), 1)[0]
        return -2.0 * slope / GAMMA - 1.0  # amplitude ~ exp(-(1+xi) G t / 2)

    xi_f, xi_b = xi_estimate(fwd), xi_estimate(bwd)
    assert xi_f == pytest.approx(xi_b, rel=0.05)
