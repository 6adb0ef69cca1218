"""The modal solver against two independent per-step reference loops.

``collocation_run`` steps the solver's own discretisation the plain way:
both lines of both branches as complex states on the Gauss-Legendre nodes,
with the cumulative integration matrix built from the Lagrange basis, and
every step one dense matrix exponential of the whole slab's generator plus
its integral against the midpoint input.  It shares no code with the solver
beyond ``gaussian_input`` and the node count ``depth_nodes``.  Both are the
same discretisation, so they agree to rounding; the bound is 1e-10 of each
array's largest magnitude.

``reference_run`` steps a different discretisation: every time step sweeps
both fields across the slab with a cumulative trapezoid on the n_depth
grid, takes an exponential-midpoint half step with the whole field held,
sweeps again and takes the full step.  It differs from the solver by its
own truncation error: the tests fit its order in n_depth and in dt, on
cases with schedule switching, the mirror and a resolved pulse.

Both loops take every event at its exact time, as the solver does: a step
that holds a kick, a schedule switch, an end of a branch's input window or
a snapshot is split there (``timeline``), each part with its own midpoint
input.
"""

import bisect
import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from nfscatter import MirrorSpec, PulseSpec, SampleSpec, ScenarioConfig, gaussian_input, run_scenario, validate_scenario
from nfscatter import solver
from nfscatter.model import CLEBSCH_A, DEFAULT_GAMMA, HyperfineSchedule, ScenarioError, Segment, depth_nodes
from nfscatter.presets import preset_scenario

GAMMA = 1.0 / 141.1
DB30 = 30.0 * GAMMA
TAU = math.pi / DB30


#: a gaussian pulse's input window is t0 +- 17 fwhm (40 sigma), past which it is 0 in float64
REACH = 17.0


def branch_inputs(sc):
    """Per branch, (kicks {time: area}, [start, stop) of its input window), as the model states them.

    The forward branch takes the prompt: a kick at t0, or the gaussian over
    its window.  The backward one takes what leaves the back face, from the
    forward's onset to the gate's last exit time disable_time - tau/2, one
    round trip tau later; in impulsive mode the prompt's reflection is a
    kick at t0 + tau, if the gate admits t0.
    """
    pulse, tau, r = sc.pulse, sc.tau, math.sqrt(sc.mirror.reflectivity)
    last = math.inf if sc.mirror.disable_time is None else sc.mirror.disable_time - 0.5 * tau
    if pulse.mode == "gaussian":
        window = (max(pulse.t0 - REACH * pulse.fwhm, 0.0), pulse.t0 + REACH * pulse.fwhm)
        return ({}, window), ({}, (window[0] + tau, last + tau))
    kicks_b = {pulse.t0 + tau: -r * pulse.area} if r > 0.0 and pulse.t0 <= last else {}
    return ({pulse.t0: pulse.area}, (0.0, 0.0)), (kicks_b, (pulse.t0 + tau, last + tau))


def timeline(sc, kicks, window):
    """The times a loop visits in order, and the branch's kicks, window and level rule on them.

    They are the output rows and the branch's events in [0, t_end]: kicks,
    schedule switches, the window's ends and snapshots, so a step that holds
    an event is split at it.  An event within 1e-9 of a step of a row is
    taken at the row, as the solver takes it.
    Returns (times, kicks, window, level_at), all on those times.
    """
    dt = sc.dt

    def snap(t):
        m = round(t / dt) if math.isfinite(t) else 0
        return m * dt if abs(t / dt - m) <= 1e-9 else t

    segs = sc.schedule.segments
    starts = [snap(seg.t_start) for seg in segs]
    events = (*kicks, *window, *starts, *sc.record_snapshots_at)
    times = sorted({i * dt for i in range(sc.n_steps + 1)} | {snap(t) for t in events if 0.0 <= t <= sc.t_end})

    def level_at(t):  # the last schedule segment starting at or before t, else the first
        return ([seg.delta_b for seg, t0 in zip(segs, starts) if t0 <= t] or [segs[0].delta_b])[-1]

    return times, {snap(t): v for t, v in kicks.items()}, tuple(snap(t) for t in window), level_at


def reference_run(sc):
    """(fwd, bwd, {snapshot time: state}) with state (branch, family, depth), both branches in physical depth."""
    a, dt, n_t, n_u = CLEBSCH_A, sc.dt, sc.n_steps + 1, sc.sample.n_depth
    kappa, du, tau, pulse = 1j * sc.eta_l * a, 1.0 / (n_u - 1), sc.tau, sc.pulse
    r = math.sqrt(sc.mirror.reflectivity)
    (kicks_f, window_f), (kicks_b, window_b) = branch_inputs(sc)

    def integral(s):  # cumulative trapezoid of s from u = 0
        return np.concatenate(([0.0], np.cumsum(0.5 * du * (s[1:] + s[:-1]))))

    def advance(x, om, h, level):
        lam = np.array([-(0.5 * DEFAULT_GAMMA + 1j * level), -(0.5 * DEFAULT_GAMMA - 1j * level)])
        e = np.exp(lam * h)[:, None]
        return e * x + (0.25j * a * (e - 1.0) / lam[:, None]) * om

    def branch(front, kicks, window, backward):
        """One branch's exit-face trace, its samples at every visited time and its snapshots.

        The samples hold the exit field at each time visited, and before a kick
        also its value just before it, for the mirror's interpolation.
        """
        times, kicks, (lo, hi), level_at = timeline(sc, kicks, window)

        def fields(x, t):
            drive = front(t) if lo <= t < hi else 0.0
            if backward:
                return drive + kappa * integral(x.sum(0)[::-1])[::-1]
            return drive + kappa * integral(x.sum(0))

        trace, samples, snaps = np.zeros(n_t, dtype=complex), [], {}
        x = np.zeros((2, n_u), dtype=complex)
        for k, t in enumerate(times):
            if t in kicks:
                samples.append((t, fields(x, t)[0 if backward else -1]))
                x = x + 0.25j * a * kicks[t]
            om = fields(x, t)
            samples.append((t, om[0 if backward else -1]))
            if round(t / dt) * dt == t:
                trace[round(t / dt)] = samples[-1][1]
            for ts in sc.record_snapshots_at:
                if abs(ts - t) <= 1e-9 * dt:
                    snaps[ts] = x.copy()
            if k + 1 < len(times):
                h, level = times[k + 1] - t, level_at(t)
                x = advance(x, fields(advance(x, om, 0.5 * h, level), t + 0.5 * h), h, level)
        return trace, np.array(samples), snaps

    fwd, samples, snaps_f = branch(lambda t: gaussian_input(t, pulse), kicks_f, window_f, False)
    t_s, f_s = samples[:, 0].real, samples[:, 1]

    def feed(t):  # the forward exit field one round trip earlier, interpolated between its samples
        return -r * (np.interp(t - tau, t_s, f_s.real) + 1j * np.interp(t - tau, t_s, f_s.imag))

    bwd, _, snaps_b = branch(feed, kicks_b, window_b, True)
    return fwd, bwd, {t: np.array([snaps_f[t], snaps_b[t]]) for t in snaps_f}


def expm(m):
    """e^m of a small square matrix: a Taylor series at norm <= 1/4, squared back up."""
    squarings = max(0, math.ceil(math.log2(max(np.abs(m).sum(axis=1).max(), 1e-300) / 0.25)))
    m = m / 2.0 ** squarings
    out = term = np.eye(len(m), dtype=m.dtype)
    for k in range(1, 20):
        term = term @ m / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def lagrange(nodes, points):
    """[p, k]: the Lagrange basis polynomial of node k at point p, as its product formula."""
    diff = np.subtract.outer(points, nodes)
    out = np.empty((len(points), len(nodes)))
    for k in range(len(nodes)):
        others = np.arange(len(nodes)) != k
        out[:, k] = np.prod(diff[:, others] / (nodes[k] - nodes[others]), axis=1)
    return out


def collocation_run(sc):
    """(fwd, bwd, {snapshot time: state}) of the solver's discretisation; state (branch, line, depth) on n_depth.

    The slab's N Gauss-Legendre nodes u with weights w on [0, 1] carry f31
    and f42 (b31 and b42) as independent complex states.  The forward field
    at node j is Omega_F(0) + i eta a (S (f31 + f42))_j, with S[j, k] the
    integral of node k's Lagrange polynomial over [0, u_j], taken by the
    N-point rule on [0, u_j], which is exact for it; the backward field
    integrates over [u_j, 1] instead.  A step of length h multiplies the
    state by e^(A h) and adds the integral over the step of e^(A s) times
    the input held at the step's midpoint value, both from one exponential
    of A bordered by the input column.  The loop visits the rows and events
    of ``timeline``; kicks land before a time's trace and snapshot.  The
    mirror's input is the forward exit field one round trip earlier: the
    forward state carried there exactly from the last time its loop
    visited, or, inside the forward input window, the forward trace
    interpolated linearly.
    """
    a, dt, n_t, n = CLEBSCH_A, sc.dt, sc.n_steps + 1, depth_nodes(sc.sample.xi)
    x, w = np.polynomial.legendre.leggauss(n)
    u, w = 0.5 * (x + 1.0), 0.5 * w
    cum = np.array([uj * (lagrange(u, uj * u) * w[:, None]).sum(axis=0) for uj in u])
    out_grid = lagrange(u, np.linspace(0.0, 1.0, sc.sample.n_depth))
    kappa, tau, pulse = 1j * sc.eta_l * a, sc.tau, sc.pulse
    r = math.sqrt(sc.mirror.reflectivity)
    gain = np.full(2 * n, 0.25j * a)
    (kicks_f, window_f), (kicks_b, window_b) = branch_inputs(sc)

    @functools.lru_cache(maxsize=256)
    def step_maps(level, backward, h):
        """(e^(A h), int_0^h e^(A s) gain ds) for one branch at one splitting."""
        integ = np.outer(np.ones(n), w) - cum if backward else cum
        field = gain[:, None] * kappa * np.tile(integ, (2, 2))
        lam = np.repeat([-(0.5 * DEFAULT_GAMMA + 1j * level), -(0.5 * DEFAULT_GAMMA - 1j * level)], n)
        bordered = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
        bordered[:2 * n, :2 * n] = np.diag(lam) + field
        bordered[:2 * n, -1] = gain
        e = expm(bordered * h)
        return e[:2 * n, :2 * n], e[:2 * n, -1]

    def branch(front, kicks, window, backward):
        """The back-face (front-face, for the backward branch) trace, the snapshots and the visited states."""
        times, kicks, (lo, hi), level_at = timeline(sc, kicks, window)
        trace, snaps, y, states = np.zeros(n_t, dtype=complex), {}, np.zeros(2 * n, dtype=complex), []
        for k, t in enumerate(times):
            y = y + gain * kicks.get(t, 0.0)
            states.append(y)
            row = round(t / dt)
            if row * dt == t:
                trace[row] = (front(t) if lo <= t < hi else 0.0) + kappa * (w @ (y[:n] + y[n:]))
            for ts in sc.record_snapshots_at:
                if abs(ts - t) <= 1e-9 * dt:
                    snaps[ts] = y.reshape(2, n) @ out_grid.T
            if k + 1 < len(times):
                h = times[k + 1] - t
                mid = t + 0.5 * h
                e, p = step_maps(level_at(t), backward, dt if row * dt == t and times[k + 1] == (row + 1) * dt else h)
                y = e @ y + p * (front(mid) if lo <= mid < hi else 0.0)
        return trace, snaps, (times, states, level_at, lo, hi)

    fwd, snaps_f, (t_f, y_f, level_f, lo_f, hi_f) = branch(lambda t: gaussian_input(t, pulse), kicks_f, window_f,
                                                           False)
    t_grid = np.arange(n_t) * dt

    def forward_at(t):
        if lo_f <= t < hi_f:
            return np.interp(t, t_grid, fwd.real) + 1j * np.interp(t, t_grid, fwd.imag)
        k = bisect.bisect_right(t_f, t) - 1
        y = step_maps(level_f(t_f[k]), False, t - t_f[k])[0] @ y_f[k]
        return kappa * (w @ (y[:n] + y[n:]))

    bwd, snaps_b, _ = branch(lambda t: -r * forward_at(t - tau), kicks_b, window_b, True)
    return fwd, bwd, {t: np.array([snaps_f[t], snaps_b[t]]) for t in snaps_f}


def node_map(sc, level):
    """The 2x2 one-step map of an interior depth node of ``reference_run``, from its own coefficients."""
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
    """The reflected prompt lands at the start of a schedule segment, both at t0 + tau, off the step grid.

    The mirror feedback starts there too, inside a step, which is split at
    it; a snapshot records the kicked state.
    """
    return replace(with_mirror(disable_time=None),
                   schedule=HyperfineSchedule((Segment(0.0, DB30), Segment(0.5 + TAU, -DB30))),
                   record_snapshots_at=(12.0, 0.5 + TAU, 29.0))


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
    """The field goes off while Re f31 != 0 and stays off for many damping times.

    With the field off Re f31 takes no input and feeds no field, so the
    state passes from the modes of one splitting to those of the other with
    a large share that no input reaches.  Snapshots sit on the switch-off
    step and later in the field-off segment, in later rows of its free
    stretch's table.
    """
    return replace(BASE, sample=SampleSpec(xi=50.0, n_depth=11), pulse=PulseSpec(area=1e-5, t0=0.0),
                   schedule=HyperfineSchedule((Segment(0.0, 0.0125), Segment(90.0, 0.0))), t_end=1500.0, dt=3.0,
                   record_snapshots_at=(90.0, 561.0, 1200.0))


# signed eigen_gap of the cases on either side of reference_run's exceptional point: real
# and distinct above 0, a complex pair below; xi = 20 makes the field-off gap large enough
# (1.4e-4) for the real side to reach 1e-4.  The modal solver has no exceptional point at
# a real delta_b, so for it these are small splittings on thick slabs.
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
    # the worst-conditioned complex pair a float delta_b reaches in reference_run
    "coalescing_pair_nearest": nearest_pair,
    "extreme_coupling": lambda: replace(BASE, sample=SampleSpec(xi=50.0, n_depth=11), pulse=PulseSpec(area=1e-5, t0=0.0),
                                        schedule=HyperfineSchedule.constant(0.0), t_end=27000.0, dt=3.0,
                                        record_snapshots_at=(12.0, 300.0)),
    "kick_on_segment_start": kick_on_segment_start,
    "free_mode_across_blocks": free_mode_across_blocks,
    "snapshot_on_kick": lambda: replace(BASE, record_snapshots_at=(0.5, 0.5 + TAU)),
    **{name: (lambda gap=gap: coalescing(20.0, gap)) for name, gap in NEAR_COALESCING.items()},
}


@functools.lru_cache(maxsize=None)
def case_reference(case):
    """``reference_run`` of one CASES entry, computed once for the tests that read it."""
    return reference_run(validate_scenario(CASES[case]()))


@functools.lru_cache(maxsize=None)
def case_collocation(case):
    """``collocation_run`` of one CASES entry, computed once for the tests that read it."""
    return collocation_run(validate_scenario(CASES[case]()))


def assert_close(got, ref, name):
    scale = np.abs(ref).max()
    if scale == 0.0:
        assert np.all(got == 0.0), name
    else:
        err = np.abs(got - ref).max() / scale
        assert err <= 1e-10, f"{name}: relative max error {err:.2e}"


def check_against_reference(case):
    sc = validate_scenario(CASES[case]())
    traces, snapshots = run_scenario(sc)
    fwd, bwd, snaps = case_collocation(case)
    # the scheme keeps both fields real (conjugate lines, imaginary kicks, real inputs);
    # the solver solves f31 alone in real coordinates
    assert np.all(traces.fwd_amp.imag == 0.0) and np.all(traces.bwd_amp.imag == 0.0)
    assert_close(traces.fwd_amp, fwd, "fwd")
    assert_close(traces.bwd_amp, bwd, "bwd")
    assert len(snapshots) == len(snaps)
    for snap, t in zip(snapshots, sorted(snaps)):
        assert snap.t == t
        for name, got, ref in (("f31", snap.f31, snaps[t][0, 0]), ("f42", snap.f42, snaps[t][0, 1]),
                               ("b31", snap.b31, snaps[t][1, 0]), ("b42", snap.b42, snaps[t][1, 1])):
            assert_close(got, ref, f"t = {snap.t} {name}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_march_matches_reference_loop(case):
    check_against_reference(case)


@pytest.mark.parametrize("case", sorted(CASES))
def test_march_matches_reference_loop_in_short_blocks(case, monkeypatch):
    # 50-step rows and scans: a free stretch spans many rows of its table and a driven
    # one many prefix sums, and the thick slabs' scans are cut shorter still
    monkeypatch.setattr(solver, "_BLOCK", 50)
    check_against_reference(case)


# case: (n_depth grid at the case's dt, dt grid at n_depth 401); each grid is coarse
# enough that the loop's error in the other variable stays well below that of the traces
CONVERGENCE = {
    "fig2c_segments": ((6, 11, 21), (0.2, 0.1, 0.05)),
    "gaussian": ((11, 21, 41), (0.04, 0.02, 0.01)),
    "tau_off_grid": ((11, 21, 41), (0.16, 0.08, 0.04)),
    "ungated": ((11, 21, 41), (0.16, 0.08, 0.04)),
}


def loop_errors(cfg):
    """Largest difference of the loop from the solver per channel, relative to the channel's peak.

    The channels are both traces and the snapshots (f31 and b31 at every
    snapshot time, on the n_depth grid the loop steps); a channel whose peak
    is below 1e-9 of the forward trace's (gaussian's backward channel, as
    the gate closes before the pulse arrives) is left out.
    """
    sc = validate_scenario(cfg)
    traces, snapshots = run_scenario(sc)
    fwd, bwd, snaps = reference_run(sc)
    assert len(snapshots) == len(snaps)
    got = {"fwd": traces.fwd_amp, "bwd": traces.bwd_amp,
           "snap": np.concatenate([np.concatenate((s.f31, s.b31)) for s in snapshots])}
    ref = {"fwd": fwd, "bwd": bwd, "snap": np.concatenate([np.concatenate(snaps[k][:, 0]) for k in sorted(snaps)])}
    peak = np.abs(fwd).max()
    return {name: np.abs(got[name] - ref[name]).max() / np.abs(ref[name]).max()
            for name in got if np.abs(ref[name]).max() > 1e-9 * peak}


def fitted_orders(cases, grid):
    """Per channel, the slope of log error against log grid step."""
    errors = [loop_errors(cfg) for cfg in cases]
    return {name: np.polyfit(np.log(grid), np.log([e[name] for e in errors]), 1)[0] for name in errors[0]}


@pytest.mark.parametrize("case", sorted(CONVERGENCE))
def test_reference_loop_converges_in_depth(case):
    # the loop's trapezoid error falls as du^2 toward the solver, which has no depth truncation;
    # the snapshots' larger time error already dominates theirs at these grids, so they are
    # checked in dt only
    base = CASES[case]()
    grid = CONVERGENCE[case][0]
    orders = fitted_orders([replace(base, sample=replace(base.sample, n_depth=n)) for n in grid],
                           1.0 / (np.array(grid) - 1.0))
    assert set(orders) >= {"fwd", "snap"}
    for name in ("fwd", "bwd"):
        if name in orders:
            assert 1.8 <= orders[name] <= 2.2, f"{name}: depth order {orders[name]:.3f}"


@pytest.mark.parametrize("case", sorted(CONVERGENCE))
def test_reference_loop_converges_in_dt(case):
    # the loop holds the whole field over a half step, the solver only the array inputs:
    # both are second order in dt, so their difference is too
    base = CASES[case]()
    grid = CONVERGENCE[case][1]
    orders = fitted_orders([replace(base, sample=replace(base.sample, n_depth=401), dt=dt) for dt in grid], grid)
    assert set(orders) >= {"fwd", "snap"}
    for name, order in orders.items():
        assert 1.8 <= order <= 2.2, f"{name}: dt order {order:.3f}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_reference_keeps_lines_conjugate(case):
    # the invariant the solver's real coordinates rest on, checked on both loops, which
    # march both lines of both branches independently: f42 = -conj(f31), b42 = -conj(b31)
    # in every snapshot, and real fields (their sum is the field's source) in the traces,
    # exactly real in the trapezoid loop
    fwd, bwd, _ = case_reference(case)
    assert np.all(fwd.imag == 0.0) and np.all(bwd.imag == 0.0)
    for loop, (fwd, bwd, snaps) in (("trapezoid", case_reference(case)), ("collocation", case_collocation(case))):
        for name, trace in (("fwd", fwd), ("bwd", bwd)):
            assert np.abs(trace.imag).max() <= 1e-13 * np.abs(trace).max(), f"{loop} {name}"
        for t, x in snaps.items():
            for branch, (line31, line42) in zip("fb", x):
                scale = np.abs(line31).max()
                assert np.abs(line42 + line31.conj()).max() <= 1e-13 * scale, f"{loop} t = {t} {branch}42"


def test_cases_reach_their_regimes():
    # the coalescing case sits on the exceptional point of reference_run's interior map
    sc = validate_scenario(CASES["coalescing_eigenvalues"]())
    mu = np.linalg.eigvals(node_map(sc, sc.schedule.segments[0].delta_b))
    assert abs(mu[0] - mu[1]) < 1e-6 * abs(mu[0])
    # the cases beside it sit on their side of the exceptional point, at their gap
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
    # the field goes off with Re f31 a large share of the state
    sc = validate_scenario(CASES["free_mode_across_blocks"]())
    t_off = sc.schedule.segments[1].t_start
    x = case_reference("free_mode_across_blocks")[2][t_off]
    assert np.abs(x[:, 0].real).max() > 0.5 * np.abs(x[:, 0]).max()


@pytest.mark.parametrize("present", [False, True])
def test_first_non_finite_time_matches_reference(present):
    # a thickness far past the collocation's reach, which once overflowed a few steps
    # after the prompt, is now rejected by validation, naming the field
    mirror = BASE.mirror if present else replace(BASE.mirror, reflectivity=0.0)
    cfg = replace(BASE, sample=SampleSpec(xi=1e60, n_depth=41), pulse=PulseSpec(area=1e-3, t0=5.0),
                  mirror=mirror, t_end=8.0, record_snapshots_at=())
    with pytest.raises(ScenarioError, match="sample.xi"):
        run_scenario(cfg)
