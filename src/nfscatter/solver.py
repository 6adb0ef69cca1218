"""Coupled coherence/field integrator for the forward-backward slab problem.

The slab is described by two counterpropagating envelope pairs obtained from
the decomposition rho_31 -> f31*e^{iky} + b31*e^{-iky} (same for rho_42) and
Omega -> Omega_F*e^{iky} + Omega_B*e^{-iky}.  In the linear regime the
coherences obey, at every depth,

    d f31/dt = -(G/2 + i*db) f31 + i*(a/4) Omega_F
    d f42/dt = -(G/2 - i*db) f42 + i*(a/4) Omega_F

with the b pair driven by Omega_B, while the fields follow the quasi-static
sweeps (slab transit ~33 fs is dropped against ns dynamics)

    Omega_F(u) = Omega_F(0) + i*eta_l*a * int_0^u (f31+f42) du'
    Omega_B(u) = Omega_B(1) + i*eta_l*a * int_u^1 (b31+b42) du'

on the scaled depth grid u = y/L in [0, 1], eta_l = 6*G*xi.  The mirror
closes the loop with Omega_B(t, 1) = -sqrt(R) * Omega_F(t - tau, 1), gated at
the mirror-arrival instant: a field leaving the back face at t_exit is
reflected only while t_exit + tau/2 <= disable_time.

Time stepping is an exponential midpoint rule: the stiff linear coherence
part is advanced exactly for a field held constant over the substep, with
one field sweep per half step to evaluate the midpoint field.  Depth uses
the cumulative trapezoid rule.

The scheme is causal along depth: node j sees only nodes <= j, and the
forward branch never sees the backward one.  So the solver marches in depth
instead of time.  At node j the trapezoid brings in the field sequences
a = Omega_{j-1} + w*s_{j-1} (full steps) and a_h (midpoints), w = kappa*du/2,
s = f31 + f42; eliminating the half step leaves, per node, the 2x2 linear
recurrence x_{n+1} = M x_n + p_full*u_n over the whole time history.  M
takes two values per schedule segment (node 0 has no self term).  In the
unitary Schur basis of M each mode is one prefix sum of input*mu^-m times
mu^m, so a time block of up to _BLOCK steps costs a fixed number of array
passes per node.  The forward branch is marched over the whole run first;
the backward branch then has a known mirror input built from its trace.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import CLEBSCH_A, DEFAULT_GAMMA, PulseSpec, ScenarioConfig, ValidatedScenario, validate_scenario

#: warn when |Omega| exceeds this multiple of gamma (linear regime monitor)
LINEAR_FIELD_WARN = 0.1

#: longest time block marched as one prefix sum, in steps
_BLOCK = 8192

#: largest |mu|^(+-m) a block may span, which keeps the scan's tables and
#: partial sums far from overflow and underflow on strongly damped maps
_SCAN_RANGE = 1e8


class NumericalError(RuntimeError):
    """The state became non-finite during a run."""


@dataclass(frozen=True)
class CoherenceSnapshot:
    """Depth-resolved coherence quadruple recorded at one requested time."""

    t: float
    f31: np.ndarray
    f42: np.ndarray
    b31: np.ndarray
    b42: np.ndarray


@dataclass(frozen=True)
class TraceSet:
    """Uniform-time detector records for one run.

    ``fwd_amp`` is Omega_F(t, L) at the back face and ``bwd_amp`` is
    Omega_B(t, 0) at the front face.  ``fwd_detected`` is what the forward
    detector behind the mirror sees: fwd_amp attenuated by sqrt(1 - R)
    while the mirror is in the beam (``mirror_in_beam`` flag), otherwise
    fwd_amp itself.  Prompt input deltas are not part of the traces; only
    the coherently scattered envelopes are recorded.
    """

    t_grid: np.ndarray
    fwd_amp: np.ndarray
    bwd_amp: np.ndarray
    fwd_detected: np.ndarray
    mirror_in_beam: np.ndarray
    metadata: dict = field(default_factory=dict)


def _propagators(delta_b: float, h: float):
    """Exact one-substep coefficients ((e31, e42), (p31, p42)).

    f' = e*f + p*Omega solves df/dt = lam*f + i*(a/4)*Omega with Omega
    constant over the substep, lam = -(gamma/2 +- i*delta_b) for the 31 and
    42 families.
    """
    drive = 0.25j * CLEBSCH_A
    lams = (-(0.5 * DEFAULT_GAMMA + 1j * delta_b), -(0.5 * DEFAULT_GAMMA - 1j * delta_b))
    e = tuple(cmath.exp(lam * h) for lam in lams)
    return e, tuple(drive * (ek - 1.0) / lam for ek, lam in zip(e, lams))


def _reflects(t_exit, tau: float, disable_time: float | None):
    """The mirror gate: is light leaving the back face at ``t_exit`` reflected?

    It meets the mirror at t_exit + tau/2 and is reflected only if the
    mirror is still in the beam then.  Nothing leaves before t = 0.
    Elementwise for an array of exit times.
    """
    ok = np.asarray(t_exit) >= 0.0
    if disable_time is not None:
        ok = ok & (t_exit + 0.5 * tau <= disable_time)
    return ok


def _segment_steps(sc: ValidatedScenario, n_t: int):
    """(delta_b, first step, stop step) for every schedule segment that holds a step.

    Step i advances with the level of the last segment starting at or
    before i*dt.
    """
    segs = sc.schedule.segments
    starts = [min(max(round(s.t_start / sc.dt), 0), n_t) for s in segs] + [n_t]
    return [(segs[k].delta_b, starts[k], starts[k + 1]) for k in range(len(segs)) if starts[k] < starts[k + 1]]


def _schur(m00: complex, m01: complex, m10: complex, m11: complex):
    """Unitary Schur form of the 2x2 matrix [[m00, m01], [m10, m11]], in closed form.

    Returns (mu1, mu2, t12, q0, q1) with M = Q [[mu1, t12], [0, mu2]] Q^H and
    Q = [[q0, -q1*], [q1, q0*]].  The eigenvector (rho + d, m10) of mu1
    takes the sign of rho that avoids cancellation, so Q stays accurate as
    the eigenvalues coalesce, where an eigenbasis would become singular.
    """
    d = 0.5 * (m00 - m11)
    rho = cmath.sqrt(d * d + m01 * m10)
    if (d.conjugate() * rho).real < 0.0:
        rho = -rho
    v0, v1 = rho + d, m10
    norm = math.hypot(abs(v0), abs(v1))
    q0, q1 = (v0 / norm, v1 / norm) if norm > 0.0 else (1.0 + 0j, 0j)
    qc0, qc1 = q0.conjugate(), q1.conjugate()
    t12 = qc0 * (m01 * qc0 - m00 * qc1) + qc1 * (m11 * qc0 - m10 * qc1)
    mean = 0.5 * (m00 + m11)
    return mean + rho, mean - rho, t12, q0, q1


class _NodeMap(NamedTuple):
    """One time step of one depth node in the Schur coordinates zeta = Q^H (f31, f42).

    With u = a_h + w_self*q*a the step is zeta2' = mu2*zeta2 + beta2*u and
    zeta1' = mu1*zeta1 + t12*zeta2 + beta1*u.  The node hands on
    a += g0 . zeta and a_h += g1 . zeta + wq*a, wq = w*q, where q is the
    sum of the half-step drive coefficients.
    """

    mu1: complex
    mu2: complex
    t12: complex
    q0: complex
    q1: complex
    beta1: complex
    beta2: complex
    g00: complex
    g01: complex
    g10: complex
    g11: complex
    wq: complex


def _node_map(e_h, e_f, p_h, p_f, w_self: complex, w: complex) -> _NodeMap:
    """The step map of a node whose own coherence enters its field with weight ``w_self``."""
    q = p_h[0] + p_h[1]
    c = (e_h[0] + q * w_self, e_h[1] + q * w_self)  # midpoint s_half = c . x + q*a
    mu1, mu2, t12, q0, q1 = _schur(e_f[0] + w_self * p_f[0] * c[0], w_self * p_f[0] * c[1],
                                   w_self * p_f[1] * c[0], e_f[1] + w_self * p_f[1] * c[1])
    qc0, qc1 = q0.conjugate(), q1.conjugate()
    g = w_self + w  # weight of this node's s and s_half in the next node's a and a_h
    return _NodeMap(mu1, mu2, t12, q0, q1,
                    qc0 * p_f[0] + qc1 * p_f[1], q0 * p_f[1] - q1 * p_f[0],
                    g * (q0 + q1), g * (qc0 - qc1),
                    g * (c[0] * q0 + c[1] * q1), g * (c[1] * qc0 - c[0] * qc1),
                    w * q)


def _span(mu: complex) -> int:
    """Longest block, at most _BLOCK steps, over which |mu|^(+-m) stays within _SCAN_RANGE."""
    rate = abs(math.log(abs(mu))) if mu != 0 else math.inf
    return _BLOCK if rate == 0.0 else min(_BLOCK, 1 + int(math.log(_SCAN_RANGE) / rate))


def _fill_tables(mp: _NodeMap, m: np.ndarray, out: np.ndarray) -> None:
    """Rows mu1^m, mu2^m, beta1*mu1^-m, beta2*mu2^-m and t12*mu1^-m of ``out``."""
    # mu = 0 limits the block to one step, where only m = 0 is read
    l1, l2 = (cmath.log(mu) if mu != 0 else 0j for mu in (mp.mu1, mp.mu2))
    for row, log, scale in zip(out, (l1, l2, -l1, -l2, -l1), (1.0, 1.0, mp.beta1, mp.beta2, mp.t12)):
        np.multiply(m, log, out=row)
        np.exp(row, out=row)
        np.multiply(row, scale, out=row)


def _march(segments, w: complex, n_u: int, boundary, kicks: dict, snap_steps: list, dt: float,
           work: np.ndarray, trace: np.ndarray):
    """March one branch in depth, node by node, over time blocks of each schedule segment.

    ``segments`` holds (e_half, e_full, p_half, p_full, first step, stop step).
    ``boundary(b0, b1, a, a_h)`` writes the branch input Omega(0) at the
    full steps and the midpoints of steps b0..b1-1; ``kicks`` maps a step to
    the coherence it adds to both families at every node.  The back-face
    field goes to ``trace``.  ``work`` is complex scratch of 10 rows and at
    least one block: five rows of block arrays, then the tables of node 0's
    map and, from node 1 on, of the interior map.  Returns the coherences at ``snap_steps`` as (snapshot,
    family, depth) and the peak |Omega| the slab adds to its input.
    """
    state = np.zeros((n_u, 2), dtype=complex)  # (f31, f42) of every node at the next block's first step
    snaps = np.zeros((len(snap_steps), 2, n_u), dtype=complex)
    peak = 0.0
    for e_h, e_f, p_h, p_f, first, stop in segments:
        maps = (_node_map(e_h, e_f, p_h, p_f, 0.0, w), _node_map(e_h, e_f, p_h, p_f, w, w))
        finite = all(cmath.isfinite(v) for mp in maps for v in mp)
        spans = [_span(mu) for mp in maps for mu in (mp.mu1, mp.mu2)] if finite else []
        k_max = min(stop - first, _BLOCK, *spans)
        m = np.arange(k_max)
        for b0 in range(first, stop, k_max):
            b1 = min(b0 + k_max, stop)
            k = b1 - b0
            a, ah, tmp, z1, z2 = work[:5, :k]
            pw1, pw2, dn1, dn2, cpl = tables = work[5:, :k]
            boundary(b0, b1, a, ah)
            if b0 in kicks:
                state += kicks[b0]
            inner = [(n - b0, amp) for n, amp in kicks.items() if b0 < n < b1]
            shots = [(n - b0, s) for s, n in enumerate(snap_steps) if b0 <= n < b1]
            if not finite:
                # the map overflows: the run turns non-finite at the first step carrying a
                # value; until then every state and field is exactly zero
                hot = [i for i, _ in inner] + [int(np.flatnonzero(v)[0]) for v in (a, ah) if v.any()]
                hot += [0] if state.any() else []
                if hot:
                    raise NumericalError(f"non-finite field at t = {(b0 + min(hot)) * dt:.4f} ns")
                continue
            for j in range(n_u):
                if j < 2:
                    mp = maps[j]
                    _fill_tables(mp, m[:k], tables)
                    qc0, qc1 = mp.q0.conjugate(), mp.q1.conjugate()
                if j == n_u - 1:
                    # the back-face field is the mean of the last node's input and output
                    trace[b0:b1] = a
                f, g = state[j].tolist()
                np.multiply(a, mp.wq, out=tmp)
                if j:
                    np.add(ah, tmp, out=ah)  # ah now holds the step input u
                np.multiply(ah[:-1], dn2[1:], out=z2[1:])
                z2[0] = mp.q0 * g - mp.q1 * f
                for i, amp in inner:
                    z2[i] += amp * (mp.q0 - mp.q1) / pw2[i]
                np.cumsum(z2, out=z2)
                np.multiply(z2, pw2, out=z2)  # zeta2
                np.multiply(ah[:-1], dn1[1:], out=z1[1:])
                u_last = ah[-1]
                np.add(ah, tmp, out=ah)  # u + w*q*a, the part of the next a_h known so far
                if mp.t12 != 0:
                    np.multiply(z2[:-1], cpl[1:], out=tmp[1:])
                    np.add(z1[1:], tmp[1:], out=z1[1:])
                z1[0] = qc0 * f + qc1 * g
                for i, amp in inner:
                    z1[i] += amp * (qc0 + qc1) / pw1[i]
                np.cumsum(z1, out=z1)
                np.multiply(z1, pw1, out=z1)  # zeta1
                for i, s in shots:
                    snaps[s, :, j] = (mp.q0 * z1[i] - qc1 * z2[i], mp.q1 * z1[i] + qc0 * z2[i])
                n1 = mp.mu1 * z1[-1] + mp.t12 * z2[-1] + mp.beta1 * u_last
                n2 = mp.mu2 * z2[-1] + mp.beta2 * u_last
                state[j] = (mp.q0 * n1 - qc1 * n2, mp.q1 * n1 + qc0 * n2)
                for row, gz1, gz2 in ((a, mp.g00, mp.g01), (ah, mp.g10, mp.g11)):
                    np.multiply(z1, gz1, out=tmp)
                    np.add(row, tmp, out=row)
                    np.multiply(z2, gz2, out=tmp)
                    np.add(row, tmp, out=row)
            # the fields are real: the two lines are a conjugate pair, kicks are
            # imaginary and every field input is real, so f42 = -conj(f31) and
            # Omega = kappa * int (f31 + f42) is real; the Schur basis mixes the
            # families, so its imaginary part here is rounding only
            np.add(trace[b0:b1], a, out=trace[b0:b1])
            np.multiply(trace[b0:b1], 0.5, out=trace[b0:b1])
            trace[b0:b1].imag = 0.0
            boundary(b0, b1, z1, z2)  # the input again, for the field the slab adds to it
            np.subtract(trace[b0:b1], z1, out=z1)
            peak = max(peak, float(np.abs(z1).max()))
    return snaps, peak


def gaussian_input(t, pulse: PulseSpec):
    """Resolved front-face drive: a normalized gaussian of total area ``pulse.area``."""
    sigma = pulse.fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    norm = pulse.area / (sigma * math.sqrt(2.0 * math.pi))
    return norm * np.exp(-0.5 * ((np.asarray(t, dtype=float) - pulse.t0) / sigma) ** 2)


def run_scenario(scenario: ScenarioConfig | ValidatedScenario):
    """Integrate a validated scenario over [0, t_end].

    Returns (TraceSet, [CoherenceSnapshot, ...]).  Deterministic for a
    fixed configuration.  Raises :class:`NumericalError` naming the first
    time at which a field goes non-finite (a step map that overflows counts
    from the first step that carries a value).

    The forward branch (f31, f42) is marched in depth over the whole run;
    its back-face trace then gives the backward branch (b31, b42, stored in
    reversed depth so that it marches the same way) its mirror input.
    Without a reflecting mirror the backward branch is identically zero and
    is left out.
    """
    sc = validate_scenario(scenario)
    dt = sc.dt
    n_t = sc.n_steps + 1
    t_grid = np.arange(n_t) * dt
    n_u = sc.sample.n_depth
    w = 1j * sc.eta_l * CLEBSCH_A * (0.5 * (1.0 / (n_u - 1)))  # kappa * du / 2
    mirror = sc.mirror
    tau = sc.tau
    disable_time = mirror.disable_time
    refl_amp = math.sqrt(mirror.reflectivity)
    pulse = sc.pulse

    segments = []
    for level, first, stop in _segment_steps(sc, n_t):
        e_h, p_h = _propagators(level, 0.5 * dt)
        e_f, p_f = _propagators(level, dt)
        segments.append((e_h, e_f, p_h, p_f, first, stop))

    # impulsive-mode kicks per branch, {step: coherence added}: the prompt at t0
    # and, when the gate admits it, the mirror-reflected prompt arriving one
    # round trip later
    kicks_f: dict[int, complex] = {}
    kicks_b: dict[int, complex] = {}
    if pulse.mode == "impulsive":
        theta = pulse.area
        kick_amp = 0.25j * CLEBSCH_A
        kicks_f[round(pulse.t0 / dt)] = kick_amp * theta
        if refl_amp > 0.0 and _reflects(pulse.t0, tau, disable_time):
            ib = math.ceil((pulse.t0 + tau) / dt - 1e-9)  # first grid time >= t0 + tau
            if ib < n_t:
                kicks_b[ib] = kick_amp * (-refl_amp * theta)

    def drive(b0, b1, out, out_half):
        """The front-face input of the forward branch: the resolved pulse, or 0 in impulsive mode."""
        if pulse.mode == "gaussian":
            t = t_grid[b0:b1]
            out[:] = gaussian_input(t, pulse)
            out_half[:] = gaussian_input(t + 0.5 * dt, pulse)
        else:
            out.fill(0.0)
            out_half.fill(0.0)

    snap_at = {round(t / dt): t for t in sc.record_snapshots_at}
    snap_steps = sorted(snap_at)
    fwd = np.zeros(n_t, dtype=complex)
    bwd = np.zeros(n_t, dtype=complex)
    work = np.empty((10, min(_BLOCK, n_t)), dtype=complex)  # shared by both branches
    fs, peak_field = _march(segments, w, n_u, drive, kicks_f, snap_steps, dt, work, fwd)

    bs = None
    if refl_amp > 0.0:
        def feedback(b0, b1, out, out_half):
            """-sqrt(R) * Omega_F(t - tau, L) while the gate is open, else 0.

            The delayed field interpolates the forward trace linearly; as
            tau >= dt, it reads only samples recorded before the step.
            """
            t = t_grid[b0:b1]
            for dest, t_at in ((out, t), (out_half, t + 0.5 * dt)):
                t_exit = t_at - tau
                np.copyto(dest, np.interp(t_exit, t_grid, fwd))
                np.multiply(dest, -refl_amp, out=dest)
                dest[~_reflects(t_exit, tau, disable_time)] = 0.0

        bs, peak_b = _march(segments, w, n_u, feedback, kicks_b, snap_steps, dt, work, bwd)
        peak_field = max(peak_field, peak_b)

    bad = ~(np.isfinite(fwd) & np.isfinite(bwd))
    if bad.any():
        raise NumericalError(f"non-finite field at t = {np.argmax(bad) * dt:.4f} ns")
    # the peak counts the medium-generated field only; a resolved input pulse
    # is transiently large by construction without breaking linearity
    if peak_field > LINEAR_FIELD_WARN * DEFAULT_GAMMA:
        warnings.warn(
            f"peak scattered |Omega| = {peak_field:.3g} exceeds {LINEAR_FIELD_WARN}*gamma; "
            "linear-regime assumption is strained",
            RuntimeWarning,
            stacklevel=2,
        )

    snapshots = []
    for s, step in enumerate(snap_steps):
        if bs is None:
            b31, b42 = np.zeros(n_u, dtype=complex), np.zeros(n_u, dtype=complex)
        else:
            b31, b42 = bs[s, 0, ::-1].copy(), bs[s, 1, ::-1].copy()
        snapshots.append(CoherenceSnapshot(snap_at[step], fs[s, 0].copy(), fs[s, 1].copy(), b31, b42))

    # a reflecting mirror stands in the forward detector's beam until it is disabled
    in_beam = np.full(n_t, refl_amp > 0.0)
    if disable_time is not None:
        in_beam &= t_grid < disable_time
    detected = np.where(in_beam, math.sqrt(1.0 - mirror.reflectivity) * fwd, fwd)

    traces = TraceSet(
        t_grid=t_grid,
        fwd_amp=fwd,
        bwd_amp=bwd,
        fwd_detected=detected,
        mirror_in_beam=in_beam,
        metadata={
            "config_hash": sc.config_hash,
            "reflectivity": mirror.reflectivity,
            "tau": tau,
            "schedule": [[s.t_start, s.delta_b] for s in sc.schedule.segments],
        },
    )
    return traces, snapshots
