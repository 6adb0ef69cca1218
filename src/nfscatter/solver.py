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
instead of time.  Every field input is real, kicks are imaginary and delta_b
is real, so f42 = -conj(f31): the fields stay real and only f31 is marched.
At node j the trapezoid brings in the real field sequences a = Omega_{j-1} +
w*s_{j-1} (full steps) and a_h (midpoints), w = kappa*du/2, s = f31 + f42;
eliminating the half step leaves, per node, a real 2x2 recurrence on
(Re f31, Im f31) over the whole time history, with two maps per schedule
segment (node 0 has no self term).  Where its eigenvalues are a complex pair
one complex mode carries it, else two coordinates of its Schur basis; each
is one prefix sum of input*mu^-m times mu^m, so a time block of up to _BLOCK
steps, held in one scratch pool, costs a fixed number of array passes per
node; an undriven, unread coordinate (Re f31 with the field off) is carried
as z0*mu^m, not scanned.
Each branch takes its front-face input as one float64 array of full steps
and midpoints, and writes its back-face field into a float64 trace.  The
forward branch is marched over the whole run first; the backward branch's
mirror input is then built from that trace in whole-array passes.
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
_BLOCK = 16384

#: largest |mu|^(+-m) a block may span, which keeps the scan's tables and
#: partial sums far from overflow and underflow on strongly damped maps
_SCAN_RANGE = 1e8

#: a block's prefix sum, called as _scan(z, 0, None, z): the ufunc np.cumsum runs, without its Python wrapper
_scan = np.add.accumulate


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
    Omega_B(t, 0) at the front face, both float64, as every field of the
    scheme is real.  ``fwd_detected`` is what the forward detector behind
    the mirror sees: fwd_amp attenuated by sqrt(1 - R) while the mirror is
    in the beam (``mirror_in_beam`` flag), otherwise fwd_amp itself.
    Prompt input deltas are not part of the traces; only the coherently
    scattered envelopes are recorded.
    """

    t_grid: np.ndarray
    fwd_amp: np.ndarray
    bwd_amp: np.ndarray
    fwd_detected: np.ndarray
    mirror_in_beam: np.ndarray
    metadata: dict = field(default_factory=dict)


def _propagators(delta_b: float, h: float):
    """Exact one-substep coefficients (e, p) of the 31 line.

    f' = e*f + p*Omega solves df/dt = lam*f + i*(a/4)*Omega with Omega
    constant over the substep, lam = -(gamma/2 + i*delta_b).  The 42 line
    has conj(e) and -conj(p).
    """
    lam = -(0.5 * DEFAULT_GAMMA + 1j * delta_b)
    e = cmath.exp(lam * h)
    return e, 0.25j * CLEBSCH_A * (e - 1.0) / lam


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


def _schur(m00: float, m01: float, m10: float, m11: float):
    """Schur form of the real 2x2 matrix [[m00, m01], [m10, m11]], in closed form.

    Returns (mu1, mu2, t12, q0, q1) with M = Q [[mu1, t12], [0, mu2]] Q^H and
    Q = [[q0, -q1*], [q1, q0*]], real for real eigenvalues (else Im mu1 > 0).
    The eigenvector (rho + d, m10) of mu1 takes the sign of rho that avoids
    cancellation, so Q stays accurate as the eigenvalues coalesce, where an
    eigenbasis would become singular.
    """
    d = 0.5 * (m00 - m11)
    disc = d * d + m01 * m10
    rho = math.sqrt(disc) if disc >= 0.0 else 1j * math.sqrt(-disc)
    if d * rho.real < 0.0:
        rho = -rho
    v0, v1 = rho + d, m10
    norm = math.hypot(abs(v0), abs(v1))
    q0, q1 = (v0 / norm, v1 / norm) if norm > 0.0 else (1.0, 0.0)
    qc0, qc1 = q0.conjugate(), q1.conjugate()
    t12 = qc0 * (m01 * qc0 - m00 * qc1) + qc1 * (m11 * qc0 - m10 * qc1)
    mean = 0.5 * (m00 + m11)
    return mean + rho, mean - rho, t12, q0, q1


class _Mode(NamedTuple):
    """One coordinate z = p . y of a node's state y = (Re f31, Im f31).

    With u = a_h + w_self*q*a the step input, z' = mu*z + beta*u, and y is
    Re(v*z) summed over the node's modes.  The mode adds Re(ga*z) to the
    next node's a (ga is 1 or 0) and Re(gh*z) to its u.  It is scanned
    unless it is undriven and unread, then carried as z0*mu^m.
    """

    mu: complex
    beta: complex
    p: tuple
    v: tuple
    ga: float
    gh: complex


def _node_map(e_h: complex, e_f: complex, p_h: complex, p_f: complex, w_self: float, w: float):
    """The realified step map of a node whose own coherence enters its field with weight 1j*``w_self``.

    Returns (modes, t12, wq2), or None if the map is not finite: one complex
    _Mode for a complex eigenpair, else two Schur coordinates, the second
    also taking t12 times the first; the next node's u takes wq2*a beyond
    the modes.  With f42 = -conj(f31) the node's coherence sum is s =
    2i*Im(f31) and the midpoint one s_half = 2i*Im(c*f31) + q*a, q = 2i*Im(p_h).
    """
    c = e_h - 2.0 * w_self * p_h.imag
    cv = (c.imag, c.real)  # Im(c*f31) = cv . y
    b = (p_f.real, p_f.imag)  # f31 takes p_f*Omega_half
    r00, r01 = e_f.real - 2.0 * w_self * b[0] * cv[0], -e_f.imag - 2.0 * w_self * b[0] * cv[1]
    r10, r11 = e_f.imag - 2.0 * w_self * b[1] * cv[0], e_f.real - 2.0 * w_self * b[1] * cv[1]
    g = -2.0 * (w_self + w)  # the weight of Im f31 in the next node's a, and of Im(c*f31) in its a_h
    wq = -2.0 * w * p_h.imag  # the weight of a in a_h beyond the modes
    if not all(math.isfinite(x) for x in (r00, r01, r10, r11, g * cv[0], g * cv[1], wq)):
        return None
    mu1, mu2, t12, q0, q1 = _schur(r00, r01, r10, r11)
    qc0, qc1 = q0.conjugate(), q1.conjugate()
    den = q0 * qc1 - q1 * qc0
    if mu1.imag != 0.0 and den != 0.0:
        # y = 2 Re(v z) with v = (q0, q1), the eigenvector of mu1: z = l . y with
        # l . v = 1 and l . conj(v) = 0
        bases = [(mu1, (qc1 / den, -qc0 / den), (2.0 * q0, 2.0 * q1))]
    else:
        # the Schur coordinates Q^H y, in the order that leaves the first free of the second
        bases = [(mu2, (-q1, q0), (-qc1, qc0)), (mu1, (qc0, qc1), (q0, q1))]
    modes, scales = [], []
    for mu, p, v in bases:
        ga = g * v[1]  # the mode's weight in a; a mode that reaches a is scaled to weight 1
        s, ga = (ga, 1.0) if ga != 0.0 else (1.0, 0.0)
        p, v = (p[0] * s, p[1] * s), (v[0] / s, v[1] / s)
        # u = a_h + wq*a takes wq times the mode's share of a as well
        gh = g * (cv[0] * v[0] + cv[1] * v[1]) + wq * ga
        modes.append(_Mode(mu, p[0] * b[0] + p[1] * b[1], p, v, ga, gh))
        scales.append(s)
    if len(modes) == 2:
        t12 *= scales[1] / scales[0]
    values = [t12] + [x for md in modes for x in (md.mu, md.beta, *md.p, *md.v, md.gh)]
    return (modes, t12, 2.0 * wq) if all(cmath.isfinite(x) for x in values) else None


def _span(mu: complex) -> float:
    """Longest block over which |mu|^(+-m) stays within _SCAN_RANGE (unbounded for |mu| = 1)."""
    rate = abs(math.log(abs(mu))) if mu != 0 else math.inf
    return math.inf if rate == 0.0 else 1 + int(math.log(_SCAN_RANGE) / rate)


def _fill_tables(modes, t12, m: np.ndarray, out: np.ndarray) -> None:
    """Rows mu^m and beta*mu^-m of each mode, then t12*mu2^-m for two coupled modes, of ``out``, in place."""
    specs = [(md.mu, sign, scale) for md in modes for sign, scale in ((1.0, 1.0), (-1.0, md.beta))]
    specs += [(modes[1].mu, -1.0, t12)] if len(modes) == 2 and t12 != 0 else []
    real = out.dtype != complex
    for row, (mu, sign, scale) in zip(out, specs):
        # mu = 0 limits the block to one step, where only m = 0 is read
        c = sign * cmath.log(mu) if mu != 0 else 0j
        np.multiply(m, c.real if real else c, row)
        np.exp(row, row)
        if real and c.imag:  # a negative real mu: mu^m alternates in sign
            np.negative(row[1::2], row[1::2])
        np.multiply(row, scale, row)


def _march(segments, w: float, n_u: int, inputs: np.ndarray, kicks: dict, snap_steps: list, dt: float,
           trace: np.ndarray):
    """March one branch in depth, node by node, over time blocks of each schedule segment.

    ``segments`` holds (delta_b, first step, stop step) of each schedule
    segment, as _segment_steps gives them, and 1j*``w`` is the trapezoid
    weight kappa*du/2.
    A node's state is y = (Re f31, Im f31) under a real 2x2 step map.  Where
    its eigenvalues are a complex pair, one complex prefix sum of (real
    input) x (complex table) gives its _Mode z, and it hands on a += Re z
    and u += Re(gh*z).  Where they are real, it scans in float64 the
    coordinates of the map's real Schur basis, but carries one that is
    undriven and unread (no input, kick, hand-on or t12) as z0*mu^m, read
    off its table at the steps the state and snapshots need.

    A block is at most _BLOCK steps, the width of the fields a and u and of
    one scratch pool of 8 float64 rows: a float64 map uses them as z1, z2,
    a temporary, mu^m and beta*mu^-m of each mode and t12*mu2^-m (filled
    only where t12 != 0); a complex map views the same bytes as 4 complex
    rows, z, a temporary, mu^m and beta*mu^-m.  The temporary holds the step
    ramp m while the tables are filled.  What every node of a block shares
    (row views, hand-ons, the table at the read steps) is built once per
    block and map.

    ``inputs`` is the branch input Omega(0), a float64 array of shape (2,
    n_t) holding the full steps and the midpoints; ``kicks`` maps a step to
    the Im f31 it adds at every node, on the block's first step as on any
    other.  The back-face field goes to the float64 array ``trace``.
    Returns f31 at ``snap_steps`` as (snapshot, depth).
    """
    # y of every node at the next block's first step, as rows Re f31 and Im f31
    state = np.zeros((2, n_u))
    s0, s1 = state
    snaps = np.zeros((len(snap_steps), n_u), dtype=complex)
    width = min(_BLOCK, len(trace))
    fields = np.empty((2, width))
    pool = np.empty(8 * width)
    for level, first, stop in segments:
        (e_h, p_h), (e_f, p_f) = _propagators(level, 0.5 * dt), _propagators(level, dt)
        maps = (_node_map(e_h, e_f, p_h, p_f, 0.0, w), _node_map(e_h, e_f, p_h, p_f, w, w))
        finite = None not in maps
        layouts, spans = [], []
        for modes, _, _ in maps if finite else ():
            # 4 rows per mode of the map's dtype (a complex map with two Schur modes gets half the width)
            rows = pool.view(type(modes[0].mu))
            n_rows = 4 * len(modes)
            layouts.append(rows[:rows.size // n_rows * n_rows].reshape(n_rows, -1))
            spans += [_span(md.mu) for md in modes]
        k_max = min(stop - first, width, *spans, *(rows.shape[1] for rows in layouts))
        for b0 in range(first, stop, k_max):
            b1 = min(b0 + k_max, stop)
            k = b1 - b0
            a, u = fields[:, :k]
            u_lo = u[:-1]
            np.copyto(fields[:, :k], inputs[:, b0:b1])  # node 0 has no self term, so its step input u is a_h
            inner = [(n - b0, kick) for n, kick in kicks.items() if b0 <= n < b1]
            shots = [(n - b0, s) for s, n in enumerate(snap_steps) if b0 <= n < b1]
            read = [i for i, _ in shots] + [k - 1]  # the steps of a coordinate that the state and snapshots read
            if not finite:
                # the map overflows: the run turns non-finite at the first step carrying a
                # value; until then every state and field is exactly zero
                hot = [i for i, _ in inner] + [int(np.flatnonzero(v)[0]) for v in (a, u) if v.any()]
                hot += [0] if state.any() else []
                if hot:
                    raise NumericalError(f"non-finite field at t = {(b0 + min(hot)) * dt:.4f} ns")
                continue
            for j in range(n_u):
                if j < 2:
                    modes, t12, wq2 = maps[j]
                    n = len(modes)
                    rows = layouts[j][:, :k]
                    zt = rows[n]
                    ztr = zt.real
                    # the block's steps m = 0, 1, ... in the temporary row, as a running sum of ones (exact)
                    ztr.fill(1.0)
                    ztr[0] = 0.0
                    np.cumsum(ztr, out=ztr)
                    _fill_tables(modes, t12, ztr, rows[n + 1:])
                    # a carried coordinate keeps its table at the read steps; a scanned one its
                    # row z, the shifted views, and, for a second Schur mode, the first mode's part
                    carried, scans = [], []
                    for i, md in enumerate(modes):
                        z, pw, dn = rows[i], rows[n + 1 + 2 * i], rows[n + 2 + 2 * i]
                        if md.beta == 0 and md.p[1] == 0 and md.ga == md.gh == 0 and t12 == 0:
                            carried.append((md, [pw.item(r) for r in read]))
                        else:
                            coupled = (rows[0][:-1], rows[-1][1:], zt[1:]) if i == 1 and t12 != 0 else None
                            scans.append((md, z, z[1:], dn[1:], pw, coupled))
                    hand_on = [(row, z, g, (z if g == 1.0 else zt).real) for md, z, *_ in scans
                               for row, g in ((a, md.ga), (u, md.gh)) if g != 0.0]
                if j == n_u - 1:
                    # the back-face field is the mean of the last node's input and output
                    trace[b0:b1] = a
                y0, y1 = s0.item(j), s1.item(j)
                u_last = u.item(-1)
                # each mode at the read steps: a carried one as what the scan of its zero input gives
                found = [(md, [x * (md.p[0] * y0 + md.p[1] * y1) for x in table]) for md, table in carried]
                for md, z, z_hi, dn_hi, pw, coupled in scans:
                    np.multiply(u_lo, dn_hi, z_hi)
                    if coupled:
                        z1_lo, cpl_hi, zt_hi = coupled
                        np.multiply(z1_lo, cpl_hi, zt_hi)
                        np.add(z_hi, zt_hi, z_hi)
                    z[0] = md.p[0] * y0 + md.p[1] * y1
                    for i, kick in inner:
                        z[i] += md.p[1] * kick / pw[i]
                    _scan(z, 0, None, z)
                    np.multiply(z, pw, z)
                    found.append((md, [z.item(i) for i in read]))
                # the state one step past the block, and the snapshots; the second Schur
                # coordinate takes t12 times the first (t12 is 0 where one is carried)
                ends, ny0, ny1 = [], 0.0, 0.0
                for md, zs in found:
                    nxt = md.mu * zs[-1] + md.beta * u_last + (t12 * ends[0] if ends else 0.0)
                    ends.append(zs[-1])
                    ny0, ny1 = ny0 + (md.v[0] * nxt).real, ny1 + (md.v[1] * nxt).real
                    for (_, s), x in zip(shots, zs):
                        snaps[s, j] += complex((md.v[0] * x).real, (md.v[1] * x).real)
                s0[j], s1[j] = ny0, ny1
                # u takes wq2 times this node's input a, before a takes the hand-ons
                np.multiply(a, wq2, ztr)
                np.add(u, ztr, u)
                for row, z, g, src in hand_on:
                    if g != 1.0:
                        np.multiply(z, g, zt)
                    np.add(row, src, row)
            np.add(trace[b0:b1], a, trace[b0:b1])
            np.multiply(trace[b0:b1], 0.5, trace[b0:b1])
    return snaps


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
    w = sc.eta_l * CLEBSCH_A * (0.5 * (1.0 / (n_u - 1)))  # kappa * du / 2 = 1j * w
    mirror = sc.mirror
    tau = sc.tau
    disable_time = mirror.disable_time
    refl_amp = math.sqrt(mirror.reflectivity)
    pulse = sc.pulse

    segments = _segment_steps(sc, n_t)

    # impulsive-mode kicks per branch, {step: Im f31 added}: the prompt at t0
    # and, when the gate admits it, the mirror-reflected prompt arriving one
    # round trip later; a kick adds the same imaginary coherence to both lines
    kicks_f: dict[int, float] = {}
    kicks_b: dict[int, float] = {}
    if pulse.mode == "impulsive":
        theta = pulse.area
        kick_amp = 0.25 * CLEBSCH_A
        kicks_f[round(pulse.t0 / dt)] = kick_amp * theta
        if refl_amp > 0.0 and _reflects(pulse.t0, tau, disable_time):
            ib = math.ceil((pulse.t0 + tau) / dt - 1e-9)  # first grid time >= t0 + tau
            if ib < n_t:
                kicks_b[ib] = kick_amp * (-refl_amp * theta)

    # the forward branch's input at the full steps (row 0) and the midpoints
    # (row 1): the resolved pulse, or in impulsive mode a read-only zero view
    # that holds no memory
    half = np.array([[0.0], [0.5 * dt]])
    inputs = gaussian_input(t_grid + half, pulse) if pulse.mode == "gaussian" else np.broadcast_to(0.0, (2, n_t))
    snap_at = {round(t / dt): t for t in sc.record_snapshots_at}
    snap_steps = sorted(snap_at)
    fwd, bwd = np.zeros(n_t), np.zeros(n_t)
    fs = _march(segments, w, n_u, inputs, kicks_f, snap_steps, dt, fwd)
    # the peak counts the medium-generated field only; a resolved input pulse
    # is transiently large by construction without breaking linearity
    peak_field = float(np.abs(fwd - inputs[0]).max())

    bs = np.zeros_like(fs)
    if refl_amp > 0.0:
        # the mirror input -sqrt(R) * Omega_F(t - tau, L) while the gate is open, else 0,
        # built in place from the exit times, rounded as (t + h) - tau; the delayed field
        # interpolates the forward trace linearly and, as tau >= dt, reads only samples
        # recorded before the step
        t_exit = t_grid + half
        t_exit -= tau
        inputs = np.interp(t_exit, t_grid, fwd)
        inputs *= -refl_amp
        inputs[~_reflects(t_exit, tau, disable_time)] = 0.0
        del t_exit  # not read by the march, where a run's memory peaks
        bs = _march(segments, w, n_u, inputs, kicks_b, snap_steps, dt, bwd)
        peak_field = max(peak_field, float(np.abs(bwd - inputs[0]).max()))

    bad = ~(np.isfinite(fwd) & np.isfinite(bwd))
    if bad.any():
        raise NumericalError(f"non-finite field at t = {np.argmax(bad) * dt:.4f} ns")
    if peak_field > LINEAR_FIELD_WARN * DEFAULT_GAMMA:
        warnings.warn(
            f"peak scattered |Omega| = {peak_field:.3g} exceeds {LINEAR_FIELD_WARN}*gamma; "
            "linear-regime assumption is strained",
            RuntimeWarning,
            stacklevel=2,
        )

    # the lines are a conjugate pair: f42 = -conj(f31), b42 = -conj(b31)
    snapshots = []
    for s, step in enumerate(snap_steps):
        f31, b31 = fs[s].copy(), bs[s, ::-1].copy()
        snapshots.append(CoherenceSnapshot(snap_at[step], f31, -f31.conj(), b31, -b31.conj()))

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
