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

Every field input is real, kicks are imaginary and delta_b is real, so
f42 = -conj(f31): the fields stay real and only f31 is solved for.  Depth
uses Gauss-Legendre collocation: N nodes u_k with weights w_k and the
cumulative integration matrix S, N even and set by xi alone
(``model.depth_nodes``).  With y = (Re f31, Im f31) on the nodes,

    y' = M y + b Omega_F(0),  M = [[-G/2 I, db I], [-db I, -G/2 I - (eta_l a^2/2) S]]

with b = (0, a/4), and the back-face field is Omega_F(0) - 2 eta_l a w.Im f31.
S is diagonalised once per N (``_basis``, on the Legendre coefficients of
the node interpolant, where it is tridiagonal); its eigenvalues come in
conjugate pairs, none real for even N, and each pair's eigenvalue sigma
gives a 2x2 block of M in closed form, so a schedule segment is a sum of
2 per pair of exponential modes.  A kick, a segment switch or a snapshot
is an exact update of the modes at its step.  Between them a branch with
no input is a closed form in time, evaluated as per-row start factors
times a table of e^(kappa m dt); where an array input (the gaussian pulse,
the mirror feedback) is nonzero, the modes take it by the exponential
midpoint rule, held over each step at its midpoint value, as one prefix
sum per mode.  n_depth sets only the grid the snapshots are evaluated on.
The modes run in numpy's extended precision (see ``_basis``), and no BLAS
or LAPACK routine runs here.

The forward branch never sees the backward one.  Each branch takes its
front-face input as one float64 array of full steps and midpoints, and
writes its back-face field into a float64 trace.  The forward branch is
solved over the whole run first; the backward branch's mirror input is
then built from that trace in whole-array passes.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import (CLEBSCH_A, DEFAULT_GAMMA, PulseSpec, ScenarioConfig, ValidatedScenario, depth_nodes,
                    validate_scenario)

#: warn when |Omega| exceeds this multiple of gamma (linear regime monitor)
LINEAR_FIELD_WARN = 0.1

#: steps per row of a free stretch's table, and per stretch of a driven scan
_BLOCK = 256

#: largest |mu|^-m a driven scan may reach, which keeps its prefix sums far from overflow
_SCAN_GROWTH = 1e150


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


def _legendre_series(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_m c[..., m] P_m(x) for Legendre coefficients ``c``, by the polynomials' recurrence."""
    p0, p1, out = 0.0 * x, np.ones_like(x), 0.0
    for k in range(c.shape[-1]):
        out = out + c[..., k:k + 1] * p1
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return out


@functools.lru_cache(maxsize=None)
def _basis(n: int):
    """The eigenbasis of ``n``-node Gauss-Legendre collocation of int_0^u on [0, 1], one of each conjugate pair.

    Returns (sigma, r, coef): a node state (x, y) = (Re f31, Im f31) is
    2 Re(V (X, Y)) over the eigenvectors V of the integration matrix, with
    eigenvalues sigma and Legendre coefficients the columns of coef; a
    uniform Im f31 of 1 is Y = r, and the depth mean of y (the P_0
    coefficient) is 2 Re(coef[0] . Y).  On the coefficients, with
    x = 2u - 1, int_-1^x P_m = (P_m+1 - P_m-1)/(2m + 1) and int_-1^x P_0 =
    P_0 + P_1: the integration is tridiagonal, and P_n, which vanishes at
    the nodes, drops out.  Its eigenvalues are the roots of its leading-minor
    recurrence, found together by Weierstrass's iteration, and the minors give
    the eigenvectors, which two Newton steps per pair refine (V diag(sigma)
    V^-1 is then within 3e-14 of the integration at 14 nodes, not 9e-12).
    All of it runs, and is returned, in numpy's extended precision (80-bit
    on x86-64): the basis is ill-conditioned (cond 2e7 at 14 nodes, 4e9 at
    18), and rounded to float64 it moves thick slabs' snapshots by 2e-8, so
    a platform whose long double is float64 raises RuntimeError here.
    No BLAS or LAPACK routine runs: loading one adds its code and buffers,
    0.1 to 2 MB each, to the process's resident set.
    """
    if np.finfo(np.longdouble).nmant < 63:
        raise RuntimeError("the modal basis needs numpy's 80-bit or wider long double; this platform's is float64")
    k = np.arange(n - 1, dtype=np.longdouble)
    sub, sup = 0.5 / (2.0 * k + 1.0), -0.5 / (2.0 * k + 3.0)  # T[k+1, k] and T[k, k+1]
    diag = np.append(0.5, np.zeros_like(k))  # T[k, k]: int_-1^x P_0 = P_0 + P_1 holds the one nonzero

    def minors(lam):
        """The leading minors det(T - lam)_j, j = 0 ... n."""
        f = [np.ones_like(lam), diag[0] - lam]
        for j in range(1, n):
            f.append((diag[j] - lam) * f[j] - sub[j - 1] * sup[j - 1] * f[j - 1])
        return f

    lam = 0.1 * np.exp(2j * math.pi * (np.arange(n) + 0.25) / n).astype(np.clongdouble)
    # Weierstrass's iteration, as det(T - lam) = prod(lam - sigma_k) for even n: from this
    # circle, 18 nodes reach their rounding floor in 45 sweeps
    for _ in range(60):
        gap = lam[:, None] - lam
        np.fill_diagonal(gap, 1.0)
        lam = lam - minors(lam)[-1] / gap.prod(axis=1)
    sigma = lam[lam.imag > 0.0]
    # the minors are the eigenvector's coefficients up to the product of the superdiagonal
    f = minors(sigma)
    coef = np.array(f[:n]) * np.concatenate(([1.0], np.cumprod(-1.0 / sup)))[:, None]
    coef /= np.sqrt((np.abs(coef) ** 2).sum(axis=0))
    tri, jac = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1), np.zeros((n + 1, n + 1), dtype=np.clongdouble)
    for _ in range(2):  # Newton on (T - sigma) v = 0, v0^H v = 1, v0 the vector before the step
        for j, v in enumerate(coef.T.copy()):
            jac[:n, :n], jac[:n, n], jac[n, :n] = tri - sigma[j] * np.eye(n), -v, v.conj()
            step = _gauss(jac, np.append(-(jac[:n, :n] @ v), 0.0))
            coef[:, j], sigma[j] = v + step[:n], sigma[j] + step[n]
    # r solves 2 Re(coef r) = e_0, the coefficients of a uniform 1, as one real system
    r = _gauss(np.hstack((coef.real, -coef.imag)), np.eye(n)[0] * 0.5).reshape(2, -1)
    return sigma, r[0] + 1j * r[1], coef


def _gauss(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for a small square a, by Gaussian elimination with partial pivoting, in a's precision."""
    ab = np.column_stack((a, b))
    n = len(b)
    for k in range(n):
        p = k + int(np.argmax(np.abs(ab[k:, k])))
        ab[[k, p]] = ab[[p, k]]
        ab[k + 1:] -= np.multiply.outer(ab[k + 1:, k] / ab[k, k], ab[k])
    x = np.zeros(n, dtype=ab.dtype)
    for k in range(n - 1, -1, -1):
        x[k] = (ab[k, n] - (ab[k, k + 1:n] * x[k + 1:]).sum()) / ab[k, k]
    return x


def _modes(sigma: np.ndarray, c: float, delta_b: float):
    """Exponents kappa and right and left eigenvectors u, l of every 2x2 block at splitting ``delta_b``.

    Block k carries (X_k, Y_k) under [[-G/2, db], [-db, -G/2 - c sigma_k]].
    With h = c sigma/2 and rho^2 = h^2 - db^2, its exponents are
    -G/2 - h +- rho, rho's sign taken so that |rho + h| >= |rho - h|, which
    keeps q = rho + h away from 0.  Modes run (+ of every block, - of every
    block); a mode's coordinate is zeta = l . (X_k, Y_k), and (X_k, Y_k) is
    the sum of u*zeta over the block's two modes.  rho is 0 only where the
    block is a multiple of I (c sigma = db = 0), split there along X and Y.
    """
    h = 0.5 * c * sigma
    rho = np.sqrt(h * h - np.longdouble(delta_b) ** 2)  # long double: no float64 splitting overflows it
    rho[(rho * h.conj()).real < 0.0] *= -1.0
    flat = rho == 0.0
    q, d = np.where(flat, 2.0, rho + h), np.where(flat, 2.0, 2.0 * rho)
    mean = -0.5 * DEFAULT_GAMMA - h
    kappa = np.concatenate((mean + rho, mean - rho))
    db, one = np.full_like(q, delta_b), np.ones_like(q)
    return kappa, np.block([[q, -db], [-db, q]]) / np.tile(d, 2), np.block([[one, db / q], [db / q, one]])


def _free(zeta, kappa, read, dt: float, trace: np.ndarray):
    """Write the undriven trace Re sum(read*zeta*e^(kappa*m*dt)) into ``trace``; return zeta one step past it.

    The steps are rows of _BLOCK: the trace is the real part of each row's
    start factors read*zeta*e^(kappa*t_row) times one table e^(kappa*m*dt),
    m < _BLOCK, summed over the modes as one real matrix product in extended
    precision (numpy's own loop, not BLAS), where the modes' large terms
    cancel.
    """
    n = trace.size
    coef = read * zeta
    if coef.any():
        width = min(_BLOCK, n)
        table = np.exp(np.outer(kappa, np.arange(width) * dt))
        start = coef * np.exp(np.outer(np.arange(-(-n // width)) * (width * dt), kappa))
        acc = np.hstack((start.real, -start.imag)) @ np.vstack((table.real, table.imag))
        trace[:] = acc.ravel()[:n]
    return zeta * np.exp(kappa * (n * dt))


def _driven(zeta, kappa, drive, read, inputs: np.ndarray, dt: float, trace: np.ndarray):
    """Advance the modes over the input ``inputs`` (full steps, midpoints) and write the trace; return zeta past it.

    Exponential midpoint rule: each step adds the midpoint input times
    drive*(e^(kappa*dt) - 1)/kappa.  The recurrence is a prefix sum of
    input*mu^-m times mu^m, over stretches of at most _BLOCK steps, cut
    shorter where |mu|^-m would pass _SCAN_GROWTH.
    """
    beta = drive * (np.exp(kappa * dt) - 1.0) / kappa
    rate = -kappa.real.min() * dt
    width = max(1, min(_BLOCK, int(math.log(_SCAN_GROWTH) / rate)))
    pw = np.exp(np.outer(kappa * dt, np.arange(1, width + 1)))
    for b0 in range(0, trace.size, width):
        k = min(width, trace.size - b0)
        z = np.empty((kappa.size, k + 1), dtype=kappa.dtype)
        z[:, 0] = 0.0
        np.divide(np.outer(beta, inputs[1, b0:b0 + k]), pw[:, :k], out=z[:, 1:])
        np.cumsum(z, axis=1, out=z)
        z += zeta[:, None]
        z[:, 1:] *= pw[:, :k]
        trace[b0:b0 + k] = inputs[0, b0:b0 + k] + (read[:, None] * z[:, :k]).real.sum(axis=0)
        zeta = z[:, k].copy()
    return zeta


def _solve(basis, segments, eta: float, inputs: np.ndarray, kicks: dict, snap_steps: list, dt: float,
           trace: np.ndarray):
    """Integrate one branch over its schedule segments, writing its back-face field into ``trace``.

    ``segments`` holds (delta_b, first step, stop step) of each segment, as
    _segment_steps gives them; ``inputs`` is the front-face input as a
    float64 array of shape (2, n_t), full steps and midpoints; ``kicks``
    maps a step to the pulse area it deposits, applied before that step's
    trace.  A segment runs in the modes of its splitting: between kicks and
    the ends of the steps that carry input, each stretch is either driven
    (a scan, also cut at snapshots) or free (a closed form).
    Returns the state (X, Y) at ``snap_steps`` as an array (snapshot, 2, K).
    """
    sigma, r, coef = basis
    n_k = sigma.size
    xy = np.zeros((2, n_k), dtype=sigma.dtype)
    snaps = np.zeros((len(snap_steps), 2, n_k), dtype=sigma.dtype)
    active = np.flatnonzero(inputs.any(axis=0))
    lo, hi = (active[0], active[-1] + 1) if active.size else (0, 0)
    drive_y = np.tile(0.25 * CLEBSCH_A * r, 2)
    read_y = np.tile(-4.0 * eta * CLEBSCH_A * coef[0], 2)
    for level, first, stop in segments:
        kappa, u, l = _modes(sigma, 0.5 * eta * CLEBSCH_A ** 2, level)
        drive, read = l[1] * drive_y, u[1] * read_y
        zeta = l[0] * np.tile(xy[0], 2) + l[1] * np.tile(xy[1], 2)
        # a snapshot inside a free stretch is read off its closed form, so it leaves the trace as it was
        inner = (*kicks, lo, hi, *(n for n in snap_steps if lo <= n < hi))
        cuts = sorted({first, stop, *(n for n in inner if first < n < stop)})
        for s, e in zip(cuts, cuts[1:]):
            if s in kicks:
                zeta = zeta + kicks[s] * drive
            for n in (n for n in snap_steps if s <= n < e):
                p = u * (zeta * np.exp(kappa * ((n - s) * dt)))
                snaps[snap_steps.index(n)] = p[:, :n_k] + p[:, n_k:]
            if lo <= s < hi:
                zeta = _driven(zeta, kappa, drive, read, inputs[:, s:e], dt, trace[s:e])
            else:
                zeta = _free(zeta, kappa, read, dt, trace[s:e])
        p = u * zeta
        xy = p[:, :n_k] + p[:, n_k:]
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
    time at which a field goes non-finite.

    The forward branch (f31, f42) is integrated over the whole run; its
    back-face trace then gives the backward branch (b31, b42, stored in
    reversed depth so that it takes the same equations) its mirror input.
    Without a reflecting mirror the backward branch is identically zero and
    is left out.
    """
    sc = validate_scenario(scenario)
    dt = sc.dt
    n_t = sc.n_steps + 1
    t_grid = np.arange(n_t) * dt
    basis = _basis(depth_nodes(sc.sample.xi))
    mirror = sc.mirror
    tau = sc.tau
    disable_time = mirror.disable_time
    refl_amp = math.sqrt(mirror.reflectivity)
    pulse = sc.pulse

    segments = _segment_steps(sc, n_t)

    # impulsive-mode kicks per branch, {step: pulse area}: the prompt at t0
    # and, when the gate admits it, the mirror-reflected prompt arriving one
    # round trip later; a kick of area theta adds i*(a/4)*theta to both lines
    kicks_f: dict[int, float] = {}
    kicks_b: dict[int, float] = {}
    if pulse.mode == "impulsive":
        theta = pulse.area
        kicks_f[round(pulse.t0 / dt)] = theta
        if refl_amp > 0.0 and _reflects(pulse.t0, tau, disable_time):
            ib = math.ceil((pulse.t0 + tau) / dt - 1e-9)  # first grid time >= t0 + tau
            if ib < n_t:
                kicks_b[ib] = -refl_amp * theta

    # the forward branch's input at the full steps (row 0) and the midpoints
    # (row 1): the resolved pulse, or in impulsive mode a read-only zero view
    # that holds no memory
    half = np.array([[0.0], [0.5 * dt]])
    inputs = gaussian_input(t_grid + half, pulse) if pulse.mode == "gaussian" else np.broadcast_to(0.0, (2, n_t))
    snap_at = {round(t / dt): t for t in sc.record_snapshots_at}
    snap_steps = sorted(snap_at)
    fwd, bwd = np.zeros(n_t), np.zeros(n_t)
    fs = _solve(basis, segments, sc.eta_l, inputs, kicks_f, snap_steps, dt, fwd)
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
        del t_exit
        bs = _solve(basis, segments, sc.eta_l, inputs, kicks_b, snap_steps, dt, bwd)
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

    # the states as Legendre series, (Re f31, Im f31) = 2 Re(coef (X, Y)), on the uniform
    # output grid; the lines are a conjugate pair: f42 = -conj(f31), b42 = -conj(b31)
    grid = np.linspace(-1.0, 1.0, sc.sample.n_depth)
    snapshots = []
    for s, step in enumerate(snap_steps):
        f31, b31 = (_legendre_series(2.0 * (basis[2] * xy[:, None, :]).sum(axis=-1).real, grid).astype(float)
                    for xy in (fs[s], bs[s]))
        f31, b31 = f31[0] + 1j * f31[1], b31[0, ::-1] + 1j * b31[1, ::-1]
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
