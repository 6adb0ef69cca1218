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
gives a 2x2 block of M in closed form, so a schedule segment is a sum of 2
per pair of exponential modes, built once per splitting and run.  Every
event acts at its exact time: the kicks, the segment switches, the snapshots
and the ends of a branch's input window cut the run into stretches, and the
state is carried to each by its modes' closed form e^(kappa (t_event - t)).
A stretch with no input is a closed form in time, evaluated on the output
rows as per-row start factors times a table of e^(kappa m dt) (``_powers``,
built once per splitting and run) in one long-double ``np.dot``, not BLAS.
Inside the input window (the gaussian pulse, the mirror feedback) the modes
take the input by the exponential midpoint rule, held over each step at its
midpoint value, as one prefix sum per mode over such a table; a step that
holds an event is split there, each part with its own midpoint.  So dt
samples only the output rows and the array inputs, and n_depth only the grid
the snapshots are evaluated on.  The modes run in numpy's extended precision
(see ``_basis``), and no BLAS or LAPACK routine runs here.

The forward branch never sees the backward one.  Each branch takes its
front-face input as a function of time and writes its exit-face field into
a float64 trace.  The forward branch is solved over the whole run first;
the backward branch's mirror input is then the forward field at t - tau,
in closed form where the forward branch is free, else interpolated
linearly from its trace.
"""

from __future__ import annotations

import bisect
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

#: half-width of a gaussian pulse's drive window in fwhm: 17 fwhm is 40 sigma, where the
#: envelope e^(-x^2/2) is below float64's smallest number
_GAUSS_REACH = 17.0


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


def _last_reflected_exit(tau: float, disable_time: float | None) -> float:
    """The mirror gate: the last time at which light leaving the back face is reflected.

    Light leaving at t_exit >= 0 (nothing leaves before t = 0) meets the
    mirror at t_exit + tau/2, is reflected only if the mirror is still in
    the beam then (t_exit + tau/2 <= disable_time), and returns to the back
    face at t_exit + tau.  The reflected prompt's kick and the mirror
    feedback both take their timing from here.
    """
    return math.inf if disable_time is None else disable_time - 0.5 * tau


def _row(t: float, dt: float, n_t: int) -> int:
    """The first of ``n_t`` output rows at or after time ``t`` >= 0, else ``n_t``; 1e-9 of a step below counts as at it."""
    return n_t if t >= n_t * dt else math.ceil(t / dt - 1e-9)


def _stretches(sc: ValidatedScenario, events):
    """(start, stop, delta_b, first row, stop row) of each stretch of the run between two cuts.

    The cuts are t = 0, every schedule switch and the ``events``, at their
    exact times, as far as they lie in [0, t_end].  A stretch runs at the
    level of the last segment starting at or before its start and holds
    the output rows from its start to the next stretch's, the last one
    t_end's; a cut within 1e-9 of a step below a row counts as at the row.
    """
    segs, n_t = sc.schedule.segments, sc.n_steps + 1
    starts = [s.t_start for s in segs]
    cuts = sorted(t for t in {0.0, *starts[1:], *events} if 0.0 <= t <= sc.t_end)
    rows = [_row(t, sc.dt, n_t) for t in cuts] + [n_t]
    for k, (a, b) in enumerate(zip(cuts, [*cuts[1:], sc.t_end])):
        yield a, b, segs[bisect.bisect_right(starts, a) - 1].delta_b, rows[k], rows[k + 1]


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
    u = np.concatenate(([q, -db], [-db, q]), axis=1) / np.concatenate((d, d))
    return kappa, u, np.concatenate(([one, db / q], [db / q, one]), axis=1)


def _powers(kappa: np.ndarray, first: int, width: int, dt: float) -> np.ndarray:
    """The table e^(kappa*m*dt), m = ``first`` ... ``first`` + ``width`` - 1, one row per mode.

    As m = first + 16a + b, b < 16, it is the outer product of two short exps,
    e^(kappa*(first + 16a)*dt) and e^(kappa*b*dt): K*(16 + width/16) exps for K
    modes, not K*width, with m*dt in long double; within 3e-19 of the direct exp.
    """
    step = np.longdouble(dt)
    coarse = np.exp(np.outer(kappa, (first + 16 * np.arange(-(-width // 16))) * step))
    fine = np.exp(np.outer(kappa, np.arange(min(16, width)) * step))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(kappa.size, -1)[:, :width]


def _free(coef, kappa, table: np.ndarray, offset: float, dt: float, trace: np.ndarray):
    """Write the undriven trace Re sum(coef*e^(kappa*(offset + m*dt))) into ``trace``.

    The steps are rows of up to _BLOCK: the trace is the real part of each
    row's start factors coef*e^(kappa*t_row) times the first columns of
    ``table``, the splitting's e^(kappa*m*dt) (``_powers``, built once per run)
    as its real rows over its imaginary ones, summed over the modes as one
    long-double ``np.dot`` (numpy's own loop, not BLAS), where their large terms cancel.
    """
    n = trace.size
    if n and coef.any():
        width = min(_BLOCK, n)
        start = coef * np.exp(np.outer(offset + np.arange(-(-n // width)) * (width * dt), kappa))
        # not @: for long double, matmul's own loop measured about 3x slower, with identical results
        acc = np.dot(np.concatenate((start.real, -start.imag), axis=1), table[:, :width])
        trace[:] = acc.ravel()[:n]


def _step(zeta, kappa, drive, drive_in, t0: float, t1: float):
    """Advance the modes from t0 to t1 by the exponential midpoint rule: the input held at its midpoint value."""
    mu = np.exp(kappa * (t1 - t0))
    return zeta * mu + drive * (mu - 1.0) / kappa * drive_in(np.array([0.5 * (t0 + t1)]))[0]


def _driven(zeta, kappa, drive, read, drive_in, first: int, dt: float, trace: np.ndarray):
    """Write the trace at rows ``first``, ``first`` + 1, ... from the modes at the first; return them at the last.

    Exponential midpoint rule: each step adds the input at its midpoint
    times drive*(e^(kappa*dt) - 1)/kappa.  The recurrence is a prefix sum of
    input*mu^-m times mu^m (a ``_powers`` table), over stretches of at most
    _BLOCK steps, cut shorter where |mu|^-m would pass _SCAN_GROWTH.
    """
    beta = drive * (np.exp(kappa * dt) - 1.0) / kappa
    rate = -kappa.real.min() * dt
    width = max(1, min(_BLOCK, int(math.log(_SCAN_GROWTH) / rate)))
    pw = _powers(kappa, 1, width, dt)
    n = trace.size
    for b0 in range(0, n, width):
        k = min(width, n - b0)
        s = min(k, n - 1 - b0)  # the steps after this block's rows: none after the last row
        z = np.empty((kappa.size, s + 1), dtype=kappa.dtype)
        z[:, 0] = 0.0
        np.divide(np.outer(beta, drive_in((first + b0 + 0.5 + np.arange(s)) * dt)), pw[:, :s], out=z[:, 1:])
        np.cumsum(z, axis=1, out=z)
        z += zeta[:, None]
        z[:, 1:] *= pw[:, :s]
        trace[b0:b0 + k] = (read[:, None] * z[:, :k]).real.sum(axis=0)
        zeta = z[:, s].copy()
    return zeta


def _solve(basis, modes: dict, sc: ValidatedScenario, drive_in, window: tuple[float, float], kicks: dict,
           snap_times: list, trace: np.ndarray):
    """Integrate one branch over the run, writing the field it adds to its input at its exit face into ``trace``.

    ``drive_in`` gives the front-face input at an array of times; it is zero
    outside ``window`` = [start, stop).  ``kicks`` maps a time to the pulse
    area it deposits, before that time's trace and snapshot.  The kicks, the
    window's ends and the snapshots inside it cut the run into stretches
    (``_stretches``), each in its splitting's modes ``modes[delta_b]``.  A
    stretch inside the window is driven: exponential midpoint steps from its
    start to each row and on to its end, each with its own midpoint.  Any
    other is free: a closed form from its start, which also gives its snapshots.
    Returns the state (X, Y) at ``snap_times`` as an array (snapshot, 2, K),
    and the free stretches as (start, stop, read*zeta at the start, kappa),
    from which ``_field_at`` evaluates the trace at any time.
    """
    sigma, r, coef = basis
    n_k = sigma.size
    dt, (lo, hi) = sc.dt, window
    xy = np.zeros((2, n_k), dtype=sigma.dtype)
    snaps = np.zeros((len(snap_times), 2, n_k), dtype=sigma.dtype)
    drive_y = np.concatenate((0.25 * CLEBSCH_A * r,) * 2)
    read_y = np.concatenate((-4.0 * sc.eta_l * CLEBSCH_A * coef[0],) * 2)
    stretches = list(_stretches(sc, (*kicks, lo, hi, *(t for t in snap_times if lo <= t < hi))))
    owner = [bisect.bisect_right([s[0] for s in stretches], t) - 1 for t in snap_times]
    free, level = [], None
    for j, (a, b, delta_b, r0, r1) in enumerate(stretches):
        if delta_b != level:
            if level is not None:
                p = u * zeta
                xy = p[:, :n_k] + p[:, n_k:]
            kappa, u, l, table = modes[delta_b]
            drive, read = l[1] * drive_y, u[1] * read_y
            zeta = l[0] * np.concatenate((xy[0], xy[0])) + l[1] * np.concatenate((xy[1], xy[1]))
            level = delta_b
        if a in kicks:
            zeta = zeta + kicks[a] * drive
        for i in (i for i, o in enumerate(owner) if o == j):
            p = u * (zeta * np.exp(kappa * (snap_times[i] - a)))
            snaps[i] = p[:, :n_k] + p[:, n_k:]
        if lo <= a < hi:
            if r1 > r0:
                zeta = _step(zeta, kappa, drive, drive_in, a, r0 * dt)
                zeta = _driven(zeta, kappa, drive, read, drive_in, r0, dt, trace[r0:r1])
                a = (r1 - 1) * dt
            zeta = _step(zeta, kappa, drive, drive_in, a, b)
        else:
            _free(read * zeta, kappa, table, r0 * dt - a, dt, trace[r0:r1])
            free.append((a, b, read * zeta, kappa))
            zeta = zeta * np.exp(kappa * (b - a))
    return snaps, free


def _field_at(t: np.ndarray, t_grid: np.ndarray, trace: np.ndarray, free: list) -> np.ndarray:
    """A branch's trace at the times ``t``: the closed form where a free stretch holds them, else interpolated."""
    out = np.interp(t, t_grid, trace)
    for a, b, coef, kappa in free:
        inside = (t >= a) & (t < b)
        if inside.any():
            out[inside] = (coef * np.exp(np.outer(t[inside] - a, kappa))).real.sum(axis=1)
    return out


def _add_input(trace: np.ndarray, drive_in, window: tuple[float, float], dt: float):
    """Add a branch's front-face input to its trace on the rows inside ``window``."""
    rows = np.arange(_row(window[0], dt, trace.size), _row(window[1], dt, trace.size))
    if rows.size:
        trace[rows] += drive_in(rows * dt)


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
    back-face field then gives the backward branch (b31, b42, stored in
    reversed depth so that it takes the same equations) its mirror input.
    Without a reflecting mirror the backward branch is identically zero and
    is left out.
    """
    sc = validate_scenario(scenario)
    dt = sc.dt
    n_t = sc.n_steps + 1
    t_grid = np.arange(n_t) * dt
    basis = _basis(depth_nodes(sc.sample.xi))
    c = 0.5 * sc.eta_l * CLEBSCH_A ** 2
    modes = {}
    for db in {s.delta_b for s in sc.schedule.segments}:
        kappa, u, l = _modes(basis[0], c, db)
        table = _powers(kappa, 0, min(_BLOCK, n_t), dt)
        modes[db] = kappa, u, l, np.concatenate((table.real, table.imag))
    mirror = sc.mirror
    tau = sc.tau
    refl_amp = math.sqrt(mirror.reflectivity)
    pulse = sc.pulse
    snap_times = sorted(sc.record_snapshots_at)

    # the forward branch's input: the resolved pulse, which is exactly 0 in float64
    # beyond _GAUSS_REACH widths of its centre, or in impulsive mode the prompt's kick at
    # t0; a kick of area theta adds i*(a/4)*theta to both lines
    drive_f = functools.partial(gaussian_input, pulse=pulse)
    if pulse.mode == "gaussian":
        window_f = (max(pulse.t0 - _GAUSS_REACH * pulse.fwhm, 0.0), pulse.t0 + _GAUSS_REACH * pulse.fwhm)
        kicks_f, onset = {}, window_f[0]
    else:
        window_f, kicks_f, onset = (0.0, 0.0), {pulse.t0: pulse.area}, pulse.t0
    fwd, bwd = np.zeros(n_t), np.zeros(n_t)
    fs, free_f = _solve(basis, modes, sc, drive_f, window_f, kicks_f, snap_times, fwd)
    # the peak counts the medium-generated field only; a resolved input pulse
    # is transiently large by construction without breaking linearity
    peak_field = float(np.abs(fwd).max())
    _add_input(fwd, drive_f, window_f, dt)

    bs = np.zeros_like(fs)
    if refl_amp > 0.0:
        # the mirror input -sqrt(R) * Omega_F(t - tau, L) over the exit times the gate
        # reflects, the forward field taken in closed form where its branch is free; in
        # impulsive mode the reflected prompt's kick lands one round trip after the prompt
        last_exit = _last_reflected_exit(tau, mirror.disable_time)
        window_b = (onset + tau, last_exit + tau)
        kicks_b = {pulse.t0 + tau: -refl_amp * pulse.area} if kicks_f and pulse.t0 <= last_exit else {}

        def feed(t):
            return -refl_amp * _field_at(t - tau, t_grid, fwd, free_f)

        bs, _ = _solve(basis, modes, sc, feed, window_b, kicks_b, snap_times, bwd)
        peak_field = max(peak_field, float(np.abs(bwd).max()))
        _add_input(bwd, feed, window_b, dt)

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
    for s, t in enumerate(snap_times):
        f31, b31 = (_legendre_series(2.0 * (basis[2] * xy[:, None, :]).sum(axis=-1).real, grid).astype(float)
                    for xy in (fs[s], bs[s]))
        f31, b31 = f31[0] + 1j * f31[1], b31[0, ::-1] + 1j * b31[1, ::-1]
        snapshots.append(CoherenceSnapshot(t, f31, -f31.conj(), b31, -b31.conj()))

    # a reflecting mirror stands in the forward detector's beam until it is disabled
    in_beam = np.full(n_t, refl_amp > 0.0)
    if mirror.disable_time is not None:
        in_beam &= t_grid < mirror.disable_time
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
