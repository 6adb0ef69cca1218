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
one field sweep per half step to evaluate the midpoint field.  Within a
schedule segment the propagators are constant and precomputed.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import PulseSpec, ScenarioConfig, ValidatedScenario, validate_scenario

#: warn when |Omega| exceeds this multiple of gamma (linear regime monitor)
LINEAR_FIELD_WARN = 0.1

#: steps between non-finite checks
_GUARD_EVERY = 512


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


def _propagators(gamma: float, delta_b: float, h: float, clebsch: float, shape: tuple):
    """Exact one-substep update coefficients (E, P) for the stacked state.

    f' = E*f + P*Omega solves df/dt = lam*f + i*(a/4)*Omega with Omega
    constant over the substep, lam = -(gamma/2 +- i*delta_b) for the 31 and
    42 families.  E is filled out to the state ``shape`` (family, branch,
    depth) so the product with the state runs over contiguous memory; P has
    shape (2, 1, 1) and broadcasts over the field profiles.
    """
    drive = 0.25j * clebsch
    lam31 = -(0.5 * gamma + 1j * delta_b)
    lam42 = -(0.5 * gamma - 1j * delta_b)
    e31 = cmath.exp(lam31 * h)
    e42 = cmath.exp(lam42 * h)
    e = np.empty(shape, dtype=complex)
    e[0] = e31
    e[1] = e42
    p = np.array([drive * (e31 - 1.0) / lam31, drive * (e42 - 1.0) / lam42]).reshape(2, 1, 1)
    return e, p


def _reflects(t_exit: float, tau: float, disable_time: float | None) -> bool:
    """The mirror gate: is light leaving the back face at ``t_exit`` reflected?

    It meets the mirror at t_exit + tau/2 and is reflected only if the
    mirror is still in the beam then.  Nothing leaves before t = 0.
    """
    return t_exit >= 0.0 and (disable_time is None or t_exit + 0.5 * tau <= disable_time)


def _delayed(fwd: np.ndarray, n_rec: int, t: float, dt: float):
    """Omega_F(t, L) from the first ``n_rec`` recorded back-face samples.

    Linear interpolation on the step grid; times at or beyond the newest
    sample clamp to it.
    """
    x = t / dt
    j = int(x)
    if j >= n_rec - 1:
        return fwd[n_rec - 1]
    w = x - j
    return fwd[j] * (1.0 - w) + fwd[j + 1] * w


def _segment_steps(sc: ValidatedScenario, n_t: int):
    """(delta_b, first step, stop step) for every schedule segment.

    Step i advances with the level of the last segment starting at or
    before i*dt.  Levels are numpy floats, so the propagators' complex
    division runs in numpy; Python's complex division rounds differently
    and would move the traces in the last bit.
    """
    segs = sc.schedule.segments
    levels = np.array([s.delta_b for s in segs])
    starts = [min(max(round(s.t_start / sc.dt), 0), n_t) for s in segs] + [n_t]
    return [(levels[k], starts[k], starts[k + 1]) for k in range(len(segs))]


def gaussian_input(t, pulse: PulseSpec):
    """Resolved front-face drive: a normalized gaussian of total area ``pulse.area``."""
    sigma = pulse.fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    norm = pulse.area / (sigma * math.sqrt(2.0 * math.pi))
    return norm * np.exp(-0.5 * ((np.asarray(t, dtype=float) - pulse.t0) / sigma) ** 2)


def run_scenario(scenario: ScenarioConfig | ValidatedScenario):
    """Integrate a validated scenario over [0, t_end].

    Returns (TraceSet, [CoherenceSnapshot, ...]).  Deterministic for a
    fixed configuration.  Raises :class:`NumericalError` if the state goes
    non-finite, reporting the offending time.

    The state is one array ``x`` of shape (2, n_branches, n_depth), over
    (family, branch, depth): ``x[:, 0]`` holds (f31, f42) and ``x[:, 1]``
    holds (b31, b42) in reversed depth, so a single running sum along the
    last axis performs both trapezoid sweeps, each from its own input face.
    Family outermost makes the family sum and the field broadcast run over
    contiguous memory.  Without a reflecting mirror the backward branch is
    identically zero and is left out.  Every step runs a fixed sequence of
    in-place ufuncs on preallocated buffers, in the same per-element order
    of operations as a plain per-array evaluation, so results do not depend
    on the stacking.
    """
    sc = validate_scenario(scenario)
    gamma = sc.consts.gamma
    a = sc.consts.clebsch_a
    dt = sc.dt
    n_t = sc.n_steps + 1
    n_u = sc.sample.n_depth
    half_du = 0.5 * (1.0 / (n_u - 1))
    kappa = 1j * sc.eta_l * a
    mirror = sc.mirror
    tau = sc.tau
    disable_time = mirror.disable_time
    refl_amp = math.sqrt(mirror.reflectivity) if mirror.present else 0.0
    n_br = 2 if refl_amp > 0.0 else 1
    pulse = sc.pulse
    gaussian = pulse.mode == "gaussian"

    # impulsive-mode kicks per step, [(branch row, coherence added), ...]: the
    # prompt at t0 and, when the gate admits it, the mirror-reflected prompt
    # arriving one round trip later (on the prompt's own step when tau = 0)
    kicks: dict[int, list[tuple[int, complex]]] = {}
    if not gaussian:
        theta = pulse.area
        kick_amp = 0.25j * a
        kicks[round(pulse.t0 / dt)] = [(0, kick_amp * theta)]
        if n_br == 2 and _reflects(pulse.t0, tau, disable_time):
            ib = math.ceil((pulse.t0 + tau) / dt - 1e-9)  # first grid time >= t0 + tau
            if ib < n_t:
                kicks.setdefault(ib, []).append((1, kick_amp * (-refl_amp * theta)))

    x = np.zeros((2, n_br, n_u), dtype=complex)
    x_half = np.empty_like(x)
    work = np.empty_like(x)
    src = np.empty((n_br, n_u), dtype=complex)
    src_flat = src.reshape(-1)
    # trapezoid panels behind a zero first column, so one running sum per row
    # gives the whole profile, boundary entry included (the leading 0 can
    # only flip the sign of a zero partial sum, which the 0.0 + below
    # normalises); the flat pair sum writes a cross-row value into the zero
    # column of every row but the first, which is cleared after scaling
    mid = np.zeros((n_br, n_u), dtype=complex)
    mid_flat = mid.reshape(-1)
    om = np.empty((n_br, n_u), dtype=complex)

    fwd = np.zeros(n_t, dtype=complex)
    bwd = np.zeros(n_t, dtype=complex)

    def fields(state, t, n_rec):
        """Field profiles of ``state`` at time t into ``om``; returns (input, feedback).

        The mirror feedback reads the first ``n_rec`` samples of ``fwd``.
        """
        np.add(state[0], state[1], out=src)
        np.add(src_flat[1:], src_flat[:-1], out=mid_flat[1:])
        np.multiply(half_du, mid_flat, out=mid_flat)
        if n_br == 2:
            mid[1, 0] = 0.0
        np.add.accumulate(mid, axis=1, out=om)
        np.multiply(kappa, om, out=om)
        np.add(0.0, om, out=om)
        bf = complex(gaussian_input(t, pulse)) if gaussian else 0.0
        if bf != 0.0:
            np.add(bf, om[0], out=om[0])
        bb = 0.0
        if n_br == 2:
            t_exit = t - tau
            if _reflects(t_exit, tau, disable_time):
                if t_exit >= t:  # tau == 0: couple to the field of this very instant
                    bb = -refl_amp * om[0, -1]
                else:
                    bb = -refl_amp * _delayed(fwd, n_rec, t_exit, dt)
                if bb != 0.0:
                    np.add(om[1], bb, out=om[1])
        return bf, bb

    snap_at = {round(t / dt): t for t in sc.record_snapshots_at}
    snapshots: list[CoherenceSnapshot] = []

    peak_field = 0.0
    for level, first, stop in _segment_steps(sc, n_t):
        e_half, p_half = _propagators(gamma, level, 0.5 * dt, a, x.shape)
        e_full, p_full = _propagators(gamma, level, dt, a, x.shape)
        for i in range(first, stop):
            t = i * dt
            hits = kicks.get(i)
            if hits is not None:
                for row, amp in hits:
                    x[:, row] += amp

            bf, bb = fields(x, t, i)
            om_f_L = fwd[i] = om[0, -1]
            om_b_0 = 0.0
            if n_br == 2:
                om_b_0 = bwd[i] = om[1, -1]

            if i in snap_at:
                b31, b42 = (x[0, 1, ::-1].copy(), x[1, 1, ::-1].copy()) if n_br == 2 else (
                    np.zeros(n_u, dtype=complex), np.zeros(n_u, dtype=complex))
                snapshots.append(CoherenceSnapshot(snap_at[i], x[0, 0].copy(), x[1, 0].copy(), b31, b42))

            if i % _GUARD_EVERY == 0 and not (cmath.isfinite(om_f_L) and cmath.isfinite(om_b_0)):
                raise NumericalError(f"non-finite field at t = {t:.4f} ns")
            # monitor the medium-generated field only; a resolved input pulse is
            # transiently large by construction without breaking linearity
            m = max(abs(om_f_L - bf), abs(om_b_0 - bb))
            if m > peak_field:
                peak_field = m

            if i == n_t - 1:
                break

            # half step with the fields of time t, then re-sweep at the midpoint
            np.multiply(e_half, x, out=x_half)
            np.multiply(p_half, om, out=work)
            np.add(x_half, work, out=x_half)
            fields(x_half, t + 0.5 * dt, i + 1)

            # full step from the original state using the midpoint fields
            np.multiply(e_full, x, out=x)
            np.multiply(p_full, om, out=work)
            np.add(x, work, out=x)

    if not (np.all(np.isfinite(fwd)) and np.all(np.isfinite(bwd))):
        bad = np.where(~(np.isfinite(fwd) & np.isfinite(bwd)))[0][0]
        raise NumericalError(f"non-finite field at t = {bad * dt:.4f} ns")
    if peak_field > LINEAR_FIELD_WARN * gamma:
        warnings.warn(
            f"peak scattered |Omega| = {peak_field:.3g} exceeds {LINEAR_FIELD_WARN}*gamma; "
            "linear-regime assumption is strained",
            RuntimeWarning,
            stacklevel=2,
        )

    t_grid = np.arange(n_t) * dt
    if mirror.present and disable_time is not None:
        in_beam = t_grid < disable_time
    elif mirror.present:
        in_beam = np.ones(n_t, dtype=bool)
    else:
        in_beam = np.zeros(n_t, dtype=bool)
    trans = math.sqrt(1.0 - mirror.reflectivity) if mirror.present else 1.0
    detected = np.where(in_beam, trans * fwd, fwd)

    traces = TraceSet(
        t_grid=t_grid,
        fwd_amp=fwd,
        bwd_amp=bwd,
        fwd_detected=detected,
        mirror_in_beam=in_beam,
        metadata={
            "config_hash": sc.config_hash,
            "dt": dt,
            "reflectivity": mirror.reflectivity if mirror.present else 0.0,
            "tau": tau,
            "nudges": list(sc.nudges),
            "schedule": [[s.t_start, s.delta_b] for s in sc.schedule.segments],
        },
    )
    return traces, snapshots
