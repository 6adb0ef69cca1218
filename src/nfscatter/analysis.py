"""Observables computed from traces and snapshots.

Everything here is a pure transformation of immutable inputs: intensities,
the branch-balance/relative-phase entanglement report, storage suppression,
beat period extraction and the sub-angstrom standing-wave excitation
pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import CoherenceSnapshot, TraceSet

#: samples of s over one carrier period in an excitation pattern
_PATTERN_POINTS = 512

#: beat_period's prominence: the intensity ratio of both neighbouring maxima to a minimum
_BEAT_PROMINENCE = 10.0


@dataclass(frozen=True)
class IntensitySeries:
    t_grid: np.ndarray
    i_fwd: np.ndarray   # |fwd_detected|^2, what the detector behind the mirror sees
    i_bwd: np.ndarray   # |bwd_amp|^2


@dataclass(frozen=True)
class EntanglementReport:
    """Branch balance and relative phase of the two output field modes.

    ``balance`` is the backward/forward energy ratio over the window;
    ``mean_phase`` the energy-weighted circular mean of the relative phase
    of bwd and fwd_detected, both envelopes referenced to the sample faces
    with zero alignment offset.  The fields are real, so that phase is 0
    (same sign) or pi (opposite sign), and so is the mean.
    """

    window: tuple[float, float]
    balance: float
    mean_phase: float
    phase_spread: float
    classification: str   # "symmetric" | "antisymmetric" | "indeterminate"

    def as_dict(self) -> dict:
        return {
            "window_ns": list(self.window),
            "balance": self.balance,
            "mean_phase_rad": self.mean_phase,
            "phase_spread_rad": self.phase_spread,
            "classification": self.classification,
        }


@dataclass(frozen=True)
class ExcitationPattern:
    """Excitation density over one carrier period of sub-wavelength coordinate s.

    Each excited sublevel carries a forward/backward amplitude pair, so

        density(s) = |f31*e^{iks} + b31*e^{-iks}|^2 + |f42*e^{iks} + b42*e^{-iks}|^2

    with depth-averaged amplitudes.  Equal-sign branches give cos^2(ks)
    (antinode at s = 0), opposite signs give sin^2(ks); a single branch
    gives a flat, traveling pattern.  The sums f31+f42 and b31+b42 are the
    radiating combinations and sit near zero while the excitation is
    stored; the per-sublevel amplitudes carry the branch sign that decides
    cosine versus sine.  The intensity modulation period is pi/k, half the
    carrier period.
    """

    s_grid: np.ndarray        # angstrom, over [0, 2*pi/k)
    density: np.ndarray
    period: float             # carrier period 2*pi/k, angstrom


def intensities(traces: TraceSet) -> IntensitySeries:
    """Pointwise squared magnitudes of the detected envelopes."""
    return IntensitySeries(
        t_grid=traces.t_grid,
        i_fwd=np.abs(traces.fwd_detected) ** 2,
        i_bwd=np.abs(traces.bwd_amp) ** 2,
    )


def _window_mask(t: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    t1, t2 = window
    if not t2 > t1:
        raise ValueError(f"window must satisfy t1 < t2 (got {window})")
    if t1 < t[0] - 1e-12 or t2 > t[-1] + 1e-12:
        raise ValueError(f"window {window} outside trace span [{t[0]}, {t[-1]}]")
    mask = (t >= t1) & (t <= t2)
    if not np.any(mask):
        raise ValueError(f"window {window} selects no samples")
    return mask


def entanglement_report(traces: TraceSet, window: tuple[float, float]) -> EntanglementReport:
    """Classify the two-branch output state over a time window."""
    mask = _window_mask(traces.t_grid, window)
    # trapezoid weights, so that the sums stand for integrals over the window to O(dt^2)
    weight = np.ones(int(mask.sum()))
    weight[[0, -1]] = 0.5
    fwd = traces.fwd_detected[mask]
    bwd = traces.bwd_amp[mask]
    e_fwd = float(np.sum(weight * np.abs(fwd) ** 2))
    e_bwd = float(np.sum(weight * np.abs(bwd) ** 2))
    if e_fwd == 0.0 or e_bwd == 0.0:
        balance = e_bwd / e_fwd if e_fwd > 0.0 else (math.inf if e_bwd > 0.0 else 0.0)
        return EntanglementReport(window, balance, 0.0, math.pi, "indeterminate")
    balance = e_bwd / e_fwd

    cross = weight * bwd * fwd
    resultant = float(np.sum(cross))
    total = float(np.sum(np.abs(cross)))
    if total == 0.0:
        return EntanglementReport(window, balance, 0.0, math.pi, "indeterminate")
    mean_phase = math.pi if resultant < 0.0 else 0.0
    rbar = min(abs(resultant) / total, 1.0)
    spread = math.sqrt(max(-2.0 * math.log(rbar), 0.0)) if rbar > 0.0 else math.pi
    cls = ("antisymmetric" if mean_phase else "symmetric") if spread < math.pi / 8 else "indeterminate"
    return EntanglementReport(window, balance, mean_phase, spread, cls)


def excitation_pattern(snapshot: CoherenceSnapshot, wave_number_k: float) -> ExcitationPattern:
    """Standing-wave excitation density from a stored-excitation snapshot."""
    f31 = complex(np.mean(snapshot.f31))
    f42 = complex(np.mean(snapshot.f42))
    b31 = complex(np.mean(snapshot.b31))
    b42 = complex(np.mean(snapshot.b42))
    if f31 == f42 == b31 == b42 == 0.0:
        raise ValueError("no excitation stored: all depth-averaged coherences vanish")
    period = 2.0 * math.pi / wave_number_k
    s = np.arange(_PATTERN_POINTS) * (period / _PATTERN_POINTS)
    fwd = np.exp(1j * wave_number_k * s)
    bwd = np.conj(fwd)
    density = np.abs(f31 * fwd + b31 * bwd) ** 2 + np.abs(f42 * fwd + b42 * bwd) ** 2
    return ExcitationPattern(s_grid=s, density=density, period=period)


def storage_suppression(traces: TraceSet, t_off: float, t_on: float) -> float:
    """Peak total intensity inside the dark window over the peak just before it.

    Windows: [t_off + 1 ns, t_on - 1 ns] against [t_off - 5 ns, t_off].
    """
    if not t_off < t_on:
        raise ValueError(f"need t_off < t_on (got {t_off}, {t_on})")
    series = intensities(traces)
    total = series.i_fwd + series.i_bwd
    stored = _window_mask(traces.t_grid, (t_off + 1.0, t_on - 1.0))
    before = _window_mask(traces.t_grid, (t_off - 5.0, t_off))
    ref = float(np.max(total[before]))
    if ref == 0.0:
        raise ValueError("no signal in the window preceding switch-off")
    return float(np.max(total[stored])) / ref


def beat_period(t_grid: np.ndarray, intensity: np.ndarray, window: tuple[float, float]) -> float:
    """Mean spacing between successive intensity minima inside the window, each placed between samples.

    A local minimum counts only if the intensity rises by at least a factor
    _BEAT_PROMINENCE towards both neighbouring maxima, which rejects shallow
    wiggles on storage plateaus.  Fewer than two surviving minima is an
    error.
    """
    mask = _window_mask(np.asarray(t_grid), window)
    t = np.asarray(t_grid)[mask]
    inten = np.asarray(intensity)[mask]
    if inten.size < 3:
        raise ValueError("window too short for beat analysis")

    interior = np.flatnonzero((inten[1:-1] < inten[:-2]) & (inten[1:-1] <= inten[2:])) + 1
    accepted = []
    bounds = [0, *interior, inten.size - 1]
    for j, idx in enumerate(interior):
        left = np.max(inten[bounds[j]:idx + 1])
        right = np.max(inten[idx:bounds[j + 2] + 1])
        floor = inten[idx]
        if floor == 0.0 or min(left, right) >= _BEAT_PROMINENCE * floor:
            accepted.append(idx)
    if len(accepted) < 2:
        raise ValueError(f"found {len(accepted)} prominent minima in {window}; need at least 2")
    # each minimum at the vertex of the parabola through it and its two neighbours: a dip
    # where a field crosses zero is quadratic, so its time does not snap to the grid
    idx = np.array(accepted)
    left, mid, right = inten[idx - 1], inten[idx], inten[idx + 1]
    at = t[idx] + 0.5 * (left - right) / (left - 2.0 * mid + right) * (t[idx + 1] - t[idx])
    return float(np.mean(np.diff(at)))
