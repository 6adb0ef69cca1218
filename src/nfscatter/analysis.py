"""Observables computed from traces and snapshots.

Everything here is a pure transformation of immutable inputs: the
branch-balance/relative-phase entanglement report, storage suppression,
beat period extraction and the sub-angstrom standing-wave excitation
pattern.
"""

from __future__ import annotations

import math

import numpy as np

from .solver import CoherenceSnapshot, TraceSet

#: samples of s over one carrier period in an excitation pattern
_PATTERN_POINTS = 512

#: beat_period's prominence: the intensity ratio of both neighbouring maxima to a minimum
_BEAT_PROMINENCE = 10.0


def _trapezoid(n: int) -> np.ndarray:
    """Trapezoid weights over n uniform samples, so that a weighted sum stands for an integral to O(h^2)."""
    weight = np.ones(n)
    weight[[0, -1]] = 0.5
    return weight


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


def entanglement_report(traces: TraceSet, window: tuple[float, float]) -> dict:
    """Branch balance and relative phase of the two output field modes over a time window.

    Returns ``report.json``'s entanglement fields.  ``balance`` is the
    backward/forward energy ratio over the window; ``mean_phase_rad`` the
    energy-weighted circular mean of the relative phase of bwd and
    fwd_detected, both envelopes referenced to the sample faces with zero
    alignment offset.  The fields are real, so that phase is 0 (same sign) or
    pi (opposite sign), and so is the mean.  ``classification`` is
    "symmetric", "antisymmetric" or "indeterminate".
    """
    mask = _window_mask(traces.t_grid, window)
    weight = _trapezoid(int(mask.sum()))
    fwd = traces.fwd_detected[mask]
    bwd = traces.bwd_amp[mask]
    e_fwd = float(np.sum(weight * np.abs(fwd) ** 2))
    e_bwd = float(np.sum(weight * np.abs(bwd) ** 2))
    balance = e_bwd / e_fwd if e_fwd > 0.0 else (math.inf if e_bwd > 0.0 else 0.0)
    mean_phase, spread, cls = 0.0, math.pi, "indeterminate"
    cross = weight * bwd * fwd
    resultant = float(np.sum(cross))
    total = float(np.sum(np.abs(cross)))
    if e_fwd > 0.0 and e_bwd > 0.0 and total > 0.0:
        mean_phase = math.pi if resultant < 0.0 else 0.0
        rbar = min(abs(resultant) / total, 1.0)
        spread = math.sqrt(max(0.0, -2.0 * math.log(rbar))) if rbar > 0.0 else math.pi
        if spread < math.pi / 8:
            cls = "antisymmetric" if mean_phase else "symmetric"
    return {"window_ns": list(window), "balance": balance, "mean_phase_rad": mean_phase,
            "phase_spread_rad": spread, "classification": cls}


def excitation_pattern(snapshot: CoherenceSnapshot, wave_number_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Standing-wave excitation density over one carrier period 2*pi/k of sub-wavelength coordinate s.

    Returns ``(s_grid, density)``, s in angstrom over [0, 2*pi/k).  Each
    excited sublevel carries a forward/backward amplitude pair, so

        density(s) = |f31*e^{iks} + b31*e^{-iks}|^2 + |f42*e^{iks} + b42*e^{-iks}|^2

    with depth-averaged amplitudes, each the trapezoid mean over the snapshot's
    uniform depth grid.  Equal-sign branches give cos^2(ks)
    (antinode at s = 0), opposite signs give sin^2(ks); a single branch
    gives a flat, traveling pattern.  The sums f31+f42 and b31+b42 are the
    radiating combinations and sit near zero while the excitation is
    stored; the per-sublevel amplitudes carry the branch sign that decides
    cosine versus sine.  The intensity modulation period is pi/k, half the
    carrier period.
    """
    weight = _trapezoid(snapshot.f31.size)
    f31 = complex(np.average(snapshot.f31, weights=weight))
    f42 = complex(np.average(snapshot.f42, weights=weight))
    b31 = complex(np.average(snapshot.b31, weights=weight))
    b42 = complex(np.average(snapshot.b42, weights=weight))
    if f31 == f42 == b31 == b42 == 0.0:
        raise ValueError("no excitation stored: all depth-averaged coherences vanish")
    period = 2.0 * math.pi / wave_number_k
    s = np.arange(_PATTERN_POINTS) * (period / _PATTERN_POINTS)
    fwd = np.exp(1j * wave_number_k * s)
    bwd = np.conj(fwd)
    density = np.abs(f31 * fwd + b31 * bwd) ** 2 + np.abs(f42 * fwd + b42 * bwd) ** 2
    return s, density


def storage_suppression(traces: TraceSet, t_off: float, t_on: float) -> float:
    """Peak total intensity inside the dark window over the peak just before it.

    Windows: [t_off + 1 ns, t_on - 1 ns] against [t_off - 5 ns, t_off].  Each
    peak also takes the intensity interpolated at its window's exact ends,
    where a falling intensity peaks, so that the ratio does not move with dt.
    """
    if not t_off < t_on:
        raise ValueError(f"need t_off < t_on (got {t_off}, {t_on})")
    t = traces.t_grid
    total = traces.fwd_detected ** 2 + traces.bwd_amp ** 2
    stored, ref = (max(np.max(total[_window_mask(t, w)]), *np.interp(w, t, total))
                   for w in ((t_off + 1.0, t_on - 1.0), (t_off - 5.0, t_off)))
    if ref == 0.0:
        raise ValueError("no signal in the window preceding switch-off")
    return float(stored / ref)


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
