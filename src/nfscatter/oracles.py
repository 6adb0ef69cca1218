"""Independent analytic reference solutions used as ground truth in tests.

Nothing here imports the solver.  The first Born term integrates the
coherence equations once with the radiated-field feedback dropped; the
rough beat-envelope attenuation model sits beside it; the single-line
response is exact at any thickness with the hyperfine field off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OracleCurve:
    """A sampled reference amplitude."""

    t_grid: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.diff(self.t_grid) <= 0.0):
            raise ValueError("OracleCurve grid must be strictly increasing")


def first_order_amplitude(xi: float, gamma: float, delta_b: float, t):
    """Single-pass forward amplitude per unit pulse area, thin-sample limit.

    -2 * xi * gamma * exp(-gamma*t/2) * cos(delta_b*t)

    This is the first scattering order: an impulsive kick puts
    i*(a/4)*theta into both hyperfine coherences, their sum beats as
    exp(-gamma*t/2)*cos(delta_b*t), and one pass through the field
    integral multiplies by i*6*gamma*xi*a with a**2 = 2/3.
    """
    t = np.asarray(t, dtype=float)
    return -2.0 * xi * gamma * np.exp(-0.5 * gamma * t) * np.cos(delta_b * t)


def _bessel_j1(x: np.ndarray) -> np.ndarray:
    """J1 by Bessel's integral (1/pi) int_0^pi cos(s - x sin s) ds, midpoint rule.

    The integrand is smooth and periodic, so the rule converges
    geometrically once the node count exceeds about |x|/2; the count is
    taken well past that.
    """
    x = np.asarray(x, dtype=float)
    nodes = 64 + int(np.abs(x).max(initial=0.0))
    total = np.zeros_like(x)
    for k in range(nodes):  # one node at a time keeps memory at a few copies of x
        s = (k + 0.5) * math.pi / nodes
        total += np.cos(s - x * math.sin(s))
    return total / nodes


def single_line_forward(t, xi: float, theta: float, gamma: float):
    """Exact scattered forward amplitude of a slab with the hyperfine field off.

    -theta * exp(-gamma*t/2) * sqrt(b/t) * J1(2*sqrt(b*t)), b = 2*gamma*xi,
    with the t -> 0 limit -theta*b.  With delta_b = 0 both coherences follow
    one line, and the slab's forward transfer exp(-2*gamma*xi/(s + gamma/2))
    inverts to this dynamical beat (Kagan-Afanas'ev-Kohn); its first-order
    term is ``theta * first_order_amplitude(xi, gamma, 0, t)``.
    """
    b = 2.0 * gamma * xi
    t = np.asarray(t, dtype=float)
    safe = np.where(t > 0.0, t, 1.0)
    shape = np.where(t > 0.0, np.sqrt(b / safe) * _bessel_j1(2.0 * np.sqrt(b * safe)), b)
    return -theta * np.exp(-0.5 * gamma * t) * shape


def envelope_attenuation(xi: float, gamma: float, delta_b: float) -> float:
    """Rough beat-envelope decay factor exp(-pi*xi*gamma/delta_b).

    Models the amplitude lost by a thin-sample signal over one mirror
    round trip; the ratio R / envelope_attenuation predicts the
    backward/forward branch balance after retrieval.
    """
    if not delta_b > 0.0:
        raise ValueError(f"delta_b must be > 0 (got {delta_b})")
    return math.exp(-math.pi * xi * gamma / delta_b)


def relative_l2(trace: OracleCurve, reference: OracleCurve, window: tuple[float, float]) -> float:
    """||trace - reference||_2 / ||reference||_2 over a time window.

    Both curves are resampled (linear interpolation, real and imaginary
    parts separately) onto the finer curve's grid points inside the window.
    """
    t1, t2 = window
    if not t2 > t1:
        raise ValueError(f"window must satisfy t1 < t2 (got {window})")
    fine = trace if len(trace.t_grid) >= len(reference.t_grid) else reference
    grid = fine.t_grid[(fine.t_grid >= t1) & (fine.t_grid <= t2)]
    if grid.size < 2:
        raise ValueError(f"window {window} selects fewer than two samples")

    def sample(curve: OracleCurve) -> np.ndarray:
        amp = np.asarray(curve.amplitude)
        re = np.interp(grid, curve.t_grid, amp.real)
        im = np.interp(grid, curve.t_grid, amp.imag) if np.iscomplexobj(amp) else 0.0
        return re + 1j * im

    a = sample(trace)
    b = sample(reference)
    norm = np.linalg.norm(b)
    if norm == 0.0:
        raise ValueError("reference curve has zero norm inside the window")
    return float(np.linalg.norm(a - b) / norm)
