"""Independent analytic reference solutions used as ground truth in tests.

Nothing here imports the solver.  The first Born term integrates the
coherence equations once with the radiated-field feedback dropped; the
single-line response is exact at any thickness with the hyperfine field
off, and the energy-domain response at any thickness with a constant field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy import fft


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


def constant_field_forward(t, xi: float, theta: float, gamma: float, delta_b: float):
    """Exact scattered forward amplitude after a kick of area theta, at any thickness, with a constant splitting.

    On the uniform grid ``t`` = 0, dt, 2 dt, ...  In the energy domain the
    slab's transfer makes the back-face field theta*(exp(-K(s)) - 1), with
    K = k*(1/(s - lam) + 1/(s - conj(lam))), k = gamma*xi and
    lam = -(gamma/2 + i*delta_b) (Kagan, Afanas'ev & Kohn, J. Phys. C 12
    (1979) 615).  K, K^2/2 and a term with the |s|^-3 tail of exp(-K),
    -(2k/(s + gamma))^3/6, invert in closed form; the remainder falls off as
    |s|^-4 and is inverted by one inverse FFT along Re s = 0, over a period
    of at least 64/gamma.  Every inverted term decays at least as
    t*exp(-gamma*t/2), so what wraps around the period stays near exp(-32)
    of the signal.  With delta_b = 0 this is ``single_line_forward``.
    """
    t = np.asarray(t, dtype=float)
    dt = t[1] - t[0] if t.size > 1 else 0.0
    if not dt > 0.0 or t[0] != 0.0 or np.abs(t - dt * np.arange(t.size)).max() > 1e-9 * t[-1]:
        raise ValueError("constant_field_forward needs a uniform grid 0, dt, 2 dt, ...")
    k = gamma * xi
    n = 1 << math.ceil(math.log2(max(t.size, 64.0 / (gamma * dt))))
    s = 2j * math.pi * fft.rfftfreq(n, dt)
    lam = -(0.5 * gamma + 1j * delta_b)
    big_k = k * (1.0 / (s - lam) + 1.0 / (s - lam.conjugate()))
    # exp(-K) - 1 without its cancellation at small |K|, then the three inverted terms taken off
    x, y = -big_k.real, -big_k.imag
    rest = np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2 + 1j * np.exp(x) * np.sin(y)
    rest += big_k - 0.5 * big_k * big_k + (2.0 * k / (s + gamma)) ** 3 / 6.0
    decay = np.exp(-0.5 * gamma * t)
    inv_k = 2.0 * k * decay * np.cos(delta_b * t)
    inv_k2 = 2.0 * k * k * decay * t * (np.cos(delta_b * t) + np.sinc(delta_b * t / math.pi))
    inv_cube = (2.0 * k) ** 3 / 12.0 * decay * decay * t * t
    return theta * (0.5 * inv_k2 - inv_k - inv_cube + fft.irfft(rest, n)[:t.size] / dt)


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
    norm = np.sqrt((np.abs(b) ** 2).sum())
    if norm == 0.0:
        raise ValueError("reference curve has zero norm inside the window")
    return float(np.sqrt((np.abs(a - b) ** 2).sum()) / norm)
