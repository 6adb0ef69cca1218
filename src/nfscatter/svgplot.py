"""Minimal deterministic SVG emission for trace files.

Polyline primitives only; output bytes depend on nothing but the input
arrays, so plotting the same CSV twice yields identical files.  Trace curves
are decimated by M4 (Jugel et al., PVLDB 7(10), 2014): at most 4 points per
pixel column, the ones that set the drawn line.
"""

from __future__ import annotations

import math

import numpy as np

_W, _H = 860, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 45


def _poly(xs, ys, stroke, dash: str = "", width: float = 1.2) -> str:
    pts = " ".join(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}"'
            f'{dash_attr} points="{pts}"/>')


def _m4(xs, ys):
    """Indices M4 keeps of a curve in pixel coordinates, in time order: per maximal run of
    consecutive points in one column ``floor(x)``, its first, last, first min-y and first max-y."""
    new_run = np.r_[True, np.floor(xs[1:]) != np.floor(xs[:-1])]
    starts = np.flatnonzero(new_run)
    run = np.cumsum(new_run) - 1
    keep = np.zeros(len(xs), dtype=bool)
    keep[starts] = True
    keep[np.r_[starts[1:] - 1, len(xs) - 1]] = True
    for extreme in (np.minimum, np.maximum):
        hit = np.flatnonzero(ys == extreme.reduceat(ys, starts)[run])
        keep[hit[np.r_[True, run[hit][1:] != run[hit][:-1]]]] = True
    return np.flatnonzero(keep)


def _curve(xs, ys, stroke, dash: str = "") -> str:
    """A trace polyline, M4-decimated."""
    k = _m4(xs, ys)
    return _poly(xs[k], ys[k], stroke, dash)


def _x_map(t, t_min, t_max):
    span = max(t_max - t_min, 1e-300)
    return _ML + (np.asarray(t) - t_min) * (_W - _ML - _MR) / span


def _y_map(v, v_min, v_max):
    span = max(v_max - v_min, 1e-300)
    return _H - _MB - (np.asarray(v) - v_min) * (_H - _MT - _MB) / span


def _ticks(lo, hi, n=6):
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


def _frame(title: str, xlabel: str, ylabel: str, t_min, t_max, y_min, y_max,
           y_fmt=lambda v: f"{v:.3g}") -> list[str]:
    parts = [
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="#888" stroke-width="0.8"/>',
        f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W / 2:.0f}" y="{_H - 10}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_H / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H / 2:.0f})">{ylabel}</text>',
    ]
    for tv in _ticks(t_min, t_max):
        x = float(_x_map(tv, t_min, t_max))
        parts.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 4}" stroke="#888"/>')
        parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 16}" text-anchor="middle" font-size="10">{tv:g}</text>')
    for yv in _ticks(y_min, y_max):
        y = float(_y_map(yv, y_min, y_max))
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="#888"/>')
        parts.append(f'<text x="{_ML - 7}" y="{y + 3:.2f}" text-anchor="end" font-size="10">{y_fmt(yv)}</text>')
    return parts


def _document(parts: list[str], config_hash: str) -> str:
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">\n<!-- config_hash={config_hash} -->\n'
            f'{body}\n</svg>\n')


def render_intensity_svg(t, i_fwd, i_bwd, config_hash: str = "") -> str:
    """Log-scale intensity panel: forward solid, backward dashed."""
    t = np.asarray(t)
    peak = max(float(np.max(i_fwd)), float(np.max(i_bwd)), 1e-300)
    floor = peak * 1e-10
    lf = np.log10(np.maximum(np.asarray(i_fwd), floor))
    lb = np.log10(np.maximum(np.asarray(i_bwd), floor))
    y_min, y_max = math.log10(floor), math.log10(peak)
    parts = _frame("scattered intensity", "t (ns)", "log10 intensity",
                   t[0], t[-1], y_min, y_max, y_fmt=lambda v: f"{v:.1f}")
    xs = _x_map(t, t[0], t[-1])
    parts.append(_curve(xs, _y_map(lf, y_min, y_max), "#c0392b"))
    parts.append(_curve(xs, _y_map(lb, y_min, y_max), "#222222", dash="6,4"))
    parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 14}" text-anchor="end" font-size="11" '
                 'fill="#c0392b">forward</text>')
    parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 28}" text-anchor="end" font-size="11" '
                 'fill="#222222">backward (dashed)</text>')
    return _document(parts, config_hash)


def render_amplitude_svg(t, re_fwd, re_bwd, schedule: list[tuple[float, float]],
                         config_hash: str = "") -> str:
    """Field amplitude panel with the hyperfine schedule overlaid."""
    t = np.asarray(t)
    re_fwd = np.asarray(re_fwd)
    re_bwd = np.asarray(re_bwd)
    amp = max(float(np.max(np.abs(re_fwd))), float(np.max(np.abs(re_bwd))), 1e-300)
    y_min, y_max = -1.1 * amp, 1.1 * amp
    parts = _frame("field amplitude at the sample faces", "t (ns)", "Re amplitude (1/ns)",
                   t[0], t[-1], y_min, y_max)
    xs = _x_map(t, t[0], t[-1])
    parts.append(_curve(xs, _y_map(re_fwd, y_min, y_max), "#c0392b"))
    parts.append(_curve(xs, _y_map(re_bwd, y_min, y_max), "#222222", dash="6,4"))

    if schedule:
        lvl_max = max(abs(lvl) for _, lvl in schedule) or 1.0
        ts, vs = [], []
        bounds = [max(seg[0], t[0]) for seg in schedule] + [t[-1]]
        for (t0_seg, lvl), t1_seg in zip(schedule, bounds[1:]):
            ts.extend((max(t0_seg, t[0]), t1_seg))
            v = 0.9 * amp * lvl / lvl_max
            vs.extend((v, v))
        parts.append(_poly(_x_map(np.array(ts), t[0], t[-1]),
                           _y_map(np.array(vs), y_min, y_max),
                           "#1e8449", dash="2,3", width=1.0))
        parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 42}" text-anchor="end" font-size="11" '
                     'fill="#1e8449">field schedule (scaled)</text>')
    parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 14}" text-anchor="end" font-size="11" '
                 'fill="#c0392b">forward</text>')
    parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 28}" text-anchor="end" font-size="11" '
                 'fill="#222222">backward (dashed)</text>')
    return _document(parts, config_hash)
