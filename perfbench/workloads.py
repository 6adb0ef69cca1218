"""Workload definitions and correctness gates for the nfscatter benchmark.

A workload is drawn from a seed and becomes a list of units.  A unit is a
short sequence of CLI calls (argv lists for ``nfscatter.cli.main``) that
share one output directory, each call with a gate that inspects what it
wrote.  The program sees only those argv lists.  Gates read
the output files with numpy and the standard library; they never import
nfscatter, so they do not trust the code they check.

Workloads (why each exists):

- ``protocol``: ``run`` then ``plot`` for fig2a, fig2b and fig2c, the
  paper's figure set at full length (40,001 steps, mirror delay line,
  3-4 schedule segments, snapshots, CSV and SVG output).  The only workload
  whose time includes the output stage (traceio, svgplot).  The seed only
  permutes the order of the three presets.
- ``sweep``: ``sweep --axis xi --base fig2b`` at 3 seeded xi in [0.5, 2].
  Time is solver plus analysis with no per-row files, so an output-stage
  change should leave it unchanged.
- ``deep_slab``: ``single_pass`` with the field off, a seeded xi in [2, 5]
  and n_depth 4001 over 60 ns.  Per-step cost is depth arithmetic, so a
  depth-quadrature change shows here; the forward trace has an exact
  closed form (Kagan-Afanas'ev-Kohn), checked to ORACLE_TOL.
"""

from __future__ import annotations

import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GAMMA = 1.0 / 141.1                 # 57Fe decay rate, 1/ns
DELTA_B = 30.0 * GAMMA              # protocol presets: delta_b = 30 gamma
BEAT_NS = math.pi / DELTA_B         # expected beat period pi/delta_b
PULSE_AREA = 1e-3                   # preset pulse area theta

SUPPRESSION_MAX = 1e-2              # A4: storage suppression
BEAT_TOL = 0.05                     # A7: beat period within 5 %
PHASE_TOL = 0.2                     # A6: |mean phase| (or |phase - pi|) below 0.2 rad
BALANCE_TOL = 0.20                  # A5: balance/predicted within 0.20 of 1
ORACLE_TOL = 1e-4                   # deep_slab: rel L2 against the closed form
RETRIEVAL_NS = 100.0                # protocol presets switch the field back on here


@dataclass(frozen=True)
class Call:
    """One CLI call: argv with ``{out}`` standing for the unit's output directory."""

    argv: tuple[str, ...]
    gate: Callable[[Path, dict], list[str]]   # (unit dir, observations) -> gate misses

    def resolve(self, out: Path) -> list[str]:
        return [a.replace("{out}", str(out)) for a in self.argv]


@dataclass(frozen=True)
class Unit:
    """Calls that run in order into one output directory."""

    name: str
    calls: tuple[Call, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    units: tuple[Unit, ...]

    def argvs(self) -> list[list[str]]:
        """Every call's argv, ``{out}`` unresolved (what the set-up probe parses)."""
        return [list(c.argv) for u in self.units for c in u.calls]


# ---------------------------------------------------------------- readers


def read_traces(path: Path) -> tuple[dict, np.ndarray]:
    """Comment attributes and the (rows, 8) data block of a traces.csv.

    Parsed by numpy in chunks, so the gate adds little to the process's
    peak resident set, which ``peak_rss_mb`` reports.
    """
    attrs: dict = {}

    def data_lines(fh):
        for line in fh:
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if sep:
                    attrs[key.strip()] = value.strip()
            else:
                yield line

    with open(path) as fh:
        lines = data_lines(fh)
        if not next(lines, "").startswith("t_ns,"):
            raise ValueError(f"{path}: missing header row")
        rows = np.loadtxt(lines, delimiter=",", ndmin=2)
    if rows.shape[1] != 8:
        raise ValueError(f"{path}: expected 8 columns")
    return attrs, rows


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _svg_hash(path: Path) -> str:
    """config_hash embedded in an SVG comment; the file must parse as XML."""
    text = path.read_text()
    ET.fromstring(text)
    marker = "<!-- config_hash="
    start = text.index(marker) + len(marker)
    return text[start:text.index(" -->", start)]


def _expected_rows(meta: dict) -> int:
    sc = meta["scenario"]
    return round(sc["t_end"] / sc["dt"]) + 1


# ---------------------------------------------------------------- oracle


def bessel_j1(x: np.ndarray, nodes: int = 64) -> np.ndarray:
    """J1 by Bessel's integral (1/pi) int_0^pi cos(tau - x sin tau) dtau.

    The integrand is smooth, even and 2 pi periodic in tau, so the midpoint
    rule converges geometrically; 64 nodes reach double precision for
    x below about 20.
    """
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for k in range(nodes):  # one node at a time keeps memory at a few copies of x
        tau = (k + 0.5) * math.pi / nodes
        total += np.cos(tau - x * math.sin(tau))
    return total / nodes


def single_line_forward(t: np.ndarray, xi: float, theta: float = PULSE_AREA) -> np.ndarray:
    """Exact forward response of a slab with the field off.

    -theta e^{-G t/2} sqrt(b/t) J1(2 sqrt(b t)), b = 2 G xi; its t -> 0
    limit is -theta b.
    """
    b = 2.0 * GAMMA * xi
    t = np.asarray(t, dtype=float)
    safe = np.where(t > 0.0, t, 1.0)
    shape = np.where(t > 0.0, np.sqrt(b / safe) * bessel_j1(2.0 * np.sqrt(b * safe)), b)
    return -theta * np.exp(-0.5 * GAMMA * t) * shape


def oracle_rel_l2(rows: np.ndarray, xi: float) -> float:
    fwd = rows[:, 1] + 1j * rows[:, 2]
    ref = single_line_forward(rows[:, 0], xi)
    return float(np.linalg.norm(fwd - ref) / np.linalg.norm(ref))


# ---------------------------------------------------------------- gates


def _protocol_run_gate(preset: str) -> Callable[[Path, dict], list[str]]:
    expected = {"fig2a": "symmetric", "fig2b": "symmetric", "fig2c": "antisymmetric"}[preset]

    def gate(d: Path, obs: dict) -> list[str]:
        misses: list[str] = []
        report, meta = _json(d / "report.json"), _json(d / "meta.json")
        attrs, rows = read_traces(d / "traces.csv")
        if rows.shape[0] != _expected_rows(meta) or not np.all(np.isfinite(rows)):
            misses.append(f"{preset}: traces.csv has {rows.shape[0]} rows or non-finite values")
        if preset != "fig2a" and not (d / "pattern.csv").is_file():
            misses.append(f"{preset}: pattern.csv missing")
        if report.get("classification") != expected:
            misses.append(f"{preset}: classification {report.get('classification')!r}, want {expected!r}")
        supp = report.get("storage_suppression")
        if supp is None or not supp <= SUPPRESSION_MAX:
            misses.append(f"{preset}: storage suppression {supp} > {SUPPRESSION_MAX}")
        beat = report.get("beat_period_ns")
        # fig2c's inversion at the first node splits a beat, so A7 applies to fig2a/b only
        if preset != "fig2c" and (beat is None or not abs(beat - BEAT_NS) <= BEAT_TOL * BEAT_NS):
            misses.append(f"{preset}: beat period {beat} ns not within 5 % of {BEAT_NS:.4f} ns")
        # relative branch phase recomputed from the CSV after retrieval
        late = rows[:, 0] >= RETRIEVAL_NS
        fwd = rows[late, 1] + 1j * rows[late, 2]
        bwd = rows[late, 3] + 1j * rows[late, 4]
        phase = float(np.angle(np.sum(bwd * np.conj(fwd))))
        target = 0.0 if expected == "symmetric" else math.pi
        if not abs(math.remainder(phase - target, 2.0 * math.pi)) < PHASE_TOL:
            misses.append(f"{preset}: CSV relative phase {phase:.4f} rad, want {target:.4f}")
        obs.setdefault("config_hash", {})[preset] = {
            "traces.csv": attrs.get("config_hash"),
            "report.json": report.get("config_hash"),
            "meta.json": meta.get("config_hash"),
        }
        return misses

    return gate


def _protocol_plot_gate(preset: str) -> Callable[[Path, dict], list[str]]:
    def gate(d: Path, obs: dict) -> list[str]:
        hashes = dict(obs.get("config_hash", {}).get(preset, {}))
        for kind in ("intensity", "amplitude"):
            hashes[f"traces_{kind}.svg"] = _svg_hash(d / f"traces_{kind}.svg")
        if len(set(hashes.values())) != 1 or not all(hashes.values()) or len(hashes) != 5:
            return [f"{preset}: config_hash differs across outputs: {hashes}"]
        return []

    return gate


def _sweep_gate(values: list[str]) -> Callable[[Path, dict], list[str]]:
    def gate(d: Path, obs: dict) -> list[str]:
        header, *lines = (d / "summary.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), ln.split(","))) for ln in lines]
        misses: list[str] = []
        if "predicted_balance" not in header or len(rows) != len(values):
            return [f"sweep: summary.csv has {len(rows)} rows, want {len(values)}"]
        for want, row in zip(values, rows):
            if row["status"] != "ok" or float(row["value"]) != float(want):
                misses.append(f"sweep xi={want}: status {row['status']!r}, value {row['value']}")
                continue
            ratio = float(row["balance"]) / float(row["predicted_balance"])
            if not abs(ratio - 1.0) <= BALANCE_TOL:
                misses.append(f"sweep xi={want}: balance/predicted {ratio:.4f} off by > {BALANCE_TOL}")
            if not row["config_hash"]:
                misses.append(f"sweep xi={want}: empty config_hash")
        return misses

    return gate


def _deep_slab_gate(xi: str, n_depth: int) -> Callable[[Path, dict], list[str]]:
    def gate(d: Path, obs: dict) -> list[str]:
        misses: list[str] = []
        report, meta = _json(d / "report.json"), _json(d / "meta.json")
        attrs, rows = read_traces(d / "traces.csv")
        sample = meta["scenario"]["sample"]
        if sample["xi"] != float(xi) or sample["n_depth"] != n_depth:
            misses.append(f"deep_slab: meta.json sample {sample} does not match xi={xi}, n_depth={n_depth}")
        if rows.shape[0] != _expected_rows(meta) or not np.all(np.isfinite(rows)):
            return misses + [f"deep_slab: traces.csv has {rows.shape[0]} rows or non-finite values"]
        if len({attrs.get("config_hash"), report.get("config_hash"), meta.get("config_hash")}) != 1:
            misses.append("deep_slab: config_hash differs across outputs")
        err = oracle_rel_l2(rows, float(xi))
        obs.setdefault("oracle_rel_l2", []).append(err)
        if not err <= ORACLE_TOL:
            misses.append(f"deep_slab: oracle rel L2 {err:.3e} > {ORACLE_TOL:g}")
        return misses

    return gate


# ---------------------------------------------------------------- constructors


def _protocol(rng: random.Random, small: bool) -> Workload:
    order = ["fig2a", "fig2b", "fig2c"]
    rng.shuffle(order)
    extra = ("--dt", "0.02") if small else ()
    units = tuple(
        Unit(preset, (Call(("run", "--preset", preset, *extra, "--out", "{out}"), _protocol_run_gate(preset)),
                      Call(("plot", "{out}/traces.csv", "--out", "{out}"), _protocol_plot_gate(preset))))
        for preset in order)
    return Workload("protocol", {"order": order, "small": small}, units)


def _sweep(rng: random.Random, small: bool) -> Workload:
    values = sorted(f"{rng.uniform(0.5, 2.0):.3f}" for _ in range(3))
    if small:
        values = values[:1]
    call = Call(("sweep", "--axis", "xi", "--values", ",".join(values), "--base", "fig2b",
                 "--out", "{out}"), _sweep_gate(values))
    return Workload("sweep", {"xi": values, "small": small}, (Unit("sweep", (call,)),))


def _deep_slab(rng: random.Random, small: bool) -> Workload:
    xi = f"{rng.uniform(2.0, 5.0):.3f}"
    n_depth, t_end = (401, 20) if small else (4001, 60)
    sets = ["schedule.segments=[[0,0]]", f"sample.xi={xi}", f"sample.n_depth={n_depth}", f"t_end={t_end}"]
    argv = ["run", "--preset", "single_pass"]
    for s in sets:
        argv += ["--set", s]
    call = Call((*argv, "--out", "{out}"), _deep_slab_gate(xi, n_depth))
    return Workload("deep_slab", {"xi": xi, "n_depth": n_depth, "t_end": t_end, "small": small},
                    (Unit("deep_slab", (call,)),))


_BUILDERS = {"protocol": _protocol, "sweep": _sweep, "deep_slab": _deep_slab}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, small: bool = False) -> Workload:
    """The workload ``name`` drawn from ``seed``; ``small`` shrinks it for the smoke test."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), small)
