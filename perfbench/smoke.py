#!/usr/bin/env python3
"""Reduced-size smoke test of the benchmark harness (about a minute).

Usage, from the root of a checkout:  python3 perfbench/smoke.py

1. Runs every workload, shrunk, through run.main with --trace 0 and 1, and
   checks the result line: exactly the keys correct/attempted/failed/metrics,
   no failed call, and every metric of BENCHMARK.json (which must list the
   metrics below) printed by name with its unit.  The human-readable lines
   must also show fail_frac, and oracle_rel_l2 on deep_slab.
2. Runs each shrunk workload once, checks that its gates pass on the clean
   outputs and that the same calls timed under the host-speed ticker
   (run.run_unit) write the same bytes, then corrupts the outputs one way at
   a time and checks that the gates report a miss for every corruption.

Exits 0 when every check holds and 1 otherwise, listing the failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "solver.run_s", "solver.steps", "solver.us_per_step", "solver.ns_per_depth_step",
    "traceio.write_s", "traceio.write_bytes", "traceio.read_s", "traceio.json_write_s",
    "svgplot.render_s", "svgplot.bytes", "analysis.report_s", "analysis.pattern_s",
    "model.validate_s", "model.validate_calls", "configio.override_s", "cli.self_s",
    "trace_overhead_frac",
)


def _edit(path: Path, fn) -> None:
    path.write_text(fn(path.read_text()))


def _edit_json(path: Path, key: str, value) -> None:
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))


def _edit_csv_rows(path: Path, fn) -> None:
    lines = path.read_text().splitlines()
    start = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1  # after the header
    lines[start:] = fn(lines[start:])
    path.write_text("\n".join(lines) + "\n")


def _flip_backward_after(t0: float):
    def fn(rows):
        out = []
        for row in rows:
            c = row.split(",")
            if float(c[0]) >= t0:
                c[3], c[4] = f"{-float(c[3]):.9g}", f"{-float(c[4]):.9g}"
            out.append(",".join(c))
        return out
    return fn


def _scale_forward(factor: float):
    def fn(rows):
        out = []
        for row in rows:
            c = row.split(",")
            c[1] = f"{float(c[1]) * factor:.9g}"
            out.append(",".join(c))
        return out
    return fn


# workload -> [(description, mutation of a directory holding one subdirectory per unit)]
CORRUPTIONS = {
    "protocol": [
        ("fig2c classified symmetric", lambda d: _edit_json(d / "fig2c/report.json", "classification", "symmetric")),
        ("fig2a storage suppression 0.5", lambda d: _edit_json(d / "fig2a/report.json", "storage_suppression", 0.5)),
        ("fig2b beat period 10 ns", lambda d: _edit_json(d / "fig2b/report.json", "beat_period_ns", 10.0)),
        ("fig2b traces.csv truncated", lambda d: _edit_csv_rows(d / "fig2b/traces.csv", lambda r: r[:-10])),
        ("fig2a backward branch flipped after retrieval",
         lambda d: _edit_csv_rows(d / "fig2a/traces.csv", _flip_backward_after(workloads.RETRIEVAL_NS))),
        ("fig2b SVG carries another config_hash",
         lambda d: _edit(d / "fig2b/traces_amplitude.svg", lambda s: s.replace("config_hash=", "config_hash=0"))),
        ("fig2c SVG missing", lambda d: (d / "fig2c/traces_intensity.svg").unlink()),
        ("fig2a report.json not JSON", lambda d: _edit(d / "fig2a/report.json", lambda s: s[:-5])),
    ],
    "sweep": [
        ("sweep row failed", lambda d: _edit(d / "sweep/summary.csv", lambda s: s.replace(",ok,", ",failed: x,", 1))),
        ("sweep balance off by 50 %", lambda d: _edit_csv_rows(
            d / "sweep/summary.csv", lambda rows: [_scale_col(r, 3, 1.5) for r in rows])),
    ],
    "deep_slab": [
        ("deep_slab forward trace off by 1e-3", lambda d: _edit_csv_rows(d / "deep_slab/traces.csv", _scale_forward(1.001))),
        ("deep_slab meta.json for another xi", lambda d: _edit(
            d / "deep_slab/meta.json", lambda s: s.replace('"xi": ', '"xi": 1', 1))),
    ],
}


def _scale_col(row: str, col: int, factor: float) -> str:
    c = row.split(",")
    c[col] = f"{float(c[col]) * factor:.9g}"
    return ",".join(c)


def _gate_misses(wl, d: Path) -> list[str]:
    obs: dict = {}
    return [m for unit in wl.units for call in unit.calls
            for m in run.check_call(call, d / unit.name, obs)]


def check_result_lines(spec: dict, failures: list[str]) -> None:
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if {k: listed.get(k) for k in END_TO_END} != END_TO_END:
        failures.append(f"BENCHMARK.json end_to_end {listed} lacks {END_TO_END}")
    layer_names = [m["name"] for m in spec["per_layer"]]
    if sorted(layer_names) != sorted(PER_LAYER):
        failures.append(f"BENCHMARK.json per_layer {layer_names} differs from {PER_LAYER}")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = run.main(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                              small=True)
            lines = buf.getvalue().splitlines()
            result = json.loads(lines[-1])
            tag = f"{name} --trace {trace}"
            if rc != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: exit {rc}, keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            want = spec["per_layer"] if trace else spec["end_to_end"]
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in want}:
                failures.append(f"{tag}: metrics {got} differ from BENCHMARK.json")
            bad = [k for k, v in result["metrics"].items() if not isinstance(v.get("value"), (int, float))]
            if bad:
                failures.append(f"{tag}: non-numeric values for {bad}")
            human = "\n".join(lines[:-1])
            for extra in ("fail_frac", "oracle_rel_l2") if name == "deep_slab" else ("fail_frac",):
                if not any(ln.split()[:1] == [extra] and len(ln.split()) == 3 for ln in human.splitlines()):
                    failures.append(f"{tag}: no '{extra} <value> <unit>' line")


def check_gates(cli, failures: list[str]) -> None:
    run.RUNTIME.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.RUNTIME))
    try:
        for name, corruptions in CORRUPTIONS.items():
            wl = workloads.build(name, 7, small=True)
            clean = tmp / name
            for unit in wl.units:
                (clean / unit.name).mkdir(parents=True)
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(call.resolve(clean / unit.name)) for unit in wl.units for call in unit.calls]
            misses = _gate_misses(wl, clean)
            if any(codes) or misses:
                failures.append(f"{name}: clean outputs fail: exit codes {codes}, misses {misses}")
                continue
            for k, unit in enumerate(wl.units):
                sample = run.run_unit(cli, unit, tmp / f"{name}-ticked{k}", None, {})
                ticked = {f: h for written in sample["written"] for f, h in written.items()}
                if ticked != run._digests(clean / unit.name):
                    failures.append(f"{name}/{unit.name}: outputs under the host-speed ticker differ")
            for i, (what, mutate) in enumerate(corruptions):
                bad = tmp / f"{name}-{i}"
                shutil.copytree(clean, bad)
                mutate(bad)
                if not _gate_misses(wl, bad):
                    failures.append(f"{name}: gates missed corruption '{what}'")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    check_result_lines(spec, failures)
    from nfscatter import cli  # importable once run.main has set up sys.path
    check_gates(cli, failures)
    for f in failures:
        print(f"FAIL {f}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
