#!/usr/bin/env python3
"""Fold perfbench run records of a parent and a change into ``BENCH_<N>.json``.

Usage, from the root of a checkout:

    python scripts/bench_record.py PARENT_RECORDS... --change CHANGE_RECORDS... --pr N

Each record is a ``.perfbench/<workload>-seed<seed>-trace<t>.json`` file
left by ``perfbench/run.py``.  The output, written to ``BENCH_<N>.json`` in
the current directory, holds for each side the git shas, Python, numpy,
BLAS, nproc and CPU model of its records and, per workload:

- from the untraced runs (``--trace 0``), the median, quartiles and IQR of
  ``wall_s``, ``cpu_s``, ``setup_s`` and ``peak_rss_mb``, and of the
  uncorrected ``raw_wall_s`` and the reference kernel's ``ref_kernel_ms``
  (which the corrected times are scaled by), the median number
  of samples a run made (``untraced_samples``: a faster program fits more
  calls into the fixed ``--seconds``, and its peak resident set can rise
  with the call count alone), the seeds and the largest failed share of
  calls in one run;
- from the traced runs (``--trace 1``), the median of every per-layer
  metric BENCHMARK.json lists.

Per workload it also counts the pairs (one parent and one change run of the
same seed) in which the change's ``wall_s`` is lower.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
UNCORRECTED = ("raw_wall_s", "ref_kernel_ms")
MACHINE = ("git_sha", "python", "numpy", "blas", "nproc", "cpu_model")
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(values: list[float]) -> dict:
    """Median, quartiles (linear interpolation) and IQR of some runs' values."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def side(records: list[dict], per_layer: list[str]) -> dict:
    """Machine description and per-workload statistics of one side's records."""
    machine = {key: sorted({str(r["record"][key]) for r in records}) for key in MACHINE}
    workloads: dict[str, dict] = {}
    for name in sorted({r["workload"]["name"] for r in records}):
        runs = [r for r in records if r["workload"]["name"] == name]
        plain = [r for r in runs if not any(s["traced"] for s in r["samples"])]
        traced = [r for r in runs if any(s["traced"] for s in r["samples"])]
        out: dict = {}
        if plain:
            out.update({m: spread([r["metrics"][m] for r in plain]) for m in END_TO_END})
            out.update({m: spread([r["metrics"][m] for r in plain]) for m in UNCORRECTED
                        if all(m in r["metrics"] for r in plain)})
            out["untraced_samples"] = statistics.median(len(r["samples"]) for r in plain)
            out["seeds"] = sorted(r["record"]["seed"] for r in plain)
            out["fail_frac"] = max(r["metrics"]["fail_frac"] for r in plain)
        if traced:
            out["layers"] = {m: statistics.median(r["metrics"][m] for r in traced)
                             for m in per_layer if all(m in r["metrics"] for r in traced)}
        workloads[name] = out
    return {"machine": machine, "workloads": workloads}


def wins(parent: list[dict], change: list[dict]) -> dict:
    """Per workload, untraced pairs of equal seed and how many the change's wall_s won."""
    def key(r):
        return r["workload"]["name"], r["record"]["seed"], any(s["traced"] for s in r["samples"])

    base = {key(r): r["metrics"]["wall_s"] for r in parent}
    out: dict[str, dict] = {}
    for r in change:
        name, seed, traced = key(r)
        if not traced and (name, seed, False) in base:
            tally = out.setdefault(name, {"pairs": 0, "change_lower_wall_s": 0})
            tally["pairs"] += 1
            tally["change_lower_wall_s"] += r["metrics"]["wall_s"] < base[name, seed, False]
    return out


def build(parent_paths: list[Path], change_paths: list[Path], pr: int) -> dict:
    per_layer = [m["name"] for m in json.loads(SPEC.read_text())["per_layer"]]
    parent = [json.loads(p.read_text()) for p in parent_paths]
    change = [json.loads(p.read_text()) for p in change_paths]
    return {"pr": pr, "parent": side(parent, per_layer), "change": side(change, per_layer),
            "pairs": wins(parent, change)}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", nargs="+", type=Path, help="perfbench records of the parent commit")
    p.add_argument("--change", nargs="+", type=Path, required=True, help="perfbench records of the change")
    p.add_argument("--pr", type=int, required=True, help="number N of the BENCH_<N>.json to write")
    args = p.parse_args(argv)
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(build(args.parent, args.change, args.pr), indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
