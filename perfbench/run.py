#!/usr/bin/env python3
"""nfscatter benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {protocol,sweep,deep_slab} --seed N \\
        --seconds S --trace {0,1}

The workload's CLI calls go through ``nfscatter.cli.main`` in this process,
one after another (a closed loop with one caller; no threads).  The
workload's units (groups of calls sharing an output directory) run in turn,
over and over, until ``--seconds`` is used up; every call's output is gated
for correctness and hashed, and every sample of a unit must write the same
bytes as its first.  Between the timed samples, fresh interpreters
(probe.py) time importing the CLI and validating the workload's scenarios.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
alternates untraced and traced cycles over the units and reports the
per-layer ones (see spans.py).  The last stdout line is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run (seed,
machine, parameters, every sample, the spans) goes to
``.perfbench/<workload>-seed<seed>-trace<t>.json``; outputs are written
under ``.perfbench/`` and deleted at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNTIME = ROOT / ".perfbench"

PROBE_SHARE = 0.15   # share of the elapsed run spent on set-up probes
REF_SETUP_NOMINAL_S = 0.1  # reference set-up time that defines setup_s's corrected second
MIN_PROBES = 8
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="measurement time budget")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


# ---------------------------------------------------------------- record


def _git_sha() -> str:
    """HEAD of the checkout, or 'unknown' outside a git tree or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # no enclosing repo's HEAD
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def machine_record(seed: int) -> dict:
    return {
        "seed": seed,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# ---------------------------------------------------------------- measuring


def _probe(*args: str) -> float:
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["seconds"])


def setup_seconds(argvs: list[list[str]]) -> dict:
    """One fresh-interpreter set-up, then the reference set-up right after it.

    The set-up is mostly imports and byte-code; the numpy reference kernel
    follows it poorly (probe times rose with the kernel's to the power 0.3
    to 0.4).  A fixed reference set-up in the next fresh interpreter
    (probe.py --reference) tracks it, and ``corrected_s`` is the set-up
    time on a host where that reference takes ``REF_SETUP_NOMINAL_S``.
    """
    setup_s = _probe(str(SRC), json.dumps(argvs))
    reference_s = _probe("--reference")
    return {"setup_s": setup_s, "reference_s": reference_s,
            "corrected_s": setup_s * REF_SETUP_NOMINAL_S / reference_s}


def _cpu_now() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check_call(call, out: Path, obs: dict) -> list[str]:
    """Gate misses for one call's outputs; unreadable or missing output is a miss."""
    try:
        return call.gate(out, obs)
    except Exception as exc:  # any failure to read the output fails the call
        return [f"{' '.join(call.resolve(out))}: bad output: {type(exc).__name__}: {exc}"]


def run_unit(cli, unit, out: Path, tracer, obs: dict) -> dict:
    """One sample of a unit: its calls timed in order, each then gated and hashed.

    Each call runs under its own hostspeed.Ticker; its wall and CPU time,
    and the spans it records, are reported in corrected seconds.
    """
    out.mkdir()
    wall = cpu = raw_wall = 0.0
    kernels: list[float] = []
    misses: list[list[str]] = []
    written: list[dict[str, str]] = []
    hooks = spans.instrument(cli, tracer) if tracer else contextlib.nullcontext()
    with hooks:
        for call in unit.calls:
            before = _digests(out)
            argv = call.resolve(out)
            span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            first = len(tracer.spans) if tracer else 0
            ticker = hostspeed.Ticker()
            with ticker.running():
                c0, t0 = _cpu_now(), time.perf_counter()
                try:
                    with span, contextlib.redirect_stdout(io.StringIO()):
                        rc = cli.main(argv)
                except Exception:  # a crash is a failed call, not a failed benchmark
                    traceback.print_exc()
                    rc = "exception"
                t1, c1 = time.perf_counter(), _cpu_now()
            handlers = ticker.handler_seconds(t0, t1)  # the handlers are CPU-bound
            wall += ticker.corrected(t0, t1)
            cpu += (c1 - c0 - handlers) * ticker.scale
            raw_wall += t1 - t0
            kernels.append(ticker.kernel_s)
            for sp in tracer.spans[first:] if tracer else ():
                sp.seconds = ticker.corrected(sp.start, sp.end)

            after = _digests(out)
            written.append({k: v for k, v in after.items() if before.get(k) != v})
            misses.append(check_call(call, out, obs) if rc == 0 else [f"{' '.join(argv)}: exit {rc}"])
    shutil.rmtree(out)
    return {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "raw_wall_s": raw_wall, "kernel_s": kernels, "misses": misses, "written": written,
            "layers": spans.layer_totals(tracer.spans) if tracer else None}


def measure(cli, wl, seconds: float, trace: bool, tmp: Path) -> tuple[list[dict], dict, list[float]]:
    """Cycle through the workload's units until the budget is spent.

    With ``trace``, every second cycle is traced.  Each unit runs at least
    once untraced (and, with ``trace``, once traced); after that a sample
    starts only if its unit's mean time so far still fits in ``seconds``.
    Every sample must write the same bytes as its unit's first sample.
    After each sample, set-up probes run until they have taken
    ``PROBE_SHARE`` of the elapsed time (and at least ``MIN_PROBES`` ran),
    so they see the host at every point of the run.
    """
    n = len(wl.units)
    samples: list[dict] = []
    setups: list[dict] = []
    obs: dict = {}
    probe_s = 0.0
    start = time.perf_counter()
    while True:
        k = len(samples)
        u = k % n
        tracer = spans.Tracer() if trace and (k // n) % 2 == 1 else None
        t0 = time.perf_counter()
        s = run_unit(cli, wl.units[u], tmp / f"sample{k}", tracer, obs)
        s.update(unit=u, loop_s=time.perf_counter() - t0,
                 spans=[vars(sp) for sp in tracer.spans] if tracer else None)
        if k >= n:
            for i, (ref, got) in enumerate(zip(samples[u]["written"], s["written"])):
                if got != ref:
                    s["misses"][i].append(f"unit {u} call {i}: outputs differ from its first sample")
        samples.append(s)
        while probe_s < PROBE_SHARE * (time.perf_counter() - start) or len(setups) < MIN_PROBES:
            t0 = time.perf_counter()
            setups.append(setup_seconds(wl.argvs()))
            probe_s += time.perf_counter() - t0
        if len(samples) < n * (2 if trace else 1):
            continue
        nxt = [x["loop_s"] for x in samples if x["unit"] == len(samples) % n]
        if time.perf_counter() - start + statistics.fmean(nxt) > seconds:
            return samples, obs, setups


# ---------------------------------------------------------------- report


def _per_unit_median(samples, traced: bool, key) -> list:
    """For each unit, the median of ``key(sample)`` over its (un)traced samples."""
    units = sorted({s["unit"] for s in samples})
    return [statistics.median(key(s) for s in samples if s["unit"] == u and s["traced"] == traced)
            for u in units]


def compute_metrics(samples, obs, setups) -> dict[str, float]:
    """wall_s and cpu_s sum, over the units, each unit's median sample; setup_s is the median probe.

    All times are in corrected seconds (hostspeed.py, setup_seconds).  Raw
    times of the same code on a shared 2-vCPU host spread by 17-32 %
    (interquartile range over median) across ten runs, and their medians
    moved by a fifth between two sets of ten; the host's speed, timed
    during each call and beside each set-up probe, takes out most of both.
    """
    wall = sum(_per_unit_median(samples, False, lambda s: s["wall_s"]))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": wall,
        "cpu_s": sum(_per_unit_median(samples, False, lambda s: s["cpu_s"])),
        "setup_s": statistics.median(p["corrected_s"] for p in setups),
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
    }
    if any(s["traced"] for s in samples):
        keys = next(s["layers"] for s in samples if s["traced"])
        totals = {k: sum(_per_unit_median(samples, True, lambda s: s["layers"][k])) for k in keys}
        metrics.update(spans.layer_metrics(totals))
        traced_wall = sum(_per_unit_median(samples, True, lambda s: s["wall_s"]))
        metrics["trace_overhead_frac"] = traced_wall / wall - 1.0
    # uncorrected figures and the host's speed, for the human-readable lines and the record
    metrics["raw_wall_s"] = sum(_per_unit_median(samples, False, lambda s: s["raw_wall_s"]))
    metrics["raw_setup_s"] = statistics.median(p["setup_s"] for p in setups)
    metrics["ref_kernel_ms"] = 1e3 * statistics.median(k for s in samples for k in s["kernel_s"])
    if obs.get("oracle_rel_l2"):
        metrics["oracle_rel_l2"] = statistics.median(obs["oracle_rel_l2"])
    return metrics


def main(argv: list[str] | None = None, small: bool = False) -> int:
    """Run one workload; ``small`` shrinks it (used by smoke.py only)."""
    args = _parser().parse_args(argv)
    if not (SRC / "nfscatter" / "cli.py").is_file():
        print(f"error: {SRC / 'nfscatter'} not found; run from the root of an nfscatter checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from nfscatter import cli
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: imported nfscatter from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below when stopped
    wl = workloads.build(args.workload, args.seed, small)
    record = machine_record(args.seed)
    RUNTIME.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="out-", dir=RUNTIME))
    try:
        samples, obs, setups = measure(cli, wl, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = compute_metrics(samples, obs, setups)
    attempted = sum(len(s["misses"]) for s in samples)
    failed = sum(1 for s in samples for m in s["misses"] if m)
    metrics["fail_frac"] = failed / attempted
    for line in (line for s in samples for m in s["misses"] for line in m):
        print(f"gate miss: {line}", file=sys.stderr)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(fail_frac="ratio", oracle_rel_l2="ratio", raw_wall_s="s", raw_setup_s="s",
                 ref_kernel_ms="ms")

    n_traced = sum(s["traced"] for s in samples)
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} params={json.dumps(wl.params)}")
    print(f"  python {record['python']}, numpy {record['numpy']} ({record['blas']}), "
          f"nproc {record['nproc']}, load {record['loadavg_at_start']}, sha {record['git_sha'][:12]}")
    print(f"  samples of {len(wl.units)} unit(s): {len(samples) - n_traced} untraced, "
          f"{n_traced} traced; setup probes: {len(setups)}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:26s} {metrics[name]:14.6g} {unit}")

    (RUNTIME / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "record": record,
        "workload": {"name": wl.name, "params": wl.params,
                     "units": {unit.name: [list(c.argv) for c in unit.calls] for unit in wl.units}},
        "metrics": metrics,
        "setup_s_samples": setups,
        "samples": [{k: s[k] for k in ("unit", "traced", "wall_s", "cpu_s", "raw_wall_s", "kernel_s",
                                       "misses", "spans")}
                    for s in samples],
    }, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
