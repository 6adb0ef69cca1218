#!/usr/bin/env python3
"""Print the sha256 of every file ``nfscatter run`` and ``nfscatter plot`` write, per preset.

Usage: python scripts/trace_digest.py [--set KEY=VALUE ...] [PRESET ...] [--sweep AXIS VALUES BASE ...]

Each preset runs through ``nfscatter.cli.main`` into a temporary directory,
with the ``--set`` overrides applied to every run, and ``plot`` then renders
that run's ``traces.csv`` into the same directory.  One line per output file
(``traces.csv``, ``report.json``, ``meta.json``, ``pattern.csv`` when the
scenario records snapshots, ``traces_intensity.svg``,
``traces_amplitude.svg``) gives ``<preset> <file> <sha256>``.  Outputs are
byte-deterministic, so running the script on two commits and comparing the
lines checks that a change left every output byte as it was.

Each ``--sweep AXIS VALUES BASE`` (repeatable) runs ``nfscatter sweep --axis
AXIS --values VALUES --base BASE`` into a temporary directory and prints
``sweep_<AXIS>_<VALUES>_<BASE> summary.csv <sha256>``; ``--set`` does not
apply to sweeps, which take no overrides.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from nfscatter.cli import main as cli_main

FILES = ("traces.csv", "report.json", "meta.json", "pattern.csv",
         "traces_intensity.svg", "traces_amplitude.svg")


def _digests(label: str, calls: list[list[str]], files) -> list[tuple[str, str]]:
    """Run ``calls`` (``{out}`` standing for a temporary directory) and hash the ``files`` they wrote there."""
    with tempfile.TemporaryDirectory() as tmp:
        for argv in calls:
            argv = [a.replace("{out}", tmp) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main(argv)
            if rc != 0:
                raise SystemExit(f"{label}: nfscatter {argv[0]} exited {rc}")
        return [(name, hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest())
                for name in files if (Path(tmp) / name).exists()]


def digests(preset: str, overrides: list[str]) -> list[tuple[str, str]]:
    run = ["run", "--preset", preset, "--out", "{out}"]
    for item in overrides:
        run += ["--set", item]
    return _digests(preset, [run, ["plot", "{out}/traces.csv", "--out", "{out}"]], FILES)


def sweep_digest(axis: str, values: str, base: str) -> tuple[str, str]:
    label = f"sweep_{axis}_{values}_{base}"
    argv = ["sweep", "--axis", axis, "--values", values, "--base", base, "--out", "{out}"]
    (name, digest), = _digests(label, [argv], ["summary.csv"])
    return label, digest


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("presets", nargs="*", metavar="PRESET")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override applied to every preset run (repeatable)")
    p.add_argument("--sweep", action="append", default=[], nargs=3, metavar=("AXIS", "VALUES", "BASE"),
                   help="also digest the summary.csv of this sweep (repeatable)")
    args = p.parse_args(argv)
    if not args.presets and not args.sweep:
        p.error("give at least one PRESET or --sweep")
    for preset in args.presets:
        for name, digest in digests(preset, args.set):
            print(f"{preset} {name} {digest}")
    for axis, values, base in args.sweep:
        label, digest = sweep_digest(axis, values, base)
        print(f"{label} summary.csv {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
