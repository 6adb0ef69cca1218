#!/usr/bin/env python3
"""Print the sha256 of every file ``nfscatter run`` and ``nfscatter plot`` write, per preset.

Usage: python scripts/trace_digest.py [--set KEY=VALUE ...] PRESET [PRESET ...]

Each preset runs through ``nfscatter.cli.main`` into a temporary directory,
with the ``--set`` overrides applied to every run, and ``plot`` then renders
that run's ``traces.csv`` into the same directory.  One line per output file
(``traces.csv``, ``report.json``, ``meta.json``, ``pattern.csv`` when the
scenario records snapshots, ``traces_intensity.svg``,
``traces_amplitude.svg``) gives ``<preset> <file> <sha256>``.  Outputs are
byte-deterministic, so running the script on two commits and comparing the
lines checks that a change left every output byte as it was.
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


def digests(preset: str, overrides: list[str]) -> list[tuple[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        run = ["run", "--preset", preset, "--out", tmp]
        for item in overrides:
            run += ["--set", item]
        for argv in (run, ["plot", str(Path(tmp) / "traces.csv"), "--out", tmp]):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main(argv)
            if rc != 0:
                raise SystemExit(f"{preset}: nfscatter {argv[0]} exited {rc}")
        return [(name, hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest())
                for name in FILES if (Path(tmp) / name).exists()]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("presets", nargs="+", metavar="PRESET")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override applied to every run (repeatable)")
    args = p.parse_args(argv)
    for preset in args.presets:
        for name, digest in digests(preset, args.set):
            print(f"{preset} {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
