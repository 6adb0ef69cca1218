"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 perfbench/probe.py SRC_DIR ARGV_LIST_JSON
       python3 perfbench/probe.py --reference

The first form times importing ``nfscatter.cli`` and building and
validating the scenarios of the workload's CLI calls (a JSON list of argv
lists), and prints ``{"seconds": ...}``.  ``run`` calls go through the
CLI's own ``_load_scenario``; ``sweep`` builds its scenarios inside
``cmd_sweep``, so its steps before the solver are repeated here; ``plot``
has no scenario.

The second form times a fixed reference set-up that does not depend on the
repository but is made of the same kinds of work: importing numpy and the
standard-library modules nfscatter uses (about three quarters of the
set-up), then defining frozen dataclasses, as nfscatter's 19 do when its
modules load.  run.py runs it right after each set-up probe, so the pair
sees the same host speed, and scales the set-up time by it (see
run.setup_seconds).

Only the standard library modules below are imported before the clock
starts.
"""

import json
import sys
import time


def setup(src: str, argvs: list[list[str]]) -> None:
    sys.path.insert(0, src)
    from nfscatter import cli

    parser = cli._parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        if args.cmd == "run":
            cli._load_scenario(args)
        elif args.cmd == "sweep":
            spec = cli.SweepSpec(axis=args.axis, values=tuple(float(v) for v in args.values.split(",")),
                                 base=args.base)
            for value in spec.values:
                cli.validate_scenario(spec.scenario_for(value))


def reference() -> None:
    import argparse, cmath, dataclasses, hashlib, math, pathlib, typing, warnings  # noqa: F401, E401
    import numpy  # noqa: F401

    for i in range(20):
        dataclasses.make_dataclass(f"Ref{i}", [(f"f{j}", float, 0.0) for j in range(6)], frozen=True)


def main() -> None:
    t0 = time.perf_counter()
    if sys.argv[1:] == ["--reference"]:
        reference()
    else:
        setup(sys.argv[1], json.loads(sys.argv[2]))
    print(json.dumps({"seconds": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
