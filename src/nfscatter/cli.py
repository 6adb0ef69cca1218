"""Command line interface: run, sweep, plot, presets.

Exit codes: 0 ok, 1 input error, 2 numerical failure.  Output files are
deterministic.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .analysis import beat_period, entanglement_report, excitation_pattern, intensities, storage_suppression
from .configio import ConfigError, apply_overrides, load_config, scenario_from_dict
from .model import DEFAULT_GAMMA, WAVE_NUMBER_K, ScenarioError, ValidatedScenario, validate_scenario
from .oracles import envelope_attenuation
from .presets import PRESETS, SWEEP_AXES, SweepSpec, preset_scenario
from .solver import NumericalError, run_scenario
from .traceio import (
    SCHEMA_VERSION,
    TraceFormatError,
    read_traces_csv,
    write_json,
    write_pattern_csv,
    write_traces_csv,
)
from .svgplot import render_amplitude_svg, render_intensity_svg


def _out_dir(raw: str) -> Path:
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_scenario(args) -> ValidatedScenario:
    if args.preset and args.config:
        raise ConfigError("give --preset or --config, not both")
    if args.preset:
        config = preset_scenario(args.preset)
    elif args.config:
        config = load_config(args.config)
    else:
        raise ConfigError("one of --preset or --config is required")
    if args.set or args.dt is not None:
        # overrides apply to the scenario as written, so one validation reports every nudge
        overrides = list(args.set or [])
        if args.dt is not None:
            overrides.append(f"dt={args.dt}")
        config = scenario_from_dict(apply_overrides(config.as_dict(), overrides))
    return validate_scenario(config)


def _storage_bounds(scenario: ValidatedScenario) -> tuple[float, float] | None:
    segs = scenario.schedule.segments
    for i in range(1, len(segs) - 1):
        if segs[i].delta_b == 0.0 and segs[i - 1].delta_b != 0.0 and segs[i + 1].delta_b != 0.0:
            return segs[i].t_start, segs[i + 1].t_start
    return None


def build_report(scenario: ValidatedScenario, traces) -> dict:
    """Entanglement, suppression and beat metrics; unavailable ones become null."""
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": scenario.config_hash,
        "notes": {},
    }
    bounds = _storage_bounds(scenario)
    if bounds and bounds[1] >= scenario.t_end:
        bounds = None  # retrieval lies beyond the simulated span
    window = (bounds[1], scenario.t_end) if bounds else (0.0, scenario.t_end)
    ent = entanglement_report(traces, window)
    report.update(ent.as_dict())

    if bounds:
        t_off, t_on = bounds
        try:
            report["storage_suppression"] = storage_suppression(traces, t_off, min(t_on, scenario.t_end))
        except ValueError as exc:
            report["storage_suppression"] = None
            report["notes"]["storage_suppression"] = str(exc)
    else:
        report["storage_suppression"] = None
        report["notes"]["storage_suppression"] = "schedule has no off/on storage window inside the run"

    beat_window = (0.0, min(bounds[0] + 1.0, scenario.t_end)) if bounds else (0.0, scenario.t_end)
    series = intensities(traces)
    try:
        report["beat_period_ns"] = beat_period(series.t_grid, series.i_fwd, beat_window)
    except ValueError as exc:
        report["beat_period_ns"] = None
        report["notes"]["beat_period"] = str(exc)
    return report


def cmd_run(args) -> int:
    scenario = _load_scenario(args)
    out = _out_dir(args.out)
    traces, snapshots = run_scenario(scenario)

    write_traces_csv(out / "traces.csv", traces)
    write_json(out / "report.json", build_report(scenario, traces))

    if snapshots:
        patterns = []
        for snap in snapshots:
            pat = excitation_pattern(snap, WAVE_NUMBER_K)
            patterns.append((snap.t, pat.s_grid, pat.density))
        write_pattern_csv(out / "pattern.csv", patterns, scenario.config_hash)

    write_json(out / "meta.json", {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "config_hash": scenario.config_hash,
        "scenario": scenario.as_dict(),
        "derived": {
            "tau": scenario.tau,
            "eta_l": scenario.eta_l,
            "wave_number_k": WAVE_NUMBER_K,
        },
        "nudges": [list(n) for n in scenario.nudges],
    })
    names = ["traces.csv", "report.json", "meta.json"]
    if snapshots:
        names.insert(2, "pattern.csv")
    print(f"wrote {out}/{{{','.join(names)}}}")
    return 0


def cmd_sweep(args) -> int:
    try:
        values = tuple(float(v) for v in args.values.split(","))
    except ValueError:
        raise ConfigError(f"--values must be comma separated numbers (got {args.values!r})") from None
    spec = SweepSpec(axis=args.axis, values=values, base=args.base)
    out = _out_dir(args.out)
    cols = ["axis", "value", "status", "balance", "mean_phase_rad", "classification",
            "storage_suppression", "beat_period_ns", "predicted_balance", "config_hash"]
    rows = []
    for value in spec.values:
        row = {"axis": spec.axis, "value": value, "status": "ok"}
        try:
            scenario = validate_scenario(spec.scenario_for(value))
            traces, _ = run_scenario(scenario)
            report = build_report(scenario, traces)
            base_level = scenario.schedule.first_nonzero_level()
            report["predicted_balance"] = scenario.mirror.reflectivity / envelope_attenuation(
                scenario.sample.xi, DEFAULT_GAMMA, abs(base_level)) if base_level else None
            row.update((c, report[c]) for c in cols[3:])
        except (ScenarioError, ConfigError, NumericalError, ValueError) as exc:
            row["status"] = f"failed: {exc}"
        rows.append(row)

    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for c in cols:
            v = row.get(c)
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(f"{v:.9g}")
            else:
                cells.append(str(v).replace(",", ";"))
        lines.append(",".join(cells))
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out}/summary.csv ({len(rows)} rows)")
    return 0


def cmd_plot(args) -> int:
    tf = read_traces_csv(Path(args.traces))
    out = _out_dir(args.out)
    stem = Path(args.traces).stem
    config_hash = tf.attrs.get("config_hash", "")
    (out / f"{stem}_intensity.svg").write_text(
        render_intensity_svg(tf.t, tf.i_fwd, tf.i_bwd, config_hash))
    (out / f"{stem}_amplitude.svg").write_text(
        render_amplitude_svg(tf.t, tf.re_fwd, tf.re_bwd, tf.schedule, config_hash))
    print(f"wrote {out}/{stem}_intensity.svg and {out}/{stem}_amplitude.svg")
    return 0


def cmd_presets(args) -> int:
    if args.action != "list":
        raise ConfigError(f"unknown presets action {args.action!r}; try 'list'")
    for name, (desc, _) in PRESETS.items():
        print(f"{name:12s} {desc}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A malformed argument is an input error: exit 1, not argparse's 2 (numerical failure here)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process: each one is cyclic garbage, which raised a long run's resident set
def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="nfscatter",
                description="gated forward/backward resonant scattering simulator")
    p.add_argument("--version", action="version", version=f"nfscatter {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="run one scenario and write traces/report/meta")
    run.add_argument("--preset", help=f"one of: {', '.join(PRESETS)}")
    run.add_argument("--config", help="JSON scenario file")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config entry, dotted keys (repeatable)")
    run.add_argument("--dt", type=float, help="time step override, ns")
    run.add_argument("--out", default="nfscatter_run", help="output directory")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run a one-axis parameter sweep")
    sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep.add_argument("--values", required=True,
                       help="comma separated values (delta_B in multiples of gamma)")
    sweep.add_argument("--base", default="fig2b", help="base preset")
    sweep.add_argument("--out", default="nfscatter_sweep", help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    plot = sub.add_parser("plot", help="emit SVG panels from a traces.csv")
    plot.add_argument("traces", help="path to traces.csv")
    plot.add_argument("--out", default="nfscatter_plots", help="output directory")
    plot.set_defaults(func=cmd_plot)

    presets = sub.add_parser("presets", help="preset utilities")
    presets.add_argument("action", nargs="?", default="list")
    presets.set_defaults(func=cmd_presets)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScenarioError, TraceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
