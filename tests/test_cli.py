import ast
import contextlib
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfscatter import cli
from nfscatter.cli import main
from nfscatter.model import DEPTH_NODES, MAX_GRID_POINTS, validate_scenario
from nfscatter.presets import preset_scenario
from nfscatter.traceio import TRACES_HEADER, read_traces_csv

QUICK = [
    "--set", "t_end=40", "--set", "dt=0.02", "--set", "sample.n_depth=41",
    "--set", "record_snapshots_at=[30.0]",
]


def run_cli(args):
    return main(list(args))


def test_run_writes_all_outputs(tmp_path):
    out = tmp_path / "a"
    assert run_cli(["run", "--preset", "fig2a", *QUICK, "--out", str(out)]) == 0
    assert (out / "traces.csv").exists()
    assert (out / "report.json").exists()
    assert (out / "meta.json").exists()
    assert (out / "pattern.csv").exists()

    tf = read_traces_csv(out / "traces.csv")
    meta = json.loads((out / "meta.json").read_text())
    assert tf.attrs["config_hash"] == meta["config_hash"]
    assert len(tf.t) == 2001

    header = [l for l in (out / "traces.csv").read_text().splitlines() if not l.startswith("#")][0]
    assert header == TRACES_HEADER


def test_run_byte_identical(tmp_path):
    a, b = tmp_path / "one", tmp_path / "two"
    run_cli(["run", "--preset", "fig2a", *QUICK, "--out", str(a)])
    run_cli(["run", "--preset", "fig2a", *QUICK, "--out", str(b)])
    for name in ("traces.csv", "report.json", "meta.json", "pattern.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_preset_and_config_conflict(tmp_path, capsys):
    assert run_cli(["run", "--preset", "fig2a", "--config", "x.json"]) == 1
    assert "not both" in capsys.readouterr().err


def test_run_invalid_override_is_input_error(tmp_path):
    assert run_cli(["run", "--preset", "fig2a", "--set", "mirror.reflectivity=1.5",
                    "--out", str(tmp_path / "x")]) == 1


# every float field of a scenario, as a --set key and a template for its value
FLOAT_FIELDS = [
    ("sample.xi", "{}"),
    ("pulse.area", "{}"), ("pulse.fwhm", "{}"), ("pulse.t0", "{}"),
    ("mirror.reflectivity", "{}"), ("mirror.delay_tau", "{}"), ("mirror.disable_time", "{}"),
    ("t_end", "{}"), ("dt", "{}"),
    ("schedule.segments", "[[0.0, {}]]"), ("schedule.segments", "[[{}, 0.2]]"),
    ("record_snapshots_at", "[{}]"),
]
# JSON NaN and +-Infinity parse to floats; inf and the quoted text stay strings;
# booleans and numeric text are not numbers either
BAD_VALUES = ["NaN", "Infinity", "-Infinity", "inf", "-inf", '"abc"', "abc", "true", "false", '"1.5"']


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FLOAT_FIELDS), st.sampled_from(BAD_VALUES))
def test_non_finite_float_field_is_input_error(field, bad):
    key, template = field
    value = template.format(bad)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        rc = run_cli(["run", "--preset", "fig2b", "--set", f"{key}={value}", "--out", out])
    assert rc == 1, (key, value)
    assert key in err.getvalue(), (key, value, err.getvalue())


@pytest.mark.parametrize("sets, field", [
    (["sample.n_depth=100000000", "t_end=1e6"], "sample.n_depth"),
    (["t_end=1e6"], "t_end"),
    (["t_end=1e300", "dt=1e-300"], "t_end"),
    (["record_snapshots_at=[1, 2, 3, 4, 5, 6]", "sample.n_depth=200000"], "record_snapshots_at"),
])
def test_oversized_grid_rejected_before_allocation(tmp_path, capsys, sets, field):
    argv = ["run", "--preset", "fig2b", "--out", str(tmp_path / "x")]
    for item in sets:
        argv += ["--set", item]
    start = time.perf_counter()
    assert run_cli(argv) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert field in err and str(MAX_GRID_POINTS) in err
    assert not (tmp_path / "x" / "traces.csv").exists()


@pytest.mark.parametrize("args, field", [
    (["--set", "schedule.delta_b_in_gamma=5"], "delta_b_in_gamma"),
    (["--set", "schedule.initial_level=0.1", "--set", "schedule.events=[]"], "events, initial_level"),
    (["--set", "record_snapshots_at=[1.0, 1.001, 1.0]"], "record_snapshots_at"),
    (["--dt", "0"], "dt must be > 0"),
    # the 57Fe constants, the unread slab thickness and the initial-level alias are not settings
    (["--set", "consts.gamma=0.01"], "config: consts"),
    (["--set", "sample.thickness_um=5"], "sample: thickness_um"),
    (["--set", 'schedule={"delta_b_in_gamma": 30}'], "schedule: delta_b_in_gamma"),
    # R = 0 means no mirror, and the area cap holds for every pulse
    (["--set", "mirror.present=false"], "mirror: present"),
    (["--set", "pulse.linear_regime=false"], "pulse: linear_regime"),
    # a reflecting mirror's round trip is at least one step (single_pass has dt 0.005)
    (["--set", "mirror.reflectivity=0.5", "--set", "mirror.delay_tau=0"], "mirror.delay_tau"),
    (["--set", "mirror.reflectivity=0.5", "--set", "mirror.delay_tau=0.0025"], "mirror.delay_tau"),
    # only a gaussian pulse has a width
    (["--set", "pulse.fwhm=2.0"], "pulse.fwhm"),
])
def test_rejected_input_names_field(tmp_path, capsys, args, field):
    assert run_cli(["run", "--preset", "single_pass", *args, "--out", str(tmp_path / "x")]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "x" / "traces.csv").exists()


def test_xi_past_the_depth_rule_is_input_error(tmp_path, capsys):
    # the largest thickness the collocation node rule reaches runs; the next float up exits 1
    top = DEPTH_NODES[-1][0]
    base = ["run", "--preset", "single_pass", "--set", "t_end=5", "--set", "dt=0.05"]
    with pytest.warns(RuntimeWarning, match="linear-regime"):
        assert run_cli([*base, "--set", f"sample.xi={top!r}", "--out", str(tmp_path / "top")]) == 0
    capsys.readouterr()
    assert run_cli([*base, "--set", f"sample.xi={math.nextafter(top, math.inf)!r}", "--out", str(tmp_path / "x")]) == 1
    assert "sample.xi" in capsys.readouterr().err
    assert not (tmp_path / "x" / "traces.csv").exists()


# the schedule's former event form; segments are its one form now
@pytest.mark.parametrize("schedule, key", [
    ({"events": [{"t": 22.163936, "action": "off"}, {"t": 100.0, "action": "on"}]}, "events"),
    ({"initial_level_in_gamma": 30.0}, "initial_level_in_gamma"),
])
def test_event_schedule_config_rejected(tmp_path, capsys, schedule, key):
    data = validate_scenario(preset_scenario("fig2b")).as_dict()
    data["schedule"] = schedule
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(data))
    assert run_cli(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
    assert f"unknown key(s) in schedule: {key}" in capsys.readouterr().err
    assert not (tmp_path / "x" / "traces.csv").exists()


@pytest.mark.parametrize("argv, code, text", [
    (["run", "--preset", "fig2a", "--dt", "abc"], 1, "--dt"),
    (["run", "--preset", "fig2a", "--format", "xml"], 1, "--format"),
    (["sweep", "--axis", "bogus", "--values", "1"], 1, "--axis"),
    (["sweep", "--axis", "xi", "--values", "abc"], 1, "--values"),
    (["--help"], 0, ""),
    (["--version"], 0, ""),
    # traces.csv is the one trace format
    (["run", "--preset", "fig2a", "--format", "json"], 1, "--format"),
])
def test_malformed_argument_is_input_error(tmp_path, capsys, argv, code, text):
    # argparse exits 2 on its own, which here would read as a numerical failure
    try:
        rc = run_cli([*argv, "--out", str(tmp_path / "x")] if argv[0] in ("run", "sweep") else argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    assert text in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _setting_keys(section: dict, prefix: str = ""):
    """Dotted leaf keys of a scenario dict; the schedule is one setting."""
    for key, value in section.items():
        if isinstance(value, dict) and key != "schedule":
            yield from _setting_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


# a short fig2b run; its snapshot at 60 ns lies beyond t_end, so it moves to 30 ns, still in the storage window
GUARD_BASE = ["sample.n_depth=11", "dt=0.05", "t_end=40", "record_snapshots_at=[30.0]"]
# pulse.fwhm is read only in gaussian mode, so it is exercised there; a gaussian starts two widths after 0
GAUSSIAN = ["pulse.mode=gaussian", "pulse.fwhm=1.0", "pulse.t0=5.0"]
# setting -> (extra base overrides, overrides that must change a result on top of them)
SETTING_EFFECTS = {
    "sample.xi": ([], ["sample.xi=2.0"]),
    "sample.n_depth": ([], ["sample.n_depth=21"]),
    "pulse.mode": ([], GAUSSIAN),
    "pulse.area": ([], ["pulse.area=5e-4"]),
    "pulse.fwhm": (GAUSSIAN, ["pulse.fwhm=2.0"]),
    "pulse.t0": ([], ["pulse.t0=1.0"]),
    "mirror.reflectivity": ([], ["mirror.reflectivity=0.5"]),
    "mirror.delay_tau": ([], ["mirror.delay_tau=10.0"]),
    "mirror.disable_time": ([], ["mirror.disable_time=null"]),
    "schedule": ([], ["schedule.segments=[[0.0, 0.1]]"]),
    "t_end": ([], ["t_end=35"]),
    "dt": ([], ["dt=0.04"]),
    "record_snapshots_at": ([], ["record_snapshots_at=[20.0]"]),
}


def _guard_run(out: Path, sets: list[str]):
    """Exit code and the hash-masked result files of a short fig2b run."""
    argv = ["run", "--preset", "fig2b", "--out", str(out)]
    for item in [*GUARD_BASE, *sets]:
        argv += ["--set", item]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = run_cli(argv)
    if rc != 0:
        return rc, None
    config_hash = json.loads((out / "meta.json").read_text())["config_hash"]
    return rc, {name: (out / name).read_text().replace(config_hash, "")
                for name in ("traces.csv", "pattern.csv", "report.json")}


@pytest.mark.parametrize("key", sorted(_setting_keys(preset_scenario("fig2b").as_dict())))
def test_every_setting_changes_a_result(tmp_path, key):
    # a setting that changes no number (as sample.thickness_um did) only moves the config_hash
    assert key in SETTING_EFFECTS, f"{key} has no SETTING_EFFECTS entry showing what it changes"
    base, change = SETTING_EFFECTS[key]
    rc_base, before = _guard_run(tmp_path / "base", base)
    rc_change, after = _guard_run(tmp_path / "change", [*base, *change])
    assert rc_base == rc_change == 0
    assert before != after, f"{key}: {change} left traces.csv, pattern.csv and report.json as they were"


@pytest.mark.parametrize("extra", [[], ["--set", "t_end=200"], ["--dt", "0.02"]])
def test_load_scenario_validates_once(monkeypatch, extra):
    calls = []
    monkeypatch.setattr(cli, "validate_scenario", lambda sc: calls.append(sc) or validate_scenario(sc))
    cli._load_scenario(cli._parser().parse_args(["run", "--preset", "fig2c", *extra]))
    assert len(calls) == 1


def test_noop_override_keeps_meta(tmp_path):
    # a no-op --set writes the preset's meta.json; every event keeps its exact time, so the
    # nudges hold only a t_end off the step grid
    plain, noop, off = tmp_path / "plain", tmp_path / "noop", tmp_path / "off"
    assert run_cli(["run", "--preset", "fig2a", "--out", str(plain)]) == 0
    assert run_cli(["run", "--preset", "fig2a", "--set", "t_end=200", "--out", str(noop)]) == 0
    meta = (plain / "meta.json").read_bytes()
    assert (noop / "meta.json").read_bytes() == meta
    assert json.loads(meta)["nudges"] == []
    assert run_cli(["run", "--preset", "fig2a", "--set", "t_end=30.005", "--out", str(off)]) == 0
    assert json.loads((off / "meta.json").read_text())["nudges"] == [["t_end", 30.005, 30.0]]


def test_dt_override_applies_before_validation(tmp_path):
    # --dt sets the scenario's dt before its one validation; the inversion at
    # pi/(2 delta_b) = 7.388 ns keeps its exact time on any grid
    out = tmp_path / "c"
    argv = ["run", "--preset", "fig2c", "--dt", "0.01", "--set", "t_end=20", "--set", "record_snapshots_at=[]"]
    assert run_cli([*argv, "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    want = validate_scenario(replace(preset_scenario("fig2c"), dt=0.01, t_end=20.0, record_snapshots_at=()))
    assert meta["config_hash"] == want.config_hash and meta["scenario"]["dt"] == 0.01
    assert meta["scenario"]["schedule"] == preset_scenario("fig2c").as_dict()["schedule"]
    assert meta["scenario"]["schedule"]["segments"][1][0] == 0.5 * math.pi / (30.0 / 141.1)


def test_benchmark_hooks_exist_in_cli(monkeypatch):
    # the benchmark rebinds these cli attributes; a rename would break it silently
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look their module up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(spans)
    for attr in [*spans.HOOKS, "_parser", "_load_scenario", "SweepSpec"]:
        assert hasattr(cli, attr), attr


def test_sweep_zero_reflectivity_row(tmp_path):
    out = tmp_path / "s"
    args = ["sweep", "--axis", "R", "--values", "0", "--base", "fig2a", "--out", str(out)]
    # quick grids are not plumbed through sweep; run the real thing once
    assert run_cli(args) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["axis"] == "R" and float(row["value"]) == 0.0
    assert float(row["balance"]) == 0.0
    assert row["status"] == "ok"


def test_sweep_delta_b_switch_off_after_retrieval_fails_its_row(tmp_path):
    # at 5 gamma the field would go off at 1.5 pi/delta_b = 133 ns, after the retrieval at
    # 100 ns: that row fails naming the splitting and the bound, and the sweep goes on
    out = tmp_path / "s"
    assert run_cli(["sweep", "--axis", "delta_B", "--values", "5,30", "--base", "fig2a", "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [r["status"] for r in rows] == [
        "failed: splitting 5 gamma switches the field off at 1.5*pi/delta_b = 132.984 ns: after the 100 ns "
        "retrieval (the splitting must exceed 1.5*pi/100 rad/ns = 6.65 gamma)", "ok"]
    assert rows[1]["config_hash"] == "3e1ba8a6076e"  # the 30 gamma protocol, as before the check


def test_sweep_single_value_matches_run(tmp_path):
    out_r = tmp_path / "run"
    out_s = tmp_path / "sweep"
    assert run_cli(["run", "--preset", "fig2b", "--out", str(out_r)]) == 0
    assert run_cli(["sweep", "--axis", "xi", "--values", "1", "--base", "fig2b",
                    "--out", str(out_s)]) == 0
    report = json.loads((out_r / "report.json").read_text())
    lines = (out_s / "summary.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    # summary.csv carries 9 significant digits
    assert float(row["balance"]) == pytest.approx(report["balance"], rel=1e-8)
    assert row["classification"] == report["classification"]
    assert row["config_hash"] == report["config_hash"]


def test_plot_outputs_and_determinism(tmp_path):
    out = tmp_path / "p"
    run_cli(["run", "--preset", "fig2a", *QUICK, "--out", str(out)])
    assert run_cli(["plot", str(out / "traces.csv"), "--out", str(out)]) == 0
    svg_i = out / "traces_intensity.svg"
    svg_a = out / "traces_amplitude.svg"
    assert svg_i.exists() and svg_a.exists()
    first = svg_i.read_bytes()
    assert b"polyline" in first
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config_hash"].encode() in first
    run_cli(["plot", str(out / "traces.csv"), "--out", str(out)])
    assert svg_i.read_bytes() == first


def test_plot_malformed_csv_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(TRACES_HEADER + "\n1,2,3\n")
    assert run_cli(["plot", str(bad), "--out", str(tmp_path)]) == 1
    assert ":2:" in capsys.readouterr().err


def test_plot_non_finite_cell_rejected(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text(TRACES_HEADER + "\n0,1,0,2,0,1,4,1\n0.01,1,0,2,0,nan,4,1\n")
    assert run_cli(["plot", str(bad), "--out", str(tmp_path)]) == 1
    assert f"{bad}:3: non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "nan_intensity.svg").exists()


def test_plot_empty_rows_rejected(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text(TRACES_HEADER + "\n")
    assert run_cli(["plot", str(bad), "--out", str(tmp_path)]) == 1
    assert "no data rows" in capsys.readouterr().err


@pytest.mark.parametrize("schedule", ["abc:1", "1:2:3", "0.5", "nan:0.2", "0:inf"])
def test_plot_malformed_schedule_rejected(tmp_path, capsys, schedule):
    bad = tmp_path / "sched.csv"
    bad.write_text(f"# schedule={schedule}\n{TRACES_HEADER}\n0,1,0,2,0,1,4,1\n")
    assert run_cli(["plot", str(bad), "--out", str(tmp_path / "p")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{bad}: schedule" in err
    assert not list(tmp_path.glob("**/*.svg"))


def test_plot_non_utf8_file_rejected(tmp_path, capsys):
    bad = tmp_path / "binary.csv"
    bad.write_bytes(TRACES_HEADER.encode() + b"\n0,1,0,2,0,1,4,1\n\xff\xfe\x00\x81\n")
    assert run_cli(["plot", str(bad), "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad}:")
    assert not list(tmp_path.glob("**/*.svg"))


def test_run_non_utf8_config_rejected(tmp_path, capsys):
    bad = tmp_path / "binary.json"
    bad.write_bytes(b'{"t_end": \xff\xfe}')
    assert run_cli(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read config {bad}:")
    assert not (tmp_path / "x" / "traces.csv").exists()


def test_presets_list(capsys):
    assert run_cli(["presets", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2a", "fig2b", "fig2c", "single_pass"):
        assert name in out


def test_console_entry_point():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "nfscatter", "presets", "list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "fig2a" in proc.stdout


def test_cli_import_leaves_fft_and_polynomial_unloaded():
    # both cost setup time on every CLI start; the oracle loads numpy.fft only when called
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, nfscatter.cli; print(sorted(m for m in sys.modules if m.startswith(('numpy.fft', 'numpy.polynomial'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_package_imports_stdlib_numpy_and_itself_only():
    # numpy is the one runtime dependency, and the closed-form oracles stay
    # independent of the solver they check, so oracles.py imports nothing of the package
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = ["nfscatter" if node.level else node.module.partition(".")[0]]
            else:
                continue
            for root in roots:
                where = f"{path.name}:{node.lineno} imports {root}"
                assert root in sys.stdlib_module_names or root in ("numpy", "nfscatter"), where
                assert not (path.name == "oracles.py" and root == "nfscatter"), where


def test_trace_digest_script_is_stable():
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(repo / "scripts" / "trace_digest.py"),
           "--set", "t_end=20", "--set", "record_snapshots_at=[10.0]", "fig2b"]
    first, second = (subprocess.run(cmd, capture_output=True, text=True, env=env, check=True).stdout
                     for _ in range(2))
    lines = first.splitlines()
    assert [line.split()[1] for line in lines] == ["traces.csv", "report.json", "meta.json", "pattern.csv",
                                                   "traces_intensity.svg", "traces_amplitude.svg"]
    assert all(len(line.split()[2]) == 64 for line in lines)
    assert first == second


def test_bench_record_script(tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    bench_record = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(bench_record)

    def record(sha, seed, wall, traced=False):
        """A perfbench record as perfbench/run.py writes it, reduced to the keys the script reads."""
        metrics = {"wall_s": wall, "cpu_s": 0.9 * wall, "setup_s": 0.1, "peak_rss_mb": 40.0, "fail_frac": 0.0}
        if traced:
            metrics.update({"solver.run_s": 0.5 * wall, "traceio.write_s": 0.01})
        machine = {"seed": seed, "git_sha": sha, "python": "3.11.7", "numpy": "2.4.6", "blas": "openblas",
                   "nproc": 2, "cpu_model": "cpu"}
        out = tmp_path / f"{sha}-{seed}-{int(traced)}.json"
        out.write_text(json.dumps({"record": machine, "workload": {"name": "sweep"}, "metrics": metrics,
                                   "samples": [{"traced": False}] + [{"traced": True}] * traced}))
        return str(out)

    parent = [record("aaa", s, w) for s, w in zip((1, 2, 3, 4), (1.0, 1.2, 1.1, 1.4))] + [record("aaa", 5, 1.0, True)]
    change = [record("bbb", s, w) for s, w in zip((1, 2, 3, 4), (0.6, 0.7, 1.3, 0.5))] + [record("bbb", 5, 0.6, True)]
    monkeypatch.chdir(tmp_path)
    assert bench_record.main([*parent, "--change", *change, "--pr", "7"]) == 0
    out = json.loads((tmp_path / "BENCH_7.json").read_text())
    wall = out["parent"]["workloads"]["sweep"]["wall_s"]
    assert (wall["median"], wall["q1"], wall["q3"], wall["n"]) == pytest.approx((1.15, 1.075, 1.25, 4))
    assert wall["iqr"] == pytest.approx(0.175)
    sweep = out["change"]["workloads"]["sweep"]
    assert sweep["wall_s"]["median"] == pytest.approx(0.65)
    assert sweep["seeds"] == [1, 2, 3, 4] and sweep["fail_frac"] == 0.0
    assert sweep["layers"] == pytest.approx({"solver.run_s": 0.3, "traceio.write_s": 0.01})
    assert out["change"]["machine"]["git_sha"] == ["bbb"] and out["parent"]["machine"]["nproc"] == ["2"]
    # traced runs count in no pair; the change's wall_s is lower in three of four
    assert out["pairs"] == {"sweep": {"pairs": 4, "change_lower_wall_s": 3}}


def test_trace_diff_script(tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "trace_diff.py"
    spec = importlib.util.spec_from_file_location("trace_diff", path)
    trace_diff = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(trace_diff)

    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "--preset", "fig2b", *QUICK, "--out", str(a)]) == 0
    shutil.copytree(a, b)
    capsys.readouterr()
    assert trace_diff.main([str(a), str(b)]) == 0
    # each CSV's line is followed by one line per complex channel; pattern.csv has none
    assert capsys.readouterr().out.splitlines() == [
        "traces.csv 0", "  fwd max 0 relL2 0", "  bwd max 0 relL2 0", "pattern.csv 0", "report.json 0"]

    # every forward amplitude moved in its 6th significant digit: the forward channel's
    # measures both read 1e-5, and the untouched backward channel reads 0
    lines = (b / "traces.csv").read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line[0].isdigit():
            cells = line.split(",")
            cells[1] = repr(float(cells[1]) * (1.0 + 1e-5))
            lines[i] = ",".join(cells)
    (b / "traces.csv").write_text("".join(lines))
    assert trace_diff.main([str(a), str(b)]) == 1
    assert trace_diff.main([str(a), str(b), "--rtol", "1e-4"]) == 0
    out = capsys.readouterr().out.splitlines()
    fwd = next(line.split() for line in out if line.strip().startswith("fwd"))
    assert float(fwd[2]) == pytest.approx(1e-5, rel=1e-3) and float(fwd[4]) == pytest.approx(1e-5, rel=1e-3)
    assert "  bwd max 0 relL2 0" in out

    # fig2b at dt 0.005 (40,001 rows) against the default 0.02 (10,001 rows) is compared on
    # the times both hold, where the two agree to the printed digits; the 40 ns run shares
    # no grid with them and still reads inf
    fine, coarse = tmp_path / "fine", tmp_path / "coarse"
    assert run_cli(["run", "--preset", "fig2b", "--dt", "0.005", "--out", str(fine)]) == 0
    assert run_cli(["run", "--preset", "fig2b", "--out", str(coarse)]) == 0
    assert [len(read_traces_csv(d / "traces.csv").t) for d in (fine, coarse)] == [40001, 10001]
    capsys.readouterr()
    trace_diff.main([str(fine), str(coarse)])
    assert capsys.readouterr().out.splitlines()[:4] == [
        "traces.csv 0", "  fwd max 0 relL2 0", "  bwd max 0 relL2 0", "pattern.csv 0"]
    trace_diff.main([str(coarse), str(a)])
    assert capsys.readouterr().out.splitlines()[0] == "traces.csv inf"


def test_unresolved_gaussian_pulse_is_input_error(tmp_path, capsys):
    # sampled at step midpoints, a gaussian narrower than two steps loses its area (at
    # dt 0.005 a 0.004 ns pulse left the late forward response 20 % low): exit 1, naming
    # both settings; at two steps it runs
    base = ["run", "--preset", "single_pass", "--set", "pulse.mode=gaussian", "--set", "pulse.t0=1",
            "--set", "t_end=5"]
    assert run_cli([*base, "--set", "pulse.fwhm=0.04", "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    assert run_cli([*base, "--set", "pulse.fwhm=0.039", "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "pulse.fwhm" in err and "dt 0.02" in err
    assert not (tmp_path / "x" / "traces.csv").exists()
