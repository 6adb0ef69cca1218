"""Contract of the output stage: traces.csv and pattern.csv bytes, the traces parse, SVG polylines.

Each writer is checked against a per-element reference kept here, so the
column-wise implementations in ``traceio`` and ``svgplot`` must reproduce
the per-row output byte for byte; the M4 decimation is checked against a
per-run loop.  The reader's one-``np.loadtxt`` fast path is checked against
its checked line-by-line path.
"""

import contextlib
import io
import math
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfscatter.cli import main as cli_main
from nfscatter.model import validate_scenario
from nfscatter.presets import preset_scenario
from nfscatter.solver import TraceSet, run_scenario
from nfscatter.svgplot import _ML, _MR, _W, _m4, _poly, _x_map, _y_map
from nfscatter.traceio import (_ROW_BLOCK, TRACES_HEADER, TraceFormatError, read_traces_csv,
                               write_pattern_csv, write_traces_csv)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2250738585072014e-308,
           1e300, -1e300, 1e-300, -1e-300, 1.0, -1.0,
           # powers of ten and their neighbours one ulp away, inside the writer's exponent table
           # [-36, 8] and past it, where a wrong log10 or a carry to 10 digits shows
           *(f(10.0 ** k) for k in (-37, -36, -20, -5, -4, -1, 0, 1, 5, 8, 9, 22, 23)
             for f in (float, lambda x: math.nextafter(x, 0.0), lambda x: math.nextafter(x, math.inf))),
           -1e-4, -math.nextafter(1e9, 0.0),
           # 9.5-digit near-ties, and exact ties that round half to even
           1.234567895, 0.1234567895, 9.9999999950e-5, 999999999.5, 123456789.5, 123456788.5,
           -2.000000005e-21,
           # each end of the table and one step beyond: 1e-36 .. 9.99999999e8
           1.00000001e-36, 9.99999999e-37, 9.99999999e8, 1.00000001e9, -1.23456789e-36, 1.2345678e9,
           # a plain float64 product x * 10**(8 - e) rounds to the wrong last digit: the tie margin
           # sends them to Python
           2632.283085, 5.311461685e-14]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


def reference_traces_csv(traces: TraceSet) -> str:
    """traces.csv text formatted one numpy scalar at a time."""
    def fmt(x):
        return f"{x:.9g}"

    meta = traces.metadata
    sched = ";".join(f"{t:.9g}:{lvl:.9g}" for t, lvl in meta.get("schedule", []))
    with np.errstate(over="ignore"):
        i_fwd = np.abs(traces.fwd_detected) ** 2
        i_bwd = np.abs(traces.bwd_amp) ** 2
    lines = [
        "# nfscatter traces v1",
        f"# config_hash={meta.get('config_hash', '')}",
        f"# reflectivity={fmt(meta.get('reflectivity', 0.0))}",
        f"# tau={fmt(meta.get('tau', 0.0))}",
        f"# schedule={sched}",
        TRACES_HEADER,
    ]
    for k in range(len(traces.t_grid)):
        lines.append(",".join((
            fmt(traces.t_grid[k]),
            fmt(traces.fwd_amp[k].real), fmt(traces.fwd_amp[k].imag),
            fmt(traces.bwd_amp[k].real), fmt(traces.bwd_amp[k].imag),
            fmt(i_fwd[k]), fmt(i_bwd[k]),
            "1" if traces.mirror_in_beam[k] else "0",
        )))
    return "\n".join(lines) + "\n"


@st.composite
def trace_sets(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    col = st.lists(values, min_size=n, max_size=n).map(np.array)
    fwd = draw(col)
    bwd = draw(col)
    in_beam = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    detected = np.where(in_beam, 0.1 * fwd, fwd)
    return TraceSet(
        t_grid=draw(col), fwd_amp=fwd, bwd_amp=bwd, fwd_detected=detected, mirror_in_beam=in_beam,
        metadata={"config_hash": "abc123", "reflectivity": draw(values), "tau": draw(values),
                  "schedule": [[0.0, draw(values)], [draw(values), 0.0]]},
    )


@settings(max_examples=100, deadline=None)
@given(trace_sets())
def test_write_traces_csv_matches_per_element_reference(traces):
    with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore"):
        path = Path(tmp) / "traces.csv"
        write_traces_csv(path, traces)
        assert path.read_bytes() == reference_traces_csv(traces).encode()


def test_write_traces_csv_spans_row_blocks(tmp_path):
    # many formatting blocks and a partial last one, with the gate closing mid-run
    n = 20_011
    t = np.arange(n) * 0.005
    fwd = np.exp(-0.01 * t) * np.cos(0.2 * t) * 1e-4
    traces = TraceSet(t_grid=t, fwd_amp=fwd, bwd_amp=-0.3 * fwd[::-1], fwd_detected=0.1 * fwd,
                      mirror_in_beam=t < 41.0, metadata={"config_hash": "x", "schedule": [[0.0, 0.2]]})
    write_traces_csv(tmp_path / "traces.csv", traces)
    assert (tmp_path / "traces.csv").read_text() == reference_traces_csv(traces)


def test_write_traces_csv_prints_every_special_value(tmp_path):
    # each SPECIAL value in each column, whether the table or Python prints it
    col = np.array(SPECIAL)
    traces = TraceSet(t_grid=col, fwd_amp=np.roll(col, 1), bwd_amp=np.roll(col, 2), fwd_detected=np.roll(col, 3),
                      mirror_in_beam=np.arange(len(col)) % 2 == 0, metadata={})
    with np.errstate(over="ignore"):
        write_traces_csv(tmp_path / "traces.csv", traces)
        assert (tmp_path / "traces.csv").read_text() == reference_traces_csv(traces)


def test_write_traces_csv_peak_memory_is_a_few_blocks(tmp_path):
    # the writer holds one block of rows at a time: its peak does not grow with the file
    n = 100_001
    rng = np.random.default_rng(7)
    amp = rng.standard_normal((3, n)) * 1e-3
    traces = TraceSet(t_grid=np.arange(n) * 0.02, fwd_amp=amp[0], bwd_amp=amp[1], fwd_detected=amp[2],
                      mirror_in_beam=np.arange(n) % 3 == 0, metadata={})
    write_traces_csv(tmp_path / "warm.csv", TraceSet(  # the writer's tables are built once, on a first write
        t_grid=np.arange(3.0), fwd_amp=amp[0, :3], bwd_amp=amp[1, :3], fwd_detected=amp[2, :3],
        mirror_in_beam=np.ones(3, dtype=bool), metadata={}))
    block_bytes = _ROW_BLOCK * 5 * 8  # one block of the five float columns
    tracemalloc.start()
    try:
        write_traces_csv(tmp_path / "traces.csv", traces)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "traces.csv").stat().st_size > 5e6  # 7.3 MB
    assert peak <= 30 * block_bytes, peak / block_bytes  # measured 18: the byte matrix, its text, temporaries


def reference_pattern_csv(patterns, config_hash: str) -> str:
    """pattern.csv text formatted one cell at a time."""
    lines = ["# nfscatter pattern v1", f"# config_hash={config_hash}", "snapshot_t_ns,s_angstrom,density"]
    for t_snap, s_grid, density in patterns:
        lines += [f"{t_snap:.9g},{s:.9g},{d:.9g}" for s, d in zip(s_grid, density)]
    return "\n".join(lines) + "\n"


pattern_values = st.one_of(st.sampled_from([*SPECIAL, 1e-5, -1e-5, 1e16, 9.9999999995e15]), values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30).flatmap(lambda n: st.tuples(
    pattern_values, *(st.lists(pattern_values, min_size=n, max_size=n).map(np.array) for _ in range(2)))),
    max_size=3))
def test_write_pattern_csv_matches_per_element_reference(patterns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pattern.csv"
        write_pattern_csv(path, patterns, "abc123")
        assert path.read_bytes() == reference_pattern_csv(patterns, "abc123").encode()


@pytest.mark.parametrize("name", ["fwd_amp", "bwd_amp", "fwd_detected"])
def test_write_traces_csv_rejects_complex_amplitude(tmp_path, name):
    real = np.array([1e-4, -2e-5, 0.0])
    fields = {"fwd_amp": real, "bwd_amp": real, "fwd_detected": real}
    traces = TraceSet(t_grid=np.arange(3.0), mirror_in_beam=np.ones(3, dtype=bool), metadata={},
                      **{**fields, name: real + 1e-6j})
    with pytest.raises(TypeError, match=f"TraceSet.{name} must be real"):
        write_traces_csv(tmp_path / "traces.csv", traces)


def test_solver_traces_are_real_and_keep_the_csv_schema(tmp_path):
    # run_scenario returns float64 traces; traces.csv keeps the 8 columns perfbench's
    # gates read, with the imaginary columns printed as 0
    cfg = preset_scenario("fig2a")
    sc = validate_scenario(replace(cfg, t_end=40.0, record_snapshots_at=(), sample=replace(cfg.sample, n_depth=41)))
    traces, _ = run_scenario(sc)
    for name in ("fwd_amp", "bwd_amp", "fwd_detected"):
        assert getattr(traces, name).dtype == np.float64, name
    assert np.any(traces.bwd_amp != 0.0) and 0 < traces.mirror_in_beam.sum() < len(traces.t_grid)
    write_traces_csv(tmp_path / "traces.csv", traces)
    lines = (tmp_path / "traces.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[lines.index(TRACES_HEADER) + 1:]]
    assert len(rows) == len(traces.t_grid) and {len(r) for r in rows} == {8}
    assert {r[2] for r in rows} == {r[4] for r in rows} == {"0"}
    for col, amp in ((1, traces.fwd_amp), (3, traces.bwd_amp)):
        assert [r[col] for r in rows] == [f"{x:.9g}" for x in amp.tolist()]


cells = st.one_of(
    values.map("{:.9g}".format), values.map(repr), st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e5", "-0", "+3.25", " 2.5", "7 "]),
)
flag_cells = st.sampled_from(["0", "1", "-0", "+1", "1e0", "0.0", " 1"])


def data_rows(max_size: int):
    """Rows of cells, ordered by distinct t: the reader takes t_ns strictly increasing and flags of 0 or 1."""
    def increasing_t(rows):
        by_t = {float(r[0]): r for r in rows}
        return [by_t[t] for t in sorted(by_t)]

    row = st.tuples(st.lists(cells, min_size=7, max_size=7), flag_cells).map(lambda r: [*r[0], r[1]])
    return st.lists(row, min_size=1, max_size=max_size).map(increasing_t)


@settings(max_examples=100, deadline=None)
@given(data_rows(max_size=30))
def test_read_traces_csv_is_float_of_each_cell(rows):
    text = "# config_hash=h0\n" + TRACES_HEADER + "\n" + "".join(",".join(r) + "\n" for r in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traces.csv"
        path.write_text(text)
        tf = read_traces_csv(path)
    expected = np.array([[float(c) for c in r] for r in rows])
    for j, got in enumerate((tf.t, tf.re_fwd, tf.im_fwd, tf.re_bwd, tf.im_bwd, tf.i_fwd, tf.i_bwd)):
        assert got.tobytes() == np.ascontiguousarray(expected[:, j]).tobytes(), j
    assert np.array_equal(tf.mirror_in_beam, expected[:, 7] != 0.0)


def test_read_traces_csv_late_comments_and_blank_lines(tmp_path):
    path = tmp_path / "traces.csv"
    path.write_text("\n".join([
        "# config_hash=abc", "", TRACES_HEADER, "0,1,2,3,4,5,6,1", "",
        "# tau=14.7", "   ", "0.5,1e-3,-0,3,4,5,6,0", "# note without a value",
        "10.5,12,2,3,4,5,6,0",
    ]) + "\n")
    tf = read_traces_csv(path)
    assert tf.attrs == {"config_hash": "abc", "tau": "14.7"}
    assert tf.t.tolist() == [0.0, 0.5, 10.5]
    assert tf.re_fwd.tolist() == [1.0, 1e-3, 12.0]
    assert np.signbit(tf.im_fwd[1])
    assert tf.mirror_in_beam.tolist() == [True, False, False]


GOOD_ROW = "0,1,2,3,4,5,6,1"


@pytest.mark.parametrize("lines, lineno, message", [
    (["# c=1", "t,x,y", GOOD_ROW], 2, "expected header"),              # wrong header
    (["# c=1", "", GOOD_ROW, GOOD_ROW], 3, "expected header"),         # header missing
    ([TRACES_HEADER, GOOD_ROW, "", "# c=1", "0,1,2,x,4,5,6,1", GOOD_ROW], 5, "non-numeric value"),
    ([TRACES_HEADER, GOOD_ROW, "0,1,2,3,4,5,6,"], 3, "non-numeric value"),
    ([TRACES_HEADER, "0,1,2,3,4,5,6,1#x"], 2, "non-numeric value"),
    ([TRACES_HEADER, "1_0,1,2,3,4,5,6,1"], 2, "non-numeric value"),  # float() takes it, the reader does not
    ([TRACES_HEADER, "0,1,2,3,4,5,6"], 2, "expected 8 columns, got 7"),
    ([TRACES_HEADER, "0,1,2,3,4,5,6,1,8"], 2, "expected 8 columns, got 9"),
    ([TRACES_HEADER, GOOD_ROW, "", "# c=1", "0,1,2,3,4,5,6"], 5, "expected 8 columns, got 7"),
    ([TRACES_HEADER, GOOD_ROW, GOOD_ROW, "0,1,2,3,4,5,6,1,8"], 4, "expected 8 columns, got 9"),
    ([TRACES_HEADER, GOOD_ROW, GOOD_ROW], 3, "t_ns not above the previous row's"),
    ([TRACES_HEADER, "1,1,2,3,4,5,6,1", "", "# c=1", "0.5,1,2,3,4,5,6,1"], 5, "t_ns not above the previous row's"),
    ([TRACES_HEADER, "0,1,2,3,4,5,6,7"], 2, "mirror_in_beam not 0 or 1"),
    ([TRACES_HEADER, GOOD_ROW, "1,1,2,3,4,5,6,0.5"], 3, "mirror_in_beam not 0 or 1"),
    ([TRACES_HEADER, "1,1,2,3,4,5,6,-1", GOOD_ROW], 3, "t_ns not above the previous row's"),  # the time first
])
def test_read_traces_csv_names_path_and_line(tmp_path, lines, lineno, message):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError) as exc:
        read_traces_csv(path)
    assert f"{path}:{lineno}: {message}" in str(exc.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "Infinity", "1e999"])
@pytest.mark.parametrize("column", [0, 5, 7])
@pytest.mark.parametrize("first", [GOOD_ROW, "+1e0, 1 ,2,3,4,5,6,1"])  # the second is never written, but parses
def test_read_traces_csv_rejects_non_finite_cell(tmp_path, cell, column, first):
    bad = GOOD_ROW.split(",")
    bad[column] = cell
    path = tmp_path / "bad.csv"
    # the comment and blank line shift the bad row to line 5; a later bad row is not the one named
    path.write_text("\n".join(["# c=1", TRACES_HEADER, first, "", ",".join(bad), "0,nan,2,3,4,5,6,1"]) + "\n")
    with pytest.raises(TraceFormatError) as exc:
        read_traces_csv(path)
    assert f"{path}:5: non-finite value" in str(exc.value)


def test_read_traces_csv_without_header_line(tmp_path):
    path = tmp_path / "comments.csv"
    path.write_text("# config_hash=abc\n\n")
    with pytest.raises(TraceFormatError, match="missing header line"):
        read_traces_csv(path)


@pytest.mark.parametrize("comment, schedule", [
    (["# schedule=0:0.2;22.5:0;1e2:-0.2"], [(0.0, 0.2), (22.5, 0.0), (100.0, -0.2)]),
    (["# schedule="], []),  # no overlay
    ([], []),
])
def test_read_traces_csv_schedule(tmp_path, comment, schedule):
    path = tmp_path / "traces.csv"
    path.write_text("\n".join([*comment, TRACES_HEADER, GOOD_ROW]) + "\n")
    assert read_traces_csv(path).schedule == schedule


def test_read_traces_csv_header_only_has_no_data_rows(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("# config_hash=abc\n" + TRACES_HEADER + "\n\n# tau=1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns on empty input: it must not see any
        with pytest.raises(TraceFormatError, match=f"{re.escape(str(path))}: no data rows"):
            read_traces_csv(path)


def test_read_traces_csv_no_data_lets_no_warning_out(tmp_path):
    # the fast path's parse warns on no data; the reader turns that into its own error
    path = tmp_path / "header.csv"
    path.write_text(TRACES_HEADER + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TraceFormatError, match="no data rows"):
            read_traces_csv(path)
    assert not caught


def test_read_traces_csv_peak_memory_is_near_the_parsed_array(tmp_path):
    # the parse holds no list of lines: its peak is the array it returns plus a little
    n = 40_001
    rng = np.random.default_rng(5)
    amp = rng.standard_normal((3, n)) * 1e-3
    traces = TraceSet(t_grid=np.arange(n) * 0.005, fwd_amp=amp[0], bwd_amp=amp[1], fwd_detected=amp[2],
                      mirror_in_beam=np.arange(n) % 3 == 0, metadata={})
    path = tmp_path / "traces.csv"
    write_traces_csv(path, traces)
    array_bytes = n * 8 * 8
    tracemalloc.start()
    try:
        tf = read_traces_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tf.t) == n
    assert peak <= 1.5 * array_bytes, peak / array_bytes


@contextlib.contextmanager
def loadtxt_calls(fail_on_file: bool = False):
    """What each ``np.loadtxt`` call is handed; with ``fail_on_file``, a parse of the open file fails."""
    calls = []
    real = np.loadtxt

    def counted(src, *args, **kwargs):
        calls.append(src)
        if fail_on_file and isinstance(src, io.TextIOBase):
            raise ValueError("fast path refused")
        return real(src, *args, **kwargs)

    with mock.patch.object(np, "loadtxt", counted):
        yield calls


def test_read_traces_csv_parses_a_written_file_in_one_loadtxt(tmp_path):
    # the checked line generator runs only on error: a file write_traces_csv wrote takes one parse of the open file
    n = 2500
    amp = np.random.default_rng(3).standard_normal((3, n))
    traces = TraceSet(t_grid=np.arange(n) * 0.005, fwd_amp=amp[0], bwd_amp=amp[1], fwd_detected=amp[2],
                      mirror_in_beam=np.arange(n) % 3 == 0,
                      metadata={"config_hash": "abc", "schedule": [(0.0, 0.2), (22.5, 0.0)]})
    path = tmp_path / "traces.csv"
    write_traces_csv(path, traces)
    with loadtxt_calls() as calls:
        tf = read_traces_csv(path)
    assert len(calls) == 1 and isinstance(calls[0], io.TextIOBase)
    assert tf.re_fwd.tolist() == [float(f"{x:.9g}") for x in amp[0].tolist()]
    assert tf.attrs["config_hash"] == "abc" and tf.schedule == [(0.0, 0.2), (22.5, 0.0)]


@st.composite
def messy_traces_files(draw):
    """traces.csv text with CRLF or LF line ends, late comments, blank or whitespace-only lines, padded cells."""
    body = []
    for row in draw(data_rows(max_size=20)):
        body += draw(st.lists(st.sampled_from(["", "   ", "\t", "# tau=1.5", "# note", "#schedule=5:1"]),
                              max_size=2))
        pad = draw(st.sampled_from(["", " ", "\t "]))
        body.append(pad + ",".join(row) + pad)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(["# config_hash=h0", "# schedule=0:0.2;22.5:0", TRACES_HEADER, *body]) + eol


@settings(max_examples=100, deadline=None)
@given(messy_traces_files())
def test_read_traces_csv_fast_path_equals_checked_path(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traces.csv"
        path.write_bytes(text.encode())
        fast = read_traces_csv(path)
        with loadtxt_calls(fail_on_file=True) as calls:
            checked = read_traces_csv(path)
    assert not isinstance(calls[-1], io.TextIOBase)  # the checked path parsed it
    for name in ("t", "re_fwd", "im_fwd", "re_bwd", "im_bwd", "i_fwd", "i_bwd", "mirror_in_beam"):
        assert getattr(fast, name).tobytes() == getattr(checked, name).tobytes(), name
    assert fast.attrs == checked.attrs and list(fast.attrs) == list(checked.attrs)
    assert fast.schedule == checked.schedule


def test_read_traces_csv_non_utf8_data_row_cannot_be_read(tmp_path):
    # the bad byte lies past the first decoded block, so the parse of the open file meets it, not the header scan
    path = tmp_path / "binary.csv"
    path.write_bytes(f"# c=1\n{TRACES_HEADER}\n{GOOD_ROW}\n".encode() + f"{GOOD_ROW}\n".encode() * 2000
                     + b"0,1,2,\xff,4,5,6,1\n" + f"{GOOD_ROW}\n".encode())
    with pytest.raises(TraceFormatError, match=f"^cannot read {re.escape(str(path))}: "):
        read_traces_csv(path)


def reference_poly_points(xs, ys) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.tuples(*(st.lists(values, min_size=n, max_size=n) for _ in range(2)))))
def test_poly_matches_per_point_reference(pair):
    xs, ys = (np.array(v) for v in pair)
    svg = _poly(xs, ys, "#c0392b", dash="6,4")
    assert svg == ('<polyline fill="none" stroke="#c0392b" stroke-width="1.2" stroke-dasharray="6,4" '
                   f'points="{reference_poly_points(xs, ys)}"/>')


def m4_runs(xs):
    """(start, stop) of each maximal run of consecutive points in one pixel column."""
    runs, start = [], 0
    for i in range(1, len(xs) + 1):
        if i == len(xs) or math.floor(xs[i]) != math.floor(xs[start]):
            runs.append((start, i))
            start = i
    return runs


def check_m4(xs, ys):
    kept = _m4(xs, ys).tolist()
    assert all(a < b for a, b in zip(kept, kept[1:]))
    expected = []
    for start, stop in m4_runs(xs.tolist()):
        run = ys[start:stop].tolist()
        want = sorted({start, stop - 1, start + run.index(min(run)), start + run.index(max(run))})
        assert len(want) <= 4
        expected += want
    assert kept == expected


ties = st.sampled_from([0.0, -0.0, 1.0, -1.0, 250.0])
small = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=120).flatmap(lambda n: st.tuples(
    st.lists(st.one_of(ties, small), min_size=n, max_size=n),
    st.lists(st.one_of(ties, small, values), min_size=n, max_size=n))))
def test_m4_keeps_first_last_min_max_of_each_pixel_column(pair):
    # t in any order, with repeats; equal t[0] and t[-1] put every point of that value in one column
    t, y = (np.array(v) for v in pair)
    check_m4(_x_map(t, t[0], t[-1]), y)


def test_m4_on_fig2b_like_trace():
    t = np.arange(40_001) * 0.01
    amp = np.exp(-0.01 * t) * np.cos(0.2 * t) * np.where(t < 41.0, 1.0, 0.3) * 1e-4
    xs = _x_map(t, t[0], t[-1])
    for ys in (_y_map(amp, -1.2e-4, 1.2e-4), _y_map(np.log10(np.maximum(amp ** 2, 1e-20)), -20.0, -8.0)):
        check_m4(xs, ys)
        assert len(_m4(xs, ys)) <= 4 * 771


def test_plot_full_length_trace_is_small_and_deterministic(tmp_path):
    # a synthetic fig2-length traces.csv written without the solver, then plotted twice
    t = np.arange(40_001) * 0.01
    fwd = np.exp(-0.01 * t) * np.cos(0.2 * t) * 1e-4
    bwd = -0.3 * np.exp(-0.02 * t) * np.sin(0.15 * t) * 1e-4
    in_beam = t < 41.0
    write_traces_csv(tmp_path / "traces.csv", TraceSet(
        t_grid=t, fwd_amp=fwd, bwd_amp=bwd, fwd_detected=np.where(in_beam, 0.1 * fwd, fwd),
        mirror_in_beam=in_beam,
        metadata={"config_hash": "h40k", "schedule": [[0.0, 0.2], [41.0, 0.0], [100.0, 0.2]]}))
    svgs = [tmp_path / "traces_intensity.svg", tmp_path / "traces_amplitude.svg"]
    first = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["plot", str(tmp_path / "traces.csv"), "--out", str(tmp_path)]) == 0
        first = first or [p.read_bytes() for p in svgs]
    for path, text in zip(svgs, first):
        assert path.read_bytes() == text
        assert len(text) <= 150_000, (path.name, len(text))
        curves = re.findall(r'<polyline fill="none" stroke="#(?:c0392b|222222)"[^>]* points="([^"]*)"', text.decode())
        assert len(curves) == 2
        for points in curves:
            assert 771 < len(points.split()) <= 4 * 771


def test_plot_schedule_overlay_stays_on_the_canvas(tmp_path):
    # fig2a cut at 50 ns: its 100 ns retrieval segment starts after the last row
    out = tmp_path / "p"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["run", "--preset", "fig2a", "--set", "t_end=50", "--out", str(out)]) == 0
        assert cli_main(["plot", str(out / "traces.csv"), "--out", str(out)]) == 0
    svg = (out / "traces_amplitude.svg").read_text()
    overlay = re.findall(r'<polyline fill="none" stroke="#1e8449"[^>]* points="([^"]*)"', svg)
    assert len(overlay) == 1
    xs = [float(point.split(",")[0]) for point in overlay[0].split()]
    assert xs and all(_ML <= x <= _W - _MR for x in xs), xs
