"""Deterministic CSV/JSON emission and parsing for run outputs.

Every file embeds the config hash so a run -> plot -> re-run chain can be
checked end to end.  Floats are printed with 9 significant digits, and
repeated runs of the same configuration produce byte-identical files.

traces.csv is formatted in numpy, a block of rows at a time, and writes the
bytes Python's ``'%.9g'`` does.  A value's exponent e is taken as
floor(log10|x|), and its digits m as p = |x| * 10**(8 - e) rounded to the
nearest integer.  10**(8 - e) is rounded to float64 (exact up to 10**22),
and so is the product, so p lies within a relative 2**-52 of the exact
product: under 2.3e-7, as p < 1e9 + 1.  When p lies more than 1e-6 from a
rounding tie, the exact product rounds to the same integer, and m is the
correctly rounded 9-digit decimal.  (A double-double product would let the
margin shrink, but the fallback below takes only 2e-6 of random values.)
Python itself prints each nonzero value that is not finite, has e outside
[-36, 8], lies within 1e-6 of a tie, or has m outside [1e8, 1e9) (e off by
one, or a carry to 10 digits); on the presets' traces that is none.  The
text around the digits (fixed or exponent notation, the point, the
exponent, "0") comes from a table of Python's own '%.9g' of sample values,
and the sign from the value's sign bit, so -0 prints "-0".

The reader hands the open file to one ``np.loadtxt`` and runs its checking
line generator only when that parse fails, to name the path and line at
fault; it rejects non-finite cells, times that do not increase and flags
other than 0 or 1.  JSON files hold no non-finite number.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .solver import TraceSet

SCHEMA_VERSION = "1"
TRACES_HEADER = "t_ns,re_fwd,im_fwd,re_bwd,im_bwd,i_fwd,i_bwd,mirror_in_beam"

#: rows formatted per block when writing traces.csv.  In a loop of ``cli.main`` calls on
#: the fig2 presets and the deep_slab argv, 1,024 rows ran about 5 % faster than 512, but
#: they raised the deep_slab loop's peak resident set by 0.4 MB; 256 rows ran 5-11 % slower
_ROW_BLOCK = 512
_E_MIN, _E_MAX = -36, 8   # decimal exponents of the values the layout table formats
_TIE = 1e-6               # a value this close to a rounding tie is printed by Python instead
_FIELD = 32               # bytes per value in a block: its 28-byte canvas, then the separators


class TraceFormatError(ValueError):
    """A traces CSV file does not match the expected schema."""


def _fmt(x: float) -> str:
    return f"{x:.9g}"


@functools.cache  # built on the first write: a run that writes no traces.csv touches none of it
def _layout() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The writer's tables: a canvas per key (e, significant digits), and for 0000-9999 the
    nonzero digits and the trailing zeros.

    A canvas holds Python's ``'%.9g'`` text of the key's sample value,
    1.23456789 cut to the key's digits times 10**e, with each printed digit
    as '0' and spread out so that digit j lands at byte 6 + 2j whatever the
    layout: byte 0 is left for the sign, the bytes before the first nonzero
    digit ("0.000") fill bytes 1-5, a byte between digits j and j + 1 (the
    point) sits at 7 + 2j, the exponent fills bytes 24-27, and every other
    byte is 0.  The writer ORs a value's nonzero digits into its key's
    canvas, four at a time as one uint64.  The last key prints 0.
    """
    mantissas = [123456789 // 10 ** (9 - n) / 10 ** (n - 1) for n in range(1, 10)]  # 1.0, 1.2, 1.23, ...
    samples = [m * 10.0 ** e for e in range(_E_MIN, _E_MAX + 1) for m in mantissas] + [0.0]
    text = np.frombuffer(("%-16.9g" * len(samples) % tuple(samples)).encode(), np.uint8).reshape(-1, 16)
    exponent = np.logical_or.accumulate(text == ord("e"), axis=1)
    digit = (text - ord("0") < 10) & ~exponent
    started = np.logical_or.accumulate(digit & (text > ord("0")), axis=1)
    slot = digit & started
    col = np.where(exponent, 23 + np.cumsum(exponent, axis=1, dtype=np.int8),
                   np.where(started, 5 + 2 * np.cumsum(slot, axis=1, dtype=np.int8) - slot,
                            np.cumsum(~started, axis=1, dtype=np.int8)))
    shown = text != ord(" ")  # the padding goes to the last byte, which the separators overwrite
    canvas = np.zeros((len(samples), _FIELD), dtype=np.uint8)
    canvas[np.arange(len(samples))[:, None], np.where(shown, col, -1)] = np.where(slot, ord("0"), text * shown)
    digit_byte = np.frombuffer(b"\x00123456789", np.uint8)  # 0 as filler
    spread = np.zeros((10, 10, 10, 10, 8), dtype=np.uint8)  # digits at bytes 0, 2, 4, 6
    trailing_zeros = np.zeros(10_000, dtype=np.int8)  # 4 for 0000
    for d in range(4):
        spread[..., 2 * d] = digit_byte.reshape((10,) + (1,) * (3 - d))
        trailing_zeros[::10 ** (d + 1)] += 1
    return canvas, spread.view(np.uint64).ravel(), trailing_zeros


_POW = np.array([float(10 ** k) for k in range(9 - _E_MIN)])  # 10**(8 - e), rounded; exact up to 10**22
#: the bytes after each field: "," or ",0," (im_fwd and im_bwd are always 0); the flag's "0"; the newline
_SEPARATORS = np.frombuffer(b",\0\0\0,0,\0,0,\0,\0\0\0,0\n\0", np.uint8).reshape(5, 4)


def _decimals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per value: whether the table prints it, its key's exponent index e - _E_MIN, its 9 digits as an int.

    A function of its own so that its float temporaries are freed before the block's bytes are made.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
        ok = (e >= _E_MIN) & (e <= _E_MAX)  # not 0, inf or nan
        k = np.where(ok, 8 - e, 0).astype(np.intp)
        p = a * _POW[k]  # within 2.3e-7 of a * 10**k where ok
        m = np.rint(p)
        ok &= (p >= 1e8) & (m < 1e9) & (np.abs(np.abs(p - m) - 0.5) >= _TIE)
    return ok, 8 - _E_MIN - k, np.where(ok, m, 0).astype(np.int32)  # 0 ORs in no digit


def _format_rows(cols: np.ndarray, flags: np.ndarray) -> bytes:
    """traces.csv rows of five float columns and the 0/1 flag, each value as ``'%.9g'`` prints it."""
    n = len(cols)
    x = cols.ravel()
    ok, e_index, m = _decimals(x)
    canvas, nonzero_digits, trailing_zeros = _layout()
    hi, lo4 = np.divmod(m, 10_000)
    lead, hi4 = np.divmod(hi, 10_000)
    n_sig = 9 - trailing_zeros[lo4] - (lo4 == 0) * trailing_zeros[hi4]
    key = np.where(ok, e_index * 9 + n_sig - 1, len(canvas) - 1)
    mat = np.empty((n, 5, _FIELD), dtype=np.uint8)
    fields = mat.reshape(5 * n, _FIELD)
    np.take(canvas, key, axis=0, out=fields, mode="clip")
    fields[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    words = fields.view(np.uint64)
    for w, quad in enumerate((lead, hi4, lo4)):
        words[:, w] |= nonzero_digits[quad]
    mat[:, :, 28:] = _SEPARATORS
    mat[:, 4, 29] += flags
    for i in np.flatnonzero(~ok & (x != 0.0)):
        fields[i, :28] = np.frombuffer((b"%.9g" % x[i]).ljust(28, b"\0"), np.uint8)
    return mat.tobytes().translate(None, b"\0")


def write_traces_csv(path: Path, traces: TraceSet) -> None:
    """Write ``traces.csv`` of real amplitudes, ``_ROW_BLOCK`` rows formatted at a time."""
    for name in ("fwd_amp", "bwd_amp", "fwd_detected"):
        if np.iscomplexobj(getattr(traces, name)):
            raise TypeError(f"TraceSet.{name} must be real, got {getattr(traces, name).dtype}")
    meta = traces.metadata
    sched = ";".join(f"{t:.9g}:{lvl:.9g}" for t, lvl in meta.get("schedule", []))
    header = [
        f"# nfscatter traces v{SCHEMA_VERSION}",
        f"# config_hash={meta.get('config_hash', '')}",
        f"# reflectivity={_fmt(meta.get('reflectivity', 0.0))}",
        f"# tau={_fmt(meta.get('tau', 0.0))}",
        f"# schedule={sched}",
        TRACES_HEADER,
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        for k in range(0, len(traces.t_grid), _ROW_BLOCK):
            s = slice(k, k + _ROW_BLOCK)
            block = np.column_stack((traces.t_grid[s], traces.fwd_amp[s], traces.bwd_amp[s],
                                     traces.fwd_detected[s] ** 2, traces.bwd_amp[s] ** 2))
            fh.write(_format_rows(block, traces.mirror_in_beam[s]))


@dataclass
class TraceFile:
    """Parsed traces CSV: column arrays, the embedded comments and the parsed ``schedule`` comment."""

    t: np.ndarray
    re_fwd: np.ndarray
    im_fwd: np.ndarray
    re_bwd: np.ndarray
    im_bwd: np.ndarray
    i_fwd: np.ndarray
    i_bwd: np.ndarray
    mirror_in_beam: np.ndarray
    attrs: dict
    schedule: list[tuple[float, float]]


def read_traces_csv(path: Path) -> TraceFile:
    """Parse a traces CSV; ``# key=value`` lines may appear anywhere, blank lines are skipped.

    A checking line generator scans the comments and the header line; one
    ``np.loadtxt`` then parses the rest of the open file.  When that parse
    fails (a late comment or whitespace-only line, a bad cell, a width other
    than 8, no data), the file is read again through the generator, which
    checks each line and hands the data lines to ``np.loadtxt`` as they
    arrive: an error names its path and line, and no list of lines is kept.
    A non-finite value (``nan``, ``inf``), a ``t_ns`` not above the previous
    row's and a ``mirror_in_beam`` other than 0 or 1 are named, in that
    order, by reading the file again up to the first such row.  A malformed
    ``# schedule=`` attribute is rejected.
    """
    attrs: dict = {}
    lineno = 0

    def data_lines(fh):
        """The header line, then each checked data line; comments go to ``attrs``."""
        nonlocal lineno
        n_rows = -1  # until the header line
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if sep:
                    attrs[key.strip()] = value.strip()
            elif n_rows < 0:
                if line != TRACES_HEADER:
                    raise TraceFormatError(f"{path}:{lineno}: expected header {TRACES_HEADER!r}")
                n_rows = 0
                yield line
            elif line.count(",") != 7:
                raise TraceFormatError(f"{path}:{lineno}: expected 8 columns, got {line.count(',') + 1}")
            else:
                n_rows += 1
                yield line
        if n_rows <= 0:  # raised here, loadtxt would only warn on no data
            raise TraceFormatError(f"{path}: {'no data rows' if n_rows == 0 else 'missing header line'}")

    def parse(checked: bool) -> np.ndarray:
        attrs.clear()
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt's warning on no data fails the fast path
            lines = data_lines(fh)
            next(lines)  # the comments and the header line
            cols = np.loadtxt(lines if checked else fh, delimiter=",", comments=None, ndmin=2).T
        if len(cols) != 8:
            raise ValueError
        return cols

    try:
        try:
            cols = parse(checked=False)
        except (ValueError, UserWarning):  # TraceFormatError and UnicodeDecodeError too: the checked pass names them
            cols = parse(checked=True)
    except TraceFormatError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError:
        raise TraceFormatError(f"{path}:{lineno}: non-numeric value") from None
    for bad, what in ((~np.isfinite(cols).all(axis=0), "non-finite value"),
                      (np.diff(cols[0], prepend=-np.inf) <= 0.0, "t_ns not above the previous row's"),
                      ((cols[7] != 0.0) & (cols[7] != 1.0), "mirror_in_beam not 0 or 1")):
        bad_rows = np.flatnonzero(bad)
        if bad_rows.size:
            with open(path) as fh:
                next(itertools.islice(data_lines(fh), bad_rows[0] + 1, None))  # + 1: the header line
            raise TraceFormatError(f"{path}:{lineno}: {what}")
    return TraceFile(
        t=cols[0], re_fwd=cols[1], im_fwd=cols[2], re_bwd=cols[3], im_bwd=cols[4],
        i_fwd=cols[5], i_bwd=cols[6], mirror_in_beam=cols[7] != 0.0, attrs=attrs,
        schedule=_schedule(path, attrs.get("schedule", "")),
    )


def _schedule(path: Path, raw: str) -> list[tuple[float, float]]:
    """``t:level`` pairs of a ``# schedule=`` attribute, ``;``-separated; each value finite."""
    segs = []
    for chunk in filter(None, raw.split(";")):
        try:
            t, lvl = map(float, chunk.split(":"))
            if not (math.isfinite(t) and math.isfinite(lvl)):
                raise ValueError
        except ValueError:
            raise TraceFormatError(f"{path}: schedule: expected finite t:level pairs, got {chunk!r}") from None
        segs.append((t, lvl))
    return segs


def write_json(path: Path, payload: dict) -> None:
    """JSON (RFC 8259) text of ``payload``: a non-finite number raises ``ValueError``, as it has no JSON form."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_pattern_csv(path: Path, patterns: list[tuple[float, np.ndarray, np.ndarray]],
                      config_hash: str) -> None:
    """Standing-wave patterns, one block of rows per snapshot time, each one ``%`` template."""
    text = [f"# nfscatter pattern v{SCHEMA_VERSION}\n# config_hash={config_hash}\nsnapshot_t_ns,s_angstrom,density\n"]
    for t_snap, s_grid, density in patterns:
        row = f"{_fmt(t_snap)},%.9g,%.9g\n"  # the snapshot time is formatted once
        text.append(row * len(s_grid) % tuple(np.column_stack((s_grid, density)).ravel().tolist()))
    path.write_text("".join(text))
