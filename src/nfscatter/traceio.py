"""Deterministic CSV/JSON emission and parsing for run outputs.

Every file embeds the config hash so a run -> plot -> re-run chain can be
checked end to end.  Floats are printed with 9 significant digits, traces.csv
by one ``%`` template per block of rows; repeated runs of the same
configuration produce byte-identical files.  The reader rejects non-finite cells.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .solver import TraceSet

SCHEMA_VERSION = "1"
TRACES_HEADER = "t_ns,re_fwd,im_fwd,re_bwd,im_bwd,i_fwd,i_bwd,mirror_in_beam"

#: rows formatted per block when writing traces.csv: keeps the transient block and
#: its text under 1 MB, where whole columns would raise peak memory above the per-row loop's
_ROW_BLOCK = 1024


class TraceFormatError(ValueError):
    """A traces CSV file does not match the expected schema."""


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_traces_csv(path: Path, traces: TraceSet) -> None:
    """Write ``traces.csv`` of real amplitudes; each block of rows is one ``%`` template."""
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
    row = "%.9g,%.9g,0,%.9g,0,%.9g,%.9g,%d\n"   # im_fwd and im_bwd are always 0
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for k in range(0, len(traces.t_grid), _ROW_BLOCK):
            s = slice(k, k + _ROW_BLOCK)
            block = np.column_stack((traces.t_grid[s], traces.fwd_amp[s], traces.bwd_amp[s],
                                     traces.fwd_detected[s] ** 2, traces.bwd_amp[s] ** 2, traces.mirror_in_beam[s]))
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


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

    A generator checks each line and hands the data lines to one
    ``np.loadtxt``, which parses each line as it arrives: a non-numeric cell
    is on the line handed on last, and no list of lines is kept.  A
    non-finite value (``nan``, ``inf``) is named by reading the file again
    up to its row.  A malformed ``# schedule=`` attribute is rejected.
    """
    attrs: dict = {}
    lineno = 0

    def data_lines(fh):
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
            elif line.count(",") != 7:
                raise TraceFormatError(f"{path}:{lineno}: expected 8 columns, got {line.count(',') + 1}")
            else:
                n_rows += 1
                yield line
        if n_rows <= 0:  # raised here, loadtxt would only warn on no data
            raise TraceFormatError(f"{path}: {'no data rows' if n_rows == 0 else 'missing header line'}")

    try:
        with open(path) as fh:
            cols = np.loadtxt(data_lines(fh), delimiter=",", comments=None, ndmin=2).T
    except TraceFormatError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError:
        raise TraceFormatError(f"{path}:{lineno}: non-numeric value") from None
    bad_rows = np.flatnonzero(~np.isfinite(cols).all(axis=0))
    if bad_rows.size:
        with open(path) as fh:
            next(itertools.islice(data_lines(fh), bad_rows[0], None))
        raise TraceFormatError(f"{path}:{lineno}: non-finite value")
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
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n")


def write_pattern_csv(path: Path, patterns: list[tuple[float, np.ndarray, np.ndarray]],
                      config_hash: str) -> None:
    """Standing-wave patterns, one block of rows per snapshot time."""
    lines = [
        f"# nfscatter pattern v{SCHEMA_VERSION}",
        f"# config_hash={config_hash}",
        "snapshot_t_ns,s_angstrom,density",
    ]
    for t_snap, s_grid, density in patterns:
        for s, d in zip(s_grid, density):
            lines.append(f"{_fmt(t_snap)},{_fmt(s)},{_fmt(d)}")
    path.write_text("\n".join(lines) + "\n")
