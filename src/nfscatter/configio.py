"""Structured-text (JSON) scenario configuration.

The file mirrors the ScenarioConfig field names; times are ns.  The
hyperfine schedule is ``{"segments": [[t_start, delta_b], ...]}`` with levels
in rad/ns, the form ``meta.json`` writes; without a ``schedule`` the field is
off throughout.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Any

from .model import (
    HyperfineSchedule,
    MirrorSpec,
    PulseSpec,
    SampleSpec,
    ScenarioConfig,
    ScenarioError,
    Segment,
    _require_finite,
)


class ConfigError(ValueError):
    """Malformed configuration file or override."""


def _pick(d: dict, allowed: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object (got {d!r})")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _float(value: Any, where: str) -> float:
    """A finite JSON number as a float (so 1 and 1.0 hash alike); anything else is rejected, naming the field."""
    _require_finite(where, value)
    return float(value)


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list (got {value!r})")
    return value


def _section(data: dict, key: str, cls):
    """Section ``key`` of ``data`` as a ``cls``, whose field names are the allowed keys."""
    d = data.get(key, {})
    _pick(d, {f.name for f in fields(cls)}, key)
    floats = {f.name for f in fields(cls) if f.type.startswith("float")}  # None stays None where allowed
    return cls(**{name: _float(value, f"{key}.{name}") if name in floats and value is not None else value
                  for name, value in d.items()})


def scenario_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    _pick(data, {f.name for f in fields(ScenarioConfig)}, "config")
    if "t_end" not in data:
        raise ConfigError("config is missing required key 't_end'")
    return ScenarioConfig(
        sample=_section(data, "sample", SampleSpec),
        pulse=_section(data, "pulse", PulseSpec),
        mirror=_section(data, "mirror", MirrorSpec),
        schedule=_schedule_from_dict(data.get("schedule", {})),
        t_end=_float(data["t_end"], "t_end"),
        dt=_float(data.get("dt", ScenarioConfig.dt), "dt"),
        record_snapshots_at=tuple(_float(t, f"record_snapshots_at[{i}]")
                                  for i, t in enumerate(_list(data.get("record_snapshots_at", []),
                                                              "record_snapshots_at"))),
    )


def _schedule_from_dict(sd: dict) -> HyperfineSchedule:
    _pick(sd, {"segments"}, "schedule")
    segments = []
    for i, pair in enumerate(_list(sd.get("segments", [[0.0, 0.0]]), "schedule.segments")):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"schedule.segments[{i}] must be a [t_start, delta_b] pair (got {pair!r})")
        segments.append(Segment(_float(pair[0], f"schedule.segments[{i}].t_start"),
                                _float(pair[1], f"schedule.segments[{i}].delta_b")))
    return HyperfineSchedule(tuple(segments))


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    try:
        return scenario_from_dict(data)
    except (TypeError, ScenarioError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc


def apply_overrides(data: dict[str, Any], overrides: list[str]) -> dict[str, Any]:
    """Apply ``--set dotted.key=value`` overrides onto a config dict."""
    out = json.loads(json.dumps(data))  # deep copy, keeps JSON types
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} descends into a non-section value")
        node[parts[-1]] = value
    return out
