"""Structured-text (JSON) scenario configuration.

The file mirrors the ScenarioConfig field names; times are ns.  Hyperfine
levels may be given directly in rad/ns or as multiples of the decay rate
through the ``*_in_gamma`` key variants.
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
    ScheduleEvent,
    Segment,
    _require_finite,
    build_schedule,
    delta_b_from_gamma,
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


def _level(d: dict, key: str, where: str) -> float | None:
    raw = d.get(key)
    in_gamma = d.get(f"{key}_in_gamma")
    if raw is not None and in_gamma is not None:
        raise ConfigError(f"{where}: give {key} or {key}_in_gamma, not both")
    if in_gamma is not None:
        return delta_b_from_gamma(_float(in_gamma, f"{where}.{key}_in_gamma"))
    return None if raw is None else _float(raw, f"{where}.{key}")


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
        dt=_float(data.get("dt", 0.005), "dt"),
        record_snapshots_at=tuple(_float(t, f"record_snapshots_at[{i}]")
                                  for i, t in enumerate(_list(data.get("record_snapshots_at", []),
                                                              "record_snapshots_at"))),
    )


def _schedule_from_dict(sd: dict) -> HyperfineSchedule:
    _pick(sd, {"segments", "events", "initial_level", "initial_level_in_gamma"}, "schedule")
    if "segments" in sd:
        others = sorted(set(sd) - {"segments"})
        if others:
            raise ConfigError(f"schedule: segments takes no other keys (got {', '.join(others)})")
        segments = []
        for i, pair in enumerate(_list(sd["segments"], "schedule.segments")):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"schedule.segments[{i}] must be a [t_start, delta_b] pair (got {pair!r})")
            segments.append(Segment(_float(pair[0], f"schedule.segments[{i}].t_start"),
                                    _float(pair[1], f"schedule.segments[{i}].delta_b")))
        return HyperfineSchedule(tuple(segments))
    initial = _level(sd, "initial_level", "schedule") or 0.0
    events = []
    for i, ed in enumerate(_list(sd.get("events", []), "schedule.events")):
        _pick(ed, {"t", "action", "level", "level_in_gamma"}, f"schedule.events[{i}]")
        for key in ("t", "action"):
            if key not in ed:
                raise ConfigError(f"schedule.events[{i}].{key} is required")
        if not isinstance(ed["action"], str):
            raise ConfigError(f"schedule.events[{i}].action must be a string (got {ed['action']!r})")
        events.append(ScheduleEvent(
            t=_float(ed["t"], f"schedule.events[{i}].t"),
            action=ed["action"],
            level=_level(ed, "level", f"schedule.events[{i}]"),
        ))
    return build_schedule(events, initial_level=initial)


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
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
