"""Scenario presets and the parameter-sweep description."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .model import (
    DEFAULT_GAMMA,
    HyperfineSchedule,
    MirrorSpec,
    PulseSpec,
    SampleSpec,
    ScenarioConfig,
    ScenarioError,
    Segment,
    derived_timings,
)

SWEEP_AXES = ("xi", "R", "delta_B", "tau")

#: the protocol switches the field back on (retrieval) at this time, in ns
_RETRIEVAL_NS = 100.0


def gated_mirror_scenario(
    xi: float = 1.0,
    delta_b_over_gamma: float = 30.0,
    invert: bool = False,
    snapshots: Sequence[float] = (),
    disable_time: float | None = None,
) -> ScenarioConfig:
    """Storage/retrieval protocol scenario built from the splitting, given in multiples of gamma.

    The mirror sits half a beat period away (round trip tau = pi/delta_b),
    its reflection is disabled just after the prompt pulse reaches it, the
    field switches off at the second beat node and back on at 100 ns with
    the level in force before switch-off.  ``invert`` adds the field
    inversion at the first beat node, which flips the retrieved relative
    phase from 0 to pi.  Every other field keeps its dataclass default.
    A splitting whose switch-off falls at or after the retrieval raises
    :class:`ScenarioError`.
    """
    delta_b = delta_b_over_gamma * DEFAULT_GAMMA
    timings = derived_timings(delta_b)
    if not timings.t_off < _RETRIEVAL_NS:
        raise ScenarioError(
            f"splitting {delta_b_over_gamma:g} gamma switches the field off at 1.5*pi/delta_b = "
            f"{timings.t_off:.6g} ns: after the {_RETRIEVAL_NS:g} ns retrieval (the splitting must exceed "
            f"1.5*pi/{_RETRIEVAL_NS:g} rad/ns = {1.5 * math.pi / _RETRIEVAL_NS / DEFAULT_GAMMA:.3g} gamma)")
    if disable_time is None:
        # just after the prompt reflection, before any delayed signal arrives
        disable_time = 0.5 * timings.tau + 0.002
    stored = -delta_b if invert else delta_b
    segments = [Segment(0.0, delta_b), Segment(timings.t_off, 0.0), Segment(_RETRIEVAL_NS, stored)]
    if invert:
        segments.insert(1, Segment(timings.t_invert, -delta_b))
    return ScenarioConfig(
        sample=SampleSpec(xi=xi),
        pulse=PulseSpec(),
        mirror=MirrorSpec(delay_tau=timings.tau, disable_time=disable_time),
        schedule=HyperfineSchedule(tuple(segments)),
        t_end=200.0,
        record_snapshots_at=tuple(snapshots),
    )


def single_pass_scenario() -> ScenarioConfig:
    """Thin slab, no mirror, constant field: the first-order reference case."""
    return ScenarioConfig(
        sample=SampleSpec(xi=0.01),
        pulse=PulseSpec(),
        mirror=MirrorSpec(reflectivity=0.0, delay_tau=0.0),
        schedule=HyperfineSchedule.constant(30.0 * DEFAULT_GAMMA),
        t_end=160.0,
    )


# t_d pinned at 7.39 ns: the prompt reaches the mirror at tau/2 ~ 7.388 ns,
# so the gate barely admits its reflection and nothing else
_FIG_DISABLE_NS = 7.39

PRESETS = {
    "fig2a": (
        "gated mirror, storage at 22.16 ns, retrieval at 100 ns (intensity view)",
        lambda: gated_mirror_scenario(disable_time=_FIG_DISABLE_NS),
    ),
    "fig2b": (
        "same protocol, storage-window snapshot; retrieved branches in phase (symmetric)",
        lambda: gated_mirror_scenario(disable_time=_FIG_DISABLE_NS, snapshots=(60.0,)),
    ),
    "fig2c": (
        "adds the field inversion at 7.39 ns; retrieved branches out of phase (antisymmetric)",
        lambda: gated_mirror_scenario(disable_time=_FIG_DISABLE_NS, invert=True, snapshots=(60.0,)),
    ),
    "single_pass": (
        "thin slab, no mirror, constant field (first-order reference)",
        lambda: single_pass_scenario(),
    ),
}


def preset_scenario(name: str) -> ScenarioConfig:
    try:
        return PRESETS[name][1]()
    except KeyError:
        raise ScenarioError(f"unknown preset {name!r}; known: {', '.join(PRESETS)}") from None


@dataclass(frozen=True)
class SweepSpec:
    """One-axis parameter sweep over a base preset."""

    axis: str
    values: tuple[float, ...]
    base: str = "fig2b"

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ScenarioError(f"sweep axis must be one of {SWEEP_AXES} (got {self.axis!r})")
        if not self.values:
            raise ScenarioError("sweep needs at least one value")

    def scenario_for(self, value: float) -> ScenarioConfig:
        """Scenario for one swept value; delta_B values are in multiples of gamma."""
        if self.axis == "delta_B":
            if self.base not in ("fig2a", "fig2b", "fig2c"):
                raise ScenarioError("delta_B sweeps rebuild the protocol and need a fig2* base")
            return gated_mirror_scenario(
                delta_b_over_gamma=value,
                invert=(self.base == "fig2c"),
                snapshots=(60.0,) if self.base in ("fig2b", "fig2c") else (),
            )
        base = preset_scenario(self.base)
        if self.axis == "xi":
            return replace(base, sample=replace(base.sample, xi=value))
        if self.axis == "R":
            return replace(base, mirror=replace(base.mirror, reflectivity=value))
        return replace(base, mirror=replace(base.mirror, delay_tau=value))
