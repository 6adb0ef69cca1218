"""Domain model: physical constants, scenario description, hyperfine schedule.

Units throughout: times in ns, rates and Rabi frequencies in 1/ns, wave
numbers in 1/angstrom.  The hyperfine splitting ``delta_b`` is a signed
angular frequency in rad/ns; a value of 0 means "field off".

All types here are frozen dataclasses.  Once a scenario has passed
:func:`validate_scenario` it is immutable and safe to share between threads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, is_dataclass, replace

# the 14.413 keV Moessbauer line of 57Fe, the one transition modelled
HC_KEV_ANGSTROM = 12.39842
FE57_LIFETIME_NS = 141.1
DEFAULT_GAMMA = 1.0 / FE57_LIFETIME_NS        # gamma-decay rate of the excited level, 1/ns
CLEBSCH_A = math.sqrt(2.0 / 3.0)              # Delta m = 0 transition amplitude
WAVE_NUMBER_K = 2.0 * math.pi * 14.413 / HC_KEV_ANGSTROM  # photon wave number 2*pi*E/(hc), 1/angstrom

#: time resolution safety factor: dt must resolve the fastest beat
_DT_BEAT_FACTOR = 20.0

#: most time points (n_steps + 1) and depth points (n_depth) a run may have,
#: checked before anything is allocated: at the cap the state buffers take about
#: 0.4 GB; presets and benchmark workloads use at most 40,001 and 4,001 points
MAX_GRID_POINTS = 1_000_000


class ScenarioError(ValueError):
    """A scenario or schedule violates a model invariant."""


def _require_finite(name: str, value, optional: bool = False) -> None:
    """Reject a float field that is not a finite Python int or float, naming the field.

    ``optional`` fields may also be None.  Other number types (numpy scalars)
    are rejected because the scenario hash and ``meta.json`` serialise the
    fields as JSON.
    """
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ScenarioError(f"{name} must be a finite int or float (got {value!r})")


@dataclass(frozen=True)
class SampleSpec:
    """Resonant slab: dimensionless effective thickness and geometry."""

    xi: float = 1.0              # effective resonant thickness (optical depth parameter)
    n_depth: int = 201           # depth grid points across the slab

    def validate(self) -> None:
        _require_finite("sample.xi", self.xi)
        if isinstance(self.n_depth, bool) or not isinstance(self.n_depth, int):
            raise ScenarioError(f"sample.n_depth must be a Python int (got {self.n_depth!r})")
        if self.xi < 0.0:
            raise ScenarioError(f"sample.xi must be >= 0 (got {self.xi})")
        if not 2 <= self.n_depth <= MAX_GRID_POINTS:
            raise ScenarioError(f"sample.n_depth must be in [2, {MAX_GRID_POINTS}] (got {self.n_depth})")


@dataclass(frozen=True)
class PulseSpec:
    """Input x-ray pulse at the front face.

    ``impulsive`` mode deposits the whole pulse area as an instantaneous
    coherence kick (the pulse bandwidth is far broader than the nuclear
    line).  ``gaussian`` mode resolves the envelope on the time grid and is
    used to validate the impulsive limit; it must start at least two widths
    after t = 0, or the envelope's head is cut off and its area lost.  The
    solver is linear, so the area only scales every output; it is capped at
    1e-3 to stay in the linear regime.
    """

    mode: str = "impulsive"      # "impulsive" | "gaussian"
    area: float = 1e-3           # dimensionless pulse area, << 1 in the linear regime
    fwhm: float | None = None    # ns, gaussian mode only (null in impulsive mode)
    t0: float = 0.0              # arrival time at the front face, ns

    def validate(self) -> None:
        if self.mode not in ("impulsive", "gaussian"):
            raise ScenarioError(f"pulse.mode must be 'impulsive' or 'gaussian' (got {self.mode!r})")
        _require_finite("pulse.area", self.area)
        _require_finite("pulse.fwhm", self.fwhm, optional=True)
        _require_finite("pulse.t0", self.t0)
        if not self.area > 0.0:
            raise ScenarioError(f"pulse.area must be > 0 (got {self.area})")
        if self.area > 1e-3:
            raise ScenarioError(f"pulse.area must be <= 1e-3 in the linear regime (got {self.area})")
        if self.mode == "gaussian":
            if self.fwhm is None or not self.fwhm > 0.0:
                raise ScenarioError(f"pulse.fwhm must be > 0 in gaussian mode (got {self.fwhm})")
            if self.t0 < 2.0 * self.fwhm:
                raise ScenarioError(
                    f"pulse.t0 must be >= 2 * pulse.fwhm in gaussian mode (got {self.t0}, fwhm {self.fwhm})")
        elif self.fwhm is not None:
            raise ScenarioError(f"pulse.fwhm must be null in impulsive mode, which has no envelope (got {self.fwhm})")


@dataclass(frozen=True)
class MirrorSpec:
    """Normal-incidence mirror behind the slab.

    ``reflectivity`` 0 means no mirror.  ``delay_tau`` is the full round
    trip 2d/c between the back face and the mirror, at least one time step
    for a reflecting mirror; ``disable_time`` is the instant, on the
    mirror-plane clock, at which the reflection is switched off.  ``None``
    for ``delay_tau`` means "derive pi/delta_b from the schedule at
    validation"; ``disable_time`` ``None`` means the mirror is never disabled.
    """

    reflectivity: float = 0.99
    delay_tau: float | None = None
    disable_time: float | None = None

    def validate(self) -> None:
        _require_finite("mirror.reflectivity", self.reflectivity)
        _require_finite("mirror.delay_tau", self.delay_tau, optional=True)
        _require_finite("mirror.disable_time", self.disable_time, optional=True)
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ScenarioError(
                f"mirror.reflectivity must be in [0, 1] (got {self.reflectivity})"
            )
        if self.delay_tau is not None and self.delay_tau < 0.0:
            raise ScenarioError(f"mirror.delay_tau must be >= 0 (got {self.delay_tau})")


@dataclass(frozen=True)
class Segment:
    """One piecewise-constant level of the hyperfine field."""

    t_start: float
    delta_b: float


@dataclass(frozen=True)
class HyperfineSchedule:
    """Ordered piecewise-constant hyperfine splitting delta_b(t).

    Each segment holds until the next one starts; the first segment covers
    everything before its own start time as well, so the schedule is total.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ScenarioError("schedule must contain at least one segment")
        for i, seg in enumerate(self.segments):
            _require_finite(f"schedule.segments[{i}].t_start", seg.t_start)
            _require_finite(f"schedule.segments[{i}].delta_b", seg.delta_b)
        starts = [s.t_start for s in self.segments]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ScenarioError(f"schedule segment times must be strictly increasing (got {starts})")
        if starts[0] > 0.0:
            raise ScenarioError(f"first schedule segment must start at t <= 0 (got {starts[0]})")

    @classmethod
    def constant(cls, delta_b: float) -> "HyperfineSchedule":
        return cls((Segment(0.0, delta_b),))

    def first_nonzero_level(self) -> float | None:
        for seg in self.segments:
            if seg.delta_b != 0.0:
                return seg.delta_b
        return None


@dataclass(frozen=True)
class ProtocolTimings:
    """Control instants implied by a hyperfine splitting delta_b.

    tau      = pi/delta_b        mirror round trip matching half a beat
    t_invert = pi/(2 delta_b)    field inversion point (first beat node)
    t_off    = 3 pi/(2 delta_b)  switch-off point (second beat node)
    """

    tau: float
    t_invert: float
    t_off: float


def derived_timings(delta_b: float) -> ProtocolTimings:
    """Protocol timings for a given splitting; requires delta_b > 0."""
    if not delta_b > 0.0:
        raise ScenarioError(f"delta_b must be > 0 to derive timings (got {delta_b})")
    return ProtocolTimings(
        tau=math.pi / delta_b,
        t_invert=0.5 * math.pi / delta_b,
        t_off=1.5 * math.pi / delta_b,
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one run, before validation."""

    sample: SampleSpec
    pulse: PulseSpec
    mirror: MirrorSpec
    schedule: HyperfineSchedule
    t_end: float
    dt: float = 0.005
    record_snapshots_at: tuple[float, ...] = ()

    def as_dict(self) -> dict:
        """The scenario fields as a JSON-compatible dict (round-trips through configio).

        Derived fields of a validated scenario are left out; the schedule is
        written as ``{"segments": [[t_start, delta_b], ...]}``.
        """
        out = {f.name: getattr(self, f.name) for f in fields(ScenarioConfig)}
        out = {name: asdict(value) if is_dataclass(value) else value for name, value in out.items()}
        out["schedule"] = {"segments": [[s.t_start, s.delta_b] for s in self.schedule.segments]}
        out["record_snapshots_at"] = list(self.record_snapshots_at)
        return out


@dataclass(frozen=True, kw_only=True)
class ValidatedScenario(ScenarioConfig):
    """A scenario with every invariant checked and derived quantities filled.

    ``nudges`` records every time that was moved onto the step grid, as
    (field, requested, used) triples.
    """

    tau: float                  # mirror round trip actually used, ns
    eta_l: float                # field coupling integrated over the slab, 6*gamma*xi
    n_steps: int                # time grid has n_steps + 1 points
    nudges: tuple[tuple[str, float, float], ...]
    config_hash: str


def _scenario_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, allow_nan=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _nudge(t: float, dt: float) -> float:
    return round(t / dt) * dt


def validate_scenario(config: ScenarioConfig | ValidatedScenario) -> ValidatedScenario:
    """Check every invariant and fill derived quantities.

    Idempotent: validating an already validated scenario returns it
    unchanged.  One edited since (its config_hash no longer matches) is
    rejected, since its times are already on the step grid and would round
    twice.  Rejections name the offending field.
    """
    if isinstance(config, ValidatedScenario):
        if config.config_hash != _scenario_hash(config.as_dict()):
            raise ScenarioError("a validated scenario was edited: edit and validate its ScenarioConfig instead")
        return config

    config.sample.validate()
    config.pulse.validate()
    config.mirror.validate()

    _require_finite("dt", config.dt)
    _require_finite("t_end", config.t_end)
    for i, t in enumerate(config.record_snapshots_at):
        _require_finite(f"record_snapshots_at[{i}]", t)

    dt = config.dt
    if not dt > 0.0:
        raise ScenarioError(f"dt must be > 0 (got {dt})")
    if not config.t_end > dt:
        raise ScenarioError(f"t_end must exceed dt (got t_end={config.t_end}, dt={dt})")
    max_level = max(abs(s.delta_b) for s in config.schedule.segments)
    if max_level > 0.0 and dt > 1.0 / (_DT_BEAT_FACTOR * max_level):
        raise ScenarioError(
            f"dt={dt} ns cannot resolve the fastest beat: need dt <= "
            f"{1.0 / (_DT_BEAT_FACTOR * max_level):.4g} ns for |delta_b|={max_level:.4g} rad/ns"
        )

    if config.t_end / dt + 1.0 > MAX_GRID_POINTS:
        raise ScenarioError(f"t_end/dt + 1 must be at most {MAX_GRID_POINTS} time points "
                            f"(got t_end={config.t_end}, dt={dt})")

    nudges: list[tuple[str, float, float]] = []

    n_steps = round(config.t_end / dt)
    t_end = n_steps * dt
    if t_end != config.t_end:
        nudges.append(("t_end", config.t_end, t_end))

    # align schedule discontinuities to the step grid so every step sees one level
    segs = []
    for i, seg in enumerate(config.schedule.segments):
        if i == 0:
            segs.append(Segment(min(seg.t_start, 0.0), seg.delta_b))
            continue
        t_nudged = _nudge(seg.t_start, dt)
        if t_nudged != seg.t_start:
            nudges.append((f"schedule[{i}].t_start", seg.t_start, t_nudged))
        segs.append(Segment(t_nudged, seg.delta_b))
    starts = [s.t_start for s in segs]
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ScenarioError(f"schedule segments collide after grid alignment: {starts}")
    schedule = HyperfineSchedule(tuple(segs))

    pulse = config.pulse
    if pulse.mode == "impulsive":
        t0 = _nudge(pulse.t0, dt)
        if t0 != pulse.t0:
            nudges.append(("pulse.t0", pulse.t0, t0))
            pulse = replace(pulse, t0=t0)
    if not 0.0 <= pulse.t0 < t_end:
        raise ScenarioError(f"pulse.t0 must lie in [0, t_end) (got {pulse.t0})")

    # a derived tau = pi/|delta_b| is at least 20*pi*dt by the beat rule above
    mirror = config.mirror
    if mirror.reflectivity > 0.0 and mirror.delay_tau is None:
        base = schedule.first_nonzero_level()
        if base is None:
            raise ScenarioError(
                "mirror.delay_tau is unset and the schedule has no nonzero level to derive it from"
            )
        mirror = replace(mirror, delay_tau=derived_timings(abs(base)).tau)
    tau = 0.0 if mirror.delay_tau is None else mirror.delay_tau
    if mirror.reflectivity > 0.0 and tau < dt:
        raise ScenarioError(f"mirror.delay_tau must be >= dt for a reflecting mirror (got {tau}, dt={dt})")

    # each snapshot stores four n_depth rows
    if len(config.record_snapshots_at) * config.sample.n_depth > MAX_GRID_POINTS:
        raise ScenarioError(f"record_snapshots_at times x sample.n_depth must be at most {MAX_GRID_POINTS} "
                            f"(got {len(config.record_snapshots_at)} x {config.sample.n_depth})")
    snaps = []
    for t in config.record_snapshots_at:
        tn = _nudge(t, dt)
        if not 0.0 <= tn <= t_end:
            raise ScenarioError(f"record_snapshots_at entry {t} outside [0, t_end]")
        if tn != t:
            nudges.append(("record_snapshots_at", t, tn))
        snaps.append(tn)
    if len(set(snaps)) != len(snaps):
        raise ScenarioError(f"record_snapshots_at entries collide after grid alignment: {snaps}")

    resolved = ValidatedScenario(
        sample=config.sample,
        pulse=pulse,
        mirror=mirror,
        schedule=schedule,
        t_end=t_end,
        dt=dt,
        record_snapshots_at=tuple(snaps),
        tau=tau,
        eta_l=6.0 * DEFAULT_GAMMA * config.sample.xi,
        n_steps=n_steps,
        nudges=tuple(nudges),
        config_hash="",
    )
    return replace(resolved, config_hash=_scenario_hash(resolved.as_dict()))
