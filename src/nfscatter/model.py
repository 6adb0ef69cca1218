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

#: Gauss-Legendre collocation nodes across the slab, by thickness: a slab of
#: effective thickness xi takes the node count of the first row whose xi
#: bound reaches it.  The counts are even, so the collocation matrix has no
#: real eigenvalue and no splitting meets an exceptional point.  Field off
#: over 200 ns, each row stays within 1e-7 (rel L2) of the exact response up
#: to its bound, and within 1e-12 up to xi = 10.  Past the last row the
#: modal basis, whose condition number grows about 14x per two nodes, costs
#: more accuracy than more nodes gain, so validation rejects the thickness.
DEPTH_NODES = ((1.0, 6), (5.0, 8), (10.0, 10), (20.0, 12), (50.0, 14), (80.0, 16), (100.0, 18))


def depth_nodes(xi: float) -> int:
    """The collocation node count for effective thickness ``xi``, from DEPTH_NODES."""
    return next(n for top, n in DEPTH_NODES if xi <= top)


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
    n_depth: int = 201           # depth points of the snapshot output grid

    def validate(self) -> None:
        _require_finite("sample.xi", self.xi)
        if isinstance(self.n_depth, bool) or not isinstance(self.n_depth, int):
            raise ScenarioError(f"sample.n_depth must be a Python int (got {self.n_depth!r})")
        if not 0.0 <= self.xi <= DEPTH_NODES[-1][0]:
            raise ScenarioError(f"sample.xi must be in [0, {DEPTH_NODES[-1][0]:g}] (got {self.xi})")
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
    dt: float = 0.02
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

    ``nudges`` records a t_end moved onto the step grid, the one time that
    moves, as a (field, requested, used) triple.
    """

    tau: float                  # mirror round trip actually used, ns
    eta_l: float                # field coupling integrated over the slab, 6*gamma*xi
    n_steps: int                # time grid has n_steps + 1 points
    nudges: tuple[tuple[str, float, float], ...]
    config_hash: str


def _scenario_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, allow_nan=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def validate_scenario(config: ScenarioConfig | ValidatedScenario) -> ValidatedScenario:
    """Check every invariant and fill derived quantities.

    Every time keeps its exact value: the solver acts on each event at its
    time, and dt only samples the output.  Only t_end moves, onto the step
    grid, and ``nudges`` records that move.  Idempotent: validating an already
    validated scenario returns it unchanged.  One edited since (its
    config_hash no longer matches) is rejected, since its derived fields
    belong to the values before the edit.  Rejections name the offending
    field.
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

    pulse = config.pulse
    if not 0.0 <= pulse.t0 < t_end:
        raise ScenarioError(f"pulse.t0 must lie in [0, t_end) (got {pulse.t0})")
    if pulse.mode == "gaussian" and pulse.fwhm < 2.0 * dt:
        raise ScenarioError(f"pulse.fwhm must be >= 2 * dt to resolve the envelope (got fwhm {pulse.fwhm}, dt {dt})")

    # a derived tau = pi/|delta_b| is at least 20*pi*dt by the beat rule above
    mirror = config.mirror
    if mirror.reflectivity > 0.0 and mirror.delay_tau is None:
        base = config.schedule.first_nonzero_level()
        if base is None:
            raise ScenarioError(
                "mirror.delay_tau is unset and the schedule has no nonzero level to derive it from"
            )
        mirror = replace(mirror, delay_tau=derived_timings(abs(base)).tau)
    tau = 0.0 if mirror.delay_tau is None else mirror.delay_tau
    if mirror.reflectivity > 0.0 and tau < dt:
        raise ScenarioError(f"mirror.delay_tau must be >= dt for a reflecting mirror (got {tau}, dt={dt})")

    # each snapshot stores four n_depth rows
    snaps = config.record_snapshots_at
    if len(snaps) * config.sample.n_depth > MAX_GRID_POINTS:
        raise ScenarioError(f"record_snapshots_at times x sample.n_depth must be at most {MAX_GRID_POINTS} "
                            f"(got {len(snaps)} x {config.sample.n_depth})")
    for t in snaps:
        if not 0.0 <= t <= t_end:
            raise ScenarioError(f"record_snapshots_at entry {t} outside [0, t_end]")
    if len(set(snaps)) != len(snaps):
        raise ScenarioError(f"record_snapshots_at entries must be distinct (got {list(snaps)})")

    resolved = ValidatedScenario(
        sample=config.sample,
        pulse=pulse,
        mirror=mirror,
        schedule=config.schedule,
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
