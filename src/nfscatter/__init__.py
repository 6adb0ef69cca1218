"""Forward/backward resonant x-ray scattering off a thin nuclear slab.

Simulates a single-photon pulse exciting a hyperfine-split resonant slab
whose re-emission is steered by a gated normal-incidence mirror and a
switchable hyperfine field: generation, node-timed storage and retrieval of
a two-branch collective excitation, with diagnostics for branch balance,
relative phase and the sub-angstrom standing-wave excitation pattern.
"""

from .model import (
    CLEBSCH_A,
    DEFAULT_GAMMA,
    WAVE_NUMBER_K,
    HyperfineSchedule,
    MirrorSpec,
    ProtocolTimings,
    PulseSpec,
    SampleSpec,
    ScenarioConfig,
    ScenarioError,
    Segment,
    ValidatedScenario,
    derived_timings,
    validate_scenario,
)
from .oracles import OracleCurve, envelope_attenuation, first_order_amplitude, relative_l2
from .solver import (
    CoherenceSnapshot,
    NumericalError,
    TraceSet,
    gaussian_input,
    run_scenario,
)
from .analysis import (
    EntanglementReport,
    ExcitationPattern,
    IntensitySeries,
    beat_period,
    entanglement_report,
    excitation_pattern,
    intensities,
    storage_suppression,
)
from .presets import PRESETS, SweepSpec, gated_mirror_scenario, preset_scenario, single_pass_scenario

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GAMMA", "CLEBSCH_A", "WAVE_NUMBER_K",
    "SampleSpec", "PulseSpec", "MirrorSpec",
    "Segment", "HyperfineSchedule", "ProtocolTimings",
    "ScenarioConfig", "ValidatedScenario", "ScenarioError",
    "derived_timings", "validate_scenario",
    "OracleCurve", "first_order_amplitude", "envelope_attenuation", "relative_l2",
    "TraceSet", "CoherenceSnapshot", "NumericalError", "gaussian_input", "run_scenario",
    "IntensitySeries", "EntanglementReport", "ExcitationPattern",
    "intensities", "entanglement_report", "excitation_pattern",
    "storage_suppression", "beat_period",
    "PRESETS", "SweepSpec", "preset_scenario", "gated_mirror_scenario", "single_pass_scenario",
]
