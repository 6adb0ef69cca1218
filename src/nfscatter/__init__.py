"""Forward/backward resonant x-ray scattering off a thin nuclear slab.

Simulates a single-photon pulse exciting a hyperfine-split resonant slab
whose re-emission is steered by a gated normal-incidence mirror and a
switchable hyperfine field: generation, node-timed storage and retrieval of
a two-branch collective excitation, with diagnostics for branch balance,
relative phase and the sub-angstrom standing-wave excitation pattern.
"""

__version__ = "0.1.0"
