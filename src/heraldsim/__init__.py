"""Heralded entanglement of two remote three-level emitters.

Simulates the protocol where both emitters are excited, the two
emitted photons are collected behind polarization analyzers, and a
two-photon coincidence projects the emitters onto an entangled state
of their lower levels.  Provides the heralded states, their
concurrence, the error introduced by finite detectors and trapped
emitter motion, and coincidence/accidental rate estimates.
"""

from .errors import (
    HeraldSimError,
    InvalidInputError,
    NumericalFailureError,
    ScenarioError,
    ZeroProbabilityHeraldError,
)
from .geometry import (
    AtomPairLayout,
    DetectorPatch,
    QuadratureSpec,
    TrapModel,
    detection_direction,
    farfield_phase,
    theta_center_for_delta21,
)
from .herald import (
    CountRates,
    ExperimentConfig,
    ScanResult,
    UncertaintyReport,
    accidental_fraction,
    count_rate,
    delta_c_scan,
    detection_probability,
    generated_state,
    monte_carlo_state,
)
from .optics import (
    HeraldedOutcome,
    Polarizer,
    concurrence_analytic,
    g2,
    heralded_state,
    polarizer_to_jones,
    visibility,
)
from .qcore import (
    BASIS_LABELS,
    concurrence_mixed,
    concurrence_pure,
)
from .scenario import Scenario, load_scenario, save_scenario

__version__ = "0.1.0"

__all__ = [
    "AtomPairLayout",
    "BASIS_LABELS",
    "CountRates",
    "DetectorPatch",
    "ExperimentConfig",
    "HeraldSimError",
    "HeraldedOutcome",
    "InvalidInputError",
    "NumericalFailureError",
    "Polarizer",
    "QuadratureSpec",
    "Scenario",
    "ScanResult",
    "ScenarioError",
    "TrapModel",
    "UncertaintyReport",
    "ZeroProbabilityHeraldError",
    "accidental_fraction",
    "concurrence_analytic",
    "concurrence_mixed",
    "concurrence_pure",
    "count_rate",
    "delta_c_scan",
    "detection_direction",
    "detection_probability",
    "farfield_phase",
    "g2",
    "generated_state",
    "heralded_state",
    "load_scenario",
    "monte_carlo_state",
    "polarizer_to_jones",
    "save_scenario",
    "theta_center_for_delta21",
    "visibility",
]
