"""Stochastic collapse dynamics driven by interaction potentials.

The package simulates a modified Schrodinger equation in which pair
interactions stochastically shift amplitude between the interacting and
noninteracting parts of the wave function. The public surface gathers
the pieces most sessions start from: scenario configs, the trajectory
and ensemble integrators, the walk model, and the verification
diagnostics. Everything else stays importable from its home module.
"""

from .collapse import characteristic_time, collapse_sum
from .config import ConfigError, RunConfig, parse_config, parse_config_data
from .diagnostics import (
    ConservationGapTracker,
    DeviationAccumulator,
    deviation_ratio_benchmark,
)
from .experiments import (
    ThermalInput,
    eraser_sweep,
    thermal_estimate,
)
from .integrator import (
    IntegratorConfig,
    run_ensemble,
    run_schrodinger_reference,
    run_trajectory,
)
from .noise import WienerProcess
from .operators import (
    AngularMomentumZOperator,
    DiagonalOperator,
    GaussianWell,
    InteractionPair,
    MomentumOperator,
    SoftCoulomb,
)
from .state import (
    FiniteBasis,
    GridBasis,
    GridSpec,
    ParticleSpec,
    expectation,
    gaussian_packet,
    normalize,
)
from .walk import WalkConfig, born_linearity_scan, step_count_estimate

__version__ = "0.1.0"

__all__ = [
    "AngularMomentumZOperator",
    "ConfigError",
    "ConservationGapTracker",
    "DeviationAccumulator",
    "DiagonalOperator",
    "FiniteBasis",
    "GaussianWell",
    "GridBasis",
    "GridSpec",
    "IntegratorConfig",
    "InteractionPair",
    "MomentumOperator",
    "ParticleSpec",
    "RunConfig",
    "SoftCoulomb",
    "ThermalInput",
    "WalkConfig",
    "WienerProcess",
    "born_linearity_scan",
    "characteristic_time",
    "collapse_sum",
    "deviation_ratio_benchmark",
    "eraser_sweep",
    "expectation",
    "gaussian_packet",
    "normalize",
    "parse_config",
    "parse_config_data",
    "run_ensemble",
    "run_schrodinger_reference",
    "run_trajectory",
    "step_count_estimate",
    "thermal_estimate",
]
