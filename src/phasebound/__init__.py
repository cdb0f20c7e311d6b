"""Bound states from phase-space quantization, with an independent
finite-difference audit path and a small CLI."""

from .classical import (ClassicalRegion, PhaseAccumulator,
                        TurningPointReport, action_energy_derivative,
                        action_integral, find_turning_points)
from .errors import (DomainError, LevelUnbound, MultiRegionError,
                     NoClassicalMotion, NormalizationError, OracleError,
                     ParseError, PhaseboundError, QuadratureError,
                     SingularPointError, SolverError, UsageError)
from .oracle import TridiagonalOperator, discretize, reference_levels
from .potentials import (MomentumField, PhysicalConstants, PotentialModel,
                         effective_radial, local_momentum)
from .quadrature import QuadratureResult, integrate_adaptive
from .quantize import (AuditRow, EnergyLevel, SpectrumResult, claim_audit,
                       solve_level, spectrum)
from .radial import (AngularQuantumNumbers, RadialLevel, RadialResult,
                     SeparableState, angular_eigenvalue, angular_numbers,
                     assemble_state, azimuthal_eigenvalue,
                     canonical_3d_residual, radial_spectrum)
from .states import (ContinuityReport, PaperNormalization, StateFunction,
                     WavefunctionSample, build_state, connection_check,
                     delta_functional, epsilon_parameter,
                     paper_normalization, standing_wave)

__version__ = "0.1.0"

__all__ = [
    "AngularQuantumNumbers", "AuditRow", "ClassicalRegion",
    "ContinuityReport", "DomainError", "EnergyLevel", "LevelUnbound",
    "MomentumField", "MultiRegionError", "NoClassicalMotion",
    "NormalizationError", "OracleError",
    "PaperNormalization", "ParseError", "PhaseAccumulator",
    "PhaseboundError", "PhysicalConstants", "PotentialModel",
    "QuadratureError", "QuadratureResult",
    "RadialLevel", "RadialResult", "SeparableState", "SingularPointError",
    "SolverError", "SpectrumResult", "StateFunction",
    "TridiagonalOperator", "TurningPointReport", "UsageError",
    "WavefunctionSample", "action_energy_derivative", "action_integral",
    "angular_eigenvalue", "angular_numbers", "assemble_state",
    "azimuthal_eigenvalue", "build_state", "canonical_3d_residual",
    "claim_audit", "connection_check", "delta_functional", "discretize",
    "effective_radial", "epsilon_parameter", "find_turning_points",
    "integrate_adaptive", "local_momentum", "paper_normalization",
    "radial_spectrum", "reference_levels", "solve_level", "spectrum",
    "standing_wave",
]
