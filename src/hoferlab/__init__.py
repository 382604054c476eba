"""Numerical laboratory for Conley-Zehnder/Maslov indices of linearized
Hamiltonian flows and Morse indices of Hofer geodesic scenarios.

The package integrates Psi' = J S(t) Psi with a structurally symplectic
Magnus stepper, detects crossings with the Maslov cycle (eigenvalue-1
times) by singular-value tracking, reads Robbin-Salamon indices as the
spectral flow of the unitary of the graph of Psi, and verifies that the
conjugate-time multiplicity sum at the maximizer equals |CZ(1) - CZ(eps)|.
"""

from .crossings import (
    OPEN_OPEN,
    RS_HALVES,
    Crossing,
    IndexValue,
    crossing_form,
    find_crossings,
    rs_index,
)
from .errors import (
    CrossingResolutionError,
    DegenerateEndpointError,
    DimensionMismatchError,
    EndpointCrossingError,
    HoferLabError,
    IntegrationError,
    IrregularCrossingError,
    ScenarioValidationError,
)
from .flows import (
    DEFAULT_STEPS,
    INDEFINITE,
    NEGATIVE_DEFINITE,
    POSITIVE_DEFINITE,
    HessianPath,
    SymplecticPath,
    direct_sum,
    evaluate,
    integrate,
    restrict,
)
from .models import (
    NormalizationCertificate,
    Scenario,
    hofer_lengths,
    quadratic_scenario,
    sphere_height_scenario,
    sphere_profile_scenario,
    validate_ustilovsky,
)
from .morse import (
    IndexReport,
    admissible_epsilon,
    check_nondegenerate,
    morse_index,
    verify_theorem,
)
from .symplectic import (
    StandardStructure,
    hamiltonian_vector_field_selftest,
    omega,
    standard_structure,
    symplectic_expm,
    symplectic_inverse,
    symplectic_residual,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # symplectic
    "StandardStructure", "standard_structure", "omega", "symplectic_residual",
    "symplectic_inverse", "symplectic_expm", "hamiltonian_vector_field_selftest",
    # flows
    "DEFAULT_STEPS", "NEGATIVE_DEFINITE", "POSITIVE_DEFINITE", "INDEFINITE",
    "HessianPath", "SymplecticPath", "integrate", "evaluate", "restrict", "direct_sum",
    # crossings
    "OPEN_OPEN", "RS_HALVES", "Crossing", "IndexValue", "find_crossings",
    "crossing_form", "rs_index",
    # morse
    "IndexReport", "admissible_epsilon", "check_nondegenerate", "morse_index",
    "verify_theorem",
    # models
    "NormalizationCertificate", "Scenario", "sphere_height_scenario",
    "sphere_profile_scenario", "quadratic_scenario", "hofer_lengths",
    "validate_ustilovsky",
    # errors
    "HoferLabError", "DimensionMismatchError", "IntegrationError",
    "CrossingResolutionError", "IrregularCrossingError", "EndpointCrossingError",
    "DegenerateEndpointError", "ScenarioValidationError",
]
