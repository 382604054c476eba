"""Numerical laboratory for Conley-Zehnder/Maslov indices of linearized
Hamiltonian flows and Morse indices of Hofer geodesic scenarios.

The package integrates Psi' = J S(t) Psi with a fourth-order Magnus scheme
whose every step is the exponential of a Hamiltonian matrix to unit
roundoff, so symplectic to rounding; detects crossings with the Maslov cycle
(eigenvalue-1 times) by certifying spans of node intervals crossing-free
from sigma_min(Psi - I) at their ends and root-finding, in the rest, each
eigenangle of the graph unitary that changes sign; reads Robbin-Salamon
indices as the spectral flow of that unitary; and verifies that the
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
    evaluate,
    integrate,
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
    symplectic_residual,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # symplectic
    "StandardStructure", "standard_structure", "omega", "symplectic_residual",
    "symplectic_expm", "hamiltonian_vector_field_selftest",
    # flows
    "DEFAULT_STEPS", "NEGATIVE_DEFINITE", "POSITIVE_DEFINITE", "INDEFINITE",
    "HessianPath", "SymplecticPath", "integrate", "evaluate",
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
