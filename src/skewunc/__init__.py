"""skewunc: skew-information uncertainty bounds for bipartite quantum states.

Core quantities (module ``skew``), the quantum-correlation minimization
(``correlation``), the bound checkers (``bounds``), state factories
(``states``), and the sweep / property-check CLI (``cli``).
"""

from .bounds import (
    BoundReport,
    example_closed_forms,
    heisenberg_type_check,
    heisenberg_type_checks,
    product_bound_check,
    sum_bound_check,
)
from .correlation import (
    CorrelationResult,
    OptimizerConfig,
    brute_force_D_qubit,
    correlation_deficit,
    quantum_correlation_D,
)
from .errors import (
    ConfigError,
    InvalidStateError,
    NumericalConsistencyError,
    OptimizerError,
    ShapeError,
    SkewuncError,
    SolverError,
    ValidationError,
)
from .linalg import (
    BipartiteDensityMatrix,
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    anticommutator,
    commutator,
    fractional_power,
    herm_eig,
    kron,
    partial_trace,
)
from .skew import (
    ProjectiveBasis,
    SkewPair,
    compat_L,
    measurement_uncertainty_UN,
    skew_information_I,
    skew_information_J,
    uncertainty_U,
    variance,
)
from .states import (
    ISOTROPIC_SEPARABLE_MAX_P,
    EnsembleSpec,
    example2_state,
    pauli,
    pauli_basis,
    random_density,
    random_hermitian,
    random_unitary,
    werner_isotropic,
    werner_swap,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteDensityMatrix",
    "BoundReport",
    "ConfigError",
    "CorrelationResult",
    "DensityMatrix",
    "EnsembleSpec",
    "HermitianOperator",
    "ISOTROPIC_SEPARABLE_MAX_P",
    "InvalidStateError",
    "NumericalConsistencyError",
    "OptimizerConfig",
    "OptimizerError",
    "ProjectiveBasis",
    "ShapeError",
    "SkewPair",
    "SkewuncError",
    "SolverError",
    "SpectralDecomposition",
    "ValidationError",
    "anticommutator",
    "brute_force_D_qubit",
    "commutator",
    "compat_L",
    "correlation_deficit",
    "example2_state",
    "example_closed_forms",
    "fractional_power",
    "heisenberg_type_check",
    "heisenberg_type_checks",
    "herm_eig",
    "kron",
    "measurement_uncertainty_UN",
    "partial_trace",
    "pauli",
    "pauli_basis",
    "product_bound_check",
    "quantum_correlation_D",
    "random_density",
    "random_hermitian",
    "random_unitary",
    "skew_information_I",
    "skew_information_J",
    "sum_bound_check",
    "uncertainty_U",
    "variance",
    "werner_isotropic",
    "werner_swap",
]
