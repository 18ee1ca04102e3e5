"""The error contract of the public surface: malformed input to a public call
raises a ValidationError, ShapeError or InvalidStateError (all SkewuncErrors),
never a raw TypeError, ValueError or AttributeError."""

import numpy as np
import pytest

import skewunc
from skewunc import (
    BipartiteDensityMatrix,
    DensityMatrix,
    EnsembleSpec,
    HermitianOperator,
    ProjectiveBasis,
    anticommutator,
    brute_force_D_qubit,
    commutator,
    compat_L,
    correlation_deficit,
    example_closed_forms,
    fractional_power,
    heisenberg_type_check,
    heisenberg_type_checks,
    herm_eig,
    kron,
    measurement_uncertainty_UN,
    partial_trace,
    pauli,
    pauli_basis,
    product_bound_check,
    quantum_correlation_D,
    random_density,
    random_hermitian,
    random_unitary,
    skew_information_I,
    skew_information_J,
    sum_bound_check,
    uncertainty_U,
    variance,
    werner_isotropic,
    werner_swap,
)
from skewunc.bounds import memory_bounds
from skewunc.errors import InvalidStateError, ShapeError, ValidationError
from skewunc.skew import SkewEngine

RHO = werner_swap(0.3)
MONO = RHO.reduced()
X, Z = pauli("x"), pauli("z")
BX, BZ = pauli_basis("x"), pauli_basis("z")
SPEC = EnsembleSpec("full_rank", 2, 1)
RAGGED = [[1, 0], [0]]
ARRAY = np.eye(2) / 2

# (public name, call with one malformed input)
CASES = [
    ("DensityMatrix", lambda: DensityMatrix(RAGGED)),
    ("DensityMatrix", lambda: DensityMatrix("abc")),
    ("DensityMatrix", lambda: DensityMatrix.stack([ARRAY, RAGGED])),
    ("DensityMatrix", lambda: DensityMatrix.stack(["ab", "cd"])),
    ("DensityMatrix", lambda: DensityMatrix.stack(None)),
    ("HermitianOperator", lambda: HermitianOperator(RAGGED)),
    ("HermitianOperator", lambda: HermitianOperator("abc")),
    ("HermitianOperator", lambda: HermitianOperator([["a", 0], [0, 1]])),
    ("BipartiteDensityMatrix", lambda: BipartiteDensityMatrix(RHO.mat, "2", 2)),
    ("BipartiteDensityMatrix", lambda: BipartiteDensityMatrix(RHO.mat, None, 2)),
    ("BipartiteDensityMatrix", lambda: BipartiteDensityMatrix.stack([RHO.mat] * 2, 2.0, 2)),
    ("ProjectiveBasis", lambda: ProjectiveBasis(RAGGED)),
    ("ProjectiveBasis", lambda: ProjectiveBasis("abc")),
    ("kron", lambda: kron(RAGGED, ARRAY)),
    ("kron", lambda: kron(ARRAY, "abc")),
    ("herm_eig", lambda: herm_eig(ARRAY)),
    ("fractional_power", lambda: fractional_power(ARRAY, 0.5)),
    ("fractional_power", lambda: fractional_power(MONO, "0.5")),
    ("partial_trace", lambda: partial_trace(MONO, "A")),
    ("commutator", lambda: commutator(X, ARRAY)),
    ("anticommutator", lambda: anticommutator(ARRAY, X)),
    ("skew_information_I", lambda: skew_information_I(MONO, ARRAY, 0.5)),
    ("skew_information_I", lambda: skew_information_I(ARRAY, X, 0.5)),
    ("skew_information_J", lambda: skew_information_J(MONO, ARRAY, 0.5)),
    ("uncertainty_U", lambda: uncertainty_U(MONO, X, None)),
    ("variance", lambda: variance(MONO, ARRAY)),
    ("compat_L", lambda: compat_L(MONO, BX.projector(0), ARRAY, 0.5)),
    ("measurement_uncertainty_UN", lambda: measurement_uncertainty_UN(MONO, ARRAY, 0.5)),
    ("measurement_uncertainty_UN", lambda: measurement_uncertainty_UN(ARRAY, BX, 0.5)),
    ("measurement_uncertainty_UN", lambda: measurement_uncertainty_UN(RHO, BX, 0.5, 2.0)),
    ("SkewEngine.pairs", lambda: SkewEngine(RHO, werner_swap(0.4)).pairs(X.mat, (0.5,))),
    ("SkewEngine.pair", lambda: SkewEngine(MONO).pair(X, 0.5)),
    ("heisenberg_type_check", lambda: heisenberg_type_check(MONO, ARRAY, Z, 0.5)),
    ("heisenberg_type_checks", lambda: heisenberg_type_checks(MONO, X, Z, (0.5, "x"))),
    ("heisenberg_type_checks", lambda: heisenberg_type_checks(ARRAY, X, Z, (0.5,))),
    ("heisenberg_type_checks", lambda: heisenberg_type_checks(MONO, X, Z, 0.5)),
    ("heisenberg_type_checks", lambda: heisenberg_type_checks(MONO, X, Z, "0.5")),
    ("product_bound_check", lambda: product_bound_check(RHO, BX, BZ, 0.5, "abc")),
    ("product_bound_check", lambda: product_bound_check(RHO, BX, BZ, 0.5, None)),
    ("product_bound_check", lambda: product_bound_check(RHO, BX, BZ, 0.5, 1j)),
    ("product_bound_check", lambda: product_bound_check(RHO, ARRAY, BZ, 0.5, 0.0)),
    ("product_bound_check", lambda: product_bound_check(MONO, BX, BZ, 0.5, 0.0)),
    ("sum_bound_check", lambda: sum_bound_check(RHO, BX, BZ, 0.5, float("nan"))),
    ("memory_bounds", lambda: memory_bounds(RHO, BX, BZ, 0.5, "abc")),
    ("memory_bounds", lambda: memory_bounds(RHO, BX, BZ, 0.5, None)),
    ("memory_bounds", lambda: memory_bounds(RHO, BX, BZ, 0.5, 1j)),
    ("memory_bounds", lambda: memory_bounds(MONO, BX, BZ, 0.5, 0.0)),
    ("example_closed_forms", lambda: example_closed_forms(1, "sum", None, 0.5)),
    ("example_closed_forms", lambda: example_closed_forms(3, "product", "0.5", 0.5)),
    ("example_closed_forms", lambda: example_closed_forms(1, "sum", 10**400, 0.5)),
    ("correlation_deficit", lambda: correlation_deficit(RHO, ARRAY, 0.5)),
    ("correlation_deficit", lambda: correlation_deficit(MONO, BX, 0.5)),
    ("quantum_correlation_D", lambda: quantum_correlation_D(MONO, 0.5)),
    ("quantum_correlation_D", lambda: quantum_correlation_D(RHO, 0.5, seed=1.0)),
    ("brute_force_D_qubit", lambda: brute_force_D_qubit(MONO, 0.5)),
    ("brute_force_D_qubit", lambda: brute_force_D_qubit(None, 0.5)),
    ("pauli", lambda: pauli([])),
    ("pauli_basis", lambda: pauli_basis([])),
    ("werner_swap", lambda: werner_swap("abc")),
    ("werner_swap", lambda: werner_swap([0.1, None])),
    ("werner_swap", lambda: werner_swap([[0.1], [0.2, 0.3]])),
    ("werner_isotropic", lambda: werner_isotropic(True)),
    ("EnsembleSpec", lambda: EnsembleSpec("full_rank", 2, "1")),
    ("EnsembleSpec", lambda: EnsembleSpec("fixed_rank", 4, 1, rank=1.5)),
    ("random_density", lambda: random_density(SPEC, -1)),
    ("random_density", lambda: random_density(None)),
    ("random_hermitian", lambda: random_hermitian(-1, 0)),
    ("random_hermitian", lambda: random_hermitian(1.5, 0)),
    ("random_hermitian", lambda: random_hermitian(2, None)),
    ("random_hermitian", lambda: random_hermitian(2, -1)),
    ("random_unitary", lambda: random_unitary(None, 0)),
    ("random_unitary", lambda: random_unitary(2, 0, float("nan"))),
    # the sequence-of-indices forms: each index an integer >= 0, the
    # sequence flat and nonempty
    ("random_density", lambda: random_density(SPEC, [0, 1])),
    ("random_hermitian", lambda: random_hermitian(2, 0, [0, -1])),
    ("random_hermitian", lambda: random_hermitian(2, 0, [0, True])),
    ("random_hermitian", lambda: random_hermitian(2, 0, [0, 1.0])),
    ("random_hermitian", lambda: random_hermitian(2, 0, [[0, 1], [2]])),
    ("random_hermitian", lambda: random_hermitian(2, 0, [])),
    ("random_unitary", lambda: random_unitary(2, 0, (0, -1))),
    ("random_unitary", lambda: random_unitary(2, 0, (True,))),
    ("random_unitary", lambda: random_unitary(2, 0, np.array([0.0, 1.0]))),
    ("random_unitary", lambda: random_unitary(2, 0, [[0, 1], [2]])),
    ("random_unitary", lambda: random_unitary(2, 0, range(0))),
]

# Names that take no malformed input: exceptions, constants, result
# dataclasses, and a factory without parameters.
EXEMPT = {
    "ConfigError", "InvalidStateError", "NumericalConsistencyError", "OptimizerError",
    "ShapeError", "SkewuncError", "SolverError", "ValidationError",
    "ISOTROPIC_SEPARABLE_MAX_P",
    "BoundReport", "CorrelationResult", "SkewPair", "SpectralDecomposition",
    "example2_state",
}


@pytest.mark.parametrize("name, call", CASES, ids=[
    f"{name}-{[n for n, _ in CASES[:k]].count(name)}" for k, (name, _) in enumerate(CASES)])
def test_malformed_input_raises_a_typed_error(name, call):
    with pytest.raises(ValidationError) as err:
        call()
    assert type(err.value) in (ValidationError, ShapeError, InvalidStateError)


def test_every_public_name_has_rows_or_is_exempt():
    covered = {name.split(".")[0] for name, _ in CASES}
    assert sorted(set(skewunc.__all__) - covered - EXEMPT) == []
    assert sorted(covered & EXEMPT) == []
