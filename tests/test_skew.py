"""Skew information, its dual, the geometric-mean uncertainty, per-basis
uncertainty sums, and the compatibility term."""

import numpy as np
import pytest
import scipy.linalg

from skewunc.errors import ShapeError, ValidationError
from skewunc.linalg import DensityMatrix, HermitianOperator
from skewunc.skew import (
    ProjectiveBasis,
    SkewEngine,
    compat_L,
    engine,
    measurement_uncertainty_UN,
    measurement_uncertainty_terms,
    skew_information_I,
    skew_information_J,
    skew_information_via_powers,
    uncertainty_U,
    variance,
)
from skewunc.states import (
    EnsembleSpec,
    pauli,
    pauli_basis,
    random_density,
    random_hermitian,
    werner_swap,
)

RHO_D = DensityMatrix(np.diag([0.75, 0.25]))
PURE0 = DensityMatrix(np.diag([1.0, 0.0]))


# --- skew information --------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_i_maximally_mixed_is_zero(alpha):
    rho = DensityMatrix(np.eye(3) / 3)
    h = random_hermitian(3, seed=1)
    assert skew_information_I(rho, h, alpha) == 0.0


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_i_pure_state_equals_variance(alpha):
    assert skew_information_I(PURE0, pauli("x"), alpha) == pytest.approx(1.0, abs=1e-12)


def test_i_hand_value():
    got = skew_information_I(RHO_D, pauli("x"), 0.5)
    assert got == pytest.approx(1.0 - np.sqrt(3) / 2, abs=1e-12)


def test_j_hand_value():
    got = skew_information_J(RHO_D, pauli("x"), 0.5)
    assert got == pytest.approx(1.0 + np.sqrt(3) / 2, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.15, 0.5, 0.75])
def test_j_commuting_pure_state_is_zero(alpha):
    assert skew_information_J(PURE0, pauli("z"), alpha) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.1, 0.4, 0.9])
def test_j_maximally_mixed_pauli(alpha):
    rho = DensityMatrix(np.eye(2) / 2)
    assert skew_information_J(rho, pauli("z"), alpha) == pytest.approx(2.0, abs=1e-12)


def test_dimension_mismatch():
    with pytest.raises(ShapeError):
        skew_information_I(RHO_D, HermitianOperator(np.eye(3)), 0.5)


def test_unvalidated_operator_is_not_scored_as_a_state():
    # the spectrum is checked once, by DensityMatrix; an operator that skipped
    # that check is refused, not clipped
    with pytest.raises(ValidationError):
        skew_information_I(HermitianOperator(np.diag([1.5, -0.5])), pauli("x"), 0.5)


def test_alpha_out_of_range():
    with pytest.raises(ValidationError):
        skew_information_I(RHO_D, pauli("x"), -0.1)


# --- uncertainty pair --------------------------------------------------------

def test_u_exact_half():
    pair = uncertainty_U(RHO_D, pauli("x"), 0.5)
    assert pair.u_alpha == pytest.approx(0.5, abs=1e-12)
    assert pair.u_alpha**2 == pytest.approx(pair.i_alpha * pair.j_alpha, abs=1e-9)


def test_u_pure_state_is_variance():
    for i in range(20):
        rho = random_density(EnsembleSpec("pure", 3, 21), index=i)
        h = random_hermitian(3, seed=22, index=i)
        pair = uncertainty_U(rho, h, 0.3)
        assert pair.u_alpha == pytest.approx(variance(rho, h), abs=1e-9)


def test_u_maximally_mixed_is_zero():
    rho = DensityMatrix(np.eye(4) / 4)
    assert uncertainty_U(rho, random_hermitian(4, seed=3), 0.4).u_alpha == 0.0


# --- measurement uncertainty -------------------------------------------------

def test_un_maximally_mixed():
    rho = DensityMatrix(np.eye(2) / 2)
    assert measurement_uncertainty_UN(rho, pauli_basis("x"), 0.3) == 0.0


def test_un_commuting_basis():
    assert measurement_uncertainty_UN(PURE0, pauli_basis("z"), 0.6) == pytest.approx(
        0.0, abs=1e-12)


def test_un_embedded_werner_edge():
    # singlet end of the swap-Werner family: both closed-form factors are 1/4,
    # so the embedded x-basis uncertainty sum is 2 * sqrt(1/16) = 1/2
    rho = werner_swap(-1.0)
    got = measurement_uncertainty_UN(rho, pauli_basis("x"), 0.3, memory_dim=2)
    assert got == pytest.approx(0.5, abs=1e-10)


def test_un_terms_match_sum():
    rho = werner_swap(0.3)
    terms = measurement_uncertainty_terms(rho, pauli_basis("z"), 0.4, memory_dim=2)
    total = measurement_uncertainty_UN(rho, pauli_basis("z"), 0.4, memory_dim=2)
    assert total == pytest.approx(sum(t.u_alpha for t in terms), abs=1e-14)
    assert all(t.j_alpha >= t.i_alpha >= 0.0 for t in terms)


def test_un_dimension_validation():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ShapeError):
        measurement_uncertainty_UN(rho, pauli_basis("x"), 0.5, memory_dim=2)
    with pytest.raises(ValidationError):
        measurement_uncertainty_UN(rho, pauli_basis("x"), 0.5, memory_dim=0)


# --- projective basis --------------------------------------------------------

def test_basis_validates_orthonormality():
    with pytest.raises(ValidationError):
        ProjectiveBasis(np.array([[1.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "nan_imag"])
def test_basis_rejects_non_finite_entries(entry):
    with pytest.raises(ValidationError):
        ProjectiveBasis(np.array([[entry, 0.0], [0.0, 1.0]]))


def test_basis_rejects_empty_input():
    with pytest.raises(ShapeError):
        ProjectiveBasis(np.zeros((0, 0)))


def test_basis_projectors_resolve_identity():
    b = pauli_basis("y")
    total = b.projector_stack.sum(axis=0)
    assert np.allclose(total, np.eye(2))


# --- compatibility term ------------------------------------------------------

def test_compat_commuting_projectors():
    b = pauli_basis("z")
    assert compat_L(RHO_D, b.projector(0), b.projector(1), 0.3) == 0.0


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_compat_vanishes_at_alpha_endpoints(alpha):
    phi = pauli_basis("x").projector(0)
    psi = pauli_basis("z").projector(0)
    assert compat_L(RHO_D, phi, psi, alpha) == 0.0


def test_compat_maximally_mixed_reduced_state():
    rho = DensityMatrix(np.eye(2) / 2)
    phi = pauli_basis("x").projector(0)
    psi = pauli_basis("z").projector(0)
    # trace of a commutator against the identity vanishes
    assert compat_L(rho, phi, psi, 0.4) == pytest.approx(0.0, abs=1e-30)


def test_compat_nonzero_generic():
    # [x-projector, z-projector] is proportional to sigma_y, so the state
    # needs a y component for a nonvanishing trace
    rho = DensityMatrix(0.5 * (np.eye(2) + 0.5 * pauli("y").mat))
    phi = pauli_basis("x").projector(0)
    psi = pauli_basis("z").projector(0)
    assert compat_L(rho, phi, psi, 0.5) > 1e-4


def test_compat_rejects_non_projector():
    with pytest.raises(ValidationError):
        compat_L(RHO_D, pauli("x"), pauli_basis("z").projector(0), 0.5)


# --- structural properties ---------------------------------------------------

def test_ordering_and_symmetry_random():
    for i in range(60):
        d = (2, 3, 4)[i % 3]
        rho = random_density(EnsembleSpec("full_rank", d, 31), index=i)
        h = random_hermitian(d, seed=32, index=i)
        alpha = (0.1, 0.35, 0.5, 0.8)[i % 4]
        iv = skew_information_I(rho, h, alpha)
        jv = skew_information_J(rho, h, alpha)
        assert jv >= iv >= 0.0
        assert iv == pytest.approx(skew_information_I(rho, h, 1 - alpha), abs=1e-10)
        assert jv == pytest.approx(skew_information_J(rho, h, 1 - alpha), abs=1e-10)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_i_weights_symmetric_and_exactly_zero_at_alpha_endpoints(alpha):
    # rho^0 of a full-rank state is the identity, so at alpha 0 and 1 the
    # skew information vanishes for every observable: each pair weight must
    # cancel exactly, not up to rounding
    for i in range(12):
        rho = random_density(EnsembleSpec("full_rank", (2, 3, 4)[i % 3], 61), index=i)
        (w,), _ = SkewEngine(rho).weights((alpha,))
        assert np.array_equal(w, w.T)
        assert not np.any(w)
        assert skew_information_I(rho, random_hermitian(rho.dim, 62, index=i), alpha) == 0.0


def test_engine_is_shared_per_state_and_alpha():
    # one engine per state; its weights are kept per alpha tuple
    rho = random_density(EnsembleSpec("full_rank", 3, 63))
    assert engine(rho) is engine(rho)
    assert engine(rho) is not engine(DensityMatrix(rho.mat))
    assert engine(rho).weights((0.3,)) is engine(rho).weights((0.3,))
    assert engine(rho).weights((0.3,)) is not engine(rho).weights((0.7,))
    for w in engine(rho).weights((0.3, 0.7)):
        with pytest.raises(ValueError):
            w[0, 0, 0] = 1.0


def test_agrees_with_sqrtm_route_at_half():
    for i in range(30):
        rho = random_density(EnsembleSpec("full_rank", 3, 41), index=i)
        h = random_hermitian(3, seed=42, index=i)
        root = scipy.linalg.sqrtm(rho.mat)
        direct = float((np.trace(rho.mat @ h.mat @ h.mat)
                        - np.trace(root @ h.mat @ root @ h.mat)).real)
        assert skew_information_I(rho, h, 0.5) == pytest.approx(direct, abs=1e-10)


def test_agrees_with_power_route():
    for i in range(30):
        rho = random_density(EnsembleSpec("full_rank", 4, 51), index=i)
        h = random_hermitian(4, seed=52, index=i)
        alpha = (0.2, 0.5, 0.7)[i % 3]
        assert skew_information_I(rho, h, alpha) == pytest.approx(
            skew_information_via_powers(rho, h, alpha), abs=1e-10)
