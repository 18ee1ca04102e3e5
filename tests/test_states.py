"""State factories, Pauli bases, and the seeded random ensembles."""

import numpy as np
import pytest

from skewunc.errors import ValidationError
from skewunc.linalg import BipartiteDensityMatrix, DensityMatrix, kron
from skewunc.states import (
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


# --- closed-form families ----------------------------------------------------

def test_werner_swap_midpoint_is_maximally_mixed():
    assert np.array_equal(werner_swap(0.5).mat, np.eye(4) / 4)


def test_werner_swap_singlet_end():
    rho = werner_swap(-1.0)
    w = np.linalg.eigvalsh(rho.mat)
    assert np.allclose(w, [0.0, 0.0, 0.0, 1.0], atol=1e-12)
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert np.allclose(rho.mat, np.outer(singlet, singlet), atol=1e-12)


def test_werner_swap_symmetric_end_is_rank_three():
    w = np.linalg.eigvalsh(werner_swap(1.0).mat)
    assert np.allclose(w, [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_werner_swap_spectrum_generic():
    p = 0.37
    w = np.linalg.eigvalsh(werner_swap(p).mat)
    assert np.allclose(sorted(w), sorted([(3 - 3 * p) / 6] + [(1 + p) / 6] * 3))


def test_werner_swap_range_check():
    with pytest.raises(ValidationError):
        werner_swap(1.2)


def test_isotropic_endpoints():
    assert np.allclose(werner_isotropic(0.0).mat, np.eye(4) / 4)
    rho = werner_isotropic(1.0)
    w = np.linalg.eigvalsh(rho.mat)
    assert np.allclose(w, [0, 0, 0, 1], atol=1e-12)


def test_isotropic_separability_boundary_spectrum():
    w = np.linalg.eigvalsh(werner_isotropic(ISOTROPIC_SEPARABLE_MAX_P).mat)
    assert np.allclose(sorted(w), [1 / 6, 1 / 6, 1 / 6, 1 / 2])


def test_isotropic_range_check():
    with pytest.raises(ValidationError):
        werner_isotropic(-0.01)


def test_werner_families_have_maximally_mixed_marginals():
    from skewunc.linalg import partial_trace

    for rho in (werner_swap(0.8), werner_isotropic(0.6)):
        assert np.allclose(partial_trace(rho, "A").mat, np.eye(2) / 2)
        assert np.allclose(partial_trace(rho, "B").mat, np.eye(2) / 2)


def test_example2_structure():
    rho = example2_state()
    assert isinstance(rho, BipartiteDensityMatrix)
    w = np.linalg.eigvalsh(rho.mat)
    assert np.allclose(sorted(w), [0, 0, 0.5, 0.5], atol=1e-12)


# --- Pauli bases -------------------------------------------------------------

def test_pauli_z_basis_is_computational():
    assert np.array_equal(pauli_basis("z").columns, np.eye(2))


def test_pauli_x_basis_is_plus_minus():
    cols = pauli_basis("x").columns
    s = 1 / np.sqrt(2)
    assert np.allclose(cols[:, 0], [s, s])
    assert np.allclose(cols[:, 1], [s, -s])


def test_pauli_bases_are_eigenbases():
    for axis in "xyz":
        cols = pauli_basis(axis).columns
        op = pauli(axis).mat
        for k, ev in ((0, 1.0), (1, -1.0)):
            v = cols[:, k]
            assert np.allclose(op @ v, ev * v)


def test_mutual_overlap_x_z():
    x, z = pauli_basis("x").columns, pauli_basis("z").columns
    overlaps = np.abs(x.conj().T @ z) ** 2
    assert np.allclose(overlaps, 0.5)


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValidationError):
        pauli_basis("w")


# --- random ensembles --------------------------------------------------------

def test_pure_draw_is_rank_one():
    rho = random_density(EnsembleSpec("pure", 4, 7))
    w = np.linalg.eigvalsh(rho.mat)
    assert w[-2] < 1e-10
    assert w[-1] == pytest.approx(1.0, abs=1e-10)


def test_full_rank_draw_is_positive():
    rho = random_density(EnsembleSpec("full_rank", 4, 8))
    assert np.linalg.eigvalsh(rho.mat)[0] > 0.0


def test_fixed_rank_draw():
    rho = random_density(EnsembleSpec("fixed_rank", 4, 9, rank=2))
    w = np.linalg.eigvalsh(rho.mat)
    assert w[1] < 1e-12 and w[2] > 1e-6


def test_draws_are_bit_deterministic():
    spec = EnsembleSpec("full_rank", 3, 123)
    a = random_density(spec, index=5)
    b = random_density(EnsembleSpec("full_rank", 3, 123), index=5)
    assert np.array_equal(a.mat, b.mat)
    c = random_density(spec, index=6)
    assert not np.array_equal(a.mat, c.mat)


def test_product_draw_factorizes():
    from skewunc.linalg import partial_trace

    rho = random_density(EnsembleSpec("product", (2, 3), 10))
    a = partial_trace(rho, "A")
    b = partial_trace(rho, "B")
    assert np.max(np.abs(kron(a.mat, b.mat) - rho.mat)) < 1e-10


def test_classical_quantum_draw_block_structure():
    rho = random_density(EnsembleSpec("classical_quantum", (2, 2), 11))
    # off-diagonal blocks between the classical branches vanish
    assert np.allclose(rho.mat[:2, 2:], 0.0)
    assert np.allclose(rho.mat[2:, :2], 0.0)


def test_separable_mixture_draw_is_valid():
    rho = random_density(EnsembleSpec("separable_mixture", (2, 3), 12))
    assert isinstance(rho, BipartiteDensityMatrix)
    assert rho.d_A == 2 and rho.d_B == 3


def test_monopartite_draw_type():
    rho = random_density(EnsembleSpec("full_rank", 3, 13))
    assert isinstance(rho, DensityMatrix)
    assert not isinstance(rho, BipartiteDensityMatrix)


def test_spec_validation():
    with pytest.raises(ValidationError):
        EnsembleSpec("bogus", 2, 1)
    with pytest.raises(ValidationError):
        EnsembleSpec("product", 4, 1)
    with pytest.raises(ValidationError):
        EnsembleSpec("fixed_rank", 4, 1, rank=9)
    with pytest.raises(ValidationError):
        EnsembleSpec("pure", 4, 1, rank=2)


# --- random operators --------------------------------------------------------

def test_random_unitary_is_unitary_and_deterministic():
    u = random_unitary(5, 99)
    assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-10
    assert np.array_equal(u, random_unitary(5, 99))
    assert not np.array_equal(u, random_unitary(5, 99, index=1))


def test_random_unitary_feeds_projective_basis():
    from skewunc.skew import ProjectiveBasis

    basis = ProjectiveBasis(random_unitary(4, 5))
    assert basis.dim == 4


def test_random_hermitian_is_hermitian():
    h = random_hermitian(4, 17)
    assert np.max(np.abs(h.mat - h.mat.conj().T)) < 1e-14
