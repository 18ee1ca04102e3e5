"""State factories, Pauli bases, and the seeded random ensembles."""

import numpy as np
import pytest

from skewunc.errors import ValidationError
from skewunc.linalg import BipartiteDensityMatrix, DensityMatrix, kron
from skewunc.states import (
    ISOTROPIC_SEPARABLE_MAX_P,
    EnsembleSpec,
    child_rng,
    example2_state,
    pauli,
    pauli_basis,
    random_densities,
    random_density,
    random_hermitian,
    random_unitary,
    stream_words,
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


@pytest.mark.parametrize("kind, dims, seed, rank", [
    ("full_rank", 2, -1, None), ("full_rank", 2, 1.5, None),
    ("full_rank", 2, True, None), ("full_rank", True, 1, None),
    ("full_rank", 2.5, 1, None), ("full_rank", 0, 1, None),
    ("product", (2, 2.5), 1, None), ("product", (2, 0), 1, None),
    ("product", (2, 2, 2), 1, None), ("fixed_rank", 4, 1, 2.5),
    ("fixed_rank", 4, 1, True),
])
def test_spec_rejects_settings_it_cannot_draw(kind, dims, seed, rank):
    # each used to fail at the draw with a raw numpy error, or to draw
    # something else (1x1 states for dims=True, seed 1 for seed=1.5)
    with pytest.raises(ValidationError):
        EnsembleSpec(kind, dims, seed, rank=rank)


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


# --- block draws -------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 3, 2**130 + 5])
def test_stream_words_are_seed_sequence_state_words(seed):
    # 2**128 + 3 and beyond carry more entropy words than the pool of 4; an
    # index from 2**32 on is two spawn words, mixed in the same block
    indices = [0, 1, 2**32 - 1, 2**32, 2**32 + 5, 17, 2**64 + 3]
    words = stream_words(seed, indices)
    assert words.shape == (len(indices), 4) and words.dtype == np.uint64
    for i, row in zip(indices, words):
        ref = np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)
        assert np.array_equal(row, ref), i
        assert np.array_equal(stream_words(seed, i), ref)


@pytest.mark.parametrize("seed, index", [(-1, 0), (1.0, 0), (0, -1), (0, [0, -1]),
                                         (0, []), (0, [True]), (0, 2.0)])
def test_stream_words_refuse_what_seed_sequence_cannot_take(seed, index):
    with pytest.raises(ValidationError):
        stream_words(seed, index)


def test_child_rng_is_the_seed_sequence_stream():
    for seed, i in ((0, 0), (42, 7), (2**40, 2**33)):
        ref = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
        assert np.array_equal(child_rng(seed, i).random(9), ref.random(9))
    block = child_rng(42, [3, 4])
    assert [rng.random() for rng in block] == [child_rng(42, i).random() for i in (3, 4)]


_BIPARTITE = {4: (2, 2), 6: (2, 3), 8: (2, 4)}


def _specs(d: int, seed: int) -> list[EnsembleSpec]:
    specs = [EnsembleSpec("full_rank", d, seed), EnsembleSpec("pure", d, seed + 1),
             EnsembleSpec("fixed_rank", d, seed + 2, rank=max(1, d - 1))]
    if d in _BIPARTITE:
        specs += [EnsembleSpec(kind, _BIPARTITE[d], seed + 3 + k) for k, kind in
                  enumerate(("product", "classical_quantum", "separable_mixture"))]
    return specs


@pytest.mark.parametrize("n", [1, 7, 100])
@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_block_draws_have_the_bits_of_lone_draws(d, n):
    indices = [5 * k + 3 for k in range(n)]
    for spec in _specs(d, 500 + d):
        for state, i in zip(random_densities(spec, indices), indices, strict=True):
            assert np.array_equal(state.mat, random_density(spec, i).mat), (spec, i)
    for form in (indices, tuple(indices), np.array(indices)):
        hs = random_hermitian(d, 600 + d, form)
        us = random_unitary(d, 700 + d, form)
        assert len(hs) == len(us) == n
        for h, u, i in zip(hs, us, indices):
            assert np.array_equal(h.mat, random_hermitian(d, 600 + d, i).mat)
            assert np.array_equal(u, random_unitary(d, 700 + d, i))
    assert len(random_hermitian(d, 1, range(n))) == n


# The per-index draw code the block draws replaced, kept as the reference:
# one SeedSequence child stream and one Box-Muller pass per draw.

def _old_rng(seed, i):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(i,))))


def _old_complex_gaussian(rng, shape):
    n = int(np.prod(shape))
    u1 = 1.0 - rng.random(n)
    u2 = rng.random(n)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return ((z[:n] + 1j * z[n:]) / np.sqrt(2.0)).reshape(shape)


def _old_ginibre(rng, d, rank):
    g = _old_complex_gaussian(rng, (d, rank))
    m = g @ g.conj().T
    return m / float(np.trace(m).real)


def _old_pure(rng, d):
    v = _old_complex_gaussian(rng, (d,))
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _old_dirichlet(rng, n):
    e = -np.log(1.0 - rng.random(n))
    return e / e.sum()


def _old_draw(spec, i):
    rng, d = _old_rng(spec.seed, i), spec.total_dim
    if spec.kind == "pure":
        return _old_pure(rng, d)
    if spec.kind in ("full_rank", "fixed_rank"):
        return _old_ginibre(rng, d, spec.rank or d)
    da, db = spec.dims
    if spec.kind == "product":
        return np.kron(_old_ginibre(rng, da, da), _old_ginibre(rng, db, db))
    mat = np.zeros((d, d), dtype=np.complex128)
    if spec.kind == "classical_quantum":
        weights = _old_dirichlet(rng, da)
        for k in range(da):
            pk = np.zeros((da, da), dtype=np.complex128)
            pk[k, k] = 1.0
            mat += weights[k] * np.kron(pk, _old_ginibre(rng, db, db))
        return mat
    weights = _old_dirichlet(rng, da * db)
    for k in range(da * db):
        mat += weights[k] * np.kron(_old_pure(rng, da), _old_pure(rng, db))
    return mat


def _old_unitary(d, seed, i):
    q, r = np.linalg.qr(_old_complex_gaussian(_old_rng(seed, i), (d, d)))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
def test_block_draws_have_the_bits_of_the_per_index_code(d):
    indices = range(100)
    for spec in _specs(d, 800 + d):
        for state, i in zip(random_densities(spec, indices), indices, strict=True):
            assert np.array_equal(state.mat, _old_draw(spec, i)), (spec, i)
    for h, i in zip(random_hermitian(d, 900 + d, indices), indices, strict=True):
        g = _old_complex_gaussian(_old_rng(900 + d, i), (d, d))
        assert np.array_equal(h.mat, 0.5 * (g + g.conj().T))
    for u, i in zip(random_unitary(d, 950 + d, indices), indices, strict=True):
        assert np.array_equal(u, _old_unitary(d, 950 + d, i))
