"""Validated operator types, eigendecomposition, powers, and tensor algebra."""

import re
from pathlib import Path

import numpy as np
import pytest

import skewunc
from skewunc.errors import (
    InvalidStateError,
    ShapeError,
    ValidationError,
)
from skewunc.linalg import (
    BipartiteDensityMatrix,
    DensityMatrix,
    HermitianOperator,
    anticommutator,
    commutator,
    fractional_power,
    herm_eig,
    kron,
    partial_trace,
    stacked_kron,
)
from skewunc.states import EnsembleSpec, pauli, random_density, random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def bell_state() -> BipartiteDensityMatrix:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return BipartiteDensityMatrix(np.outer(v, v.conj()), 2, 2)


# --- type validation ---------------------------------------------------------

def test_hermitian_rejects_non_square():
    with pytest.raises(ShapeError):
        HermitianOperator(np.ones((2, 3)))


def test_hermitian_rejects_nan():
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[np.nan, 0], [0, 1.0]]))


def test_hermitian_rejects_drift():
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[1.0, 1e-6], [0.0, 1.0]]))


def test_density_rejects_bad_trace():
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.diag([0.6, 0.6]))


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.diag([1.1, -0.1]))


def test_bipartite_requires_consistent_factors():
    with pytest.raises(ShapeError):
        BipartiteDensityMatrix(np.eye(4) / 4, 2, 3)


def test_operator_matrix_is_read_only():
    op = HermitianOperator(SX)
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0


# --- herm_eig ----------------------------------------------------------------

def test_eig_diagonal_matrix():
    dec = herm_eig(HermitianOperator(np.diag([1.0, 2.0])))
    assert np.allclose(dec.eigenvalues, [1.0, 2.0])
    assert np.allclose(dec.eigenvectors, np.eye(2))


def test_eig_pauli_x_spectrum():
    dec = herm_eig(HermitianOperator(SX))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
    s = 1 / np.sqrt(2)
    # canonical phase: largest-magnitude component real positive
    assert np.allclose(dec.eigenvectors[:, 0], [s, -s])
    assert np.allclose(dec.eigenvectors[:, 1], [s, s])


def test_eig_reconstruction_random():
    for i in range(1000):
        h = random_hermitian((2, 3, 4, 6)[i % 4], seed=5, index=i)
        dec = herm_eig(h)
        assert np.max(np.abs(dec.reconstruct() - h.mat)) < 1e-10
        assert np.max(np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors
                             - np.eye(h.dim))) < 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_eig_solver_failure_carries_input_hash(monkeypatch):
    from skewunc.errors import SolverError

    def explode(_):
        raise np.linalg.LinAlgError("did not converge")

    mats = [random_density(EnsembleSpec("full_rank", 3, 21), index=i).mat for i in range(4)]
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", explode)
    with pytest.raises(SolverError) as err:
        herm_eig(HermitianOperator(SX))
    assert err.value.input_hash is not None

    def explode_on_state_2(a):
        # any stack holding state 2 fails, state 2 alone included
        if any(np.array_equal(m, mats[2]) for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", explode_on_state_2)
    with pytest.raises(SolverError) as alone:
        DensityMatrix(mats[2])
    with pytest.raises(SolverError) as stacked:
        DensityMatrix.stack(mats)
    assert stacked.value.input_hash == alone.value.input_hash is not None
    assert str(stacked.value) == str(alone.value)
    # a stack whose states all decompose alone is built one state at a time
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: explode(a) if a.ndim > 2 and len(a) > 1 else eigh(a))
    for state, mat in zip(DensityMatrix.stack(mats), mats):
        dec = herm_eig(HermitianOperator(mat))
        assert np.array_equal(state.spectral().eigenvectors, dec.eigenvectors)
        assert np.array_equal(state.spectral().eigenvalues, dec.eigenvalues)


_GOOD = np.diag([0.7, 0.3]).astype(complex)


@pytest.mark.parametrize("bad, error", [
    (np.array([[np.nan, 0], [0, 1.0]]), ValidationError),
    (np.array([[0.5, 1e-6], [0.0, 0.5]]), ValidationError),
    (np.diag([0.6, 0.6]), InvalidStateError),
    (np.diag([1.1, -0.1]), InvalidStateError),
], ids=["nan", "not_hermitian", "trace", "negative"])
def test_stack_raises_the_error_of_its_failing_state(bad, error):
    with pytest.raises(error) as alone:
        DensityMatrix(bad)
    with pytest.raises(error) as stacked:
        DensityMatrix.stack([_GOOD, _GOOD, bad, _GOOD])
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)
    # building in order, the first failing state's error comes first
    with pytest.raises(InvalidStateError, match="trace is"):
        DensityMatrix.stack([_GOOD, np.diag([0.6, 0.6]), bad])
    with pytest.raises(error) as joint:
        BipartiteDensityMatrix.stack([np.kron(_GOOD, _GOOD), np.kron(bad, _GOOD)], 2, 2)
    with pytest.raises(error) as joint_alone:
        BipartiteDensityMatrix(np.kron(bad, _GOOD), 2, 2)
    assert str(joint.value) == str(joint_alone.value)


def test_stack_shapes_are_checked():
    assert DensityMatrix.stack([]) == []
    with pytest.raises(ShapeError):
        DensityMatrix.stack(_GOOD)
    with pytest.raises(ShapeError, match="do not match"):
        BipartiteDensityMatrix.stack([np.eye(4) / 4] * 2, 2, 3)
    with pytest.raises(ShapeError, match="square"):
        DensityMatrix.stack(np.ones((2, 2, 3)))


def test_state_checks_come_before_the_factor_check():
    # not Hermitian and mis-factored: alone or in a stack, the state's own
    # check speaks first
    bad = np.kron(np.array([[0.5, 1e-6], [0.0, 0.5]]), _GOOD)
    for build in (lambda: BipartiteDensityMatrix(bad, 2, 3),
                  lambda: BipartiteDensityMatrix.stack([bad], 2, 3)):
        with pytest.raises(ValidationError, match="not Hermitian") as err:
            build()
        assert type(err.value) is ValidationError


def test_every_call_form_builds_the_same_state():
    mat = np.kron(_GOOD, _GOOD)
    want = BipartiteDensityMatrix(mat, 2, 2)
    for rho in (BipartiteDensityMatrix(mat, d_A=2, d_B=2), BipartiteDensityMatrix(mat, 2, d_B=2),
                *BipartiteDensityMatrix.stack([mat], 2, 2)):
        assert (rho.d_A, rho.d_B, rho._reduced) == (2, 2, None)
        assert np.array_equal(rho.spectral().eigenvectors, want.spectral().eigenvectors)
    tilted = np.diag([1.0 + 1e-9, -1e-9])
    with pytest.raises(InvalidStateError):
        DensityMatrix(tilted)
    for rho in (DensityMatrix(tilted, 1e-8), DensityMatrix(tilted, psd_tol=1e-8)):
        assert rho.spectral().eigenvalues[0] < 0
    # only a state holds a spectrum
    assert not hasattr(HermitianOperator(SX), "spectral")


def test_eig_deterministic_and_canonical_for_degenerate_input():
    # eigenvalue 1/2 twice: canonical basis must come out of the projections
    rho = HermitianOperator(np.eye(2) / 2)
    dec1 = herm_eig(rho)
    dec2 = herm_eig(HermitianOperator(np.eye(2) / 2))
    assert np.array_equal(dec1.eigenvectors, dec2.eigenvectors)
    assert np.allclose(dec1.eigenvectors, np.eye(2))
    proj = HermitianOperator(np.diag([1.0, 1.0, 0.0]))
    dec = herm_eig(proj)
    assert np.max(np.abs(dec.reconstruct() - proj.mat)) < 1e-12


# --- fractional_power --------------------------------------------------------

def test_fractional_power_scalar_matrix():
    rho = DensityMatrix(np.eye(2) / 2)
    out = fractional_power(rho, 0.5)
    assert np.allclose(out.mat, np.eye(2) / np.sqrt(2))


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
def test_fractional_power_pure_state_idempotent(alpha):
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    out = fractional_power(rho, alpha)
    # 1**a = 1 and 0**a = 0 for every a, including a = 0 (support convention)
    assert np.allclose(out.mat, np.diag([1.0, 0.0]))


def test_fractional_power_hand_spectrum():
    rho = DensityMatrix(np.diag([0.75, 0.25]))
    out = fractional_power(rho, 0.5)
    assert np.allclose(out.mat, np.diag([np.sqrt(3) / 2, 0.5]))


def test_fractional_power_support_projector_at_zero():
    rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
    out = fractional_power(rho, 0.0)
    assert np.allclose(out.mat, np.diag([1.0, 1.0, 0.0]))


def test_fractional_power_rejects_bad_alpha():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValidationError):
        fractional_power(rho, 1.5)


def test_deep_negative_eigenvalue_is_rejected_when_the_state_is_built():
    # the state's spectrum is checked once, at construction
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.diag([1.001, -0.001]))


def test_fractional_power_pair_recovers_state():
    for i in range(50):
        rho = random_density(EnsembleSpec("full_rank", 4, 9), index=i)
        alpha = (0.1, 0.3, 0.5, 0.8)[i % 4]
        prod = fractional_power(rho, alpha).mat @ fractional_power(rho, 1 - alpha).mat
        assert np.max(np.abs(prod - rho.mat)) < 1e-9


# --- kron and partial_trace --------------------------------------------------

def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_sigma_z_identity():
    assert np.allclose(kron(SZ, np.eye(2)), np.diag([1, 1, -1, -1]))


def test_kron_block_structure():
    p0 = np.diag([1.0, 0.0])
    out = kron(p0, SX)
    assert np.allclose(out[:2, :2], SX)
    assert np.allclose(out[2:, 2:], 0.0)


def test_stacked_kron_is_kron_over_broadcast_leading_axes():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    b = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    out = stacked_kron(a, b)
    assert out.shape == (3, 6, 6)
    for k in range(3):   # np.kron: kron is stacked_kron of one pair
        assert np.array_equal(out[k], np.kron(a[k], b[k]))
    # a lone factor serves every matrix of the other's stack, either side
    assert np.array_equal(stacked_kron(a[0], b)[2], stacked_kron(a[:1], b[2])[0])
    assert np.array_equal(stacked_kron(a[1], np.eye(3)), np.kron(a[1], np.eye(3)))


@pytest.mark.parametrize("d_a", [1, 2, 3, 4, 5])
def test_kron_has_the_bits_of_np_kron(d_a):
    rng = np.random.default_rng(d_a)
    for d_b in range(1, 6):
        a = rng.normal(size=(d_a, d_a)) + 1j * rng.normal(size=(d_a, d_a))
        b = rng.normal(size=(d_b, d_b)) + 1j * rng.normal(size=(d_b, d_b))
        for x, y in ((a, b), (a.real, b), (1e-300 * a, 1e300 * b), (-0.0 * a, b)):
            want = np.kron(np.asarray(x, np.complex128), np.asarray(y, np.complex128))
            assert np.array_equal(kron(x, y).view(np.float64), want.view(np.float64))


def test_partial_trace_product_state():
    a = random_density(EnsembleSpec("full_rank", 2, 3))
    b = random_density(EnsembleSpec("full_rank", 3, 4))
    joint = BipartiteDensityMatrix(kron(a.mat, b.mat), 2, 3)
    assert np.max(np.abs(partial_trace(joint, "A").mat - a.mat)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, "B").mat - b.mat)) < 1e-12


def test_partial_trace_bell_state():
    assert np.allclose(partial_trace(bell_state(), "A").mat, np.eye(2) / 2)


def test_partial_trace_example2_state():
    from skewunc.states import example2_state

    assert np.allclose(partial_trace(example2_state(), "A").mat, np.eye(2) / 2)
    assert np.allclose(partial_trace(example2_state(), "B").mat, np.eye(2) / 2)


def test_partial_trace_rejects_bad_keep():
    with pytest.raises(ValidationError):
        partial_trace(bell_state(), "C")


# --- commutators -------------------------------------------------------------

def test_commutator_pauli_algebra():
    out = commutator(pauli("x"), pauli("z"))
    assert np.allclose(out, -2j * SY)


def test_commutator_self_is_zero():
    h = random_hermitian(3, seed=2)
    assert np.allclose(commutator(h, h), 0.0)


def test_anticommutator_pauli():
    out = anticommutator(pauli("x"), pauli("z"))
    assert np.allclose(out.mat, 0.0)


def test_commutator_shape_mismatch():
    with pytest.raises(ShapeError):
        commutator(pauli("x"), HermitianOperator(np.eye(3)))


def test_only_linalg_spells_the_composite_index():
    """The row-major layout |i>|j> -> i * d_B + j has one home: no module but
    ``linalg`` holds the broadcast tensor index or a partial-trace ``einsum``
    subscript; the others go through ``kron``, ``stacked_kron`` and ``partial_trace``."""
    spelled = re.compile(r":, None, :, None\]|ijkj|ijil")
    modules = {path.stem for path in Path(skewunc.__file__).parent.glob("*.py")
               if spelled.search(path.read_text(encoding="utf-8"))}
    assert modules == {"linalg"}
