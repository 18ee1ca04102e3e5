"""Basis minimization of the measurement deficit: reference evaluation,
multi-start optimizer, and the exact qubit oracle."""

import numpy as np
import pytest

from skewunc.correlation import (
    DeficitEvaluator,
    OptimizerConfig,
    _deficit_and_param_gradient,
    _qubit_vectors,
    _unitary_from_params,
    brute_force_D_qubit,
    correlation_deficit,
    quantum_correlation_D,
)
from skewunc.errors import ShapeError, ValidationError
from skewunc.linalg import BipartiteDensityMatrix, kron, partial_trace
from skewunc.skew import ProjectiveBasis, skew_information_I
from skewunc.states import (
    EnsembleSpec,
    example2_state,
    pauli_basis,
    random_density,
    random_unitary,
    werner_isotropic,
    werner_swap,
)


def _bloch_from_angles(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Bloch vector of the projector onto cos(t)|0> + e^{i p} sin(t)|1>."""
    two_t = 2.0 * theta
    return np.stack([np.sin(two_t) * np.cos(phi),
                     np.sin(two_t) * np.sin(phi),
                     np.cos(two_t)], axis=-1)


# --- basis construction ------------------------------------------------------

def test_basis_from_identity():
    assert np.array_equal(ProjectiveBasis(np.eye(2)).columns, np.eye(2))


def test_basis_from_hadamard():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    cols = ProjectiveBasis(h).columns
    assert np.allclose(cols[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_basis_from_random_unitary():
    for i in range(20):
        basis = ProjectiveBasis(random_unitary(3, 71, index=i))
        gram = basis.columns.conj().T @ basis.columns
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_basis_rejects_non_unitary():
    with pytest.raises(ValidationError):
        ProjectiveBasis(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_unitary_from_params_is_unitary():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        u = _unitary_from_params(rng.normal(size=d * d), d)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12


# --- deficit -----------------------------------------------------------------

def test_deficit_product_state_vanishes():
    rho = random_density(EnsembleSpec("product", (2, 3), 5))
    for alpha in (0.2, 0.5, 0.8):
        basis = ProjectiveBasis(random_unitary(2, 6))
        assert correlation_deficit(rho, basis, alpha) == pytest.approx(0.0, abs=1e-10)


def test_deficit_classical_quantum_in_its_own_basis():
    # the x eigenbasis is the classical basis of this state
    assert correlation_deficit(example2_state(), pauli_basis("x"), 0.45) == \
        pytest.approx(0.0, abs=1e-12)


def test_deficit_bell_computational_basis():
    # per projector the joint-state term is the Bell-state variance 1/4 and
    # the reduced term vanishes; matches the closed-form family at its pure
    # point, where the squared correlation equals 1/4
    bell = werner_isotropic(1.0)
    assert correlation_deficit(bell, pauli_basis("z"), 0.5) == pytest.approx(
        0.5, abs=1e-10)


def test_deficit_dimension_mismatch():
    rho = random_density(EnsembleSpec("full_rank", (3, 2), 8))
    with pytest.raises(ShapeError):
        correlation_deficit(rho, pauli_basis("z"), 0.5)


def test_evaluator_matches_reference_skew_calls():
    for i in range(25):
        rho = random_density(EnsembleSpec("full_rank", (2, 2), 9), index=i)
        alpha = (0.15, 0.5, 0.85)[i % 3]
        basis = ProjectiveBasis(random_unitary(2, 10, index=i))
        total, per_k = DeficitEvaluator(rho, alpha).basis_deficit(basis.columns)
        rho_a = partial_trace(rho, "A")
        from skewunc.linalg import HermitianOperator

        expected = []
        for k in range(2):
            p = basis.projector(k)
            emb = HermitianOperator(kron(p.mat, np.eye(2)))
            expected.append(skew_information_I(rho, emb, alpha)
                            - skew_information_I(rho_a, p, alpha))
        assert total == pytest.approx(sum(expected), abs=1e-12)
        assert np.allclose(per_k, expected, atol=1e-12)


def test_bloch_quadratic_matches_vector_path():
    rho = random_density(EnsembleSpec("full_rank", (2, 3), 12))
    ev = DeficitEvaluator(rho, 0.35)
    rng = np.random.default_rng(0)
    th = rng.uniform(0, np.pi / 2, 40)
    ph = rng.uniform(0, 2 * np.pi, 40)
    v, w = _qubit_vectors(th, ph)
    direct = ev.vector_deficits(v) + ev.vector_deficits(w)
    n = _bloch_from_angles(th, ph)
    quad = 0.5 * ((n @ ev.bloch_quadratic()) * n).sum(axis=1)
    assert np.max(np.abs(direct - quad)) < 1e-12


def test_deficit_relabeling_invariance():
    rho = random_density(EnsembleSpec("full_rank", (2, 2), 13))
    ev = DeficitEvaluator(rho, 0.6)
    u = random_unitary(2, 14)
    t1, _ = ev.basis_deficit(u)
    t2, _ = ev.basis_deficit(u[:, ::-1])
    assert t1 == pytest.approx(t2, abs=1e-12)


# --- optimizer ---------------------------------------------------------------

@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 2)])
def test_deficit_gradient_matches_central_differences(dims):
    d = dims[0]
    rho = random_density(EnsembleSpec("full_rank", dims, 40))
    ev = DeficitEvaluator(rho, 0.35)
    rng = np.random.default_rng(41)
    # a generic point and the identity, where every eigenvalue of G ties
    for x in (rng.standard_normal(d * d), np.zeros(d * d)):
        value, grad = _deficit_and_param_gradient(x, ev)
        direct = float(ev.vector_deficits(_unitary_from_params(x, d).T).sum())
        assert value == pytest.approx(direct, abs=1e-14)
        h = 1e-6
        central = np.array([
            (_deficit_and_param_gradient(x + h * e, ev)[0]
             - _deficit_and_param_gradient(x - h * e, ev)[0]) / (2 * h)
            for e in np.eye(d * d)])
        assert np.max(np.abs(grad - central)) <= 1e-6 * np.max(np.abs(central))


def test_optimizer_classical_quantum_reaches_zero():
    rho = random_density(EnsembleSpec("classical_quantum", (2, 2), 15))
    res = quantum_correlation_D(rho, 0.5, OptimizerConfig(seed=1))
    assert res.value <= 1e-6


def test_optimizer_result_invariants():
    rho = random_density(EnsembleSpec("full_rank", (2, 2), 16))
    res = quantum_correlation_D(rho, 0.4, OptimizerConfig(seed=2))
    assert res.value == pytest.approx(sum(res.deficit_per_k), abs=1e-9)
    assert res.value >= 0.0
    assert res.argmin_basis.dim == 2
    assert len(res.optimizer_trace) >= 1
    # recomputing the deficit at the reported basis reproduces the value
    assert correlation_deficit(rho, res.argmin_basis, 0.4) == pytest.approx(
        res.value, abs=1e-9)


def test_optimizer_deterministic_under_seed():
    rho = random_density(EnsembleSpec("full_rank", (2, 2), 17))
    r1 = quantum_correlation_D(rho, 0.3, OptimizerConfig(seed=5))
    r2 = quantum_correlation_D(rho, 0.3, OptimizerConfig(seed=5))
    assert r1.value == r2.value
    assert r1.optimizer_trace == r2.optimizer_trace


def test_optimizer_bad_restarts():
    rho = random_density(EnsembleSpec("full_rank", (2, 2), 18))
    with pytest.raises(ValidationError):
        quantum_correlation_D(rho, 0.5, OptimizerConfig(restarts=0))


@pytest.mark.parametrize("setting", [{"max_iters": 0}, {"seed": -1}],
                         ids=["max_iters", "seed"])
def test_optimizer_config_rejects_values_it_cannot_run(setting):
    rho = random_density(EnsembleSpec("full_rank", (2, 2), 18))
    with pytest.raises(ValidationError, match=next(iter(setting))):
        quantum_correlation_D(rho, 0.5, OptimizerConfig(**setting))


def test_optimizer_failure_carries_best_value():
    from skewunc.errors import OptimizerError

    rho = random_density(EnsembleSpec("full_rank", (2, 2), 25))
    # one BFGS iteration per restart cannot reach the 1e-9 gradient threshold
    with pytest.raises(OptimizerError) as err:
        quantum_correlation_D(rho, 0.5, OptimizerConfig(restarts=2, max_iters=1))
    assert err.value.best_value is not None
    assert np.isfinite(err.value.best_value)


def test_optimizer_floor_counts_as_converged():
    # restart 0 reaches the nonnegative floor; the early stop must return
    # that value whether or not the local search reports success
    rho = random_density(EnsembleSpec("classical_quantum", (3, 3), 11), index=11)
    u = kron(random_unitary(3, 5, index=11), np.eye(3))
    rotated = BipartiteDensityMatrix(u @ rho.mat @ u.conj().T, 3, 3)
    res = quantum_correlation_D(rotated, 0.5)
    assert len(res.optimizer_trace) == 1
    assert 0.0 <= res.value <= 1e-10


@pytest.mark.parametrize("dims, used", [((2, 2), 2), ((3, 2), 8)])
def test_optimizer_stops_once_restarts_agree(dims, used):
    # every restart reaches the same minimum here; at d_A = 2 every local
    # minimum is global, so the second restart confirms the first, while
    # from d_A = 3 on eight must agree. Either way not all 20 run.
    rho = random_density(EnsembleSpec("full_rank", dims, 16))
    res = quantum_correlation_D(rho, 0.4, OptimizerConfig(seed=2))
    assert len(res.optimizer_trace) == used
    values = [v for _, v in res.optimizer_trace]
    assert max(values) - min(values) <= 1e-10


@pytest.mark.parametrize("spec, index, alpha, seed, gap", [
    # restart 0 lands on a local minimum near 0.0424; the later restarts
    # agree on the lower one near 0.0318
    (EnsembleSpec("pure", (4, 2), 1149), 149, 0.7, 149, 1e-3),
    # restarts 0 to 4 agree on a local minimum 2.9e-4 above the one that
    # restart 5 reaches: five agreeing restarts are not enough
    (EnsembleSpec("full_rank", (4, 2), 207042), 581, 0.7, 207623, 2e-4),
])
def test_optimizer_agreement_escapes_local_minimum(spec, index, alpha, seed, gap):
    rho = random_density(spec, index=index)
    res = quantum_correlation_D(rho, alpha, OptimizerConfig(seed=seed))
    assert len(res.optimizer_trace) >= 3
    assert res.value < res.optimizer_trace[0][1] - gap


def test_optimizer_precision_loss_counts_as_converged():
    # the only restart stops on SciPy's precision-loss status with a
    # gradient of ~3e-9, at the exact minimum
    rho = random_density(EnsembleSpec("full_rank", (2, 2), 2024), index=4)
    res = quantum_correlation_D(rho, 0.3, OptimizerConfig(restarts=1, seed=2028))
    assert len(res.optimizer_trace) == 1
    assert abs(res.value - brute_force_D_qubit(rho, 0.3)) <= 1e-12


def test_optimizer_converges_at_4x2_defaults():
    rho = random_density(EnsembleSpec("full_rank", (4, 2), 42))
    res = quantum_correlation_D(rho, 0.5, OptimizerConfig())
    assert correlation_deficit(rho, res.argmin_basis, 0.5) == pytest.approx(
        res.value, abs=1e-12)
    ev = DeficitEvaluator(rho, 0.5)
    haar = [ev.basis_deficit(random_unitary(4, 43, index=i))[0] for i in range(200)]
    assert res.value <= min(haar)


# --- exact qubit oracle ------------------------------------------------------

_ORACLE_DIMS = ((2, 2), (2, 3), (2, 4))


def test_oracle_not_above_dense_grid():
    th, ph = np.meshgrid(np.linspace(0.0, np.pi / 2, 91),
                         np.linspace(0.0, 2 * np.pi, 180, endpoint=False),
                         indexing="ij")
    nvecs = _bloch_from_angles(th.ravel(), ph.ravel())
    for dims in _ORACLE_DIMS:
        for i in range(4):
            rho = random_density(EnsembleSpec("full_rank", dims, 31), index=i)
            alpha = (0.2, 0.5, 0.8, 0.35)[i]
            q = DeficitEvaluator(rho, alpha).bloch_quadratic()
            grid_min = float((0.5 * ((nvecs @ q) * nvecs).sum(axis=1)).min())
            assert brute_force_D_qubit(rho, alpha) <= grid_min + 1e-12


def test_oracle_argmin_basis_reproduces_value():
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    for dims in _ORACLE_DIMS:
        for i in range(4):
            rho = random_density(EnsembleSpec("full_rank", dims, 32), index=i)
            alpha = (0.25, 0.5, 0.75, 0.6)[i]
            value = brute_force_D_qubit(rho, alpha)
            w, vecs = np.linalg.eigh(DeficitEvaluator(rho, alpha).bloch_quadratic())
            assert value == pytest.approx(w[0] / 2, abs=1e-12)
            # the eigenbasis of n.sigma measures along the minimizing direction
            _, cols = np.linalg.eigh(np.einsum("i,ijk->jk", vecs[:, 0], pauli))
            assert correlation_deficit(rho, ProjectiveBasis(cols), alpha) == \
                pytest.approx(value, abs=1e-12)


def test_oracle_product_state_is_zero():
    rho = random_density(EnsembleSpec("product", (2, 2), 19))
    assert brute_force_D_qubit(rho, 0.5) == pytest.approx(0.0, abs=1e-10)


def test_oracle_requires_qubit_subsystem():
    rho = random_density(EnsembleSpec("full_rank", (3, 2), 20))
    with pytest.raises(ValidationError):
        brute_force_D_qubit(rho, 0.5)


def test_oracle_matches_optimizer_on_random_states():
    for dims, count in (((2, 2), 8), ((2, 3), 4)):
        for i in range(count):
            rho = random_density(EnsembleSpec("full_rank", dims, 21), index=i)
            alpha = (0.3, 0.5, 0.7)[i % 3]
            opt = quantum_correlation_D(rho, alpha, OptimizerConfig(seed=i)).value
            assert abs(opt - brute_force_D_qubit(rho, alpha)) <= 1e-10


def test_oracle_werner_flat_landscape():
    # swap-Werner states are invariant under shared local rotations, so the
    # deficit is the same in every basis
    rho = werner_swap(0.2)
    ev = DeficitEvaluator(rho, 0.4)
    rng = np.random.default_rng(1)
    th = rng.uniform(0, np.pi / 2, 200)
    ph = rng.uniform(0, 2 * np.pi, 200)
    n = _bloch_from_angles(th, ph)
    q = ev.bloch_quadratic()
    vals = 0.5 * ((n @ q) * n).sum(axis=1)
    assert float(vals.max() - vals.min()) < 1e-8
    # Q is a multiple of the identity, so every direction is an eigenvector
    assert np.max(np.abs(q - q[0, 0] * np.eye(3))) < 1e-12
    # closed form of test_oracle_werner_closed_form_spot at p = 0.2
    t = 2.4**0.4 * 1.2**0.6 + 1.2**0.4 * 2.4**0.6
    assert brute_force_D_qubit(rho, 0.4) == pytest.approx(1.8 / 6 - t / 12, abs=1e-12)


def test_oracle_werner_closed_form_spot():
    for p in (-1.0, -0.4, 0.1, 0.6, 1.0):
        for alpha in (0.2, 0.5):
            t = ((3 - 3 * p) ** alpha * (1 + p) ** (1 - alpha)
                 + (1 + p) ** alpha * (3 - 3 * p) ** (1 - alpha))
            expected = (2 - p) / 6 - t / 12
            assert brute_force_D_qubit(werner_swap(p), alpha) == pytest.approx(
                expected, abs=1e-8)


def test_oracle_bell_state_value():
    assert brute_force_D_qubit(werner_isotropic(1.0), 0.35) == pytest.approx(
        0.5, abs=1e-8)


def test_local_unitary_covariance():
    rho = random_density(EnsembleSpec("full_rank", (2, 2), 23))
    u = kron(random_unitary(2, 24), np.eye(2))
    rotated = BipartiteDensityMatrix(u @ rho.mat @ u.conj().T, 2, 2)
    for alpha in (0.3, 0.7):
        assert brute_force_D_qubit(rho, alpha) == pytest.approx(
            brute_force_D_qubit(rotated, alpha), abs=1e-8)
