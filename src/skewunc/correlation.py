"""Quantum-correlation measure of a bipartite state: the minimal total
skew-information deficit between measuring a basis on the joint state and on
the reduced state, minimized over all orthonormal bases of the measured
subsystem.

Two minimizers are provided. ``quantum_correlation_D`` runs BFGS from
several starting points over unitaries parameterized as exp(iG), with the
gradient in closed form: the deficit is a quartic in the basis vectors, its
Euclidean gradient comes from ``DeficitEvaluator.value_and_gradient``, and
the chain rule through exp(iG) uses the divided differences of exp (see
Abrudan, Eriksson & Koivunen, IEEE TSP 56(3), 2008, for gradient methods on
the unitary group). Its result is an upper bound on the true minimum.
``brute_force_D_qubit`` is exact whenever the measured subsystem is a qubit:
the deficit is a quadratic form in the Bloch vector, so its minimum is
lambda_min(Q) / 2, cross-checked by direct re-evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NumericalConsistencyError, OptimizerError, ShapeError, ValidationError
from .linalg import (BipartiteDensityMatrix, as_int, check_alpha, check_type,
                     partial_trace, state_stack)
from .skew import NEG_CLIP, ProjectiveBasis, embedded, engine
from .states import pauli

# Restarts stop early once the best value reaches this floor; the deficit is
# nonnegative, so nothing below it can be found.
_EARLY_STOP = 1e-10

# Gradient norm (largest component) at which a local search has converged.
_GRAD_TOL = 1e-9

# A restart stopped on precision loss has converged if its gradient is this
# small: the line search can no longer resolve the minimum in float arithmetic.
_LOSS_GRAD_TOL = 1e-6

# The search stops once this many converged restarts lie within _AGREE_TOL of
# the best value. At d_A = 2 every local minimum is global (a quadratic form
# on the Bloch sphere). At d_A = 4, in 1,400 seeded full-rank states, the first
# five restarts once agreed on a local minimum 2.9e-4 above the best.
_AGREE_COUNT_QUBIT = 2
_AGREE_COUNT = 8
_AGREE_TOL = 1e-10

# Caps on the restarts, which agreement usually ends first, and on BFGS iterations.
_MAX_RESTARTS = 20
_MAX_ITERS = 2000


@dataclass(frozen=True)
class CorrelationResult:
    """Outcome of the basis minimization."""

    value: float
    argmin_basis: ProjectiveBasis
    deficit_per_k: list[float]
    optimizer_trace: list[tuple[int, float]] = field(default_factory=list)


_PAULI_STACK = np.stack([pauli(axis).mat for axis in "xyz"])


@lru_cache(maxsize=16)
def _embedded_paulis(d_b: int) -> np.ndarray:
    """The Pauli matrices embedded as s (x) I on a memory of dimension d_b."""
    paulis = embedded(_PAULI_STACK, d_b)
    paulis.flags.writeable = False
    return paulis


class DeficitEvaluator:
    """Scores the measurement deficit of a bipartite state against many
    candidate bases cheaply, from the engines of the state and of its
    reduction (shared through ``skew.engine`` with the bound checkers).

    For a stack of states (see ``linalg.state_stack``) its arrays gain a
    leading state axis, and ``vector_deficits``, ``basis_deficit`` and
    ``bloch_quadratic`` answer per state; the gradient takes one state.
    """

    def __init__(self, rho_ab, alpha: float):
        self.alpha = check_alpha(alpha)
        states, self._stacked = state_stack(rho_ab, BipartiteDensityMatrix)
        self.d_A = states[0].d_A
        self.d_B = states[0].d_B
        self._eng_ab = engine(*states)
        self._eng_a = engine(*partial_trace(states, "A"))
        self._u = self._eng_ab.eigenvectors
        # eigenvector matrix indexed (a, (b, eigenindex)) for the embedding trick
        self._u_flat = np.ascontiguousarray(
            self._u.reshape(*self._u.shape[:-2], self.d_A, -1))
        self._ua_conj = self._eng_a.eigenvectors.conj()
        self._w_ab = self._eng_ab.weights((self.alpha,))[0][..., 0, :, :]
        self._w_ab_flat = self._w_ab.reshape(*self._w_ab.shape[:-2], -1)
        self._w_a = self._eng_a.weights((self.alpha,))[0][..., 0, :, :]

    def _deficit_terms(self, v: np.ndarray):
        """Per-row deficits of the unit vectors ``v`` and the intermediates
        the gradient reuses: b (the rows' slices of the joint eigenvectors),
        ht (the rotated joint observables), t and q (reduced-state overlaps
        and their squared moduli). A stacked evaluator takes one set of rows
        per state, or rows that every state shares."""
        b = v.conj() @ self._u_flat
        rows = b.shape[:-1]
        b = b.reshape(*rows, self.d_B, self.d_A * self.d_B)
        ht = np.matmul(b.conj().swapaxes(-1, -2), b)
        i_ab = ((ht.real**2 + ht.imag**2).reshape(*rows, -1)
                @ self._w_ab_flat[..., None])[..., 0]
        t = v @ self._ua_conj
        q = t.real**2 + t.imag**2
        i_a = ((q @ self._w_a) * q).sum(axis=-1)
        return i_ab - i_a, b, ht, t, q

    def vector_deficits(self, vectors: np.ndarray) -> np.ndarray:
        """Deficit contribution of each unit vector in ``vectors`` (rows):
        joint-state skew information of (vv^dag (x) I) minus reduced-state
        skew information of vv^dag. A stack scores rows that every state
        shares, or one set per state ((n_states, k, d))."""
        v = np.asarray(vectors, dtype=np.complex128)
        if v.ndim == 1:
            v = v[None, :]
        return self._deficit_terms(v)[0]

    def value_and_gradient(self, columns: np.ndarray) -> tuple[float, np.ndarray]:
        """Total deficit of the basis given as columns, and its Euclidean
        gradient with respect to those columns.

        Column k contributes I(P_k (x) I) - I(P_k) with P_k = u_k u_k^dag.
        Each skew information is sum W |Ht|^2 with Ht linear in P_k, so its
        gradient in u_k is 4 K u_k, where K = Tr_B[E (W o Ht) E^dag] on the
        joint state (E its eigenvectors, W the symmetric pair weights) and
        the same expression on the reduced state.
        """
        v = np.asarray(columns, dtype=np.complex128).T
        per_k, b, ht, t, q = self._deficit_terms(v)
        k_ab = np.matmul(b, ht * self._w_ab).conj().reshape(v.shape[0], -1)
        g_ab = k_ab @ self._u_flat.T
        g_a = (t * (q @ self._w_a)) @ self._ua_conj.T.conj()
        return float(per_k.sum()), 4.0 * (g_ab - g_a).T

    def basis_deficit(self, columns: np.ndarray):
        """Total and per-projector deficit for a basis given as columns; a
        stack gets one pair per state, for a basis that every state shares
        or one per state ((n_states, d, d))."""
        per_k = self.vector_deficits(np.asarray(columns).swapaxes(-1, -2))
        out = []
        for row in per_k.reshape(-1, per_k.shape[-1]):
            total = float(row.sum())
            if total < -NEG_CLIP:
                raise NumericalConsistencyError(
                    f"deficit {total:.3e} negative beyond the noise floor")
            out.append((total, [float(x) for x in row]))
        return out if self._stacked else out[0]

    def bloch_quadratic(self) -> np.ndarray:
        """For a qubit subsystem: the 3x3 symmetric form Q with
        deficit(projector with Bloch vector n) = n.Q.n / 4, one per state
        of a stack.

        Exists because the skew information is a quadratic form in the
        observable and the identity component of a projector contributes
        nothing; a whole basis (n and -n) contributes n.Q.n / 2.
        """
        if self.d_A != 2:
            raise ValidationError("Bloch parameterization needs d_A = 2")
        u = self._u
        st = np.einsum('...ja,iab,...bk->...ijk', u.conj().swapaxes(-1, -2),
                       _embedded_paulis(self.d_B), u)
        q_ab = np.einsum('...jk,...ijk,...ljk->...il', self._w_ab, st, st.conj()).real
        ua = self._ua_conj.conj()
        st_a = np.einsum('...ja,iab,...bk->...ijk', ua.conj().swapaxes(-1, -2),
                         _PAULI_STACK, ua)
        q_a = np.einsum('...jk,...ijk,...ljk->...il', self._w_a, st_a, st_a.conj()).real
        q = q_ab - q_a
        return 0.5 * (q + q.swapaxes(-1, -2))


def correlation_deficit(rho_ab: BipartiteDensityMatrix, basis: ProjectiveBasis,
                        alpha: float) -> float:
    """Total skew-information deficit of one measurement basis.

    Nonnegative up to float noise (local monotonicity of the skew
    information); small negatives are clipped to zero.
    """
    check_type(rho_ab, BipartiteDensityMatrix, "rho_ab")
    if check_type(basis, ProjectiveBasis, "basis").dim != rho_ab.d_A:
        raise ShapeError(
            f"basis dimension {basis.dim} != measured subsystem {rho_ab.d_A}")
    ev = DeficitEvaluator(rho_ab, alpha)
    total, _ = ev.basis_deficit(basis.columns)
    return max(total, 0.0)


@lru_cache(maxsize=16)
def _triangle_indices(d: int):
    iu, ju = np.triu_indices(d, k=1)
    diag = np.arange(d)
    return iu, ju, diag


def _generator_eig(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the Hermitian G packed as d diagonal entries
    followed by (re, im) pairs for the strict upper triangle, row-major."""
    iu, ju, diag = _triangle_indices(d)
    g = np.zeros((d, d), dtype=np.complex128)
    g[diag, diag] = x[:d]
    off = x[d::2] + 1j * x[d + 1::2]
    g[iu, ju] = off
    g[ju, iu] = off.conj()
    return np.linalg.eigh(g)


def _unitary_from_params(x: np.ndarray, d: int) -> np.ndarray:
    """exp(iG) for G packed as in ``_generator_eig``."""
    w, v = _generator_eig(x, d)
    return (v * np.exp(1j * w)) @ v.conj().T


def _deficit_and_param_gradient(x: np.ndarray,
                                ev: DeficitEvaluator) -> tuple[float, np.ndarray]:
    """Whole-basis deficit at U = exp(iG(x)) and its gradient in x.

    With G = V diag(w) V^dag, the derivative of exp(iG) along dG is
    V (L o (V^dag dG V)) V^dag with the divided differences
    L_jk = (e^{i w_j} - e^{i w_k}) / (w_j - w_k), written in the form
    i e^{i(w_j + w_k)/2} sinc((w_j - w_k)/2) that stays finite on ties
    (Daleckii-Krein). Pulling the Euclidean gradient Gamma back through it
    gives d(deficit) = Re Tr[Z dG] with Z = V ((V^dag Gamma^dag V) o L) V^dag.
    """
    d = ev.d_A
    w, v = _generator_eig(x, d)
    vh = v.conj().T
    value, gamma = ev.value_and_gradient((v * np.exp(1j * w)) @ vh)
    half_sum = 0.5 * (w[:, None] + w[None, :])
    half_diff = 0.5 * (w[:, None] - w[None, :])
    lk = 1j * np.exp(1j * half_sum) * np.sinc(half_diff / np.pi)
    z = v @ ((vh @ gamma.conj().T @ v) * lk) @ vh
    iu, ju, _ = _triangle_indices(d)
    grad = np.empty(d * d)
    grad[:d] = z.diagonal().real
    grad[d::2] = (z[iu, ju] + z[ju, iu]).real
    grad[d + 1::2] = (z[iu, ju] - z[ju, iu]).imag
    return value, grad


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call: only this
    optimizer needs scipy, so the grid oracle never loads it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def quantum_correlation_D(rho_ab: BipartiteDensityMatrix, alpha: float,
                          seed: int = 0) -> CorrelationResult:
    """Multi-start minimization of the measurement deficit over all bases of
    the measured subsystem.

    Each restart runs BFGS with the analytic gradient on the d^2 parameters
    of exp(iG), from the identity on restart 0 and from seeded random
    generators after it, and stops at stationarity or after ``_MAX_ITERS``
    iterations; one stopped on precision loss with a small gradient has
    converged too. At most ``_MAX_RESTARTS`` restarts run: the search ends
    once enough converged restarts (2 at d_A = 2, else 8) agree on the best
    value, or that value reaches the nonnegative floor; ``optimizer_trace``
    has one entry per restart run. It fails with ``OptimizerError`` if no
    restart converged. The best basis is re-evaluated through the generic
    deficit path. The returned value is an upper bound on the true minimum;
    for a qubit subsystem ``brute_force_D_qubit`` gives the exact value.
    Deterministic for a fixed ``seed``, an integer >= 0.
    """
    seed = as_int(seed, 0, "seed")
    ev = DeficitEvaluator(rho_ab, alpha)
    d = ev.d_A
    nparams = d * d
    rng = np.random.default_rng(seed)
    agree_count = _AGREE_COUNT_QUBIT if d == 2 else _AGREE_COUNT

    trace: list[tuple[int, float]] = []
    best_x: np.ndarray | None = None
    best_val = np.inf
    converged: list[float] = []
    for r in range(_MAX_RESTARTS):
        x0 = np.zeros(nparams) if r == 0 else rng.standard_normal(nparams) * (np.pi / 2)
        res = minimize(_deficit_and_param_gradient, x0, args=(ev,), jac=True,
                       method="BFGS", options={"gtol": _GRAD_TOL, "maxiter": _MAX_ITERS})
        trace.append((r, float(res.fun)))
        if res.success or (res.status == 2 and np.max(np.abs(res.jac)) <= _LOSS_GRAD_TOL):
            converged.append(float(res.fun))
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = np.asarray(res.x)
        if best_val <= _EARLY_STOP:
            # the deficit is nonnegative: a value at the floor is converged
            converged.append(best_val)
            break
        if sum(v <= best_val + _AGREE_TOL for v in converged) >= agree_count:
            break
    if not converged:
        raise OptimizerError(
            f"no restart converged within {_MAX_ITERS} iterations",
            best_value=best_val if np.isfinite(best_val) else None)

    u_best = _unitary_from_params(best_x, d)
    basis = ProjectiveBasis(u_best)
    total, per_k = ev.basis_deficit(basis.columns)
    return CorrelationResult(value=max(total, 0.0), argmin_basis=basis,
                             deficit_per_k=per_k, optimizer_trace=trace)


def _qubit_vectors(theta: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis vector cos(t)|0> + e^{i p} sin(t)|1> and its orthogonal
    complement; its Bloch vector is (sin 2t cos p, sin 2t sin p, cos 2t)."""
    ct, st = np.cos(theta), np.sin(theta)
    ph = np.exp(1j * phi)
    v = np.stack([ct + 0j, ph * st], axis=-1)
    w = np.stack([-st / ph, ct + 0j], axis=-1)
    return v, w


def brute_force_D_qubit(rho_ab, alpha: float) -> float | list[float]:
    """Exact minimum of the deficit when the measured subsystem is a qubit.

    A whole basis with Bloch vector n has deficit n.Q.n / 2 (see
    ``DeficitEvaluator.bloch_quadratic``), so the minimum over unit vectors is
    lambda_min(Q) / 2, attained at the corresponding eigenvector. The basis
    built from that eigenvector is re-evaluated through the generic deficit
    path as a tripwire, and the two values must agree to within float noise.
    The command line and configs select it as oracle ``"grid"``. A stack of
    states (see ``linalg.state_stack``) gets one minimum per state.
    """
    states, stacked = state_stack(rho_ab, BipartiteDensityMatrix)
    if states[0].d_A != 2:
        raise ValidationError(
            f"qubit oracle requires a qubit subsystem, got d_A = {states[0].d_A}")
    ev = DeficitEvaluator(states, alpha)
    w, vecs = np.linalg.eigh(ev.bloch_quadratic())
    n = vecs[..., 0]
    theta = 0.5 * np.arccos(np.clip(n[..., 2], -1.0, 1.0))
    phi = np.arctan2(n[..., 1], n[..., 0])
    direct = ev.vector_deficits(np.stack(_qubit_vectors(theta, phi), axis=-2)).sum(axis=-1)
    out = []
    for lowest, found in zip(w[..., 0].reshape(-1).tolist(), direct.reshape(-1).tolist()):
        value = 0.5 * lowest
        if abs(found - value) > 1e-9:
            raise NumericalConsistencyError(
                f"Bloch-form deficit {value:.6e} disagrees with the direct "
                f"evaluation {found:.6e}")
        if found < -NEG_CLIP:
            raise NumericalConsistencyError(
                f"qubit minimum {found:.3e} negative beyond the noise floor")
        out.append(max(found, 0.0))
    return out if stacked else out[0]
