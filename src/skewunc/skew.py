"""Skew-information quantities of a state against an observable: the
fractional-power skew information, its anticommutator dual, their geometric
mean, the per-measurement uncertainty sum, and the measurement compatibility
term used by the uncertainty bounds. ``engine`` memoizes the spectral data
of a state, so the bounds and the correlation measure evaluated on one state,
at any alphas, share the engines of the joint and the reduced state.

All quantities are evaluated in the eigenbasis of the state. Writing the
skew information as a sum over eigenvalue pairs,

    I_alpha = sum_{j<k} (l_j + l_k - l_j^a l_k^(1-a) - l_k^a l_j^(1-a)) |H_jk|^2

makes every term nonnegative (weighted AM-GM), which avoids the catastrophic
cancellation of the naive trace difference near states that commute with the
observable. Pairs of equal eigenvalues contribute exactly zero, so they are
zeroed explicitly rather than left to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalConsistencyError, ShapeError, ValidationError
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    as_alphas,
    as_complex_matrix,
    as_int,
    check_alpha,
    check_dims,
    check_type,
    clipped_spectrum,
    fractional_power,
    powered_spectrum,
    stacked_kron,
    state_stack,
)

# Final I/J values in (-NEG_CLIP, 0) are rounded to 0; anything more negative
# is a bug, not float noise.
NEG_CLIP = 1e-9

# Eigenvalue pairs closer than this (relative to the largest eigenvalue) are
# treated as degenerate and get an exactly-zero I weight.
PAIR_DEGENERACY_TOL = 1e-14

# Rank-1 projector validation (idempotency and unit trace).
PROJECTOR_TOL = 1e-9

# Orthonormality and completeness of a measurement basis.
BASIS_TOL = 1e-10

# Zero-denominator rule for the compatibility term.
DENOM_TOL = 1e-12

# Alpha tuples whose stacked weights one engine keeps before it starts over.
_WEIGHT_SETS = 32

_TINY = np.finfo(float).tiny


class ProjectiveBasis:
    """Ordered complete set of orthonormal rank-1 measurement directions.

    ``columns`` holds one unit vector per column; projector k is the outer
    product of column k with itself, and ``projector_stack`` holds all of
    them as one read-only (d, d, d) array.
    """

    __slots__ = ("columns", "projector_stack")

    def __init__(self, columns):
        cols = as_complex_matrix(columns)
        d = cols.shape[0]
        gram = cols.conj().T @ cols
        if not float(np.max(np.abs(gram - np.eye(d)))) <= BASIS_TOL:
            raise ValidationError("basis vectors are not orthonormal within tolerance")
        resolution = cols @ cols.conj().T
        if not float(np.max(np.abs(resolution - np.eye(d)))) <= BASIS_TOL:
            raise ValidationError("basis projectors do not sum to the identity")
        stack = cols.T[:, :, None] * cols.conj().T[:, None, :]
        stack.flags.writeable = False
        self.columns = cols
        self.projector_stack = stack

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    def projector(self, k: int) -> HermitianOperator:
        return HermitianOperator(self.projector_stack[k])

    def __repr__(self):
        return f"ProjectiveBasis(dim={self.dim})"


@dataclass(frozen=True)
class SkewPair:
    """Skew information, its dual, and their geometric mean at one alpha."""

    i_alpha: float
    j_alpha: float
    u_alpha: float
    alpha: float


def _noise_floored(i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I, J and U = sqrt(I J) from raw I and J, with values in (-NEG_CLIP, 0) set to 0."""
    ij = np.array((i, j))
    if (ij < -NEG_CLIP).any():   # a bug: name the first bad value, I before J of each entry
        by_entry = ij.reshape(2, -1).T   # (I, J) per (state, observable, alpha)
        k = np.flatnonzero(by_entry < -NEG_CLIP)[0]
        what = ("skew information", "dual skew information")[k % 2]
        raise NumericalConsistencyError(f"{what} = {by_entry.flat[k]:.3e} is negative "
                                        f"beyond the {NEG_CLIP:.0e} noise floor")
    ij[ij < 0.0] = 0.0   # -0.0 stays, as in max(x, 0.0)
    i, j = ij
    return i, j, np.sqrt(i * j)


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays of a stack of states along a leading state axis; the array
    of a lone state as it is (its arithmetic costs less without the axis)."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


class SkewEngine:
    """Alpha-independent spectral data of states of one dimension, for
    repeated scoring; for more than one state each array has a leading state
    axis, and every state gets the bits of scoring it alone.

    Holds the clipped spectra, the eigenvectors, the pair averages
    (l_j + l_k)/2 and the degeneracy masks once. ``weights`` stacks the I and
    J pair weights for a tuple of alphas (kept per tuple), and
    ``stacked_pairs`` scores observables at every alpha of a tuple from one
    rotation into each eigenbasis. Its arrays are read-only, so ``engine``
    can share one instance between callers.
    """

    def __init__(self, *states: DensityMatrix):
        states, _ = state_stack(states)
        self.dim = states[0].dim
        lam = _stacked([clipped_spectrum(rho) for rho in states])
        self.eigenvalues = lam
        self.eigenvectors = _stacked([rho.spectral().eigenvectors for rho in states])
        avg = 0.5 * (lam[..., :, None] + lam[..., None, :])
        scale = np.maximum(lam[..., -1:, None], _TINY)
        degenerate = np.abs(lam[..., :, None] - lam[..., None, :]) <= PAIR_DEGENERACY_TOL * scale
        for arr in (lam, self.eigenvectors, avg, degenerate):
            arr.setflags(write=False)
        self._avg = avg[..., None, :, :]   # axis for the alphas of ``weights``
        self._degenerate = degenerate[..., None, :, :]
        self._weights: dict[tuple[float, ...], tuple[np.ndarray, np.ndarray]] = {}

    def weights(self, alphas: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric I and J pair-weight matrices in each eigenbasis, one per
        (state and) alpha, stacked as ([n_states,] n_alphas, d, d)."""
        alphas = as_alphas(alphas)
        if alphas not in self._weights:
            if len(self._weights) >= _WEIGHT_SETS:
                self._weights.clear()
            lam = self.eigenvalues
            pa = np.empty((len(alphas), *lam.shape))
            pb = np.empty_like(pa)
            for k, alpha in enumerate(alphas):
                # a scalar exponent each: np.power takes a different (sqrt)
                # path for a scalar 0.5 than for a vector of them
                pa[k] = powered_spectrum(lam, alpha)
                pb[k] = powered_spectrum(lam, 1.0 - alpha)
            # alphas after the state axis, if any
            pa, pb = pa.swapaxes(0, -2), pb.swapaxes(0, -2)
            cross = pa[..., :, None] * pb[..., None, :]
            # symmetric form (module docstring): a weight that is 0 in exact
            # arithmetic (alpha 0 or 1, full rank) cancels exactly, not to rounding
            cross = 0.5 * (cross + cross.swapaxes(-1, -2))
            w_i = self._avg - cross
            np.copyto(w_i, 0.0, where=self._degenerate)
            w_j = self._avg + cross
            w_i.flags.writeable = w_j.flags.writeable = False
            self._weights[alphas] = (w_i, w_j)
        return self._weights[alphas]

    def stacked_pairs(self, hs: np.ndarray, alphas: tuple[float, ...]) -> tuple[np.ndarray, ...]:
        """Skew information, dual (of the centered observable) and their
        geometric mean of each state against each observable at each of
        ``alphas``, from one rotation into the eigenbases: three arrays of
        shape ([n_states,] m, n_alphas). ``hs`` is an (m, d, d) stack scored
        on every state, or an (n_states, m, d, d) stack per state."""
        w_i, w_j = self.weights(alphas)
        v = self.eigenvectors
        ht = v.conj().swapaxes(-1, -2)[..., None, :, :] @ hs @ v[..., None, :, :]
        mean = (self.eigenvalues[..., None, :] * ht.diagonal(0, -2, -1).real).sum(-1)
        hc = ht - mean[..., None, None] * np.eye(self.dim)
        return _noise_floored(np.einsum('...ajk,...njk->...na', w_i, ht.real**2 + ht.imag**2),
                              np.einsum('...ajk,...njk->...na', w_j, hc.real**2 + hc.imag**2))

    def pairs(self, h: np.ndarray, alphas: tuple[float, ...]) -> list[SkewPair]:
        """One ``SkewPair`` per alpha of one observable, on a one-state engine."""
        check_type(h, np.ndarray, "h")
        if self.eigenvalues.ndim != 1:
            raise ShapeError("pairs needs an engine of one state")
        [i], [j], [u] = (x.tolist() for x in self.stacked_pairs(h[None], alphas))
        return [SkewPair(i_alpha=i_a, j_alpha=j_a, u_alpha=u_a, alpha=float(alpha))
                for alpha, i_a, j_a, u_a in zip(alphas, i, j, u)]

    def pair(self, h: np.ndarray, alpha: float) -> SkewPair:
        """``pairs`` at one alpha."""
        return self.pairs(h, (alpha,))[0]


@lru_cache(maxsize=8)
def engine(*states: DensityMatrix) -> SkewEngine:
    """The ``SkewEngine`` of a stack of states (of one state: ``engine(rho)``),
    built once per stack and keyed on the states' identities (safe: their
    matrices are read-only). A bipartite state needs two entries, the joint
    and the reduced state."""
    return SkewEngine(*states)


def _check_dims(rho: DensityMatrix, *observables: HermitianOperator) -> None:
    check_dims(check_type(rho, DensityMatrix, "rho"), *observables)


def skew_information_I(rho: DensityMatrix, h: HermitianOperator, alpha: float) -> float:
    """Fractional-power skew information Tr(rho h^2) - Tr(rho^a h rho^(1-a) h).

    Nonnegative; zero exactly when the state commutes with the observable.
    """
    _check_dims(rho, h)
    return engine(rho).pair(h.mat, alpha).i_alpha


def skew_information_J(rho: DensityMatrix, h: HermitianOperator, alpha: float) -> float:
    """Dual quantity Tr(rho h0^2) + Tr(rho^a h0 rho^(1-a) h0) with the
    observable centered as h0 = h - Tr(rho h) I. Always >= the skew
    information at the same alpha."""
    _check_dims(rho, h)
    return engine(rho).pair(h.mat, alpha).j_alpha


def uncertainty_U(rho: DensityMatrix, h: HermitianOperator, alpha: float) -> SkewPair:
    """Geometric-mean uncertainty sqrt(I * J), with both factors."""
    _check_dims(rho, h)
    return engine(rho).pair(h.mat, alpha)


def embedded(ps: np.ndarray, memory_dim: int) -> np.ndarray:
    """Each P of the (m, d, d) stack ``ps`` as P (x) I, I of dimension
    ``memory_dim`` (``stacked_kron``)."""
    return stacked_kron(ps, np.eye(memory_dim))


def measurement_uncertainty_terms(rho: DensityMatrix, basis: ProjectiveBasis,
                                  alpha: float, memory_dim: int = 1) -> list[SkewPair]:
    """Per-projector uncertainty pairs for a projective measurement.

    With ``memory_dim`` > 1 each rank-1 projector is embedded as P (x) I on a
    composite system whose second factor has that dimension; the state must
    then live on the composite space.
    """
    memory_dim = as_int(memory_dim, 1, "memory_dim")
    _check_dims(rho)
    if check_type(basis, ProjectiveBasis, "basis").dim * memory_dim != rho.dim:
        raise ShapeError(
            f"basis dimension {basis.dim} x memory {memory_dim} != state "
            f"dimension {rho.dim}")
    scored = engine(rho).stacked_pairs(embedded(basis.projector_stack, memory_dim), (alpha,))
    return [SkewPair(i_alpha=i, j_alpha=j, u_alpha=u, alpha=float(alpha))
            for [i], [j], [u] in zip(*(x.tolist() for x in scored))]


def measurement_uncertainty_UN(rho: DensityMatrix, basis: ProjectiveBasis,
                               alpha: float, memory_dim: int = 1) -> float:
    """Total measurement uncertainty: the sum of sqrt(I*J) over the basis."""
    terms = measurement_uncertainty_terms(rho, basis, alpha, memory_dim=memory_dim)
    return float(sum(t.u_alpha for t in terms))


def _check_rank1_projectors(ps: np.ndarray, name: str) -> None:
    if not float(np.abs(ps @ ps - ps).max()) <= PROJECTOR_TOL:
        raise ValidationError(f"{name} is not idempotent within {PROJECTOR_TOL:.0e}")
    if not float(np.abs(ps.trace(axis1=1, axis2=2) - 1.0).max()) <= PROJECTOR_TOL:
        raise ValidationError(f"{name} does not have unit trace (not rank 1)")


def compat_terms(rho_a, phis: np.ndarray, psis: np.ndarray,
                 alpha: float) -> list[float] | list[list[float]]:
    """``compat_L`` of each pair phis[k], psis[k] of two (m, d, d) stacks of
    rank-1 projectors (as a ``ProjectiveBasis`` has; ``compat_L`` checks its
    own), with their 2m duals from one scoring, on one state or a stack."""
    alpha = check_alpha(alpha)
    states, stacked = state_stack(rho_a)
    _, duals, _ = engine(*states).stacked_pairs(np.concatenate((phis, psis)), (alpha,))
    comm = phis @ psis - psis @ phis
    traces = (_stacked([rho.mat for rho in states])[..., None, :, :] @ comm).trace(
        0, -2, -1).reshape(-1, len(phis))
    out = []
    for (j_phis, j_psis), state_traces in zip(duals.reshape(-1, 2, len(phis)).tolist(), traces):
        out.append([])
        for tr, j_phi, j_psi in zip(state_traces, j_phis, j_psis):
            numerator = alpha * (1.0 - alpha) * abs(complex(tr))**2
            denom_sq = j_phi * j_psi
            out[-1].append(0.0 if denom_sq < DENOM_TOL else float(numerator / np.sqrt(denom_sq)))
    return out if stacked else out[0]


def compat_L(rho_a: DensityMatrix, phi: HermitianOperator, psi: HermitianOperator,
             alpha: float) -> float:
    """Compatibility term of two rank-1 projectors on the reduced state:
    a(1-a) |Tr rho [phi, psi]|^2 / sqrt(J(rho, phi) J(rho, psi)).

    Returns 0 when the product of the two dual quantities falls below
    ``DENOM_TOL``: a vanishing factor forces the numerator to vanish as well,
    so 0 is the continuous completion at boundary states.
    """
    _check_dims(rho_a, phi, psi)
    phis, psis = phi.mat[None], psi.mat[None]
    _check_rank1_projectors(phis, "phi")
    _check_rank1_projectors(psis, "psi")
    return compat_terms(rho_a, phis, psis, alpha)[0]


def variance(rho: DensityMatrix, h: HermitianOperator) -> float:
    """Ordinary variance Tr(rho h^2) - Tr(rho h)^2."""
    _check_dims(rho, h)
    hm = h.mat
    mean = float(np.trace(rho.mat @ hm).real)
    second = float(np.trace(rho.mat @ hm @ hm).real)
    return second - mean * mean


def skew_information_via_powers(rho: DensityMatrix, h: HermitianOperator,
                                alpha: float) -> float:
    """Definitional route through explicit fractional-power matrices.

    Numerically noisier than the pair-sum used by ``skew_information_I`` but
    directly mirrors the defining trace difference; kept as a cross-check.
    """
    _check_dims(rho, h)
    alpha = check_alpha(alpha)
    ra = fractional_power(rho, alpha).mat
    rb = fractional_power(rho, 1.0 - alpha).mat
    hm = h.mat
    t1 = complex(np.trace(rho.mat @ hm @ hm))
    t2 = complex(np.trace(ra @ hm @ rb @ hm))
    if max(abs(t1.imag), abs(t2.imag)) > 1e-10:
        raise NumericalConsistencyError(
            f"trace acquired an imaginary part {max(abs(t1.imag), abs(t2.imag)):.3e}")
    return t1.real - t2.real
