"""Skew-information quantities of a state against an observable: the
fractional-power skew information, its anticommutator dual, their geometric
mean, the per-measurement uncertainty sum, and the measurement compatibility
term used by the uncertainty bounds. ``EvalContext`` holds the engines of a
bipartite state and of its reduction at one alpha, so that the bounds and the
correlation measure share them; ``engine_uncertainty_terms`` and
``engine_compat_L`` score against such engines.

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

import numpy as np

from .errors import NumericalConsistencyError, ShapeError, ValidationError
from .linalg import (
    BipartiteDensityMatrix,
    DensityMatrix,
    HermitianOperator,
    PSD_TOL,
    check_alpha,
    clipped_spectrum,
    fractional_power,
    partial_trace,
    powered_spectrum,
)

# Final I/J values in (-NEG_CLIP, 0) are rounded to 0; anything more negative
# is a bug, not float noise.
NEG_CLIP = 1e-9

# Eigenvalue pairs closer than this (relative to the largest eigenvalue) are
# treated as degenerate and get an exactly-zero I weight.
PAIR_DEGENERACY_TOL = 1e-14

# Rank-1 projector validation (idempotency and unit trace).
PROJECTOR_TOL = 1e-9

# Zero-denominator rule for the compatibility term.
DENOM_TOL = 1e-12


class ProjectiveBasis:
    """Ordered complete set of orthonormal rank-1 measurement directions.

    ``columns`` holds one unit vector per column; projector k is the outer
    product of column k with itself.
    """

    __slots__ = ("columns",)

    def __init__(self, columns, tol: float = 1e-10):
        cols = np.array(columns, dtype=np.complex128, copy=True)
        if cols.ndim != 2 or cols.shape[0] != cols.shape[1]:
            raise ShapeError(f"expected a square column matrix, got {cols.shape}")
        d = cols.shape[0]
        gram = cols.conj().T @ cols
        if float(np.max(np.abs(gram - np.eye(d)))) > tol:
            raise ValidationError("basis vectors are not orthonormal within tolerance")
        resolution = cols @ cols.conj().T
        if float(np.max(np.abs(resolution - np.eye(d)))) > tol:
            raise ValidationError("basis projectors do not sum to the identity")
        cols.flags.writeable = False
        self.columns = cols

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    def vector(self, k: int) -> np.ndarray:
        return self.columns[:, k]

    def projector(self, k: int) -> HermitianOperator:
        v = self.columns[:, k]
        return HermitianOperator(np.outer(v, v.conj()))

    def projectors(self) -> list[HermitianOperator]:
        return [self.projector(k) for k in range(self.dim)]

    def __repr__(self):
        return f"ProjectiveBasis(dim={self.dim})"


@dataclass(frozen=True)
class SkewPair:
    """Skew information, its dual, and their geometric mean at one alpha."""

    i_alpha: float
    j_alpha: float
    u_alpha: float
    alpha: float


def _clip_value(value: float, what: str) -> float:
    if value < -NEG_CLIP:
        raise NumericalConsistencyError(
            f"{what} = {value:.3e} is negative beyond the {NEG_CLIP:.0e} noise floor")
    return max(value, 0.0)


class SkewEngine:
    """Spectral data of one state, cached for repeated evaluations.

    Building the eigendecomposition and the pair-weight matrices once lets a
    caller score many observables against the same state cheaply (basis
    optimization, grid scans, bound checkers).
    """

    def __init__(self, rho: DensityMatrix, alpha: float, psd_tol: float = PSD_TOL):
        self.alpha = check_alpha(alpha)
        self.state = rho
        self.dim = rho.dim
        dec = rho.spectral()
        lam = clipped_spectrum(dec, psd_tol=psd_tol)
        self.eigenvalues = lam
        self.eigenvectors = dec.eigenvectors
        pa = powered_spectrum(lam, self.alpha)
        pb = powered_spectrum(lam, 1.0 - self.alpha)
        avg = 0.5 * (lam[:, None] + lam[None, :])
        cross = pa[:, None] * pb[None, :]
        w_i = avg - cross
        scale = max(float(lam[-1]), np.finfo(float).tiny)
        degenerate = np.abs(lam[:, None] - lam[None, :]) <= PAIR_DEGENERACY_TOL * scale
        w_i[degenerate] = 0.0
        self._w_i = w_i
        self._w_j = avg + cross

    @property
    def i_weights(self) -> np.ndarray:
        """Pair-weight matrix of the skew information in the eigenbasis."""
        return self._w_i

    def _rotate(self, h: np.ndarray) -> np.ndarray:
        v = self.eigenvectors
        return v.conj().T @ h @ v

    def i_value(self, h: np.ndarray) -> float:
        """Skew information of the cached state against observable ``h``."""
        ht = self._rotate(h)
        raw = float(np.einsum('jk,jk->', self._w_i, ht.real**2 + ht.imag**2))
        return _clip_value(raw, "skew information")

    def j_value(self, h: np.ndarray) -> float:
        """Dual (anticommutator) quantity, evaluated on the centered observable."""
        ht = self._rotate(h)
        mean = float(np.sum(self.eigenvalues * ht.diagonal().real))
        ht = ht - mean * np.eye(self.dim)
        raw = float(np.einsum('jk,jk->', self._w_j, ht.real**2 + ht.imag**2))
        return _clip_value(raw, "dual skew information")

    def pair(self, h: np.ndarray) -> SkewPair:
        i = self.i_value(h)
        j = self.j_value(h)
        return SkewPair(i_alpha=i, j_alpha=j, u_alpha=float(np.sqrt(i * j)),
                        alpha=self.alpha)


class EvalContext:
    """Everything the memory bounds and the quantum correlation share for one
    bipartite state at one alpha, built once: the engine of the joint state
    and the engine of its reduction rho_A (one partial trace, kept as
    ``reduced.state``)."""

    __slots__ = ("alpha", "rho_ab", "joint", "reduced")

    def __init__(self, rho_ab: BipartiteDensityMatrix, alpha: float):
        self.alpha = check_alpha(alpha)
        self.rho_ab = rho_ab
        self.joint = SkewEngine(rho_ab, self.alpha)
        self.reduced = SkewEngine(partial_trace(rho_ab, "A"), self.alpha)


def _check_dims(rho: DensityMatrix, h: HermitianOperator) -> None:
    if rho.dim != h.dim:
        raise ShapeError(f"state dimension {rho.dim} != observable dimension {h.dim}")


def skew_information_I(rho: DensityMatrix, h: HermitianOperator, alpha: float) -> float:
    """Fractional-power skew information Tr(rho h^2) - Tr(rho^a h rho^(1-a) h).

    Nonnegative; zero exactly when the state commutes with the observable.
    """
    _check_dims(rho, h)
    return SkewEngine(rho, alpha).i_value(h.mat)


def skew_information_J(rho: DensityMatrix, h: HermitianOperator, alpha: float) -> float:
    """Dual quantity Tr(rho h0^2) + Tr(rho^a h0 rho^(1-a) h0) with the
    observable centered as h0 = h - Tr(rho h) I. Always >= the skew
    information at the same alpha."""
    _check_dims(rho, h)
    return SkewEngine(rho, alpha).j_value(h.mat)


def uncertainty_U(rho: DensityMatrix, h: HermitianOperator, alpha: float) -> SkewPair:
    """Geometric-mean uncertainty sqrt(I * J), with both factors."""
    _check_dims(rho, h)
    return SkewEngine(rho, alpha).pair(h.mat)


def measurement_uncertainty_terms(rho: DensityMatrix, basis: ProjectiveBasis,
                                  alpha: float, memory_dim: int = 1) -> list[SkewPair]:
    """Per-projector uncertainty pairs for a projective measurement.

    With ``memory_dim`` > 1 each rank-1 projector is embedded as P (x) I on a
    composite system whose second factor has that dimension; the state must
    then live on the composite space.
    """
    return engine_uncertainty_terms(SkewEngine(rho, alpha), basis, memory_dim)


def engine_uncertainty_terms(engine: SkewEngine, basis: ProjectiveBasis,
                             memory_dim: int = 1) -> list[SkewPair]:
    """``measurement_uncertainty_terms`` against the engine's state."""
    if memory_dim < 1:
        raise ValidationError(f"memory_dim must be >= 1, got {memory_dim}")
    if basis.dim * memory_dim != engine.dim:
        raise ShapeError(
            f"basis dimension {basis.dim} x memory {memory_dim} != state "
            f"dimension {engine.dim}")
    eye_mem = np.eye(memory_dim)
    terms = []
    for k in range(basis.dim):
        v = basis.vector(k)
        p = np.outer(v, v.conj())
        h = np.kron(p, eye_mem) if memory_dim > 1 else p
        terms.append(engine.pair(h))
    return terms


def measurement_uncertainty_UN(rho: DensityMatrix, basis: ProjectiveBasis,
                               alpha: float, memory_dim: int = 1) -> float:
    """Total measurement uncertainty: the sum of sqrt(I*J) over the basis."""
    terms = measurement_uncertainty_terms(rho, basis, alpha, memory_dim=memory_dim)
    return float(sum(t.u_alpha for t in terms))


def _check_rank1_projector(p: HermitianOperator, name: str) -> None:
    m = p.mat
    if float(np.max(np.abs(m @ m - m))) > PROJECTOR_TOL:
        raise ValidationError(f"{name} is not idempotent within {PROJECTOR_TOL:.0e}")
    if abs(complex(np.trace(m)) - 1.0) > PROJECTOR_TOL:
        raise ValidationError(f"{name} does not have unit trace (not rank 1)")


def compat_L(rho_a: DensityMatrix, phi: HermitianOperator, psi: HermitianOperator,
             alpha: float, denom_tol: float = DENOM_TOL) -> float:
    """Compatibility term of two rank-1 projectors on the reduced state:
    a(1-a) |Tr rho [phi, psi]|^2 / sqrt(J(rho, phi) J(rho, psi)).

    Returns 0 when the product of the two dual quantities falls below
    ``denom_tol``: a vanishing factor forces the numerator to vanish as well,
    so 0 is the continuous completion at boundary states.
    """
    return engine_compat_L(SkewEngine(rho_a, alpha), phi, psi, denom_tol)


def engine_compat_L(engine: SkewEngine, phi: HermitianOperator,
                    psi: HermitianOperator, denom_tol: float = DENOM_TOL) -> float:
    """``compat_L`` against the engine's state and alpha."""
    rho_a = engine.state
    _check_dims(rho_a, phi)
    _check_dims(rho_a, psi)
    _check_rank1_projector(phi, "phi")
    _check_rank1_projector(psi, "psi")
    alpha = engine.alpha
    comm = phi.mat @ psi.mat - psi.mat @ phi.mat
    numerator = alpha * (1.0 - alpha) * abs(complex(np.trace(rho_a.mat @ comm)))**2
    denom_sq = engine.j_value(phi.mat) * engine.j_value(psi.mat)
    if denom_sq < denom_tol:
        return 0.0
    return float(numerator / np.sqrt(denom_sq))


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
