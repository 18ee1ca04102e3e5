"""State and observable factories: the closed-form two-qubit families used by
the sweep examples, Pauli eigenbases, and seeded random ensembles for
property testing.

Determinism contract: every random draw is a pure function of (seed, index).
Uniform variates come from numpy's PCG64; Gaussians are produced from those
uniforms by an explicit Box-Muller transform, so identical seeds give
bit-identical states wherever PCG64's integer stream is identical. Parallel
callers derive independent child streams per draw via
``numpy.random.SeedSequence(entropy=seed, spawn_key=(index,))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import (BipartiteDensityMatrix, DensityMatrix, HermitianOperator, as_int,
                     as_real, check_type, kron)
from .skew import ProjectiveBasis

# The isotropic family is separable exactly up to this mixing weight.
ISOTROPIC_SEPARABLE_MAX_P = 1.0 / 3.0

_SWAP4 = np.array([[1, 0, 0, 0],
                   [0, 0, 1, 0],
                   [0, 1, 0, 0],
                   [0, 0, 0, 1]], dtype=np.complex128)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

# built once: a ProjectiveBasis is immutable
_PAULI_BASES = {
    # columns ordered (+1 eigenvector, -1 eigenvector)
    "x": ProjectiveBasis(np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)),
    "y": ProjectiveBasis(np.array([[1, 1], [1j, -1j]], dtype=np.complex128) / np.sqrt(2)),
    "z": ProjectiveBasis(np.eye(2, dtype=np.complex128)),
}


def pauli(axis: str) -> HermitianOperator:
    """The Pauli observable for axis 'x', 'y' or 'z'."""
    if not isinstance(axis, str) or axis not in _PAULI:
        raise ValidationError(f"axis must be one of x, y, z, got {axis!r}")
    return HermitianOperator(_PAULI[axis])


def pauli_basis(axis: str) -> ProjectiveBasis:
    """Eigenbasis of a Pauli observable, ordered (+1, -1) eigenvectors."""
    if not isinstance(axis, str) or axis not in _PAULI_BASES:
        raise ValidationError(f"axis must be one of x, y, z, got {axis!r}")
    return _PAULI_BASES[axis]


def _mixing_parameters(p, lo: float, hi: float) -> np.ndarray:
    """``p``, one value or a sequence of them, as an (n, 1, 1) float array
    that broadcasts against the matrices; each value must lie in [lo, hi]."""
    try:
        values = np.ravel(p).tolist()
    except ValueError as exc:   # a ragged sequence
        raise ValidationError(f"p must be a number or a flat sequence of them ({exc})") from exc
    return np.array([as_real(x, "p", lo, hi) for x in values]).reshape(-1, 1, 1)


def werner_swap(p):
    """Two-qubit family (2-p)/6 I + (2p-1)/6 SWAP for p in [-1, 1].

    Spectrum: (1+p)/6 on the three symmetric directions and (3-3p)/6 on the
    singlet. Maximally mixed at p = 1/2, the pure singlet at p = -1. A
    sequence of p gives a list of states, built as one stack.
    """
    ps = _mixing_parameters(p, -1.0, 1.0)
    mats = (2.0 - ps) / 6.0 * np.eye(4) + (2.0 * ps - 1.0) / 6.0 * _SWAP4
    states = BipartiteDensityMatrix.stack(mats, 2, 2)
    return states if np.ndim(p) else states[0]


def werner_isotropic(p):
    """Isotropic family (1-p) I/4 + p |bell><bell| for p in [0, 1].

    Separable exactly when p <= ISOTROPIC_SEPARABLE_MAX_P (= 1/3). A
    sequence of p gives a list of states, built as one stack.
    """
    ps = _mixing_parameters(p, 0.0, 1.0)
    bell = np.zeros(4, dtype=np.complex128)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    mats = (1.0 - ps) / 4.0 * np.eye(4) + ps * np.outer(bell, bell.conj())
    states = BipartiteDensityMatrix.stack(mats, 2, 2)
    return states if np.ndim(p) else states[0]


def example2_state() -> BipartiteDensityMatrix:
    """Separable two-qubit mixture (|+><+| (x) |0><0| + |-><-| (x) |1><1|)/2.

    Classical-quantum with respect to the x eigenbasis on the first factor;
    both marginals are maximally mixed.
    """
    xcols = _PAULI_BASES["x"].columns
    plus, minus = xcols[:, 0], xcols[:, 1]
    p0 = np.zeros((2, 2), dtype=np.complex128); p0[0, 0] = 1.0
    p1 = np.zeros((2, 2), dtype=np.complex128); p1[1, 1] = 1.0
    mat = 0.5 * (kron(np.outer(plus, plus.conj()), p0)
                 + kron(np.outer(minus, minus.conj()), p1))
    return BipartiteDensityMatrix(mat, 2, 2)


# ---------------------------------------------------------------------------
# Random ensembles
# ---------------------------------------------------------------------------

ENSEMBLE_KINDS = ("pure", "full_rank", "fixed_rank", "product",
                  "classical_quantum", "separable_mixture")


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of a random-state ensemble.

    ``dims`` is a single dimension for monopartite kinds, or (d_A, d_B) for
    bipartite ones. ``rank`` is required for kind 'fixed_rank'. The seed
    fully determines the draw sequence.
    """

    kind: str
    dims: int | tuple[int, int]
    seed: int
    rank: int | None = None

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValidationError(
                f"unknown ensemble kind {self.kind!r}; expected one of {ENSEMBLE_KINDS}")
        bipartite_only = ("product", "classical_quantum", "separable_mixture")
        if self.kind in bipartite_only and not isinstance(self.dims, tuple):
            raise ValidationError(f"kind {self.kind!r} needs dims = (d_A, d_B)")
        factors = self.dims if isinstance(self.dims, tuple) else (self.dims, 1)
        if len(factors) != 2:
            raise ValidationError(f"dims must be one or two integers >= 1, got {self.dims!r}")
        for d in factors:
            as_int(d, 1, "dims")
        as_int(self.seed, 0, "seed")
        if self.kind == "fixed_rank":
            if as_int(self.rank, 1, "rank") > self.total_dim:
                raise ValidationError(
                    f"fixed_rank needs 1 <= rank <= {self.total_dim}, got {self.rank}")
        elif self.rank is not None:
            raise ValidationError(f"rank is only meaningful for fixed_rank")

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def bipartite(self) -> bool:
        return isinstance(self.dims, tuple)


def child_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for draw ``index`` of a seeded sequence."""
    ss = np.random.SeedSequence(entropy=as_int(seed, 0, "seed"),
                                spawn_key=(as_int(index, 0, "index"),))
    return np.random.Generator(np.random.PCG64(ss))


def _box_muller(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals from explicit Box-Muller over PCG64 uniforms."""
    m = (n + 1) // 2
    u1 = 1.0 - rng.random(m)  # in (0, 1], keeps the log finite
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                        r * np.sin(2.0 * np.pi * u2)])
    return z[:n]


def _complex_gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    n = math.prod(shape)
    z = _box_muller(rng, 2 * n)
    return ((z[:n] + 1j * z[n:]) / np.sqrt(2.0)).reshape(shape)


def _ginibre_density(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = _complex_gaussian(rng, (d, rank))
    m = g @ g.conj().T
    return m / float(np.trace(m).real)


def _pure_density(rng: np.random.Generator, d: int) -> np.ndarray:
    v = _complex_gaussian(rng, (d,))
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _dirichlet_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    e = -np.log(1.0 - rng.random(n))
    return e / e.sum()


def _draw_matrix(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    d = spec.total_dim
    if spec.kind == "pure":
        return _pure_density(rng, d)
    if spec.kind == "full_rank":
        return _ginibre_density(rng, d, d)
    if spec.kind == "fixed_rank":
        return _ginibre_density(rng, d, spec.rank)
    da, db = spec.dims  # bipartite kinds from here on
    if spec.kind == "product":
        return kron(_ginibre_density(rng, da, da), _ginibre_density(rng, db, db))
    if spec.kind == "classical_quantum":
        weights = _dirichlet_uniform(rng, da)
        mat = np.zeros((d, d), dtype=np.complex128)
        for k in range(da):
            pk = np.zeros((da, da), dtype=np.complex128)
            pk[k, k] = 1.0
            mat += weights[k] * kron(pk, _ginibre_density(rng, db, db))
        return mat
    if spec.kind == "separable_mixture":
        n_terms = da * db
        weights = _dirichlet_uniform(rng, n_terms)
        mat = np.zeros((d, d), dtype=np.complex128)
        for k in range(n_terms):
            mat += weights[k] * kron(_pure_density(rng, da), _pure_density(rng, db))
        return mat
    raise ValidationError(f"unhandled ensemble kind {spec.kind!r}")


def random_density(spec: EnsembleSpec,
                   index: int = 0) -> DensityMatrix | BipartiteDensityMatrix:
    """Draw state ``index`` of the ensemble; same (spec, index) gives
    bit-identical output."""
    return random_densities(spec, (index,))[0]


def random_densities(spec: EnsembleSpec, indices) -> list:
    """``random_density(spec, i)`` for each i of ``indices``, bit for bit, built
    as one stack; each draw still comes from its own ``child_rng(seed, i)``."""
    check_type(spec, EnsembleSpec, "spec")
    mats = [_draw_matrix(spec, child_rng(spec.seed, i)) for i in indices]
    if spec.bipartite:
        return BipartiteDensityMatrix.stack(mats, *spec.dims)
    return DensityMatrix.stack(mats)


def random_hermitian(d: int, seed: int, index: int = 0) -> HermitianOperator:
    """GUE-style random observable: Hermitian part of a Ginibre draw."""
    d = as_int(d, 1, "d")
    g = _complex_gaussian(child_rng(seed, index), (d, d))
    return HermitianOperator(0.5 * (g + g.conj().T))


def random_unitary(d: int, seed: int, index: int = 0) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre draw with the phases fixed
    so the triangular factor has a real positive diagonal."""
    d = as_int(d, 1, "d")
    z = _complex_gaussian(child_rng(seed, index), (d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return q
