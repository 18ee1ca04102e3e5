"""State and observable factories: the closed-form two-qubit families used by
the sweep examples, Pauli eigenbases, and seeded random ensembles for
property testing.

Determinism contract: every random draw is a pure function of (seed, index).
Uniform variates come from numpy's PCG64; Gaussians are produced from those
uniforms by an explicit Box-Muller transform, so identical seeds give
bit-identical states wherever PCG64's integer stream is identical. Draw
``index`` uses the child stream ``numpy.random.SeedSequence(entropy=seed,
spawn_key=(index,))``. A block of indices is drawn as one stack, each draw
with the bits of drawing it alone: ``stream_words`` computes the block's
stream states at once, and a lone draw is the block of one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import (BipartiteDensityMatrix, DensityMatrix, HermitianOperator, as_int,
                     as_real, check_type, kron, stacked_kron)
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
        return math.prod(self.dims) if self.bipartite else self.dims

    @property
    def bipartite(self) -> bool:
        return isinstance(self.dims, tuple)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx); its pool is 4 words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(h: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The running hash constant before and after each of its next ``n`` steps."""
    return [(h, h := h * mult & _MASK32) for _ in range(n)]


def _hashmix(value, before, after):
    """SeedSequence's ``hashmix`` on Python ints or uint32 arrays."""
    value = (value ^ before) * after & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _uint32_words(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words, as SeedSequence splits an entropy int."""
    return [n >> s & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


# generate_state's constants for 8 uint32 words, that is 4 uint64 ones
_STATE_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, 8), dtype=np.uint32).T


@functools.lru_cache(maxsize=256)
def _seed_pool(seed: int, n_spawn_words: int) -> tuple[np.ndarray, list]:
    """SeedSequence's pool once ``seed`` alone is mixed in, and for each of
    ``n_spawn_words`` spawn-key words the (before, after) hash constants that
    mix it into the 4 pool words."""
    words = _uint32_words(seed)
    words += [0] * (4 - len(words))   # a spawned sequence pads its entropy to the pool
    consts = iter(_hash_consts(_INIT_A, _MULT_A, 4 * (len(words) + n_spawn_words)))
    pool = [_hashmix(w, *next(consts)) for w in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    for w, dst in itertools.product(words[4:], range(4)):   # entropy beyond the pool
        pool[dst] = _mix(pool[dst], _hashmix(w, *next(consts)))
    rest = np.array(list(consts), dtype=np.uint32).reshape(n_spawn_words, 4, 2)
    return np.array(pool, dtype=np.uint32), [tuple(c) for c in rest.transpose(0, 2, 1)]


def stream_words(seed: int, index) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(4, np.uint64)``,
    or an (n, 4) array of them for a sequence of indices: the seed's part is
    computed once per seed, the index words mixed in over the block at once."""
    indices, many = _indices(index)
    spawn = [_uint32_words(i) for i in indices]
    width = max(map(len, spawn))
    pool, consts = _seed_pool(as_int(seed, 0, "seed"), width)
    padded = np.array([words + [0] * (width - len(words)) for words in spawn], dtype=np.uint32)
    for k in range(width):
        mixed = _mix(pool, _hashmix(padded[:, k, None], *consts[k]))
        # an index of k words or fewer keeps its pool from here on
        pool = np.where(np.array([len(words) > k for words in spawn])[:, None],
                        mixed, pool) if k else mixed
    state = _hashmix(np.concatenate((pool, pool), axis=1), *_STATE_CONSTS)
    words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return words if many else words[0]


@functools.cache
def _fixed_words():
    """An ``ISeedSequence`` that hands PCG64 given state words; built on first
    use, so importing skewunc does not load ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words   # PCG64 asks once, for its 4 uint64 words

    return FixedWords


def _indices(index) -> tuple[list[int], bool]:
    """``([index], False)`` for one index, ``(indices, True)`` for a nonempty
    list, tuple, range or 1-D array of them; each an integer >= 0."""
    many = isinstance(index, (list, tuple, range)) or getattr(index, "ndim", 0) > 0
    indices = list(index) if many else [index]
    if not indices:
        raise ValidationError("indices must be a nonempty sequence")
    return [as_int(i, 0, "index") for i in indices], many


def _streams(seed: int, index) -> tuple[list, bool]:
    """The generators of ``index``, one or a sequence of indices, as a list
    built as one block, and whether ``index`` was a sequence."""
    words, fixed = stream_words(seed, index), _fixed_words()
    return ([np.random.Generator(np.random.PCG64(fixed(row))) for row in np.atleast_2d(words)],
            words.ndim == 2)


def child_rng(seed: int, index=0):
    """Independent generator for draw ``index`` of a seeded sequence, or a
    list of them for a sequence of indices."""
    rngs, many = _streams(seed, index)
    return rngs if many else rngs[0]


def _uniforms(rngs: list, n: int) -> np.ndarray:
    """The next ``n`` uniforms of each generator, one row each."""
    u = np.empty((len(rngs), n))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    return u


def _gaussians(rngs: list, shape: tuple[int, ...]) -> np.ndarray:
    """A complex standard Gaussian array of ``shape`` from each generator, as
    one stack: explicit Box-Muller over its next ``2 * prod(shape)`` uniforms."""
    n = math.prod(shape)
    u = _uniforms(rngs, 2 * n)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, :n]))   # 1 - u in (0, 1] keeps the log finite
    angle = 2.0 * np.pi * u[:, n:]
    return ((r * np.cos(angle) + 1j * (r * np.sin(angle))) / np.sqrt(2.0)).reshape(-1, *shape)


def _ginibre_densities(rngs: list, d: int, rank: int) -> np.ndarray:
    g = _gaussians(rngs, (d, rank))
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def _pure_densities(rngs: list, d: int) -> np.ndarray:
    # the 1-D norm of each row: np.linalg.norm(v, axis=-1) differs in the last bit
    v = np.stack([row / np.linalg.norm(row) for row in _gaussians(rngs, (d,))])
    return v[:, :, None] * v.conj()[:, None, :]


def _dirichlet_uniform(rngs: list, n: int) -> np.ndarray:
    e = -np.log(1.0 - _uniforms(rngs, n))
    return e / e.sum(axis=-1, keepdims=True)


def _draw_matrices(spec: EnsembleSpec, rngs: list) -> np.ndarray:
    """One draw of ``spec`` from each generator, as an (n, d, d) stack."""
    d = spec.total_dim
    if spec.kind == "pure":
        return _pure_densities(rngs, d)
    if spec.kind == "full_rank":
        return _ginibre_densities(rngs, d, d)
    if spec.kind == "fixed_rank":
        return _ginibre_densities(rngs, d, spec.rank)
    da, db = spec.dims  # bipartite kinds from here on
    if spec.kind == "product":
        return stacked_kron(_ginibre_densities(rngs, da, da), _ginibre_densities(rngs, db, db))
    mat = np.zeros((len(rngs), d, d), dtype=np.complex128)
    if spec.kind == "classical_quantum":
        weights = _dirichlet_uniform(rngs, da)
        for k in range(da):
            pk = np.zeros((da, da), dtype=np.complex128)
            pk[k, k] = 1.0
            mat += weights[:, k, None, None] * stacked_kron(pk, _ginibre_densities(rngs, db, db))
        return mat
    if spec.kind == "separable_mixture":
        weights = _dirichlet_uniform(rngs, da * db)
        for k in range(da * db):
            mat += weights[:, k, None, None] * stacked_kron(_pure_densities(rngs, da),
                                                            _pure_densities(rngs, db))
        return mat
    raise ValidationError(f"unhandled ensemble kind {spec.kind!r}")


def random_density(spec: EnsembleSpec,
                   index: int = 0) -> DensityMatrix | BipartiteDensityMatrix:
    """Draw state ``index`` of the ensemble; same (spec, index) gives
    bit-identical output."""
    return random_densities(spec, (index,))[0]


def random_densities(spec: EnsembleSpec, indices) -> list:
    """``random_density(spec, i)`` for each i of ``indices`` (a nonempty
    sequence), bit for bit, drawn and built as one stack."""
    check_type(spec, EnsembleSpec, "spec")
    mats = _draw_matrices(spec, _streams(spec.seed, indices)[0])
    if spec.bipartite:
        return BipartiteDensityMatrix.stack(mats, *spec.dims)
    return DensityMatrix.stack(mats)


def random_hermitian(d: int, seed: int, index=0):
    """GUE-style random observable: Hermitian part of a Ginibre draw. A
    sequence of indices gives a list of them, drawn as one stack."""
    d = as_int(d, 1, "d")
    rngs, many = _streams(seed, index)
    g = _gaussians(rngs, (d, d))
    ops = [HermitianOperator(h) for h in 0.5 * (g + g.conj().swapaxes(-1, -2))]
    return ops if many else ops[0]


def random_unitary(d: int, seed: int, index=0) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre draw with the phases fixed
    so the triangular factor has a real positive diagonal. A sequence of
    indices gives an (n, d, d) stack of them, drawn as one."""
    d = as_int(d, 1, "d")
    rngs, many = _streams(seed, index)
    q, r = np.linalg.qr(_gaussians(rngs, (d, d)))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[:, None, :]
    return q if many else q[0]
