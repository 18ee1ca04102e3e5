"""Dense complex linear algebra: validated operator types, Hermitian
eigendecomposition with deterministic tie-breaking, fractional matrix powers,
tensor products and partial traces; and the coercion of every public input
(matrices, integers, real numbers, alpha lists, package types and stacks) that
raises a ValidationError naming the input.

Index convention for composite systems: basis state |i>_A |j>_B maps to the
flat index i * d_B + j (row-major), which is exactly what ``numpy.kron``
produces. Only this module spells that layout out: every other module goes
through ``kron``, ``stacked_kron`` and ``partial_trace``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, ShapeError, SolverError, ValidationError

# Validation tolerances. Only the PSD one is per call (reduced states
# loosen it).
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10

# Eigenvalues closer than DEGENERACY_TOL * spectral scale are treated as one
# eigenspace when canonicalizing eigenvectors.
DEGENERACY_TOL = 1e-12

# Eigenvalues below this fraction of the spectral radius are indistinguishable
# from zero at double precision (eigh backward error is ~d * 1e-16). They are
# snapped to exact zeros before fractional powers: eps**alpha amplifies
# sub-resolution noise enormously (1e-17**0.2 is 4e-4), which would otherwise
# poison every quantity evaluated near a rank-deficient state.
SPECTRUM_FLOOR = 1e-13


def as_complex_matrix(a, ndim: int = 2) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries, or a stack.

    Returns a fresh read-only copy so validated values can be shared freely.
    """
    try:
        mat = np.array(a, dtype=np.complex128, copy=True)
    except (TypeError, ValueError) as exc:   # a ragged sequence, or entries that are not numbers
        raise ValidationError(f"expected a matrix of numbers ({exc})") from exc
    if mat.ndim != ndim or mat.shape[-1] != mat.shape[-2]:
        raise ShapeError(f"expected a square matrix, got shape {mat.shape}")
    if mat.size == 0:
        raise ShapeError("empty matrix")
    if not np.isfinite(mat).all():
        raise ValidationError("matrix contains NaN or Inf entries")
    mat.flags.writeable = False
    return mat


# Checks of states' matrices over a leading ``...`` axis, reporting the worst.

def _check_hermitian(mat: np.ndarray) -> None:
    drift = float(np.abs(mat - mat.conj().swapaxes(-1, -2)).max())
    if drift > HERM_TOL:
        raise ValidationError(
            f"matrix is not Hermitian: max |A - A^dag| = {drift:.3e} > {HERM_TOL:.3e}")


def _check_trace(mat: np.ndarray) -> None:
    tr = np.trace(mat, axis1=-2, axis2=-1)
    off = abs(tr - 1.0)
    if (off > TRACE_TOL).any():
        raise InvalidStateError(
            f"trace is {complex(np.ravel(tr)[off.argmax()]):.12g}, expected 1")


def _check_spectrum(eigenvalues: np.ndarray, psd_tol: float) -> None:
    lo = eigenvalues[..., 0]
    if (lo < -psd_tol).any():
        raise InvalidStateError(f"smallest eigenvalue {lo.min():.3e} < -{psd_tol:.3e}")


class HermitianOperator:
    """Complex square matrix asserted Hermitian at construction."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = as_complex_matrix(mat)
        _check_hermitian(m)
        self.mat = m

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class DensityMatrix(HermitianOperator):
    """Hermitian, positive-semidefinite, unit-trace operator.

    Its spectrum is checked here, once: eigenvalues down to -psd_tol are
    accepted, and everything computed from the state clips them to 0. A lone
    state is built as a stack of one (``_fill``), with the same bits.
    """

    __slots__ = ("_spectral",)

    def __init__(self, mat, *args, **kwargs):   # psd_tol; d_A, d_B if bipartite
        self._fill([self], as_complex_matrix(mat)[None], *args, **kwargs)

    def spectral(self) -> "SpectralDecomposition":
        """Eigendecomposition, computed once at construction (mat is immutable)."""
        return self._spectral

    @classmethod
    def stack(cls, mats, *args) -> list:
        """``[cls(mat, *args) for mat in mats]`` for a sequence or (n, d, d)
        array of matrices, with the bits of building each state alone. The
        checks and the eigendecomposition run once over the stack; if they
        fail, the states are built one at a time, so an error raised is the
        one that building them in order raises first (and a ``SolverError``
        names the matrix that failed)."""
        try:
            arr = as_complex_matrix(mats, ndim=3)
            states = [cls.__new__(cls) for _ in arr]
            cls._fill(states, arr, *args)
            return states
        except (ValidationError, SolverError):
            if not hasattr(mats, "__iter__"):   # not a sequence of matrices either
                raise
        return [cls(mat, *args) for mat in mats]

    @staticmethod
    def _fill(states: list, mats: np.ndarray, psd_tol: float = PSD_TOL) -> None:
        """Check the (n, d, d) stack ``mats`` as states, decompose it in one
        ``stacked_eig`` call, and give ``states[k]`` its matrix and spectrum."""
        _check_hermitian(mats)
        _check_trace(mats)
        w, v = stacked_eig(mats)
        _check_spectrum(w, psd_tol)
        for state, mat, w_k, v_k in zip(states, mats, w, v):
            state.mat, state._spectral = mat, SpectralDecomposition(w_k, v_k)


class BipartiteDensityMatrix(DensityMatrix):
    """Density matrix with declared tensor-factor dimensions (d_A, d_B)."""

    __slots__ = ("d_A", "d_B", "_reduced")

    @staticmethod
    def _fill(states: list, mats: np.ndarray, d_A: int, d_B: int) -> None:
        DensityMatrix._fill(states, mats)
        d_A, d_B = as_int(d_A, 1, "d_A"), as_int(d_B, 1, "d_B")
        if d_A * d_B != mats.shape[-1]:
            raise ShapeError(
                f"declared factors {d_A}x{d_B} do not match dimension {mats.shape[-1]}")
        for state in states:
            state.d_A, state.d_B, state._reduced = d_A, d_B, None

    def reduced(self) -> DensityMatrix:
        """The reduced state rho_A (``partial_trace``), computed once and cached."""
        return partial_trace(self, "A")

    def __repr__(self):
        return f"BipartiteDensityMatrix(d_A={self.d_A}, d_B={self.d_B})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, ascending) and unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _input_hash(mat: np.ndarray) -> str:
    import hashlib  # only on a solver failure; keeps OpenSSL out of every import
    return hashlib.sha1(np.ascontiguousarray(mat).tobytes()).hexdigest()[:16]


def _canonical_eigenspaces(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Replace the basis of each (d, g) eigenspace block of an (m, d, g) stack
    by a canonical one independent of the solver's arbitrary choice:
    Gram-Schmidt the block's projections of the standard basis vectors, taken
    in index order. Dot products and norms are batched ``matmul`` calls
    (``einsum`` would change last bits) and a block skips the steps of the
    vectors it has not found, so each block gets the bits of a one-block
    loop. Returns the blocks and the count of vectors each found: an
    orthonormal block finds g (a nonzero projector Q onto the unfilled part
    has 1 <= tr Q = sum_i |Q e_i|^2, yet each |Q e_i| <= 1e-6)."""
    m, d, g = blocks.shape
    proj = blocks @ blocks.conj().swapaxes(-1, -2)
    cols = np.zeros((m, g, d), dtype=np.complex128)
    found = np.zeros(m, dtype=np.intp)
    for i in range(d):
        c = proj[:, :, i].copy()
        for j, q in enumerate(cols.swapaxes(0, 1)[:found.max()]):   # q = cols[:, j]
            step = c - q * (q.conj()[:, None] @ c[..., None])[..., 0]
            c = np.where((j < found)[:, None], step, c)
        re, im = c.real[:, None], c.imag[:, None]
        nrm = np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0])
        take = np.flatnonzero((nrm > 1e-6) & (found < g))
        cols[take, found[take]] = c[take] / nrm[take, None]
        found[take] += 1
        if found.min() == g:
            break
    return cols.swapaxes(-1, -2), found


def stacked_eig(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenvalues (ascending) and eigenvectors of Hermitian
    matrices over a leading ``...`` axis, from one ``eigh`` call; each
    matrix gets the bits of decomposing it alone. Deterministic: a
    degenerate eigenspace's basis is rebuilt from standard-basis projections
    in index order (one pass per block pattern), and each eigenvector's
    largest-magnitude component is made real positive."""
    try:
        w, v = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigendecomposition failed: {exc}",
                          input_hash=_input_hash(mats)) from exc
    n = w.shape[-1]
    flat_w, flat_v = w.reshape(-1, n), v.reshape(-1, n, n)
    gtol = DEGENERACY_TOL * np.abs(flat_w).max(-1, initial=1.0)
    # ties between neighbours, padded with False: each run of ties between
    # edges a and b of matrix k is the degenerate eigenspace a:b + 1
    run = np.zeros((len(flat_w), n + 1), dtype=bool)
    run[:, 1:-1] = np.diff(flat_w) <= gtol[:, None]
    ks, edges = np.nonzero(np.diff(run))
    groups = {}
    for k, a, b in zip(ks[::2].tolist(), edges[::2].tolist(), edges[1::2].tolist()):
        groups.setdefault((a, b + 1), []).append(k)
    # one pass per block pattern; a block of fewer than b - a canonical
    # vectors is not orthonormal, so LAPACK failed it
    for (a, b), group in groups.items():
        flat_v[group, :, a:b], found = _canonical_eigenspaces(flat_v[group, :, a:b])
        if found.min() < b - a:
            k = group[int(found.argmin())]
            raise SolverError(f"a degenerate eigenspace of dimension {b - a} spans "
                              f"{found.min()} canonical vectors",
                              input_hash=_input_hash(np.reshape(mats, (-1, n, n))[k]))
    # global phases: largest-magnitude component real positive, all at once
    pivots = flat_v[np.arange(len(flat_v))[:, None], np.abs(flat_v).argmax(-2), np.arange(n)]
    safe = np.abs(pivots)
    safe[safe == 0] = 1.0
    flat_v *= (pivots.conj() / safe)[:, None, :]
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def herm_eig(op: HermitianOperator) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator (``stacked_eig``)."""
    w, v = stacked_eig(check_type(op, HermitianOperator, "op").mat)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def clipped_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of a validated state with its accepted negatives clipped
    to 0. Positive values under SPECTRUM_FLOOR times the spectral radius are
    snapped to exact zeros as well (roundoff, not rank)."""
    w = np.maximum(rho.spectral().eigenvalues, 0.0)
    w[w < SPECTRUM_FLOOR * float(w[-1])] = 0.0
    return w


def powered_spectrum(w: np.ndarray, alpha: float) -> np.ndarray:
    """Elementwise w**alpha with the convention 0**alpha = 0 for all alpha in
    [0, 1], including alpha = 0 (support-projector convention)."""
    return np.power(w, alpha, out=np.zeros_like(w), where=w > 0.0)


def as_int(x, minimum: int, name: str) -> int:
    """``x`` as an int >= ``minimum``; a bool or a float is not an integer here."""
    if (type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Integral))
            or x < minimum):
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {x!r}")
    return int(x)


def as_real(x, name: str = "value", lo: float = -math.inf, hi: float = math.inf) -> float:
    """``x`` as a finite float in [lo, hi]; a bool, a string, a complex
    number or an integer too large for a float is not real here."""
    if (type(x) is not float and (isinstance(x, bool) or not isinstance(x, numbers.Real))
            or not -sys.float_info.max <= x <= sys.float_info.max):   # NaN fails here too
        raise ValidationError(f"{name} must be a finite real number, got {x!r}")
    x = float(x)
    if not lo <= x <= hi:
        raise ValidationError(f"{name} must lie in [{lo:g}, {hi:g}], got {x}")
    return x


def check_alpha(alpha: float) -> float:
    """The fractional-power exponent, a real number in [0, 1]."""
    return as_real(alpha, "alpha", 0.0, 1.0)


def as_alphas(alphas) -> tuple[float, ...]:
    """A nonempty list or tuple of alphas (``check_alpha``) as a tuple of floats."""
    if not isinstance(alphas, (list, tuple)) or not alphas:
        raise ValidationError(f"alphas must be a nonempty list or tuple, got {alphas!r}")
    return tuple(map(check_alpha, alphas))


def check_type(x, kind: type, name: str):
    """``x`` if it is a ``kind``; a ``ValidationError`` naming it if not."""
    if not isinstance(x, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {type(x).__name__}")
    return x


def state_stack(states, kind: type = DensityMatrix) -> tuple[tuple[DensityMatrix, ...], bool]:
    """``((state,), False)`` for one ``kind`` of state, ``(tuple(states), True)``
    for a nonempty list or tuple of them of one dimension (and one d_A if
    bipartite): the functions that take either score a stack and answer per state."""
    stacked = isinstance(states, (list, tuple))
    states = tuple(states) if stacked else (states,)
    if not all(isinstance(s, kind) for s in states):
        raise ValidationError(f"expected a {kind.__name__} or a list of them")
    if len(states) != 1 and (len({s.dim for s in states}) != 1 or len(
            {s.d_A for s in states if isinstance(s, BipartiteDensityMatrix)}) > 1):
        raise ShapeError("a state stack needs one or more states of one shape")
    return states, stacked


def fractional_power(rho: DensityMatrix, alpha: float) -> HermitianOperator:
    """rho**alpha through the spectral decomposition.

    Negative eigenvalues the state accepted are clipped to 0 before powering;
    zero eigenvalues stay zero for every alpha (so rho**0 is the support
    projector, not the identity).
    """
    alpha = check_alpha(alpha)
    w = powered_spectrum(clipped_spectrum(check_type(rho, DensityMatrix, "rho")), alpha)
    v = rho.spectral().eigenvectors
    m = (v * w) @ v.conj().T
    return HermitianOperator(0.5 * (m + m.conj().T))


def kron(a, b) -> np.ndarray:
    """Tensor product of two complex square matrices, row-major: |i>|j> -> i*d_B + j."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def stacked_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``kron(a[k], b[k])`` over the broadcast leading axes of two arrays of
    square matrices, by broadcasting and without coercion."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    d = a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (d, d))


# Reduction of a valid state is a valid state; its PSD guard is loosened only
# enough to absorb the einsum rounding.
_REDUCED_PSD_TOL = 1e-9


def partial_trace(rho, keep: str):
    """Keep factor ``keep`` ('A' or 'B') of a bipartite state, or of each of a
    stack (``state_stack``: one ``einsum`` and one ``DensityMatrix.stack``,
    returned as a tuple); rho_A is cached on each state as its ``reduced()``."""
    if keep not in ("A", "B"):
        raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")
    states, stacked = state_stack(rho, BipartiteDensityMatrix)
    todo = [state for state in states if keep == "B" or state._reduced is None]
    if todo:
        da, db = todo[0].d_A, todo[0].d_B
        t = np.stack([state.mat for state in todo]).reshape(-1, da, db, da, db)
        reds = DensityMatrix.stack(
            np.einsum('...ijkj->...ik' if keep == "A" else '...ijil->...jl', t), _REDUCED_PSD_TOL)
        if keep == "B":
            return tuple(reds) if stacked else reds[0]
        for state, red in zip(todo, reds):
            state._reduced = red
    return tuple(state._reduced for state in states) if stacked else states[0]._reduced


def check_dims(*operators: HermitianOperator) -> None:
    """Each of ``operators`` is a Hermitian operator, all of one dimension."""
    dims = [check_type(op, HermitianOperator, "operator").dim for op in operators]
    if len(set(dims)) > 1:
        raise ShapeError(f"dimension mismatch: {' vs '.join(map(str, dims))}")


def commutator(a: HermitianOperator, b: HermitianOperator) -> np.ndarray:
    """AB - BA (anti-Hermitian for Hermitian inputs)."""
    check_dims(a, b)
    return a.mat @ b.mat - b.mat @ a.mat


def anticommutator(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """AB + BA, returned as a validated Hermitian operator."""
    check_dims(a, b)
    m = a.mat @ b.mat + b.mat @ a.mat
    return HermitianOperator(0.5 * (m + m.conj().T))
