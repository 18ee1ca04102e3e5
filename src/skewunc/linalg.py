"""Dense complex linear algebra: validated operator types, Hermitian
eigendecomposition with deterministic tie-breaking, fractional matrix powers,
tensor products and partial traces.

Index convention for composite systems: basis state |i>_A |j>_B maps to the
flat index i * d_B + j (row-major), which is exactly what ``numpy.kron``
produces. Every module in this package relies on that convention.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, ShapeError, SolverError, ValidationError

# Validation tolerances. Only the PSD one is per call (``partial_trace``
# loosens it for reduced states).
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


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries.

    Returns a fresh read-only copy so validated values can be shared freely.
    """
    mat = np.array(a, dtype=np.complex128, copy=True)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] == 0:
        raise ShapeError("empty matrix")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise ValidationError("matrix contains NaN or Inf entries")
    mat.flags.writeable = False
    return mat


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


class HermitianOperator:
    """Complex square matrix asserted Hermitian at construction."""

    __slots__ = ("mat", "_spectral")

    def __init__(self, mat):
        m = as_complex_matrix(mat)
        drift = _max_abs(m - m.conj().T)
        if drift > HERM_TOL:
            raise ValidationError(
                f"matrix is not Hermitian: max |A - A^dag| = {drift:.3e} "
                f"> {HERM_TOL:.3e}")
        self.mat = m
        self._spectral: SpectralDecomposition | None = None

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def spectral(self) -> "SpectralDecomposition":
        """Eigendecomposition, computed once and cached (mat is immutable)."""
        if self._spectral is None:
            self._spectral = herm_eig(self)
        return self._spectral

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class DensityMatrix(HermitianOperator):
    """Hermitian, positive-semidefinite, unit-trace operator.

    Its spectrum is checked here, once: eigenvalues down to -psd_tol are
    accepted, and everything computed from the state clips them to 0.
    """

    __slots__ = ()

    def __init__(self, mat, psd_tol: float = PSD_TOL):
        super().__init__(mat)
        tr = complex(np.trace(self.mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidStateError(f"trace is {tr:.12g}, expected 1")
        lo = float(self.spectral().eigenvalues[0])
        if lo < -psd_tol:
            raise InvalidStateError(
                f"smallest eigenvalue {lo:.3e} < -{psd_tol:.3e}")


class BipartiteDensityMatrix(DensityMatrix):
    """Density matrix with declared tensor-factor dimensions (d_A, d_B)."""

    __slots__ = ("d_A", "d_B", "_reduced")

    def __init__(self, mat, d_A: int, d_B: int):
        super().__init__(mat)
        if d_A < 1 or d_B < 1 or d_A * d_B != self.dim:
            raise ShapeError(
                f"declared factors {d_A}x{d_B} do not match dimension {self.dim}")
        self.d_A = int(d_A)
        self.d_B = int(d_B)
        self._reduced: DensityMatrix | None = None

    def reduced(self) -> DensityMatrix:
        """The reduced state rho_A, computed once and cached (mat is immutable)."""
        if self._reduced is None:
            self._reduced = partial_trace(self, "A")
        return self._reduced

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


def _canonical_eigenspace(block: np.ndarray) -> np.ndarray:
    """Replace an eigenspace basis by a canonical one independent of the
    solver's arbitrary choice: Gram-Schmidt the eigenspace projections of the
    standard basis vectors, taken in index order."""
    d, g = block.shape
    proj = block @ block.conj().T
    cols = []
    for i in range(d):
        c = proj[:, i].copy()
        for q in cols:
            c -= q * (q.conj() @ c)
        nrm = float(np.linalg.norm(c))
        if nrm > 1e-6:
            cols.append(c / nrm)
            if len(cols) == g:
                break
    if len(cols) < g:  # projections were too collinear; keep solver basis
        return block
    return np.column_stack(cols)


def herm_eig(op: HermitianOperator) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator.

    Eigenvalues ascend. Output is deterministic for identical input: within a
    degenerate eigenspace the basis is rebuilt from standard-basis projections
    in index order, and every eigenvector's phase is fixed so its
    largest-magnitude component is real positive.
    """
    mat = op.mat
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigendecomposition failed: {exc}",
                          input_hash=_input_hash(mat)) from exc
    scale = max(float(np.max(np.abs(w))), 1.0)
    gtol = DEGENERACY_TOL * scale
    n = w.shape[0]
    v = v.copy()
    if np.any(np.diff(w) <= gtol):
        i = 0
        while i < n:
            j = i + 1
            while j < n and w[j] - w[j - 1] <= gtol:
                j += 1
            if j - i > 1:
                v[:, i:j] = _canonical_eigenspace(v[:, i:j])
            i = j
    # global phases: largest-magnitude component real positive, all at once
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
    safe = np.abs(pivots)
    safe[safe == 0] = 1.0
    v *= (pivots.conj() / safe)
    w.flags.writeable = False
    v.flags.writeable = False
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def clipped_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of a validated state with its accepted negatives clipped
    to 0. Positive values under SPECTRUM_FLOOR times the spectral radius are
    snapped to exact zeros as well (roundoff, not rank)."""
    if not isinstance(rho, DensityMatrix):
        raise ValidationError(f"expected a validated state, got {type(rho).__name__}")
    w = np.maximum(rho.spectral().eigenvalues, 0.0)
    top = float(w[-1])
    if top > 0.0:
        w[w < SPECTRUM_FLOOR * top] = 0.0
    return w


def powered_spectrum(w: np.ndarray, alpha: float) -> np.ndarray:
    """Elementwise w**alpha with the convention 0**alpha = 0 for all alpha in
    [0, 1], including alpha = 0 (support-projector convention)."""
    return np.power(w, alpha, out=np.zeros_like(w), where=w > 0.0)


def check_alpha(alpha: float) -> float:
    """Validate the fractional-power exponent, a real number (not a bool)."""
    if type(alpha) is not float and (isinstance(alpha, bool)
                                     or not isinstance(alpha, numbers.Real)):
        raise ValidationError(f"alpha must be a real number, got {alpha!r}")
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def is_int(x, minimum: int) -> bool:
    """``x`` is an integer >= ``minimum``; a bool is not an integer here."""
    return not isinstance(x, bool) and isinstance(x, numbers.Integral) and x >= minimum


def state_stack(states) -> tuple[tuple[HermitianOperator, ...], bool]:
    """``((state,), False)`` for one state, ``(tuple(states), True)`` for a
    nonempty sequence of states of one dimension (and one d_A if bipartite):
    the functions that take either score a stack and answer per state."""
    if isinstance(states, HermitianOperator):
        return (states,), False
    states = tuple(states)
    if len(states) != 1 and (len({s.dim for s in states}) != 1 or len(
            {s.d_A for s in states if isinstance(s, BipartiteDensityMatrix)}) > 1):
        raise ShapeError("a state stack needs one or more states of one shape")
    return states, True


def fractional_power(rho: DensityMatrix, alpha: float) -> HermitianOperator:
    """rho**alpha through the spectral decomposition.

    Negative eigenvalues the state accepted are clipped to 0 before powering;
    zero eigenvalues stay zero for every alpha (so rho**0 is the support
    projector, not the identity).
    """
    alpha = check_alpha(alpha)
    w = powered_spectrum(clipped_spectrum(rho), alpha)
    v = rho.spectral().eigenvectors
    m = (v * w) @ v.conj().T
    return HermitianOperator(0.5 * (m + m.conj().T))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the row-major convention |i>|j> -> i*d_B + j."""
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace(rho: BipartiteDensityMatrix, keep: str) -> DensityMatrix:
    """Trace out one factor of a bipartite state; ``keep`` is 'A' or 'B'."""
    if keep not in ("A", "B"):
        raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")
    da, db = rho.d_A, rho.d_B
    t = rho.mat.reshape(da, db, da, db)
    reduced = np.einsum('ijkj->ik', t) if keep == "A" else np.einsum('ijil->jl', t)
    # Reduction of a valid state is a valid state; loosen the PSD guard only
    # enough to absorb the einsum rounding.
    return DensityMatrix(reduced, psd_tol=1e-9)


def _check_same_dim(a: HermitianOperator, b: HermitianOperator) -> None:
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")


def commutator(a: HermitianOperator, b: HermitianOperator) -> np.ndarray:
    """AB - BA (anti-Hermitian for Hermitian inputs)."""
    _check_same_dim(a, b)
    return a.mat @ b.mat - b.mat @ a.mat


def anticommutator(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """AB + BA, returned as a validated Hermitian operator."""
    _check_same_dim(a, b)
    m = a.mat @ b.mat + b.mat @ a.mat
    return HermitianOperator(0.5 * (m + m.conj().T))
