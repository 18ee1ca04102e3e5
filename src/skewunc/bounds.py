"""Uncertainty-bound checkers. Three inequalities are covered:

* the memoryless product bound U(rho,R) U(rho,S) >= a(1-a) |Tr rho [R,S]|^2,
* the product bound with memory, whose right side is the summed squared
  compatibility terms plus the squared quantum correlation,
* the sum bound with memory, right side twice the summed compatibility terms
  plus twice the quantum correlation.

Each checker returns a BoundReport carrying both sides, the named component
terms, and a holds flag at an explicit tolerance. The quantum correlation
enters as an explicit argument so callers control its certification level
(exact qubit oracle, optimizer, or an analytically known value).

Both memory bounds share their terms: ``memory_bounds`` scores them once
(against the engines ``skew.engine`` keeps for the joint and the reduced
state) and returns both reports. ``product_bound_check`` and
``sum_bound_check`` return one of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import (
    BipartiteDensityMatrix,
    DensityMatrix,
    HermitianOperator,
    check_alpha,
)
from .skew import (
    NEG_CLIP,
    ProjectiveBasis,
    compat_L,
    engine,
    measurement_uncertainty_terms,
)

# Default holds-tolerances: tight when every input is exact, looser when the
# quantum correlation comes from an oracle.
HEISENBERG_TOL = 1e-9
MEMORY_BOUND_TOL = 1e-6

# Closed-form inner expressions smaller than this are float noise around an
# exact zero and are snapped to 0 (they may be squared or square-rooted).
_NOISE_SNAP = 1e-14


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: sides, component terms, and the verdict."""

    kind: str
    lhs: float
    rhs: float
    terms: dict
    holds: bool
    slack: float
    tolerance: float


def _report(kind: str, lhs: float, rhs: float, terms: dict,
            tolerance: float) -> BoundReport:
    slack = lhs - rhs
    return BoundReport(kind=kind, lhs=lhs, rhs=rhs, terms=terms,
                       holds=bool(slack >= -tolerance), slack=slack,
                       tolerance=tolerance)


def heisenberg_type_check(rho: DensityMatrix, r: HermitianOperator,
                          s: HermitianOperator, alpha: float,
                          tolerance: float = HEISENBERG_TOL) -> BoundReport:
    """Memoryless bound: product of the two geometric-mean uncertainties
    against a(1-a) |Tr rho [R, S]|^2."""
    alpha = check_alpha(alpha)
    eng = engine(rho, alpha)
    pr = eng.pair(r.mat)
    ps = eng.pair(s.mat)
    comm = r.mat @ s.mat - s.mat @ r.mat
    comm_sq = abs(complex(np.trace(rho.mat @ comm)))**2
    alpha_factor = alpha * (1.0 - alpha)
    terms = {
        "u_alpha_R": pr.u_alpha,
        "u_alpha_S": ps.u_alpha,
        "i_alpha_R": pr.i_alpha,
        "j_alpha_R": pr.j_alpha,
        "i_alpha_S": ps.i_alpha,
        "j_alpha_S": ps.j_alpha,
        "alpha_factor": alpha_factor,
        "commutator_trace_abs_sq": comm_sq,
    }
    return _report("heisenberg", pr.u_alpha * ps.u_alpha,
                   alpha_factor * comm_sq, terms, tolerance)


def _check_d_value(d_value: float) -> float:
    d_value = float(d_value)
    if d_value < -NEG_CLIP:
        raise ValidationError(
            f"quantum correlation must be nonnegative, got {d_value:.3e}")
    return max(d_value, 0.0)


def _memory_terms(rho_ab: BipartiteDensityMatrix, phi: ProjectiveBasis,
                  psi: ProjectiveBasis, alpha: float, d_value: float) -> dict:
    if phi.dim != rho_ab.d_A or psi.dim != rho_ab.d_A:
        raise ValidationError(
            f"both bases must live on the measured subsystem "
            f"(dimension {rho_ab.d_A})")
    un_phi = measurement_uncertainty_terms(rho_ab, phi, alpha, memory_dim=rho_ab.d_B)
    un_psi = measurement_uncertainty_terms(rho_ab, psi, alpha, memory_dim=rho_ab.d_B)
    rho_a = rho_ab.reduced()
    per_k_l = [compat_L(rho_a, phi.projector(k), psi.projector(k), alpha)
               for k in range(phi.dim)]
    return {
        "un_phi": float(sum(t.u_alpha for t in un_phi)),
        "un_psi": float(sum(t.u_alpha for t in un_psi)),
        "per_k_UN_phi": [t.u_alpha for t in un_phi],
        "per_k_UN_psi": [t.u_alpha for t in un_psi],
        "per_k_I_phi": [t.i_alpha for t in un_phi],
        "per_k_I_psi": [t.i_alpha for t in un_psi],
        "per_k_L": per_k_l,
        "sum_L": float(sum(per_k_l)),
        "sum_L_sq": float(sum(l * l for l in per_k_l)),
        "D_tilde": d_value,
    }


def memory_bounds(rho_ab: BipartiteDensityMatrix, phi: ProjectiveBasis,
                  psi: ProjectiveBasis, alpha: float, d_value: float,
                  tolerance: float = MEMORY_BOUND_TOL) -> tuple[BoundReport, BoundReport]:
    """Product and sum bounds with memory, from one evaluation of their
    shared terms.

    Product: the product of the two total measurement uncertainties against
    sum_L_sq + D_tilde^2. Sum: their sum against 2 sum_L + 2 D_tilde.
    """
    alpha = check_alpha(alpha)
    d_value = _check_d_value(d_value)
    terms = _memory_terms(rho_ab, phi, psi, alpha, d_value)
    prod = _report("product", terms["un_phi"] * terms["un_psi"],
                   terms["sum_L_sq"] + d_value * d_value, terms, tolerance)
    summ = _report("sum", terms["un_phi"] + terms["un_psi"],
                   2.0 * terms["sum_L"] + 2.0 * d_value, dict(terms), tolerance)
    return prod, summ


def product_bound_check(rho_ab: BipartiteDensityMatrix, phi: ProjectiveBasis,
                        psi: ProjectiveBasis, alpha: float, d_value: float,
                        tolerance: float = MEMORY_BOUND_TOL) -> BoundReport:
    """Product bound with memory: the product of the two total measurement
    uncertainties against sum_L_sq + D_tilde^2."""
    return memory_bounds(rho_ab, phi, psi, alpha, d_value, tolerance)[0]


def sum_bound_check(rho_ab: BipartiteDensityMatrix, phi: ProjectiveBasis,
                    psi: ProjectiveBasis, alpha: float, d_value: float,
                    tolerance: float = MEMORY_BOUND_TOL) -> BoundReport:
    """Sum bound with memory: the sum of the two total measurement
    uncertainties against 2 sum_L + 2 D_tilde."""
    return memory_bounds(rho_ab, phi, psi, alpha, d_value, tolerance)[1]


def _snap(x: float) -> float:
    return 0.0 if abs(x) < _NOISE_SNAP else x


def _pow0(base: float, expo: float) -> float:
    """base**expo with 0**e = 0 for every e in [0, 1] (support convention,
    matching the fractional powers used by the numeric pipeline)."""
    return 0.0 if base == 0.0 else float(base) ** expo


def example_closed_forms(example_id: int, side: str, p: float,
                         alpha: float) -> tuple[float, float]:
    """Closed-form left and right sides of the memory bounds for the two
    analytic two-qubit families (1: swap-Werner over p in [-1, 1]; 3:
    isotropic over p in [0, 1]), at Pauli x/z measurement bases.

    Inner expressions within 1e-14 of zero are snapped to exact zero before
    squaring or taking square roots, so degenerate sweep points (maximally
    mixed states) evaluate to exact zeros instead of amplified rounding.
    """
    alpha = check_alpha(alpha)
    if side not in ("product", "sum"):
        raise ValidationError(f"side must be 'product' or 'sum', got {side!r}")
    p = float(p)
    if example_id == 1:
        if not (-1.0 <= p <= 1.0):
            raise ValidationError(f"example 1 needs p in [-1, 1], got {p}")
        t = (_pow0(3.0 - 3.0 * p, alpha) * _pow0(1.0 + p, 1.0 - alpha)
             + _pow0(1.0 + p, alpha) * _pow0(3.0 - 3.0 * p, 1.0 - alpha))
        x = max(_snap((2.0 - p) / 12.0 - t / 24.0), 0.0)
        y = max(_snap((4.0 + p) / 12.0 + t / 24.0), 0.0)
        if side == "product":
            return 4.0 * x * y, (2.0 * x) ** 2
        return 4.0 * np.sqrt(x) * np.sqrt(y), max(_snap((2.0 - p) / 3.0 - t / 6.0), 0.0)
    if example_id == 3:
        if not (0.0 <= p <= 1.0):
            raise ValidationError(f"example 3 needs p in [0, 1], got {p}")
        s = (_pow0(1.0 - p, alpha) * _pow0(1.0 + 3.0 * p, 1.0 - alpha)
             + _pow0(1.0 - p, 1.0 - alpha) * _pow0(1.0 + 3.0 * p, alpha))
        x = max(_snap((1.0 + p) / 8.0 - s / 16.0), 0.0)
        y = max(_snap((3.0 - p) / 8.0 + s / 16.0), 0.0)
        if side == "product":
            return 4.0 * x * y, 4.0 * x * x
        return 4.0 * np.sqrt(x) * np.sqrt(y), max(_snap((1.0 + p) / 2.0 - s / 4.0), 0.0)
    raise ValidationError(
        f"closed forms exist for examples 1 and 3 only, got {example_id}")
