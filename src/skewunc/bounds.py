"""Uncertainty-bound checkers. Three inequalities are covered:

* the memoryless product bound U(rho,R) U(rho,S) >= a(1-a) |Tr rho [R,S]|^2,
* the product bound with memory, whose right side is the summed squared
  compatibility terms plus the squared quantum correlation,
* the sum bound with memory, right side twice the summed compatibility terms
  plus twice the quantum correlation.

Each checker returns a BoundReport carrying both sides, the named component
terms, and a holds flag at a fixed tolerance. The quantum correlation
enters as an explicit argument so callers control its certification level
(exact qubit oracle, optimizer, or an analytically known value).

Both memory bounds share their terms: ``memory_bounds`` scores them once
(both bases' embedded projectors in one stacked call on the engine
``skew.engine`` keeps for the joint state, both bases' projectors in one on
the reduced state's) and returns both reports. ``heisenberg_type_checks``
checks the memoryless bound at many alphas from one engine. Both also score
a stack of states in one call per engine. ``product_bound_check`` and
``sum_bound_check`` return one of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import (
    BipartiteDensityMatrix,
    DensityMatrix,
    HermitianOperator,
    as_real,
    check_alpha,
    check_type,
    reduced_states,
    state_stack,
)
from .skew import (
    NEG_CLIP,
    ProjectiveBasis,
    _check_dims,
    _stacked,
    compat_terms,
    embedded,
    engine,
)

# Holds-tolerances: tight when every input is exact, looser when the quantum
# correlation comes from an oracle.
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


def _per_state(values, states, stacked: bool, what: str) -> tuple:
    """``(values,)`` for a lone state; ``values``, one per state, for a stack."""
    try:
        values = tuple(values) if stacked else (values,)
    except TypeError:   # one value for a whole stack
        values = ()
    if len(values) != len(states):
        raise ShapeError(f"a stack of states needs one {what} per state")
    return values


def heisenberg_type_checks(rho, r, s, alphas: tuple[float, ...]) -> list:
    """Memoryless bound at each of ``alphas``: product of the two
    geometric-mean uncertainties against a(1-a) |Tr rho [R, S]|^2. Both
    observables are scored at every alpha from one stacked rotation, and the
    commutator trace is computed once. For a stack of states (see
    ``linalg.state_stack``), ``r`` and ``s`` hold one observable per state."""
    states, stacked = state_stack(rho)
    rs, ss = _per_state(r, states, stacked, "R"), _per_state(s, states, stacked, "S")
    _check_dims(states[0], *rs, *ss)   # the states share one dimension
    hs = _stacked([np.stack((r_op.mat, s_op.mat)) for r_op, s_op in zip(rs, ss)])
    r_mats, s_mats = hs[..., 0, :, :], hs[..., 1, :, :]
    comm = r_mats @ s_mats - s_mats @ r_mats
    traces = (_stacked([state.mat for state in states]) @ comm).trace(0, -2, -1).reshape(-1)
    scores = np.array(engine(*states).stacked_pairs(hs, alphas)).reshape(3, len(states), 2, -1)
    alphas = [float(alpha) for alpha in alphas]
    out = []
    for tr, (r_scores, s_scores) in zip(traces, scores.transpose(1, 2, 3, 0).tolist()):
        comm_sq = abs(complex(tr))**2
        reports = []
        for alpha, (i_r, j_r, u_r), (i_s, j_s, u_s) in zip(alphas, r_scores, s_scores):
            alpha_factor = alpha * (1.0 - alpha)
            terms = {"u_alpha_R": u_r, "u_alpha_S": u_s,
                     "i_alpha_R": i_r, "j_alpha_R": j_r,
                     "i_alpha_S": i_s, "j_alpha_S": j_s,
                     "alpha_factor": alpha_factor, "commutator_trace_abs_sq": comm_sq}
            reports.append(_report("heisenberg", u_r * u_s,
                                   alpha_factor * comm_sq, terms, HEISENBERG_TOL))
        out.append(reports)
    return out if stacked else out[0]


def heisenberg_type_check(rho: DensityMatrix, r: HermitianOperator,
                          s: HermitianOperator, alpha: float) -> BoundReport:
    """``heisenberg_type_checks`` at one alpha."""
    return heisenberg_type_checks(rho, r, s, (alpha,))[0]


def memory_bounds(rho_ab, phi: ProjectiveBasis, psi: ProjectiveBasis, alpha: float,
                  d_value) -> tuple[BoundReport, BoundReport] | list:
    """Product and sum bounds with memory, from one evaluation of their
    shared terms.

    Product: the product of the two total measurement uncertainties against
    sum_L_sq + D_tilde^2. Sum: their sum against 2 sum_L + 2 D_tilde.
    For a stack of states (see ``linalg.state_stack``), ``d_value`` holds one
    value per state.
    """
    states, stacked = state_stack(rho_ab, BipartiteDensityMatrix)
    # a D above -NEG_CLIP is float noise around 0
    d_values = [max(as_real(d, "quantum correlation", -NEG_CLIP), 0.0)
                for d in _per_state(d_value, states, stacked, "D value")]
    d_a = states[0].d_A
    if {check_type(basis, ProjectiveBasis, "basis").dim for basis in (phi, psi)} != {d_a}:
        raise ValidationError(
            f"both bases must live on the measured subsystem (dimension {d_a})")
    # both bases' embedded projectors from one rotation into each joint eigenbasis
    hs = embedded(np.concatenate((phi.projector_stack, psi.projector_stack)),
                  states[0].d_B)
    i, _, u = (x.reshape(len(states), 2, -1).tolist()
               for x in engine(*states).stacked_pairs(hs, (alpha,)))
    per_state_l = compat_terms(reduced_states(states),
                               phi.projector_stack, psi.projector_stack, alpha)
    out = []
    for (i_phi, i_psi), (u_phi, u_psi), per_k_l, d in zip(i, u, per_state_l, d_values):
        terms = {
            "un_phi": float(sum(u_phi)),
            "un_psi": float(sum(u_psi)),
            "per_k_UN_phi": u_phi,
            "per_k_UN_psi": u_psi,
            "per_k_I_phi": i_phi,
            "per_k_I_psi": i_psi,
            "per_k_L": per_k_l,
            "sum_L": float(sum(per_k_l)),
            "sum_L_sq": float(sum(l * l for l in per_k_l)),
            "D_tilde": d,
        }
        prod = _report("product", terms["un_phi"] * terms["un_psi"],
                       terms["sum_L_sq"] + d * d, terms, MEMORY_BOUND_TOL)
        summ = _report("sum", terms["un_phi"] + terms["un_psi"],
                       2.0 * terms["sum_L"] + 2.0 * d, dict(terms), MEMORY_BOUND_TOL)
        out.append((prod, summ))
    return out if stacked else out[0]


def product_bound_check(rho_ab: BipartiteDensityMatrix, phi: ProjectiveBasis,
                        psi: ProjectiveBasis, alpha: float, d_value: float) -> BoundReport:
    """Product bound with memory: the product of the two total measurement
    uncertainties against sum_L_sq + D_tilde^2."""
    return memory_bounds(rho_ab, phi, psi, alpha, d_value)[0]


def sum_bound_check(rho_ab: BipartiteDensityMatrix, phi: ProjectiveBasis,
                    psi: ProjectiveBasis, alpha: float, d_value: float) -> BoundReport:
    """Sum bound with memory: the sum of the two total measurement
    uncertainties against 2 sum_L + 2 D_tilde."""
    return memory_bounds(rho_ab, phi, psi, alpha, d_value)[1]


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
    if example_id == 1:
        p = as_real(p, "p", -1.0, 1.0)
        t = (_pow0(3.0 - 3.0 * p, alpha) * _pow0(1.0 + p, 1.0 - alpha)
             + _pow0(1.0 + p, alpha) * _pow0(3.0 - 3.0 * p, 1.0 - alpha))
        x = max(_snap((2.0 - p) / 12.0 - t / 24.0), 0.0)
        y = max(_snap((4.0 + p) / 12.0 + t / 24.0), 0.0)
        if side == "product":
            return 4.0 * x * y, (2.0 * x) ** 2
        return 4.0 * np.sqrt(x) * np.sqrt(y), max(_snap((2.0 - p) / 3.0 - t / 6.0), 0.0)
    if example_id == 3:
        p = as_real(p, "p", 0.0, 1.0)
        s = (_pow0(1.0 - p, alpha) * _pow0(1.0 + 3.0 * p, 1.0 - alpha)
             + _pow0(1.0 - p, 1.0 - alpha) * _pow0(1.0 + 3.0 * p, alpha))
        x = max(_snap((1.0 + p) / 8.0 - s / 16.0), 0.0)
        y = max(_snap((3.0 - p) / 8.0 + s / 16.0), 0.0)
        if side == "product":
            return 4.0 * x * y, 4.0 * x * x
        return 4.0 * np.sqrt(x) * np.sqrt(y), max(_snap((1.0 + p) / 2.0 - s / 4.0), 0.0)
    raise ValidationError(
        f"closed forms exist for examples 1 and 3 only, got {example_id}")
