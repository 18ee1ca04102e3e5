"""Row-level evaluation for the sweep command: build the example states at
given mixing parameters (or take loaded states), compute the quantum
correlation and both memory bounds through the numeric pipeline at Pauli x/z
bases, and put the closed-form values next to them. The states of a sweep
are scored as one stack, and the D computation and the bounds share its
engines through ``skew.engine``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bounds import example_closed_forms, memory_bounds
from .correlation import brute_force_D_qubit, quantum_correlation_D
from .errors import ValidationError
from .linalg import BipartiteDensityMatrix, state_stack
from .states import pauli_basis, werner_isotropic, werner_swap

EXAMPLE_P_RANGES = {1: (-1.0, 1.0), 3: (0.0, 1.0)}

# Most points a p grid may have; the default grids have 101 to 201.
MAX_GRID_POINTS = 100_000

# Maximum |pipeline - closed form| per row for the sweep to count as a
# faithful reproduction.
SWEEP_ERR_TOL = 1e-8

# Keys of every sweep row, in output order. The closed-form columns and
# abs_err_max are None for states without closed forms.
ROW_COLUMNS = (
    "p", "alpha", "lhs_product", "rhs_product", "lhs_sum", "rhs_sum",
    "sum_L", "D_tilde", "closed_form_lhs_product", "closed_form_rhs_product",
    "closed_form_lhs_sum", "closed_form_rhs_sum", "abs_err_max",
)


# The states of a p grid are built as one stack, and rows at one p share one
# state, so its validation, spectrum, reduction and ``skew.engine`` entries
# are paid once per p, not once per alpha; a few entries suffice, since a
# sweep computes the rows of one p (or one grid) one after another. Safe for
# the same reason as ``skew.engine``: the matrices are read-only and
# ``spectral()`` / ``reduced()`` are deterministic memos.
@lru_cache(maxsize=8)
def example_states(example_id: int, ps: tuple) -> tuple[BipartiteDensityMatrix, ...]:
    if example_id == 1:
        return tuple(werner_swap(ps))
    if example_id == 3:
        return tuple(werner_isotropic(ps))
    raise ValidationError(f"unknown example id {example_id}")


def certified_d(state, alpha: float, oracle: str, seed: int = 0):
    """D of ``state``, or of each of a stack of states, through the selected
    minimizer; ``seed`` seeds the optimizer."""
    if oracle not in ("grid", "optimizer"):
        raise ValidationError(f"oracle must be 'grid' or 'optimizer', got {oracle!r}")
    if oracle == "grid":
        return brute_force_D_qubit(state, alpha)
    states, stacked = state_stack(state)
    values = [quantum_correlation_D(s, alpha, seed).value for s in states]
    return values if stacked else values[0]


def state_rows(states, ps, alphas, oracle: str, seed: int = 0,
               example_id: int | None = None) -> list[dict]:
    """Output rows of a stack of states at each of ``alphas``, in (state,
    alpha) order, each alpha scored in one call per quantity: D, both memory
    bounds at Pauli x/z bases, and, for examples 1 and 3, the closed forms at
    the state's p in ``ps`` with the worst absolute deviation from them."""
    rows = [[] for _ in states]
    for alpha in alphas:
        d_values = certified_d(states, alpha, oracle, seed)
        reports = memory_bounds(states, pauli_basis("x"), pauli_basis("z"), alpha,
                                d_values)
        for per_state, p, d_value, (prod, summ) in zip(rows, ps, d_values, reports):
            row = dict.fromkeys(ROW_COLUMNS)
            row.update(p=p, alpha=alpha, lhs_product=prod.lhs, rhs_product=prod.rhs,
                       lhs_sum=summ.lhs, rhs_sum=summ.rhs, sum_L=prod.terms["sum_L"],
                       D_tilde=d_value)
            if example_id in (1, 3):
                cp_l, cp_r = example_closed_forms(example_id, "product", p, alpha)
                cs_l, cs_r = example_closed_forms(example_id, "sum", p, alpha)
                row.update(closed_form_lhs_product=cp_l, closed_form_rhs_product=cp_r,
                           closed_form_lhs_sum=cs_l, closed_form_rhs_sum=cs_r,
                           abs_err_max=max(abs(prod.lhs - cp_l), abs(prod.rhs - cp_r),
                                           abs(summ.lhs - cs_l), abs(summ.rhs - cs_r)))
            per_state.append(row)
    return [row for per_state in rows for row in per_state]


def sweep_rows(example_id: int, ps, alphas, oracle: str, seed: int = 0) -> list[dict]:
    """``state_rows`` of an example family's states at ``ps``, scored as one
    stack: pipeline values next to the closed forms, in (p, alpha) order."""
    return state_rows(example_states(example_id, tuple(ps)), ps, alphas, oracle, seed,
                      example_id)


def sweep_row(example_id: int, p: float | None, alpha: float, oracle: str,
              seed: int = 0) -> dict:
    """``sweep_rows`` at one p and one alpha."""
    return sweep_rows(example_id, (p,), (alpha,), oracle, seed)[0]


def p_grid(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid; the last point is clamped to ``stop`` so
    accumulated rounding cannot step outside a validated parameter range."""
    if step <= 0:
        raise ValidationError(f"step must be positive, got {step}")
    if stop < start:
        raise ValidationError(f"empty grid: stop {stop} < start {start}")
    n = np.floor((stop - start) / step + 1e-9)
    if not n + 1 <= MAX_GRID_POINTS:   # also catches an infinite count
        raise ValidationError(f"step {step} is too small for [{start}, {stop}]: "
                              f"a grid has at most {MAX_GRID_POINTS} points")
    return [min(start + i * step, stop) for i in range(int(n) + 1)]


def example_grid(example_id: int, start=None, stop=None, step=None) -> list[float]:
    """``p_grid`` of example 1 or 3 from ``start`` to ``stop`` (default: its
    range in ``EXAMPLE_P_RANGES``) in steps of ``step`` (default 0.01). An end
    within 1e-12 outside the range is the range's end."""
    lo, hi = EXAMPLE_P_RANGES[example_id]
    start, stop = (lo if start is None else start), (hi if stop is None else stop)
    if start < lo - 1e-12 or stop > hi + 1e-12 or stop < start:
        raise ValidationError(f"p grid [{start}, {stop}] outside the valid range [{lo}, {hi}]")
    start, stop = (min(max(x, lo), hi) for x in (start, stop))
    return p_grid(start, stop, 0.01 if step is None else step)
