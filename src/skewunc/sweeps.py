"""Row-level evaluation for the sweep command: build the example state at a
given mixing parameter (or take a loaded state), compute the quantum
correlation and both memory bounds through the numeric pipeline at Pauli x/z
bases, and put the closed-form values next to them. The D computation and
the bounds share the state's engines through ``skew.engine``.
"""

from __future__ import annotations

import numpy as np

from .bounds import example_closed_forms, memory_bounds
from .correlation import OptimizerConfig, brute_force_D_qubit, quantum_correlation_D
from .errors import ValidationError
from .linalg import BipartiteDensityMatrix
from .states import example2_state, pauli_basis, werner_isotropic, werner_swap

EXAMPLE_P_RANGES = {1: (-1.0, 1.0), 2: None, 3: (0.0, 1.0)}

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


def example_state(example_id: int, p: float | None) -> BipartiteDensityMatrix:
    if example_id == 1:
        return werner_swap(p)
    if example_id == 3:
        return werner_isotropic(p)
    if example_id == 2:
        return example2_state()
    raise ValidationError(f"unknown example id {example_id}")


def certified_d(state: BipartiteDensityMatrix, alpha: float, oracle: str,
                optimizer_cfg: OptimizerConfig | None = None) -> float:
    """Quantum correlation of ``state`` through the selected minimizer."""
    if oracle not in ("grid", "optimizer"):
        raise ValidationError(f"oracle must be 'grid' or 'optimizer', got {oracle!r}")
    if oracle == "grid":
        return brute_force_D_qubit(state, alpha)
    return quantum_correlation_D(state, alpha, optimizer_cfg or OptimizerConfig()).value


def state_row(state: BipartiteDensityMatrix, alpha: float, oracle: str,
              optimizer_cfg: OptimizerConfig | None = None,
              p: float | None = None, example_id: int | None = None) -> dict:
    """One output row for ``state``: D, both memory bounds at Pauli x/z bases,
    and, for examples 1 and 3, the closed forms at ``p`` with the worst
    absolute deviation from them."""
    d_value = certified_d(state, alpha, oracle, optimizer_cfg=optimizer_cfg)
    prod, summ = memory_bounds(state, pauli_basis("x"), pauli_basis("z"), alpha,
                               d_value)
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
    return row


def sweep_row(example_id: int, p: float | None, alpha: float, oracle: str,
              optimizer_cfg: OptimizerConfig | None = None) -> dict:
    """One output row of an example family: pipeline values, closed forms
    where they exist, and the worst absolute deviation between the two."""
    return state_row(example_state(example_id, p), alpha, oracle,
                     optimizer_cfg=optimizer_cfg, p=p, example_id=example_id)


def p_grid(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid; the last point is clamped to ``stop`` so
    accumulated rounding cannot step outside a validated parameter range."""
    if step <= 0:
        raise ValidationError(f"step must be positive, got {step}")
    if stop < start:
        raise ValidationError(f"empty grid: stop {stop} < start {start}")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [min(start + i * step, stop) for i in range(n)]
