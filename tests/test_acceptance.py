"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Expected total runtime is about 20 s on a 2-vCPU
machine; the Heisenberg-bound criterion (~7.5 s) and the 300 optimizer runs
of the oracle-equivalence criterion (~4 s) take the most.
"""

import json
from dataclasses import replace

import numpy as np
from skewunc.checks import (
    CheckConfig,
    prop_cq_nullity,
    prop_heisenberg,
    prop_local_monotonicity,
    prop_pure_reduction,
    prop_skew_ordering,
    prop_theorems_with_oracle,
)
from skewunc.cli import EXAMPLE2_NOTE, main
from skewunc.correlation import brute_force_D_qubit, quantum_correlation_D
from skewunc.states import EnsembleSpec, random_density, werner_swap
from skewunc.sweeps import p_grid, sweep_row

BASE = CheckConfig(seed=42)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:02d} ({name}): "
          f"{'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _sweep_worst(example_id: int, lo: float, hi: float) -> float:
    worst = 0.0
    for p in p_grid(lo, hi, 0.01):
        for alpha in (0.2, 0.5):
            row = sweep_row(example_id, p, alpha, "grid")
            worst = max(worst, row["abs_err_max"])
    return worst


def test_criterion_01_figure1_reproduction():
    worst = _sweep_worst(1, -1.0, 1.0)
    _report(1, "figure-1 reproduction", worst < 1e-8,
            f"worst |pipeline - closed form| = {worst:.3e} over 402 rows")


def test_criterion_02_figure2_reproduction():
    worst = _sweep_worst(3, 0.0, 1.0)
    ok = worst < 1e-8
    detail = [f"worst grid deviation {worst:.3e}"]
    for alpha in (0.2, 0.5):
        pure = sweep_row(3, 1.0, alpha, "grid")
        mixed = sweep_row(3, 0.0, alpha, "grid")
        eq_points = max(
            abs(pure["lhs_product"] - 0.25), abs(pure["rhs_product"] - 0.25),
            abs(pure["lhs_sum"] - 1.0), abs(pure["rhs_sum"] - 1.0),
            abs(mixed["lhs_product"]), abs(mixed["rhs_product"]),
            abs(mixed["lhs_sum"]), abs(mixed["rhs_sum"]))
        ok = ok and eq_points < 1e-8
        detail.append(f"alpha={alpha} endpoint deviation {eq_points:.3e}")
    _report(2, "figure-2 reproduction", ok, "; ".join(detail))


def test_criterion_03_heisenberg_bound():
    cfg = replace(BASE, n_samples=1000, dims=(2, 3, 4))
    res, _ = prop_heisenberg(cfg)
    _report(3, "memoryless product bound", res.passed,
            f"worst slack {res.worst_slack:.3e} over {res.samples} checks "
            f"at tolerance 1e-9")


def test_criterion_04_ordering_and_monotonicity():
    cfg = replace(BASE, n_samples=1000)
    order, _ = prop_skew_ordering(cfg)
    mono, _ = prop_local_monotonicity(cfg)
    ok = order.passed and mono.passed
    _report(4, "ordering and local monotonicity", ok,
            f"ordering worst {order.worst_slack:.3e}, "
            f"monotonicity worst {mono.worst_slack:.3e} (tolerance 1e-9)")


def test_criterion_05_pure_state_reduction():
    cfg = replace(BASE, n_samples=500)
    res, _ = prop_pure_reduction(cfg)
    _report(5, "pure-state reduction to variance", res.passed,
            f"worst |I - V| = {-res.worst_slack:.3e} over {res.samples} "
            f"states x 9 alphas")


def test_criterion_06_classical_quantum_nullity():
    cfg = replace(BASE, n_optimizer=100)
    res, _ = prop_cq_nullity(cfg)
    _report(6, "classical-quantum nullity", res.passed,
            f"largest minimized correlation {-res.worst_slack:.3e} over "
            f"{res.samples} states (threshold 1e-6)")


def test_criterion_07_oracle_equivalence():
    seed = 2024
    worst = 0.0
    for i in range(100):
        rho = random_density(EnsembleSpec("full_rank", (2, 2), seed), index=i)
        for alpha in (0.3, 0.5, 0.7):
            opt = quantum_correlation_D(rho, alpha, seed=seed + i).value
            grid = brute_force_D_qubit(rho, alpha)
            worst = max(worst, abs(opt - grid))
    _report(7, "optimizer vs grid oracle", worst < 1e-4,
            f"worst |optimizer - grid| = {worst:.3e} over 300 runs")


def test_criterion_08_theorems_with_certified_correlation():
    cfg = replace(BASE, n_theorem=200)
    results = prop_theorems_with_oracle(cfg)
    thm = results[0][0]
    _report(8, "memory bounds with certified correlation", thm.passed,
            f"worst slack {thm.worst_slack:.3e} over {thm.samples} states "
            f"(tolerance 1e-6)")


def test_criterion_09_werner_correlation_closed_form():
    worst = 0.0
    for p in p_grid(-1.0, 1.0, 0.01):
        for alpha in (0.2, 0.5):
            t = ((3 - 3 * p) ** alpha * (1 + p) ** (1 - alpha)
                 + (1 + p) ** alpha * (3 - 3 * p) ** (1 - alpha))
            expected = max((2 - p) / 6 - t / 12, 0.0)
            worst = max(worst, abs(brute_force_D_qubit(werner_swap(p), alpha)
                                   - expected))
    worst_opt = 0.0
    for p in (-1.0, -0.5, 0.0, 0.25, 0.75, 1.0):
        for alpha in (0.2, 0.5):
            t = ((3 - 3 * p) ** alpha * (1 + p) ** (1 - alpha)
                 + (1 + p) ** alpha * (3 - 3 * p) ** (1 - alpha))
            expected = max((2 - p) / 6 - t / 12, 0.0)
            got = quantum_correlation_D(werner_swap(p), alpha, seed=1).value
            worst_opt = max(worst_opt, abs(got - expected))
    ok = worst < 1e-6 and worst_opt < 1e-6
    _report(9, "swap-family correlation closed form", ok,
            f"grid worst {worst:.3e} over 402 points, optimizer worst "
            f"{worst_opt:.3e} over 12 spot checks")


def test_criterion_10_example2_pipeline(tmp_path, capsys):
    from skewunc.bounds import (heisenberg_type_check, product_bound_check,
                                sum_bound_check)
    from skewunc.linalg import HermitianOperator, kron
    from skewunc.states import example2_state, pauli, pauli_basis

    rho = example2_state()
    alpha = 0.5
    d = brute_force_D_qubit(rho, alpha)
    prod = product_bound_check(rho, pauli_basis("x"), pauli_basis("z"), alpha, d)
    summ = sum_bound_check(rho, pauli_basis("x"), pauli_basis("z"), alpha, d)
    eye2 = np.eye(2)
    heis = heisenberg_type_check(
        rho, HermitianOperator(kron(pauli("x").mat, eye2)),
        HermitianOperator(kron(pauli("z").mat, eye2)), alpha)
    un_phi, un_psi = prod.terms["un_phi"], prod.terms["un_psi"]
    self_consistent = abs(summ.lhs**2 - (un_phi**2 + un_psi**2 + 2 * prod.lhs)) < 1e-9
    out = tmp_path / "ex2.json"
    code = main(["reproduce", "--example", "2", "--alpha", "0.5",
                 "--format", "json", "--out", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    documented = EXAMPLE2_NOTE in doc["notes"]
    # both memory bounds are held to 1e-9 here, tighter than their verdicts
    ok = (heis.holds and prod.slack >= -1e-9 and summ.slack >= -1e-9
          and abs(summ.rhs) < 1e-9 and self_consistent and documented
          and code == 0)
    _report(10, "separable-mixture pipeline", ok,
            f"holds=({heis.holds},{prod.holds},{summ.holds}), "
            f"sum rhs {summ.rhs:.2e}, factors ({un_phi:.3e}, {un_psi:.6f}), "
            f"note documented={documented}")


def test_criterion_11_determinism(tmp_path, capsys):
    rep_args = ["reproduce", "--example", "1", "--alpha", "0.3,0.6",
                "--p-step", "0.1", "--seed", "77"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(rep_args + ["--out", str(out1)]) == 0
    assert main(rep_args + ["--out", str(out2)]) == 0
    rep_same = out1.read_bytes() == out2.read_bytes()

    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({"n_samples": 30, "n_optimizer": 2,
                               "n_theorem": 3, "dims": [2], "seed": 5}))
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["check", "--config", str(cfg), "--out", str(c1)]) == 0
    assert main(["check", "--config", str(cfg), "--out", str(c2)]) == 0
    chk_same = c1.read_bytes() == c2.read_bytes()
    capsys.readouterr()
    _report(11, "byte-identical outputs under fixed seeds",
            rep_same and chk_same,
            f"reproduce identical={rep_same}, check identical={chk_same}")
