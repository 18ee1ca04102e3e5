"""Sweep rows, single-state evaluation and the Heisenberg campaign: one set
of engines per state, one row schema."""

import sys

import numpy as np
import pytest

from skewunc import cli, correlation, linalg, skew, states, sweeps
from skewunc.checks import (
    DEFAULT_ALPHAS,
    CheckConfig,
    prop_closed_form_agreement,
    prop_deficit_nonnegative,
    prop_heisenberg,
    prop_kron_roundtrip,
    prop_local_monotonicity,
    prop_relabel_invariance,
    prop_skew_ordering,
)
from skewunc.cli import main
from skewunc.errors import ValidationError
from skewunc.serialize import save_state
from skewunc.states import EnsembleSpec, example2_state, random_density
from skewunc.sweeps import ROW_COLUMNS, example_states, state_rows, sweep_row


@pytest.fixture(autouse=True)
def fresh_example_states():
    """Start each test without cached example states, so call counts do not
    depend on which rows earlier tests built."""
    example_states.cache_clear()


def _count_calls(monkeypatch, owner, name, counts):
    """Count calls of ``owner.name``; a module-level function is replaced
    wherever a skewunc module binds it."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    owners = [owner] if isinstance(owner, type) else [
        mod for key, mod in sys.modules.items()
        if key.startswith("skewunc") and vars(mod).get(name) is original]
    for target in owners:
        monkeypatch.setattr(target, name, counted)


def _count_decompositions(monkeypatch, counts):
    """Count ``linalg.stacked_eig`` calls (``"stacked_eig"``), the states they
    cover (``"decomposed"``) and the most states one call covers (``"widest"``)."""
    original = linalg.stacked_eig

    def counted(mats):
        n = int(np.prod(mats.shape[:-2]))
        counts["stacked_eig"] += 1
        counts["decomposed"] += n
        counts["widest"] = max(counts.get("widest", 0), n)
        return original(mats)

    monkeypatch.setattr(linalg, "stacked_eig", counted)


def _count_reductions(monkeypatch, counts):
    """Count the ``linalg.partial_trace`` calls that reduce a state or a stack
    (``"reductions"``): every call keeping B, and every call keeping A on a
    state not yet reduced. Every reduction runs through it, ``reduced()``
    included; a call that only reads cached reductions to rho_A is not one."""
    original = linalg.partial_trace

    def counted(rho, keep):
        todo = rho if isinstance(rho, (list, tuple)) else (rho,)
        counts["reductions"] += keep == "B" or any(state._reduced is None for state in todo)
        return original(rho, keep)

    for mod in [mod for key, mod in sys.modules.items() if key.startswith("skewunc")
                and vars(mod).get("partial_trace") is original]:
        monkeypatch.setattr(mod, "partial_trace", counted)


def test_example1_row_builds_each_spectral_object_once(monkeypatch):
    counts = {"__init__": 0, "stacked_eig": 0, "decomposed": 0, "reductions": 0}
    _count_calls(monkeypatch, skew.SkewEngine, "__init__", counts)
    _count_decompositions(monkeypatch, counts)
    _count_reductions(monkeypatch, counts)
    sweep_row(1, 0.3, 0.5, "grid")
    # joint and reduced engine; joint and reduced eigendecomposition; one
    # reduction of the joint state
    assert counts == {"__init__": 2, "stacked_eig": 2, "decomposed": 2, "widest": 1,
                      "reductions": 1}


def test_eval_builds_each_spectral_object_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(str(path), random_density(EnsembleSpec("full_rank", (2, 2), 5)))
    counts = {"__init__": 0, "stacked_eig": 0, "decomposed": 0, "reductions": 0}
    _count_calls(monkeypatch, skew.SkewEngine, "__init__", counts)
    _count_decompositions(monkeypatch, counts)
    _count_reductions(monkeypatch, counts)
    assert main(["eval", str(path)]) == 0
    # D, both memory bounds and the Heisenberg check share the joint engine
    assert counts == {"__init__": 2, "stacked_eig": 2, "decomposed": 2, "widest": 1,
                      "reductions": 1}
    assert '"holds": true' in capsys.readouterr().out


def test_sweep_row_scores_each_basis_in_one_call(monkeypatch):
    counts = {"__init__": 0, "stacked_eig": 0, "decomposed": 0, "stacked_pairs": 0,
              "pair": 0}
    _count_calls(monkeypatch, skew.SkewEngine, "__init__", counts)
    _count_decompositions(monkeypatch, counts)
    _count_calls(monkeypatch, skew.SkewEngine, "stacked_pairs", counts)
    _count_calls(monkeypatch, skew.SkewEngine, "pair", counts)
    sweep_row(1, 0.3, 0.5, "grid")
    # one stacked scoring for both bases' embedded projectors on the joint
    # state, one for both bases' projectors on the reduced state
    assert counts == {"__init__": 2, "stacked_eig": 2, "decomposed": 2, "widest": 1,
                      "stacked_pairs": 2, "pair": 0}


def test_rows_at_one_p_share_one_state(monkeypatch):
    counts = {"__init__": 0, "stacked_eig": 0, "decomposed": 0, "reductions": 0,
              "werner_swap": 0, "stacked_pairs": 0}
    _count_calls(monkeypatch, skew.SkewEngine, "__init__", counts)
    _count_decompositions(monkeypatch, counts)
    _count_reductions(monkeypatch, counts)
    _count_calls(monkeypatch, states, "werner_swap", counts)
    _count_calls(monkeypatch, skew.SkewEngine, "stacked_pairs", counts)
    sweep_row(1, 0.3, 0.3, "grid")
    sweep_row(1, 0.3, 0.7, "grid")
    # the second alpha's row reuses the state, its reduction and both engines
    assert counts == {"__init__": 2, "stacked_eig": 2, "decomposed": 2, "widest": 1,
                      "reductions": 1, "werner_swap": 1, "stacked_pairs": 4}


@pytest.mark.parametrize("example_id, family", [(1, "werner_swap"), (3, "werner_isotropic")])
@pytest.mark.parametrize("block", [None, 50], ids=["default_block", "block_50"])
def test_reproduce_scores_each_row_in_one_sweep_row_call_on_states_built_per_block(
        monkeypatch, tmp_path, capsys, example_id, family, block):
    """perfbench's ``sweep`` item is one ``cli.sweep_row`` call: reproduce
    makes one per row, on states built as one stack per grid block."""
    if block is not None:
        monkeypatch.setattr(sweeps, "GRID_BLOCK", block)
    block = sweeps.GRID_BLOCK
    ps = sweeps.example_grid(example_id)
    n_blocks = -(-len(ps) // block)
    assert n_blocks == 1 or block == 50   # each default grid fits in one block
    rows, counts = [], {"stacked_eig": 0, "decomposed": 0, family: 0}
    original = cli.sweep_row

    def recorded(*args):
        rows.append(original(*args))
        return rows[-1]

    monkeypatch.setattr(cli, "sweep_row", recorded)
    _count_decompositions(monkeypatch, counts)
    _count_calls(monkeypatch, states, family, counts)
    out = tmp_path / "rows.csv"
    assert main(["reproduce", "--example", str(example_id), "--alpha", "0.3,0.7",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    # per block: one family call, one stacked_eig call for the joint states
    # and one for their reductions
    assert counts == {"stacked_eig": 2 * n_blocks, "decomposed": 2 * len(ps),
                      "widest": min(block, len(ps)), family: n_blocks}
    assert len(rows) == 2 * len(ps) == len(out.read_text().splitlines()) - 1
    assert rows == sweeps.sweep_rows(example_id, ps, (0.3, 0.7), "grid")


def test_sweep_rows_reject_an_unknown_oracle():
    with pytest.raises(ValidationError, match="oracle must be"):
        sweeps.sweep_rows(1, (0.3,), (0.5,), "exact")


def test_sweep_rows_equal_rows_of_freshly_built_states():
    for example_id in (1, 3):
        lo, hi = sweeps.EXAMPLE_P_RANGES[example_id]
        for p in sweeps.p_grid(lo, hi, 0.05):
            for alpha in (0.0, 0.37, 1.0):
                [fresh] = example_states.__wrapped__(example_id, (p,))
                assert [sweep_row(example_id, p, alpha, "grid")] == state_rows(
                    (fresh,), (p,), (alpha,), "grid", example_id=example_id)


def test_heisenberg_campaign_builds_one_engine_per_dimension(monkeypatch):
    counts = {"__init__": 0, "herm_eig": 0, "stacked_pairs": 0, "stacked_eig": 0,
              "decomposed": 0}
    _count_calls(monkeypatch, skew.SkewEngine, "__init__", counts)
    _count_calls(monkeypatch, linalg, "herm_eig", counts)
    _count_calls(monkeypatch, skew.SkewEngine, "stacked_pairs", counts)
    _count_decompositions(monkeypatch, counts)
    res, _ = prop_heisenberg(CheckConfig(n_samples=4, dims=(2, 3)))
    # 4 states per dimension, each decomposed once, in one stacked call per
    # dimension; each dimension's states checked at every alpha from one
    # stacked engine in one scoring
    assert res.samples == 8 * len(DEFAULT_ALPHAS)
    assert counts == {"__init__": 2, "herm_eig": 0, "stacked_pairs": 2, "stacked_eig": 2,
                      "decomposed": 8, "widest": 4}


def test_closed_form_campaign_scores_each_example_as_one_stack(monkeypatch):
    counts = {"__init__": 0, "herm_eig": 0, "reductions": 0, "werner_swap": 0,
              "werner_isotropic": 0, "sweep_row": 0, "stacked_pairs": 0,
              "bloch_quadratic": 0, "stacked_eig": 0, "decomposed": 0}
    _count_calls(monkeypatch, skew.SkewEngine, "__init__", counts)
    _count_calls(monkeypatch, linalg, "herm_eig", counts)
    _count_reductions(monkeypatch, counts)
    _count_calls(monkeypatch, states, "werner_swap", counts)
    _count_calls(monkeypatch, states, "werner_isotropic", counts)
    _count_calls(monkeypatch, sweeps, "sweep_row", counts)
    _count_calls(monkeypatch, skew.SkewEngine, "stacked_pairs", counts)
    _count_calls(monkeypatch, correlation.DeficitEvaluator, "bloch_quadratic", counts)
    _count_decompositions(monkeypatch, counts)
    res, _ = prop_closed_form_agreement(CheckConfig())
    # 201 + 101 states, each example's built in one call and reduced in one
    # einsum; each state decomposed once (joint and reduced), in one stacked
    # call per example and side; per example, one joint and one reduced
    # engine for all its states, and at each of the two alphas one Bloch form
    # for the grid oracle and two stacked scorings for the memory bounds
    assert res.passed and res.samples == 604
    assert counts == {"__init__": 4, "herm_eig": 0, "reductions": 2, "werner_swap": 1,
                      "werner_isotropic": 1, "sweep_row": 0, "stacked_pairs": 8,
                      "bloch_quadratic": 4, "stacked_eig": 4, "decomposed": 604,
                      "widest": 201}


@pytest.mark.parametrize("prop, n_stacks, widest", [
    (prop_relabel_invariance, 3, 100),   # dims (2, 2): 100 + 100 + 50
    (prop_skew_ordering, 3, 84),         # dims 2, 3, 4: 84 + 83 + 83
])
def test_sampled_campaign_decomposes_each_state_once_in_capped_stacks(
        monkeypatch, prop, n_stacks, widest):
    counts = {"herm_eig": 0, "stacked_eig": 0, "decomposed": 0}
    _count_calls(monkeypatch, linalg, "herm_eig", counts)
    _count_decompositions(monkeypatch, counts)
    res, _ = prop(CheckConfig(n_samples=250))
    # 250 states drawn in stacks of at most _STACK = 100 samples of one entry
    # of dims; a bipartite stack's reductions in one more call
    sides = 2 if prop is prop_relabel_invariance else 1
    assert res.samples == 250
    assert counts == {"herm_eig": 0, "stacked_eig": sides * n_stacks,
                      "decomposed": sides * 250, "widest": widest}


def test_kron_roundtrip_reduces_each_block_of_joints_once(monkeypatch):
    counts = {"herm_eig": 0, "stacked_eig": 0, "decomposed": 0}
    _count_calls(monkeypatch, linalg, "herm_eig", counts)
    _count_decompositions(monkeypatch, counts)
    res, _ = prop_kron_roundtrip(CheckConfig(n_samples=250))
    # per block (100 + 25 samples of 2x2, then of 2x3), one stacked call for
    # the A factors, one for the B factors, one for the joints and one each
    # for their reductions to rho_A and to rho_B: 5 calls
    assert res.samples == 250
    assert counts == {"herm_eig": 0, "stacked_eig": 4 * 5, "decomposed": 5 * 250,
                      "widest": 100}


@pytest.mark.parametrize("prop, per_block", [
    # one evaluator, a joint and a reduced engine, per alpha: every block
    # holds all nine
    (prop_deficit_nonnegative, {"evaluators": 9, "engines": 18, "stacked_pairs": 0,
                                "reductions": 1}),
    # a joint engine and one for the reduced states, each scored once
    (prop_local_monotonicity, {"evaluators": 0, "engines": 2, "stacked_pairs": 2,
                               "reductions": 1}),
], ids=["deficit_nonnegative", "local_monotonicity"])
def test_sampled_bipartite_campaign_builds_engines_per_block(monkeypatch, prop, per_block):
    engines, evaluators = {"__init__": 0}, {"__init__": 0}
    counts = {"herm_eig": 0, "reductions": 0, "stacked_pairs": 0}
    _count_calls(monkeypatch, skew.SkewEngine, "__init__", engines)
    _count_calls(monkeypatch, correlation.DeficitEvaluator, "__init__", evaluators)
    _count_calls(monkeypatch, linalg, "herm_eig", counts)
    _count_reductions(monkeypatch, counts)
    _count_calls(monkeypatch, skew.SkewEngine, "stacked_pairs", counts)
    res, _ = prop(CheckConfig(n_samples=250))
    # four blocks (100 + 25 samples of 2x2 states, then of 2x3) at nine
    # alphas; every state decomposed with its stack, and each block's
    # reductions in one stacked call
    assert res.samples == 250
    assert {**counts, "evaluators": evaluators["__init__"],
            "engines": engines["__init__"]} == {
        "herm_eig": 0, **{key: 4 * n for key, n in per_block.items()}}


@pytest.mark.parametrize("example_id, p", [(1, -0.4), (2, None), (3, 0.6)])
def test_rows_follow_the_schema(example_id, p):
    # example 2 has no p grid: reproduce scores its one state with state_rows
    [row] = (state_rows((example2_state(),), (p,), (0.3,), "grid") if example_id == 2
             else [sweep_row(example_id, p, 0.3, "grid")])
    assert tuple(row) == ROW_COLUMNS
    closed = [row[c] for c in ROW_COLUMNS if c.startswith("closed_form")]
    assert all(v is None for v in closed) == (example_id == 2)


def test_only_the_example_families_have_sweep_rows():
    from skewunc.errors import ValidationError

    with pytest.raises(ValidationError, match="unknown example id 2"):
        sweep_row(2, None, 0.3, "grid")


def test_grid_point_count_has_a_ceiling():
    from skewunc.errors import ValidationError
    from skewunc.sweeps import MAX_GRID_POINTS, p_grid

    with pytest.raises(ValidationError, match="at most"):
        p_grid(0.0, 1.0, 1e-5)  # 100,001 points
    assert len(p_grid(0.0, 1.0, 1.0 / (MAX_GRID_POINTS - 1))) == MAX_GRID_POINTS


def test_state_row_equals_sweep_row_without_closed_forms():
    row = sweep_row(1, 0.2, 0.4, "grid")
    [custom] = state_rows(example_states(1, (0.2,)), (None,), (0.4,), "grid")
    for col in ROW_COLUMNS:
        if col in ("p", "abs_err_max") or col.startswith("closed_form"):
            assert custom[col] is None
        else:
            assert custom[col] == row[col]
