"""Sweep rows and single-state evaluation: one set of engines per (state,
alpha), one row schema."""

import sys

import pytest

from skewunc import linalg, skew
from skewunc.cli import main
from skewunc.serialize import save_state
from skewunc.states import EnsembleSpec, random_density
from skewunc.sweeps import ROW_COLUMNS, state_row, sweep_row


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


def test_example1_row_builds_each_spectral_object_once(monkeypatch):
    counts = {"__init__": 0, "herm_eig": 0, "partial_trace": 0}
    _count_calls(monkeypatch, skew.SkewEngine, "__init__", counts)
    _count_calls(monkeypatch, linalg, "herm_eig", counts)
    _count_calls(monkeypatch, linalg, "partial_trace", counts)
    sweep_row(1, 0.3, 0.5, "grid")
    # joint and reduced engine; joint and reduced eigendecomposition; one
    # reduction of the joint state
    assert counts == {"__init__": 2, "herm_eig": 2, "partial_trace": 1}


def test_eval_builds_each_spectral_object_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(str(path), random_density(EnsembleSpec("full_rank", (2, 2), 5)))
    counts = {"__init__": 0, "herm_eig": 0, "partial_trace": 0}
    _count_calls(monkeypatch, skew.SkewEngine, "__init__", counts)
    _count_calls(monkeypatch, linalg, "herm_eig", counts)
    _count_calls(monkeypatch, linalg, "partial_trace", counts)
    assert main(["eval", str(path)]) == 0
    # D, both memory bounds and the Heisenberg check share the joint engine
    assert counts == {"__init__": 2, "herm_eig": 2, "partial_trace": 1}
    assert '"holds": true' in capsys.readouterr().out


@pytest.mark.parametrize("example_id, p", [(1, -0.4), (2, None), (3, 0.6)])
def test_rows_follow_the_schema(example_id, p):
    row = sweep_row(example_id, p, 0.3, "grid")
    assert tuple(row) == ROW_COLUMNS
    closed = [row[c] for c in ROW_COLUMNS if c.startswith("closed_form")]
    assert all(v is None for v in closed) == (example_id == 2)


def test_state_row_equals_sweep_row_without_closed_forms():
    from skewunc.sweeps import example_state

    row = sweep_row(1, 0.2, 0.4, "grid")
    custom = state_row(example_state(1, 0.2), 0.4, "grid")
    for col in ROW_COLUMNS:
        if col in ("p", "abs_err_max") or col.startswith("closed_form"):
            assert custom[col] is None
        else:
            assert custom[col] == row[col]
