"""CLI integration: subcommands, file outputs, exit codes, determinism."""

import json

import numpy as np
import pytest

from skewunc.bounds import memory_bounds
from skewunc.cli import EXAMPLE2_NOTE, main
from skewunc.correlation import brute_force_D_qubit
from skewunc.linalg import PSD_TOL, BipartiteDensityMatrix, kron
from skewunc.serialize import save_state
from skewunc.states import EnsembleSpec, pauli_basis, random_density, werner_isotropic
from skewunc.sweeps import ROW_COLUMNS


def run_cli(*argv) -> int:
    return main(list(argv))


# --- reproduce ---------------------------------------------------------------

def test_reproduce_example1_csv(tmp_path, capsys):
    out = tmp_path / "ex1.csv"
    code = run_cli("reproduce", "--example", "1", "--alpha", "0.2,0.5",
                   "--p-start", "-1", "--p-stop", "1", "--p-step", "0.25",
                   "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(ROW_COLUMNS)
    assert len(lines) == 1 + 9 * 2  # 9 grid points x 2 alphas
    first = lines[1].split(",")
    assert float(first[0]) == -1.0
    assert float(first[-1]) < 1e-8  # abs_err_max


def test_reproduce_is_byte_stable(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("reproduce", "--example", "3", "--alpha", "0.3",
            "--p-step", "0.2", "--seed", "7")
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("example", ["1", "3"])
def test_reproduce_alpha_endpoints_match_closed_forms(tmp_path, example):
    # the full p grid at alpha 0 and 1, where the skew information's pair
    # weights must cancel exactly instead of leaving rounding under a root
    assert run_cli("reproduce", "--example", example, "--alpha", "0,1",
                   "--out", str(tmp_path / "sweep.csv")) == 0


def test_reproduce_example2_report(tmp_path):
    out = tmp_path / "ex2.json"
    code = run_cli("reproduce", "--example", "2", "--alpha", "0.2,0.5",
                   "--format", "json", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["notes"] == [EXAMPLE2_NOTE]
    for row in doc["rows"]:
        assert row["p"] is None
        assert row["closed_form_lhs_product"] is None
        assert row["abs_err_max"] is None
        assert abs(row["rhs_sum"]) < 1e-9
        assert abs(row["lhs_sum"] - 0.5) < 1e-8


def test_reproduce_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"example": 1, "alphas": [0.5], "p_step": 0.5,
                               "format": "json"}))
    out = tmp_path / "swept.json"
    code = run_cli("reproduce", "--config", str(cfg), "--example", "3",
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["example"] == 3  # flag wins over file
    assert all(0.0 <= row["p"] <= 1.0 for row in doc["rows"])


def test_reproduce_rejects_bad_alpha(tmp_path):
    code = run_cli("reproduce", "--example", "1", "--alpha", "1.5",
                   "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_reproduce_rejects_out_of_range_grid(tmp_path):
    code = run_cli("reproduce", "--example", "3", "--p-start", "-0.5",
                   "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_reproduce_rejects_bad_config_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    assert run_cli("reproduce", "--config", str(cfg)) == 2


def test_reproduce_custom_state(tmp_path):
    state_path = tmp_path / "prod.json"
    save_state(str(state_path), random_density(EnsembleSpec("product", (2, 2), 3)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"example": "custom", "state": str(state_path),
                               "alphas": [0.4], "format": "json"}))
    out = tmp_path / "custom.json"
    assert run_cli("reproduce", "--config", str(cfg), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["rows"][0]["D_tilde"] < 1e-6


def test_reproduce_step_too_small_for_its_grid_exits_2(tmp_path, capsys):
    # 2 / 5e-324 overflows, so the grid has no finite point count
    out = tmp_path / "x.csv"
    assert run_cli("reproduce", "--example", "1", "--p-step", "5e-324",
                   "--out", str(out)) == 2
    assert "too small" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_grid_with_too_many_points_exits_2(tmp_path, capsys):
    # 2e300 points are finite but would fill memory before any row is made
    out = tmp_path / "x.csv"
    assert run_cli("reproduce", "--example", "1", "--p-step", "1e-300",
                   "--out", str(out)) == 2
    assert "at most 100000 points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, oracle", [
    ("reproduce", "grid"), ("reproduce", "optimizer"), ("eval", "optimizer"),
])
def test_state_without_qubit_A_is_rejected_before_any_D(tmp_path, capsys,
                                                       monkeypatch, command, oracle):
    import skewunc.sweeps as sweeps_mod

    def computed_d(*args, **kwargs):
        raise AssertionError("D computed for a state the bases cannot measure")

    for name in ("quantum_correlation_D", "brute_force_D_qubit"):
        monkeypatch.setattr(sweeps_mod, name, computed_d)
    state_path = tmp_path / "qutrit_a.json"
    save_state(str(state_path), random_density(EnsembleSpec("full_rank", (3, 2), 5)))
    if command == "reproduce":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"example": "custom", "state": str(state_path)}))
        argv = ("reproduce", "--config", str(cfg), "--oracle", oracle,
                "--out", str(tmp_path / "x.csv"))
    else:
        argv = ("eval", str(state_path), "--oracle", oracle)
    assert run_cli(*argv) == 2
    assert ("configuration error: Pauli measurement bases need a qubit subsystem A"
            in capsys.readouterr().err)


def test_reproduce_optimizer_block_in_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "example": 2, "alphas": [0.5], "oracle": "optimizer",
        "seed": 9, "format": "json"}))
    out = tmp_path / "ex2.json"
    assert run_cli("reproduce", "--config", str(cfg), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 9
    assert doc["rows"][0]["D_tilde"] < 1e-6


def test_reproduce_rejects_unknown_optimizer_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"example": 1,
                               "optimizer": {"walkers": 7}}))
    assert run_cli("reproduce", "--config", str(cfg)) == 2


@pytest.mark.parametrize("block", [
    {"max_iters": 0},
    {"restarts": 2.7},
    {"restarts": True},
    {"restarts": 0},
    {"max_iters": "500"},
    {"seed": -1},
    {"tol": -1},
    {"tol": 0},
    {"tol": float("inf")},
    {"tol": False},
])
def test_reproduce_rejects_bad_optimizer_setting(tmp_path, capsys, block):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"example": 2, "alphas": [0.5], "optimizer": block}))
    assert run_cli("reproduce", "--config", str(cfg), "--oracle", "optimizer",
                   "--out", str(tmp_path / "ex2.csv")) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc", [
    ("check", {"n_samples": "abc"}),
    ("check", {"alphas": 0.5}),
    ("check", {"ensembles": [{"kind": "full_rank", "dims": 2, "n_samples": "x"}]}),
    ("check", {"seed": -3}),
    ("check", {"n_sample": 20}),
    ("reproduce", {"p_start": "x"}),
    ("reproduce", {"alphas": 0.5}),
    ("reproduce", {"seed": -3}),
    ("reproduce", {"bases": "y,y"}),
    ("reproduce", {"example": 1, "walkers": 7}),
    ("check", {"herm_tol": 1e-10}),
    ("check", {"psd_tol": 1e-10}),
    # every integer setting must be integral
    ("check", {"seed": 1.5}),
    ("check", {"n_samples": 2.9}),
    ("check", {"n_optimizer": 1.5}),
    ("check", {"n_theorem": True}),
    ("check", {"dims": [2.7, 3]}),
    ("check", {"ensembles": [{"kind": "full_rank", "dims": 2, "seed": 1.5}]}),
    ("check", {"ensembles": [{"kind": "full_rank", "dims": 2, "n_samples": 2.5}]}),
    ("check", {"ensembles": [{"kind": "product", "dims": [2.5, 2]}]}),
    ("check", {"ensembles": [{"kind": "fixed_rank", "dims": 4, "rank": 1.5}]}),
    ("check", {"ensembles": [{"kind": "full_rank", "dims": 2, "seed": -1}]}),
    ("reproduce", {"example": 1, "seed": 1.5}),
    ("reproduce", {"example": 1, "seed": False}),
    # ensemble entries reject unknown keys
    ("check", {"ensembles": [{"kind": "full_rank", "dims": 2, "n_sample": 5}]}),
    # float settings reject JSON booleans
    ("check", {"alphas": [True, 0.5]}),
    ("check", {"bound_tol": True}),
    ("reproduce", {"example": 1, "alphas": [True, 0.5]}),
    ("reproduce", {"example": 1, "p_start": False}),
    ("reproduce", {"example": 1, "p_stop": True}),
    ("reproduce", {"example": 1, "p_step": True}),
    # example takes exactly 1, 2, 3 or "custom"; oracle and format a listed
    # choice; out and state a string
    ("reproduce", {"example": True}),
    ("reproduce", {"example": 1.0}),
    ("reproduce", {"example": "2"}),
    ("reproduce", {"example": 1, "oracle": "exact"}),
    ("reproduce", {"example": 1, "format": "xml"}),
    ("reproduce", {"example": 1, "out": 7}),
    ("reproduce", {"example": "custom", "state": 3}),
    # float settings must be finite
    ("reproduce", {"example": 1, "p_start": float("nan")}),
    ("reproduce", {"example": 1, "p_stop": float("nan")}),
    ("check", {"bound_tol": float("inf")}),
    # a state file goes only with example "custom"
    ("reproduce", {"example": 1, "state": "nope.json", "p_step": 0.5}),
    ("reproduce", {"example": 2, "state": "nope.json"}),
    # the basis search and the verdict tolerances have no settings
    ("reproduce", {"example": 1, "optimizer": {}}),
    ("check", {"bound_tol": 1e-9}),
    # alphas are a list, not a string read one character at a time
    ("check", {"alphas": "0.2"}),
    ("reproduce", {"example": 1, "alphas": "0.2"}),
])
def test_config_parse_failure_exits_2(tmp_path, capsys, command, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(command, "--config", str(cfg),
                   "--out", str(tmp_path / "out.json")) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    if doc.get("alphas") == "0.2":   # named whole, not as its first character
        assert "bad value for 'alphas': '0.2'" in err and "'0'" not in err


@pytest.mark.parametrize("command", ["reproduce", "eval"])
def test_json_nested_too_deep_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = ("eval", str(path)) if command == "eval" else (command, "--config", str(path))
    assert run_cli(*argv, "--out", str(tmp_path / "out.json")) == 2
    kind = "state file" if command == "eval" else "config"
    assert f"configuration error: {kind} {path} is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("flags, doc", [
    (("--example", "2", "--p-start", "0.3", "--p-step", "5"), {}),
    (("--example", "2"), {"p_stop": 0.5}),
    ((), {"example": 2, "p_step": 0.1}),
    ((), {"example": "custom", "p_start": 0.0}),
])
def test_reproduce_rejects_p_settings_outside_examples_1_and_3(tmp_path, capsys,
                                                               flags, doc):
    if doc.get("example") == "custom":
        state_path = tmp_path / "prod.json"
        save_state(str(state_path), random_density(EnsembleSpec("product", (2, 2), 3)))
        doc = {**doc, "state": str(state_path)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("reproduce", "--config", str(cfg), *flags,
                   "--out", str(tmp_path / "out.csv")) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["reproduce", "check", "eval"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "out.json")
    if command == "reproduce":
        argv = ("reproduce", "--example", "1", "--p-step", "0.5")
    elif command == "check":
        cfg = tmp_path / "check.json"
        cfg.write_text(json.dumps(CHECK_CFG))
        argv = ("check", "--config", str(cfg))
    else:
        path = tmp_path / "bell.json"
        save_state(str(path), werner_isotropic(1.0))
        argv = ("eval", str(path))
    assert run_cli(*argv, "--out", out) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reproduce", "check", "eval"])
def test_unreadable_config_or_state_file_exits_2(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.json")
    argv = ("eval", missing) if command == "eval" else (command, "--config", missing)
    assert run_cli(*argv, "--out", str(tmp_path / "out.json")) == 2
    kind = "state file" if command == "eval" else "config"
    assert f"configuration error: cannot read {kind} {missing}" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_unwritable_witness_exits_2(tmp_path, capsys, monkeypatch):
    # a report (and witness) path under a regular file is refused by the
    # pre-check in cmd_check before the failing property runs; the witness
    # writer's own error is covered in test_checks.py
    runs = _forced_properties(monkeypatch, -1.0)
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    assert run_cli("check", "--out", str(afile / "r.json")) == 2
    assert "configuration error" in capsys.readouterr().err
    assert runs == []


def _forced_properties(monkeypatch, slack):
    """Replace the campaign by one property of the given slack; the returned
    list records each run of it."""
    import skewunc.checks as checks_mod

    runs = []

    @checks_mod._property("forced", 0.0)
    def prop_forced(cfg):
        runs.append(cfg)
        yield slack, {"alpha": 0.1}

    monkeypatch.setattr(checks_mod, "ALL_PROPERTIES", (prop_forced,))
    return runs


@pytest.mark.parametrize("slack", [-1.0, 1.0], ids=["failing", "passing"])
def test_check_into_missing_directory_exits_2(tmp_path, capsys, monkeypatch, slack):
    # neither the witness nor the report writer creates a directory, and the
    # campaign does not start when the report cannot be written
    runs = _forced_properties(monkeypatch, slack)
    missing = tmp_path / "missing"
    assert run_cli("check", "--out", str(missing / "r.json")) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not missing.exists()
    assert runs == []


def test_nan_slack_is_written_as_null(tmp_path, monkeypatch):
    _forced_properties(monkeypatch, float("nan"))
    out = tmp_path / "r.json"
    assert run_cli("check", "--out", str(out)) == 1

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    entry = doc["properties"][0]
    assert entry["worst_slack"] is None and entry["pass"] is False


def test_reproduce_rejects_negative_seed_flag(tmp_path, capsys):
    assert run_cli("reproduce", "--example", "2", "--alpha", "0.5",
                   "--oracle", "optimizer", "--seed", "-1",
                   "--out", str(tmp_path / "ex2.csv")) == 2
    assert "configuration error" in capsys.readouterr().err


def test_check_rejects_negative_seed_flag(tmp_path, capsys):
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps(CHECK_CFG))
    assert run_cli("check", "--config", str(cfg), "--seed", "-1",
                   "--out", str(tmp_path / "report.json")) == 2
    assert "configuration error" in capsys.readouterr().err


def test_eval_rejects_negative_seed_flag_and_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bell.json"
    save_state(str(path), werner_isotropic(1.0))
    assert run_cli("eval", str(path), "--oracle", "optimizer", "--seed", "-2") == 2
    assert "configuration error" in capsys.readouterr().err


def test_eval_takes_no_config_file(tmp_path, capsys):
    path = tmp_path / "bell.json"
    save_state(str(path), werner_isotropic(1.0))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bases": "y,z"}))
    with pytest.raises(SystemExit) as exc:
        run_cli("eval", str(path), "--config", str(cfg))
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_numerical_error_exit_code(tmp_path, monkeypatch):
    import skewunc.cli as cli_mod
    from skewunc.errors import NumericalConsistencyError

    def explode(*args, **kwargs):
        raise NumericalConsistencyError("synthetic inconsistency")

    monkeypatch.setattr(cli_mod, "sweep_row", explode)
    code = run_cli("reproduce", "--example", "1", "--p-step", "0.5",
                   "--out", str(tmp_path / "x.csv"))
    assert code == 3


def test_solver_error_exit_code(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic failure")

    path = tmp_path / "bell.json"
    save_state(str(path), werner_isotropic(1.0))
    monkeypatch.setattr(np.linalg, "eigh", explode)
    assert run_cli("eval", str(path)) == 3
    assert ("numerical-consistency error: eigendecomposition failed: synthetic failure"
            in capsys.readouterr().err)


# --- eval --------------------------------------------------------------------

def test_eval_bell_state(tmp_path, capsys):
    path = tmp_path / "bell.json"
    save_state(str(path), werner_isotropic(1.0))
    code = run_cli("eval", str(path), "--bases", "x,z", "--alpha", "0.5")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["product"]["lhs"] == pytest.approx(0.25, abs=1e-8)
    assert doc["product"]["rhs"] == pytest.approx(0.25, abs=1e-8)
    assert doc["sum"]["lhs"] == pytest.approx(1.0, abs=1e-8)
    assert doc["d_tilde"] == pytest.approx(0.5, abs=1e-8)
    assert doc["heisenberg"]["holds"]


def test_eval_state_whose_reduction_uses_the_reduced_allowance(tmp_path, capsys):
    # a valid 2x4 state (smallest eigenvalue -9e-11) reduces to rho_A with
    # eigenvalue -3.6e-10, inside partial_trace's 1e-9 allowance; the spectrum
    # is checked once, when each state is built, so everything scores both
    e = 9e-11
    mat = ((1 + 4 * e) * kron(np.diag([1.0, 0.0]), np.eye(4) / 4)
           - e * kron(np.diag([0.0, 1.0]), np.eye(4)))
    rho = BipartiteDensityMatrix(mat, 2, 4)
    assert rho.reduced().spectral().eigenvalues[0] < -PSD_TOL
    d_value = brute_force_D_qubit(rho, 0.5)
    assert d_value == pytest.approx(0.0, abs=1e-12)
    prod, summ = memory_bounds(rho, pauli_basis("x"), pauli_basis("z"), 0.5, d_value)
    assert prod.holds and summ.holds
    path = tmp_path / "probe.json"
    save_state(str(path), rho)
    assert run_cli("eval", str(path), "--alpha", "0.5") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d_tilde"] == d_value
    assert doc["product"]["holds"] and doc["sum"]["holds"]


def test_eval_maximally_mixed_all_zero(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    save_state(str(path), werner_isotropic(0.0))
    code = run_cli("eval", str(path), "--alpha", "0.3")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    for key in ("heisenberg", "product", "sum"):
        assert abs(doc[key]["lhs"]) < 1e-12
        assert abs(doc[key]["rhs"]) < 1e-12


def test_eval_product_state_d_tilde(tmp_path, capsys):
    path = tmp_path / "prod.json"
    save_state(str(path), random_density(EnsembleSpec("product", (2, 3), 9)))
    code = run_cli("eval", str(path), "--oracle", "optimizer", "--seed", "3")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d_tilde"] < 1e-6


def test_eval_writes_out_file(tmp_path, capsys):
    path = tmp_path / "bell.json"
    save_state(str(path), werner_isotropic(1.0))
    out = tmp_path / "report.json"
    assert run_cli("eval", str(path), "--out", str(out)) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["d_A"] == 2


def test_eval_parse_failure_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("nonsense")
    assert run_cli("eval", str(path)) == 2


@pytest.mark.parametrize("d_a, d_b, first, message", [
    (2, 2, [0.25, False], "matrix entry 0"),
    # read as 1, True would give "need a qubit subsystem A" as d_A, a valid 2x1 state as d_B
    (True, 4, [0.25, 0.0], "'d_A' must be an integer >= 1, got True"),
    (2, True, [0.5, 0.0], "'d_B' must be an integer >= 1, got True"),
], ids=["matrix_entry", "d_A", "d_B"])
def test_eval_rejects_booleans_as_numbers(tmp_path, capsys, d_a, d_b, first, message):
    dim = int(d_a) * int(d_b)
    matrix = [first] + [[1 / dim if i % (dim + 1) == 0 else 0.0, 0.0]
                        for i in range(1, dim * dim)]
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"d_A": d_a, "d_B": d_b, "matrix": matrix}))
    assert run_cli("eval", str(path)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("d_a, first, message", [
    ("2", f"[{10**400}, 0]", "matrix entry 0 is not a [re, im] pair: [1000"),
    ("2", "[NaN, 0]", "matrix entry 0 is not a [re, im] pair: [nan, 0]"),
    ("2", "[Infinity, 0]", "matrix entry 0 is not a [re, im] pair: [inf, 0]"),
    (str(10**400), "[0.5, 0.0]", "matrix has 16 entries, expected at least 10**12"),
    ("1e400", "[0.5, 0.0]", "'d_A' must be an integer >= 1, got inf"),
], ids=["entry_beyond_float", "entry_nan", "entry_infinity", "d_A_beyond_float",
        "d_A_infinity"])
def test_eval_rejects_state_file_numbers_out_of_range(tmp_path, capsys, d_a, first, message):
    # the Bell state, with d_A and its first entry as given (JSON text)
    rest = ", ".join("[0.5, 0]" if i in (3, 12, 15) else "[0, 0]" for i in range(1, 16))
    path = tmp_path / "state.json"
    path.write_text(f'{{"d_A": {d_a}, "d_B": 2, "matrix": [{first}, {rest}]}}')
    assert run_cli("eval", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err


def test_eval_bad_bases(tmp_path):
    path = tmp_path / "bell.json"
    save_state(str(path), werner_isotropic(1.0))
    assert run_cli("eval", str(path), "--bases", "x,q") == 2


@pytest.mark.parametrize("flag, value", [
    ("--bases", "x,,z"), ("--bases", "x,z,"), ("--alpha", "0.2,,0.5"), ("--alpha", "0.2,0.5,"),
], ids=["bases_empty_item", "bases_trailing_comma", "alpha_empty_item", "alpha_trailing_comma"])
def test_list_typos_exit_2(tmp_path, capsys, flag, value):
    # an empty item is a typo, not an item to skip
    path = tmp_path / "bell.json"
    save_state(str(path), werner_isotropic(1.0))
    argv = (("eval", str(path)) if flag == "--bases"
            else ("reproduce", "--example", "1", "--out", str(tmp_path / "out.csv")))
    assert run_cli(*argv, flag, value) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_eval_ignores_extra_state_file_keys(tmp_path, capsys):
    # a bipartite property's witness carries alpha and the bases next to the
    # state, and loads straight into eval
    plain, witness = tmp_path / "plain.json", tmp_path / "witness.json"
    save_state(str(plain), werner_isotropic(0.7))
    doc = json.loads(plain.read_text())
    witness.write_text(json.dumps({"property": "bounds_theorems_oracle_certified", **doc,
                                   "alpha": 0.3, "d_tilde": 0.1, "phi": [[1.0, 0.0]] * 4}))
    reports = []
    for path in (plain, witness):
        assert run_cli("eval", str(path), "--alpha", "0.3") == 0
        reports.append(json.loads(capsys.readouterr().out))
        del reports[-1]["state_file"]
    assert reports[0] == reports[1]


# --- check -------------------------------------------------------------------

CHECK_CFG = {"n_samples": 20, "n_optimizer": 2, "n_theorem": 2,
             "alphas": [0.3, 0.7], "dims": [2]}


def test_check_small_campaign(tmp_path, capsys):
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps(CHECK_CFG))
    out = tmp_path / "report.json"
    code = run_cli("check", "--config", str(cfg), "--seed", "11",
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is True
    assert doc["seed"] == 11
    assert len(doc["properties"]) >= 15
    text = capsys.readouterr().out
    assert "PASS" in text


def test_check_report_byte_stable(tmp_path):
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps(CHECK_CFG))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("check", "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("check", "--config", str(cfg), "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_check_rejects_corrupted_tolerance(tmp_path):
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({**CHECK_CFG, "bound_tol": -1.0}))
    assert run_cli("check", "--config", str(cfg)) == 2


def test_check_rejects_bad_ensemble_entry(tmp_path):
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({**CHECK_CFG,
                               "ensembles": [{"kind": "nope", "dims": 2}]}))
    assert run_cli("check", "--config", str(cfg)) == 2


def test_check_failure_exit_code_and_witness(tmp_path, monkeypatch):
    import skewunc.checks as checks_mod
    from skewunc.checks import PropertyResult

    def failing_property(cfg):
        return (PropertyResult(name="forced_failure", samples=1,
                               worst_slack=-1.0, tol=0.0, passed=False),
                {"alpha": 0.1, "matrix": [[0.0, 0.0]]})

    monkeypatch.setattr(checks_mod, "ALL_PROPERTIES", (failing_property,))
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps(CHECK_CFG))
    out = tmp_path / "report.json"
    code = run_cli("check", "--config", str(cfg), "--out", str(out))
    assert code == 1
    witness = tmp_path / "witness_forced_failure.json"
    assert witness.exists()
    assert json.loads(witness.read_text())["property"] == "forced_failure"
    assert json.loads(out.read_text())["all_pass"] is False
