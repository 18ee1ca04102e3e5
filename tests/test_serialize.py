"""File access: the state-file schema, exact round trips, validation of
corrupt inputs, and the one reader and writer that every file goes through."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

import skewunc
from skewunc.errors import ConfigError, InvalidStateError
from skewunc.serialize import (
    fmt17,
    json_int,
    load_state,
    matrix_to_pairs,
    pairs_to_matrix,
    read_json_object,
    save_state,
    state_to_json,
    write_text,
)
from skewunc.states import EnsembleSpec, random_density, werner_isotropic


def test_round_trip_is_exact(tmp_path):
    state = random_density(EnsembleSpec("full_rank", (2, 3), 77))
    path = tmp_path / "state.json"
    save_state(str(path), state)
    loaded = load_state(str(path))
    assert loaded.d_A == 2 and loaded.d_B == 3
    assert np.array_equal(loaded.mat, state.mat)


def test_file_layout(tmp_path):
    path = tmp_path / "bell.json"
    save_state(str(path), werner_isotropic(1.0))
    doc = json.loads(path.read_text())
    assert set(doc) == {"d_A", "d_B", "matrix"}
    assert len(doc["matrix"]) == 16
    assert all(isinstance(e, list) and len(e) == 2 for e in doc["matrix"])
    # row-major order: entry (0, 3) of the bell projector is 1/2
    assert doc["matrix"][3][0] == pytest.approx(0.5)
    assert doc["matrix"][3][1] == 0.0


def test_fmt17_round_trips():
    values = [1 / 3, np.pi, 1e-17, -2.5e300, 0.1 + 0.2]
    for v in values:
        assert float(fmt17(v)) == v


def test_pairs_helpers_round_trip():
    mat = random_density(EnsembleSpec("full_rank", 3, 5)).mat
    assert np.array_equal(pairs_to_matrix(matrix_to_pairs(mat), 3), mat)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d_A": 2, "matrix": []}')
    with pytest.raises(ConfigError):
        load_state(str(path))


def test_load_rejects_wrong_entry_count(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d_A": 2, "d_B": 2, "matrix": [[1.0, 0.0]]}')
    with pytest.raises(ConfigError, match="^matrix has 1 entries, expected 16$"):
        load_state(str(path))


@pytest.mark.parametrize("digits", [7, 400, 4000])
def test_wrong_entry_count_message_stays_short_for_any_dims(tmp_path, digits):
    # an expected count of 10**12 or more is named by its size, never spelled out
    path = tmp_path / "bad.json"
    path.write_text(f'{{"d_A": {10**digits}, "d_B": 2, "matrix": [[1.0, 0.0]]}}')
    with pytest.raises(ConfigError) as err:
        load_state(str(path))
    assert str(err.value) == "matrix has 1 entries, expected at least 10**12"


@pytest.mark.parametrize("matrix", ["5", "null", '{"re": 1}'])
def test_load_rejects_matrix_that_is_not_a_list(tmp_path, matrix):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"d_A": 1, "d_B": 1, "matrix": {matrix}}}')
    with pytest.raises(ConfigError, match="list of"):
        load_state(str(path))


def test_load_rejects_malformed_pair(tmp_path):
    path = tmp_path / "bad.json"
    entries = ",".join(["[0.25, 0.0]"] * 15 + ['"x"'])
    path.write_text(f'{{"d_A": 2, "d_B": 2, "matrix": [{entries}]}}')
    with pytest.raises(ConfigError):
        load_state(str(path))


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(ConfigError):
        load_state(str(path))


def test_load_rejects_invalid_state(tmp_path):
    # well-formed file, but not a density matrix (trace 2)
    path = tmp_path / "bad.json"
    mat = np.eye(4, dtype=complex) / 2
    entries = ",".join(f"[{z.real}, {z.imag}]" for z in mat.ravel())
    path.write_text(f'{{"d_A": 2, "d_B": 2, "matrix": [{entries}]}}')
    with pytest.raises(InvalidStateError):
        load_state(str(path))


def test_load_rejects_bad_dims(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d_A": 2.5, "d_B": 2, "matrix": []}')
    with pytest.raises(ConfigError):
        load_state(str(path))


def test_load_reads_integral_json_numbers_as_dims(tmp_path):
    path = tmp_path / "state.json"
    save_state(str(path), werner_isotropic(1.0))
    path.write_text(path.read_text().replace('"d_A":2,', '"d_A":2.0,'))
    loaded = load_state(str(path))
    assert type(loaded.d_A) is int and loaded.d_A == 2
    assert np.array_equal(loaded.mat, werner_isotropic(1.0).mat)


@pytest.mark.parametrize("value", [True, 2.5, 0, float("inf"), float("nan"), "2", None])
def test_json_int_refuses_what_is_not_an_integer(value):
    with pytest.raises(ConfigError, match=re.escape(f"'d_A' must be an integer >= 1, got {value!r}")):
        json_int(value, 1, "d_A")


def test_json_int_takes_integral_numbers_beyond_float_range():
    # an integer beyond float range is compared as an integer, not through float()
    assert json_int(10**400, 1, "d_A") == 10**400
    assert json_int(3.0, 1, "d_A") == 3
    with pytest.raises(ConfigError, match="'seed' must be an integer >= 0"):
        json_int(-10**400, 0, "seed")


@pytest.mark.parametrize("entry", [f"[{10**400}, 0]", "[NaN, 0]", "[0, -Infinity]", "[true, 0]",
                                   "[0.5]", "[0.5, 0, 0]", '["0.5", 0]'],
                         ids=["beyond_float", "nan", "minus_infinity", "bool", "short", "long",
                              "string"])
def test_load_rejects_entries_that_are_not_two_finite_reals(tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"d_A": 1, "d_B": 1, "matrix": [{entry}]}}')
    with pytest.raises(ConfigError, match=re.escape("matrix entry 0 is not a [re, im] pair")):
        load_state(str(path))


def test_state_to_json_is_deterministic():
    state = random_density(EnsembleSpec("full_rank", (2, 2), 6))
    assert state_to_json(state) == state_to_json(state)


@pytest.mark.parametrize("target", ["missing", "directory", "latin-1"])
def test_unreadable_files_are_config_errors(tmp_path, target):
    path = tmp_path / target
    if target == "directory":
        path.mkdir()
    elif target == "latin-1":
        path.write_bytes('{"d_A": "\u00e9"}'.encode("latin-1"))
    with pytest.raises(ConfigError, match=re.escape(f"cannot read state file {path}")):
        load_state(str(path))
    with pytest.raises(ConfigError, match=re.escape(f"cannot read config {path}")):
        read_json_object(str(path), "config")


@pytest.mark.parametrize("text, problem", [
    ("{", "is not valid JSON"), ("[1, 2]", "must contain a JSON object"),
    pytest.param("[" * 100_000 + "]" * 100_000, "is not valid JSON", id="nested_too_deep")])
def test_files_without_a_json_object_are_config_errors(tmp_path, text, problem):
    path = tmp_path / "doc.json"
    path.write_text(text)
    for kind in ("state file", "config"):
        with pytest.raises(ConfigError, match=re.escape(f"{kind} {path} {problem}")):
            read_json_object(str(path), kind)
    with pytest.raises(ConfigError, match=problem):
        load_state(str(path))


@pytest.mark.parametrize("target", ["missing/out.json", "afile/out.json", "."])
def test_unwritable_paths_are_config_errors(tmp_path, target):
    (tmp_path / "afile").write_text("not a directory\n")
    path = str(tmp_path / target)
    with pytest.raises(ConfigError, match="cannot write state file"):
        save_state(path, werner_isotropic(1.0))
    with pytest.raises(ConfigError, match="cannot write output file"):
        write_text(path, "text\n", "output file")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_only_serialize_opens_files():
    """File access stays in one module: no other module of the package calls
    ``open`` (as a builtin or as an attribute, such as ``os.open``)."""
    calls = {
        path.stem for path in Path(skewunc.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None))}
    assert calls == {"serialize"}


def _names_a_number_test(node) -> bool:
    """``isinstance(..., bool)``, alone or in a tuple, or a use or import of ``numbers``."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        kinds = node.args[-1]
        kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        return any(getattr(kind, "id", None) == "bool" for kind in kinds)
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return "numbers" in [getattr(node, "module", None), *(a.name for a in node.names)]
    return isinstance(node, ast.Name) and node.id == "numbers"


def test_only_linalg_and_serialize_test_numbers():
    """Each input rule for numbers has one copy: ``linalg`` coerces library
    inputs, ``serialize`` the integers of JSON files. Elsewhere an
    ``isinstance(..., bool)`` or the ``numbers`` module marks a hand-rolled copy."""
    modules = {
        path.stem for path in Path(skewunc.__file__).parent.glob("*.py")
        if any(map(_names_a_number_test, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))}
    assert modules <= {"linalg", "serialize"}
