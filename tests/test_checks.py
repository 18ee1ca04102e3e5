"""Property-campaign driver: small-sample runs, witness files, config
validation."""

import json
import math
from types import SimpleNamespace

import pytest

import skewunc.checks as checks
from skewunc.checks import (
    ALL_PROPERTIES,
    CheckConfig,
    PropertyResult,
    _property,
    prop_deficit_nonnegative,
    prop_heisenberg,
    run_checks,
)
from skewunc.errors import ConfigError
from skewunc.linalg import BipartiteDensityMatrix, DensityMatrix, HermitianOperator
from skewunc.serialize import pairs_to_matrix
from skewunc.skew import ProjectiveBasis

SMALL = CheckConfig(seed=42, n_samples=24, n_optimizer=2, n_theorem=3,
                    alphas=(0.2, 0.5, 0.8), dims=(2, 3))


def test_config_validation():
    with pytest.raises(ConfigError):
        CheckConfig(n_samples=0).validate()
    with pytest.raises(ConfigError):
        CheckConfig(bound_tol=-1.0).validate()
    with pytest.raises(ConfigError):
        CheckConfig(alphas=(1.2,)).validate()
    with pytest.raises(ConfigError):
        CheckConfig(dims=(1,)).validate()


def test_small_campaign_passes(tmp_path):
    report = run_checks(SMALL, witness_dir=str(tmp_path))
    names = [r.name for r in report.results]
    assert len(names) == len(set(names))
    failing = [r.name for r in report.results if not r.passed]
    assert report.all_pass, f"failing properties: {failing}"
    # no witness files written on success
    assert not list(tmp_path.glob("witness_*.json"))


def test_campaign_covers_every_module():
    report = run_checks(SMALL, properties=ALL_PROPERTIES)
    prefixes = {r.name.split("_")[0] for r in report.results}
    assert {"linalg", "skew", "correlation", "bounds", "states"} <= prefixes


def test_injected_failure_writes_witness(tmp_path):
    def failing_property(cfg):
        res = PropertyResult(name="injected_failure", samples=1,
                             worst_slack=-1.0, tol=0.0, passed=False)
        payload = {"alpha": 0.5, "matrix": [[1.0, 0.0]], "dim": 1}
        return res, payload

    report = run_checks(SMALL, witness_dir=str(tmp_path),
                        properties=(failing_property,))
    assert not report.all_pass
    res = report.results[0]
    assert res.witness is not None
    with open(res.witness) as fh:
        doc = json.load(fh)
    assert doc["property"] == "injected_failure"
    assert doc["alpha"] == 0.5


def test_nan_slack_fails_and_writes_its_witness(tmp_path):
    @_property("injected_nan", 1e-9)
    def prop_nan(cfg):
        yield 0.5, {"alpha": 0.1}
        yield float("nan"), {"alpha": 0.2}
        yield -1.0, {"alpha": 0.3}
        yield float("nan"), {"alpha": 0.4}

    report = run_checks(SMALL, witness_dir=str(tmp_path), properties=(prop_nan,))
    res = report.results[0]
    assert not report.all_pass and not res.passed
    assert res.samples == 4 and math.isnan(res.worst_slack)
    with open(res.witness) as fh:
        doc = json.load(fh)
    assert doc == {"property": "injected_nan", "alpha": 0.2}



@pytest.mark.parametrize("target", ["missing", "afile"])
def test_unwritable_witness_dir_is_a_config_error(tmp_path, target):
    # the witness writer turns an OSError into a ConfigError and creates no
    # directory, whether the target is missing or is a regular file
    @_property("injected_failure", 0.0)
    def prop_fail(cfg):
        yield -1.0, {"alpha": 0.1}

    (tmp_path / "afile").write_text("not a directory\n")
    with pytest.raises(ConfigError, match="cannot write witness"):
        run_checks(SMALL, witness_dir=str(tmp_path / target), properties=(prop_fail,))
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").is_file()

class _NegativeDeficit:
    def __init__(self, rho, alpha):
        pass

    def basis_deficit(self, columns):
        return -1.0, None


@pytest.mark.parametrize("prop, patch, keys", [
    (prop_heisenberg,
     ("heisenberg_type_checks",
      lambda rho, r, s, alphas, **kw: [SimpleNamespace(slack=-1.0)] * len(alphas)),
     ["property", "matrix", "dim", "alpha", "r", "s"]),
    (prop_deficit_nonnegative, ("DeficitEvaluator", _NegativeDeficit),
     ["property", "matrix", "d_A", "d_B", "alpha", "basis"]),
], ids=["heisenberg", "deficit_nonnegative"])
def test_real_runner_witness_decodes(tmp_path, monkeypatch, prop, patch, keys):
    monkeypatch.setattr(checks, *patch)
    cfg = CheckConfig(seed=5, n_samples=4, alphas=(0.3, 0.7), dims=(3, 2))
    res = run_checks(cfg, witness_dir=str(tmp_path), properties=(prop,)).results[0]
    assert not res.passed and res.worst_slack == -1.0
    with open(res.witness) as fh:
        doc = json.load(fh)
    assert list(doc) == keys
    # the first sample is the worst: the first alpha, and dims[0] or (2, 2)
    assert doc["alpha"] == 0.3
    if "dim" in doc:
        assert doc["dim"] == 3
        DensityMatrix(pairs_to_matrix(doc["matrix"], 3))
        for key in ("r", "s"):
            HermitianOperator(pairs_to_matrix(doc[key], 3))
    else:
        assert (doc["d_A"], doc["d_B"]) == (2, 2)
        BipartiteDensityMatrix(pairs_to_matrix(doc["matrix"], 4), 2, 2)
        ProjectiveBasis(pairs_to_matrix(doc["basis"], 2))


def test_report_dict_shape():
    report = run_checks(SMALL, properties=(ALL_PROPERTIES[0],))
    doc = report.to_dict(SMALL)
    assert doc["seed"] == 42
    assert doc["all_pass"] is True
    entry = doc["properties"][0]
    assert set(entry) == {"name", "samples", "worst_slack", "tol", "pass", "witness"}


def test_campaign_deterministic():
    r1 = run_checks(SMALL, properties=ALL_PROPERTIES[:6])
    r2 = run_checks(SMALL, properties=ALL_PROPERTIES[:6])
    assert [ (a.name, a.worst_slack, a.samples) for a in r1.results ] == \
           [ (a.name, a.worst_slack, a.samples) for a in r2.results ]
