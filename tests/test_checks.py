"""Property-campaign driver: small-sample runs, witness files, config
validation."""

import json
import math
import zlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import skewunc.checks as checks
from skewunc.checks import (
    ALL_PROPERTIES,
    CheckConfig,
    EnsembleRun,
    PropertyResult,
    _property,
    prop_deficit_nonnegative,
    prop_heisenberg,
    run_checks,
)
from skewunc.errors import ConfigError, InvalidStateError
from skewunc.linalg import BipartiteDensityMatrix, DensityMatrix, HermitianOperator
from skewunc.serialize import pairs_to_matrix
from skewunc.skew import ProjectiveBasis
from skewunc.states import EnsembleSpec, random_density, random_hermitian, random_unitary

SMALL = CheckConfig(seed=42, n_samples=24, n_optimizer=2, n_theorem=3,
                    alphas=(0.2, 0.5, 0.8), dims=(2, 3))


def test_config_validation():
    with pytest.raises(ConfigError):
        CheckConfig(n_samples=0).validate()
    with pytest.raises(ConfigError):
        CheckConfig(alphas=(1.2,)).validate()
    with pytest.raises(ConfigError):
        CheckConfig(dims=(1,)).validate()
    with pytest.raises(ConfigError, match="dims must be nonempty"):
        CheckConfig(dims=()).validate()


@pytest.mark.parametrize("field, value", [
    ("n_samples", 2.5), ("n_optimizer", True), ("n_theorem", 3.0),
    ("dims", (2.5,)), ("seed", 1.5), ("seed", True), ("alphas", (0.5, True)),
])
def test_config_rejects_settings_it_cannot_run(field, value):
    # the CLI's readers reject each of these; a library caller must not get a
    # raw TypeError, a truncated seed or a bool run as a number
    with pytest.raises(ConfigError):
        run_checks(replace(SMALL, **{field: value}), properties=())


@pytest.mark.parametrize("entry", [
    EnsembleRun(EnsembleSpec("full_rank", 2, 1), 0),
    EnsembleRun(EnsembleSpec("full_rank", 2, 1), 2.5),
    EnsembleRun(EnsembleSpec("full_rank", 2, 1), True),
    EnsembleSpec("full_rank", 2, 1),
], ids=["zero_samples", "fractional_samples", "bool_samples", "not_a_run"])
def test_config_rejects_ensemble_entries_it_cannot_run(entry):
    # a zero count used to drop the run silently, and a fractional one to
    # escape as a raw TypeError
    with pytest.raises(ConfigError):
        run_checks(replace(SMALL, ensembles=(entry,)), properties=())


@pytest.mark.parametrize("dims, kind, alphas", [
    (SMALL.dims, "full_rank", None),
    (checks._bipartite_dims(SMALL), "full_rank", None),
    ([(2, 2)], "full_rank", None),
    (SMALL.dims, "pure", None),
    ([(2, 2)], "full_rank", (0.3, 0.5, 0.7)),
], ids=["dims", "bipartite", "two_qubit", "pure", "alphas_override"])
def test_draws_match_the_per_property_loop(monkeypatch, dims, kind, alphas):
    # reference: the loop header each property used to carry; the samples
    # come in blocks of at most _STACK, in index order
    monkeypatch.setattr(checks, "_STACK", 3)
    seed = checks._tag_seed(SMALL.seed, "probe")
    cycle = SMALL.alphas if alphas is None else alphas
    expected = []
    for i in range(7):
        d = dims[i % len(dims)]
        rho = random_density(EnsembleSpec(kind, d, seed), index=i)
        expected.append((i, seed, rho, cycle[i % len(cycle)]))
    blocks = list(checks._draws(SMALL, "probe", 7, dims, kind, alphas=alphas))
    assert [len(block) for block in blocks] == [3, 3, 1]
    drawn = [sample for block in blocks for sample in block]
    for (i, s, rho, a), (ref_i, ref_s, ref_rho, ref_a) in zip(drawn, expected):
        assert (i, s, a) == (ref_i, ref_s, ref_a)
        assert type(rho) is type(ref_rho)
        assert np.array_equal(rho.mat, ref_rho.mat)
        if isinstance(rho, BipartiteDensityMatrix):
            # reduced with the block's stack, to the bits of reducing it alone
            assert rho._reduced is not None
            assert np.array_equal(rho._reduced.mat, ref_rho.reduced().mat)


def test_factory_validity_redraws_a_failing_block_one_index_at_a_time(monkeypatch):
    # index 3 of a 5-sample run fails to build, in its block and alone
    spec = EnsembleSpec("full_rank", (2, 2), 7)
    cfg = replace(SMALL, ensembles=(EnsembleRun(spec, 5),))
    draws, draw = checks.random_densities, checks.random_density

    def fail_on_3(indices):
        if 3 in indices:
            raise InvalidStateError("trace is 2, expected 1")

    monkeypatch.setattr(checks, "random_densities", lambda s, idx: fail_on_3(idx) or draws(s, idx))
    monkeypatch.setattr(checks, "random_density", lambda s, i: fail_on_3([i]) or draw(s, i))
    named = {"kind": "full_rank", "dims": (2, 2), "seed": 7, "index": 3}
    samples = list(checks.prop_factory_validity.__wrapped__(cfg))
    # the five draws, then the 5 + 3 family states
    assert samples == [(0.0, None)] * 3 + [(-1.0, named)] + [(0.0, None)] * 9
    result, witness = checks.prop_factory_validity(cfg)
    assert (result.passed, result.worst_slack, result.samples) == (False, -1.0, 13)
    assert witness == named


@pytest.mark.parametrize("seed", [0, 42, 2**32 + 1, 2**130])
def test_tag_seed_is_the_first_seed_sequence_word(seed):
    for tag in ("probe", "theorems", "ensembles", "swap_symmetry", "", "\u00e9"):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(tag.encode()),))
        assert checks._tag_seed(seed, tag) == int(ss.generate_state(1)[0])


def test_per_sample_draws_match_lone_draws():
    # one block draw per dimension: the samples alternate 2x2 and 2x3 states
    [block] = checks._draws(SMALL, "probe", 7, checks._bipartite_dims(SMALL))
    hs = checks._per_sample(random_hermitian, block)
    xs = checks._per_sample(random_hermitian, block, 3, local=True)
    us = checks._per_sample(random_unitary, block, 2, local=True)
    assert {rho.dim for _, _, rho, _ in block} == {4, 6}
    for (i, seed, rho, _), h, x, u in zip(block, hs, xs, us, strict=True):
        assert np.array_equal(h.mat, random_hermitian(rho.dim, seed + 1, i).mat)
        assert np.array_equal(x.mat, random_hermitian(rho.d_A, seed + 3, i).mat)
        assert np.array_equal(u, random_unitary(rho.d_A, seed + 2, i))

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
    """A stacked ``DeficitEvaluator`` whose every state scores -1."""

    def __init__(self, rhos, alpha):
        self.n_states = len(rhos)

    def basis_deficit(self, columns):
        assert columns.shape[0] == self.n_states
        return [(-1.0, None)] * self.n_states


@pytest.mark.parametrize("prop, patch, keys", [
    (prop_heisenberg,
     ("heisenberg_type_checks",
      lambda rhos, rs, ss, alphas: [[SimpleNamespace(slack=-1.0)] * len(alphas)] * len(rhos)),
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


def test_stacked_blocks_change_no_result(monkeypatch):
    # 230 samples make three blocks of checks._STACK; a block of one sample
    # is the one-state path. Every sample's slack is compared as well: a
    # wrong per-sample alpha can leave the worst slack as it is (at alpha 0
    # a full-rank state's skew information is exactly 0).
    cfg = CheckConfig(seed=42, n_samples=230, n_optimizer=1, n_theorem=30,
                      alphas=(0.0, 0.37, 0.5, 1.0), dims=(2, 3, 4))
    slacks = []
    judge = checks._result

    def recorded(name, tol, samples):
        samples = list(samples)
        slacks.append((name, [float(slack).hex() for slack, _ in samples]))
        return judge(name, tol, samples)

    monkeypatch.setattr(checks, "_result", recorded)
    stacked, stacked_slacks = run_checks(cfg).results, slacks[:]
    slacks.clear()
    monkeypatch.setattr(checks, "_STACK", 1)
    one_by_one = run_checks(cfg).results
    assert len(stacked) == len(ALL_PROPERTIES) + 1   # theorems give two results
    assert stacked == one_by_one
    assert stacked_slacks == slacks


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
