"""Output bytes, locked by digest.

Each case writes one output file (of the CLI, or a check witness) and
compares its sha256 with a digest recorded before a change that had to keep
those bytes: the scoring layer's state axis for the first ten, the single
code path of each file, state and reduction primitive for the last three.
The digests belong to numpy 2.4.6 with OpenBLAS 0.3.31 on the x86-64 machine
that recorded them (2 vCPUs with AVX-512); another numpy, BLAS or CPU may
round differently and fail here without any change to skewunc. A deliberate
byte change updates the digest in this file and is logged in CHANGES.md.
"""

import hashlib
import json
import math

import pytest

from skewunc import checks
from skewunc.checks import CheckConfig, prop_local_monotonicity, run_checks
from skewunc.cli import main
from skewunc.serialize import save_state
from skewunc.states import EnsembleSpec, random_density

# example id -> digest of its reproduce CSV at alphas 0.2,0.5 on the default grid
REPRODUCE = {
    1: "8ffac6d1da743a9ce0a1d224afea471eb5cbb77dcd638201e1eb12b3279bd8bc",
    3: "bccddac61236dea7ada052807b6793c08d9cf77d91026253079c6af47f95a452",
}

# (d_B, bases) -> digest of the eval JSON of a seeded full-rank 2 x d_B state
EVAL = {
    (2, "x,z"): "6cd27790300d0269ce4837d7d5941612ab12c98c3dcf6e4812d1354cc3d2f342",
    (2, "y,z"): "541f8ec087f0c0b50f58469bcef448a75c8f1801651d161f98c95ab09da40108",
    (3, "x,z"): "d4b62fbbf6e1e70836e13be3e4307e27ce484d8d069a6bb6ed733174b48649f7",
    (3, "y,z"): "4d682dc7d5987cce8ccf3ee23a95313d113b81f1a0fa8d505bf923b5d281d3b5",
    (4, "x,z"): "1ce87c9ce5ad22a6cbfc908a830fb1b5545a307bb0bae770d63ac172989b7351",
    (4, "y,z"): "54483518956a9f46c022e1b3ae718beb8e7351e1dcc7f8e749efe4dea8f9fa53",
}

# the check report of {"n_samples": 20, "n_optimizer": 1, "n_theorem": 5}
CHECK = (
    "31db6710ee8fefb3afef490af8b027abb62137424f2d037ae813a05e2b0535f5")

# the same with "n_samples": 250, which crosses the block size of the sampled
# properties (checks._STACK = 100)
CHECK_BLOCKS = (
    "c97b6dc17ae104e8716fdfc618d33fe592dfab1f819f28e7be9b09fee20d3159")


# reproduce --example 2 --format json at the default alphas
REPRODUCE_EXAMPLE2_JSON = (
    "fd489fe93fe87ee6a10a8e94c3af1fdce3c78cfbcbe1eea55d1864a240b21791")

# the reproduce CSV of a "custom" sweep of a seeded full-rank 2 x 3 state file
# at alphas 0.2,0.5
REPRODUCE_CUSTOM = (
    "43ac2338343b1d6943db7a76be416e07ad3bfbf2a69a04b16fdef9ab97c03535")

# the witness file of skew_local_monotonicity at seed 5 and 30 samples when
# no slack passes, so that its worst sample is written
WITNESS = (
    "759bec05457237977d0f079efce12f7b69c1bc36b33e31ea1f022ef05133d3dd")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def work(tmp_path, monkeypatch, capsys):
    """Run in ``tmp_path`` so that the outputs name only relative paths."""
    monkeypatch.chdir(tmp_path)
    yield tmp_path
    capsys.readouterr()


@pytest.mark.parametrize("example_id", sorted(REPRODUCE))
def test_reproduce_csv_digest(work, example_id):
    assert main(["reproduce", "--example", str(example_id), "--alpha", "0.2,0.5",
                 "--out", "rows.csv"]) == 0
    assert _sha256(work / "rows.csv") == REPRODUCE[example_id]


@pytest.mark.parametrize("d_b, bases", sorted(EVAL))
def test_eval_json_digest(work, d_b, bases):
    save_state("state.json", random_density(EnsembleSpec("full_rank", (2, d_b), 7)))
    assert main(["eval", "state.json", "--bases", bases, "--out", "eval.json"]) == 0
    assert _sha256(work / "eval.json") == EVAL[d_b, bases]


def test_check_report_digest(work):
    (work / "cfg.json").write_text(json.dumps(
        {"n_samples": 20, "n_optimizer": 1, "n_theorem": 5}))
    assert main(["check", "--config", "cfg.json", "--out", "report.json"]) == 0
    assert _sha256(work / "report.json") == CHECK


def test_check_report_digest_across_blocks(work):
    (work / "cfg.json").write_text(json.dumps(
        {"n_samples": 250, "n_optimizer": 1, "n_theorem": 5}))
    assert main(["check", "--config", "cfg.json", "--out", "report.json"]) == 0
    assert _sha256(work / "report.json") == CHECK_BLOCKS


def test_reproduce_example2_json_digest(work):
    assert main(["reproduce", "--example", "2", "--format", "json",
                 "--out", "rows.json"]) == 0
    assert _sha256(work / "rows.json") == REPRODUCE_EXAMPLE2_JSON


def test_reproduce_custom_csv_digest(work):
    save_state("state.json", random_density(EnsembleSpec("full_rank", (2, 3), 7)))
    (work / "cfg.json").write_text(json.dumps({"example": "custom", "state": "state.json"}))
    assert main(["reproduce", "--config", "cfg.json", "--alpha", "0.2,0.5",
                 "--out", "rows.csv"]) == 0
    assert _sha256(work / "rows.csv") == REPRODUCE_CUSTOM


def test_failing_property_witness_digest(work, monkeypatch):
    result = checks._result
    monkeypatch.setattr(checks, "_result",
                        lambda name, tol, samples: result(name, -math.inf, samples))
    [res] = run_checks(CheckConfig(seed=5, n_samples=30), witness_dir=str(work),
                       properties=(prop_local_monotonicity,)).results
    assert not res.passed
    assert res.witness == str(work / "witness_skew_local_monotonicity.json")
    assert _sha256(work / "witness_skew_local_monotonicity.json") == WITNESS
