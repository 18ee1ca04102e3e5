"""Output bytes, locked by digest.

Each case writes one output file (of the CLI, or a check witness) and
compares its sha256 with a digest recorded before a change that had to keep
those bytes: the scoring layer's state axis for the first ten, the single
code path of each file, state and reduction primitive for the last three.
The digests belong to numpy 2.4.6 with OpenBLAS 0.3.31 on the x86-64 machine
that recorded them (2 vCPUs with AVX-512); another numpy, BLAS or CPU may
round differently and fail here without any change to skewunc. A deliberate
byte change updates the digest in this file and is logged in CHANGES.md.

A second digest of every case (``AVX2``) holds the bytes of the same machine
on its AVX2 kernels: one subprocess writes all cases with OpenBLAS's Haswell
kernels and numpy's AVX-512 dispatch switched off, through two environment
variables of that process, set before numpy loads. These are the bytes an
AVX2-only x86-64 machine computes with the same numpy and OpenBLAS.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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

# name in CASES -> digest of the case on the AVX2 kernels (see the docstring)
AVX2 = {
    "reproduce 1": "962342f1ca0e296a75041f390c73916a04cb55656d198eb16dd07636bbc91f18",
    "reproduce 3": "a4cbb891335b250f4ada9ebe21d435193c30581bf0cd35ef8b6f9a626f43367b",
    "eval 2 x,z": "d5ccdac9816e407eb180767b124ecf7aeb42a604b48290604faa0f5cdc8dab09",
    "eval 2 y,z": "3f7fa4cce2cdf8b0fb4511d3af0c76cd0444358b2df90f34fdd39139b9fc9f09",
    "eval 3 x,z": "16f080d134ddd17f6ceedb4a4f67df57fcc3518be84ecb40c6b246d06d2756fa",
    "eval 3 y,z": "bfbb535b0103e37e32628000f133cc1033c72651fc5a83c7273ce8d58255e7cd",
    "eval 4 x,z": "e16aa0d05f444ea656716ff8d40060634d6eeb85bc9588aadfe8ca6798aae926",
    "eval 4 y,z": "17689c8ea11a0a2f8b8644fe0b4d2a6ba64cddc117911ef5113e74895a8ad49c",
    "check": "d8fc4f9399cca0babff3774ccaaeedc7ed79850bdab6f3fdb74cb41f8dadf73f",
    "check across blocks": "abdc65b04a96b70adc623667b720c9e8bab81ef64b08cfaef0a4814130f8e73c",
    "reproduce example 2 json": "fd489fe93fe87ee6a10a8e94c3af1fdce3c78cfbcbe1eea55d1864a240b21791",
    "reproduce custom csv": "2fb5f455a2a509bc6ce3f0d3d407b4ef742390465eb820a4dc31e40d28fa7c64",
    "witness": "759bec05457237977d0f079efce12f7b69c1bc36b33e31ea1f022ef05133d3dd",
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# Each case runs in the current directory and returns the file it wrote.

def _reproduce_csv(example_id):
    assert main(["reproduce", "--example", str(example_id), "--alpha", "0.2,0.5",
                 "--out", "rows.csv"]) == 0
    return "rows.csv"


def _eval_json(d_b, bases):
    save_state("state.json", random_density(EnsembleSpec("full_rank", (2, d_b), 7)))
    assert main(["eval", "state.json", "--bases", bases, "--out", "eval.json"]) == 0
    return "eval.json"


def _check_report(n_samples):
    Path("cfg.json").write_text(json.dumps(
        {"n_samples": n_samples, "n_optimizer": 1, "n_theorem": 5}))
    assert main(["check", "--config", "cfg.json", "--out", "report.json"]) == 0
    return "report.json"


def _reproduce_example2_json():
    assert main(["reproduce", "--example", "2", "--format", "json",
                 "--out", "rows.json"]) == 0
    return "rows.json"


def _reproduce_custom_csv():
    save_state("state.json", random_density(EnsembleSpec("full_rank", (2, 3), 7)))
    Path("cfg.json").write_text(json.dumps({"example": "custom", "state": "state.json"}))
    assert main(["reproduce", "--config", "cfg.json", "--alpha", "0.2,0.5",
                 "--out", "rows.csv"]) == 0
    return "rows.csv"


def _failing_property_witness():
    result = checks._result
    checks._result = lambda name, tol, samples: result(name, -math.inf, samples)
    try:
        [res] = run_checks(CheckConfig(seed=5, n_samples=30), witness_dir=os.getcwd(),
                           properties=(prop_local_monotonicity,)).results
    finally:
        checks._result = result
    assert not res.passed
    assert res.witness == os.path.join(os.getcwd(), "witness_skew_local_monotonicity.json")
    return "witness_skew_local_monotonicity.json"


# every case as (name, writer, arguments), named as in AVX2
CASES = ([(f"reproduce {e}", _reproduce_csv, (e,)) for e in sorted(REPRODUCE)]
         + [(f"eval {d_b} {bases}", _eval_json, (d_b, bases)) for d_b, bases in sorted(EVAL)]
         + [("check", _check_report, (20,)), ("check across blocks", _check_report, (250,)),
            ("reproduce example 2 json", _reproduce_example2_json, ()),
            ("reproduce custom csv", _reproduce_custom_csv, ()),
            ("witness", _failing_property_witness, ())])


@pytest.fixture
def work(tmp_path, monkeypatch, capsys):
    """Run in ``tmp_path`` so that the outputs name only relative paths."""
    monkeypatch.chdir(tmp_path)
    yield tmp_path
    capsys.readouterr()


@pytest.mark.parametrize("example_id", sorted(REPRODUCE))
def test_reproduce_csv_digest(work, example_id):
    assert _sha256(_reproduce_csv(example_id)) == REPRODUCE[example_id]


@pytest.mark.parametrize("d_b, bases", sorted(EVAL))
def test_eval_json_digest(work, d_b, bases):
    assert _sha256(_eval_json(d_b, bases)) == EVAL[d_b, bases]


def test_check_report_digest(work):
    assert _sha256(_check_report(20)) == CHECK


def test_check_report_digest_across_blocks(work):
    assert _sha256(_check_report(250)) == CHECK_BLOCKS


def test_reproduce_example2_json_digest(work):
    assert _sha256(_reproduce_example2_json()) == REPRODUCE_EXAMPLE2_JSON


def test_reproduce_custom_csv_digest(work):
    assert _sha256(_reproduce_custom_csv()) == REPRODUCE_CUSTOM


def test_failing_property_witness_digest(work):
    assert _sha256(_failing_property_witness()) == WITNESS


# Writes every case in a directory of its own and prints {name: sha256} last.
CHILD = """
import json, os, sys
sys.path[:0] = sys.argv[2:]
import test_output_digests as cases
digests = {}
for k, (name, write, args) in enumerate(cases.CASES):
    os.mkdir(os.path.join(sys.argv[1], str(k)))
    os.chdir(os.path.join(sys.argv[1], str(k)))
    digests[name] = cases._sha256(write(*args))
print(json.dumps(digests))
"""

AVX2_ENV = {"OPENBLAS_CORETYPE": "Haswell",
            "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}


def test_digests_on_the_avx2_kernels(tmp_path):
    here = Path(__file__).resolve().parent
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path), str(here),
                           str(here.parent / "src")], env={**os.environ, **AVX2_ENV},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == AVX2
