"""Neither grid-oracle runs nor the basis optimizer load scipy: only the
``check`` campaign's sqrtm cross-check does. Grid runs load no hashlib
either: only an eigensolver failure needs it. Nor do they load numpy.random:
only a random draw or the optimizer needs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, sys
from pathlib import Path

tmp = Path(sys.argv[1])
steps = []

def record(step):
    steps.append([step, "scipy" in sys.modules, "numpy.random" in sys.modules])

import skewunc
record("import skewunc")
import skewunc.cli as cli
record("import skewunc.cli")
code = cli.main(["reproduce", "--example", "1", "--alpha", "0.3", "--p-start", "0",
                 "--p-stop", "0", "--p-step", "1", "--out", str(tmp / "row.csv")])
record(f"grid reproduce (exit {code})")
from skewunc.serialize import save_state
from skewunc.states import werner_isotropic
save_state(str(tmp / "state.json"), werner_isotropic(0.5))
code = cli.main(["eval", str(tmp / "state.json"), "--oracle", "grid",
                 "--out", str(tmp / "eval.json")])
record(f"grid eval (exit {code})")
grid_hashlib = "hashlib" in sys.modules
skewunc.quantum_correlation_D(werner_isotropic(0.5), 0.5)
record("quantum_correlation_D")
print(json.dumps({"steps": steps, "grid_hashlib": grid_hashlib}))
"""


def test_grid_oracle_runs_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["grid_hashlib"] is False
    assert out["steps"] == [
        ["import skewunc", False, False],
        ["import skewunc.cli", False, False],
        ["grid reproduce (exit 0)", False, False],
        ["grid eval (exit 0)", False, False],
        ["quantum_correlation_D", False, True],
    ]
