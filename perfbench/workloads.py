"""The four benchmark workloads.

Each workload makes its inputs from the seed when it is constructed, runs
one pass over its items through skewunc's public entry points, and checks
every item's output after the pass, outside the timed region. A pass records
the start and end of each item:

* ``sweep``: a sweep row, timed around ``cli.sweep_row``;
* ``optimize``: one ``quantum_correlation_D`` call;
* ``campaign``: one property runner of ``checks.ALL_PROPERTIES``;
* ``eval``: one ``skewunc eval`` invocation.

The library is always reached through module attributes at call time, so the
traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from skewunc import checks, cli, correlation, errors, linalg
from tracing import Patcher

# Same value as skewunc.sweeps.SWEEP_ERR_TOL, fixed here so that a change to
# the library cannot loosen the benchmark's own check.
SWEEP_ERR_TOL = 1e-8

# Acceptance criterion 07's gate between an optimizer D and a certified one.
ORACLE_GATE = 1e-4

# D of a classical-quantum state is 0; an optimizer result must reach this.
CQ_NULL_TOL = 1e-6

# correlation_deficit at the returned basis must reproduce the returned value.
REPRODUCE_TOL = 1e-12


@dataclass
class PassResult:
    """One pass: item start and end times, item outcomes and output files."""

    items: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0       # raised, exited non-zero, or failed its check
    incorrect: int = 0    # returned an output that failed its check
    errors: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)

    def fail(self, message: str, incorrect: bool) -> None:
        self.failed += 1
        self.incorrect += incorrect
        if len(self.errors) < 5:
            self.errors.append(message)

    def output_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.outputs if os.path.exists(p))

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in self.outputs:
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()


def timed(fn, sink: list[tuple[float, float]], outcomes: list | None = None):
    """Wrap ``fn`` so that each call appends its start and end to ``sink``
    (and its return value to ``outcomes``)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            sink.append((t0, time.perf_counter()))
        if outcomes is not None:
            outcomes.append(result)
        return result
    return wrapper


def _quiet(fn, *args):
    """Run ``fn`` with the CLI's stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _remove(paths) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _ginibre_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _cq_state(rng: np.random.Generator, da: int, db: int) -> np.ndarray:
    """Classical-quantum state sum_k p_k |k><k| (x) sigma_k, rotated by a
    random U_A (x) I so that D = 0 is not reached at the identity basis."""
    weights = rng.dirichlet(np.ones(da))
    mat = np.zeros((da * db, da * db), dtype=np.complex128)
    for k in range(da):
        pk = np.zeros((da, da))
        pk[k, k] = 1.0
        mat += weights[k] * np.kron(pk, _ginibre_state(rng, db))
    u = np.kron(_haar_unitary(rng, da), np.eye(db))
    return u @ mat @ u.conj().T


class Sweep:
    """``skewunc reproduce`` of examples 1 and 3 over their full p grids at
    step 0.01, grid oracle, CSV output, two alphas drawn from the seed."""

    name = "sweep"
    # p grids: 201 points on [-1, 1] and 101 on [0, 1], two alphas each
    ROWS = {1: 402, 3: 202}

    def __init__(self, work: str, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.alphas = ",".join(repr(round(float(a), 3)) for a in rng.uniform(0.05, 0.95, 2))
        self.outputs = [os.path.join(work, f"sweep_example{ex}.csv") for ex in self.ROWS]

    def _argv(self, example: int, out: str) -> list[str]:
        return ["reproduce", "--example", str(example), "--alpha", self.alphas,
                "--p-step", "0.01", "--oracle", "grid", "--format", "csv",
                "--out", out]

    def first_item(self) -> None:
        alpha = self.alphas.split(",")[0]
        _quiet(cli.main, ["reproduce", "--example", "1", "--alpha", alpha,
                          "--p-start", "-1", "--p-stop", "-1",
                          "--out", self.outputs[0]])

    def run_pass(self) -> tuple[PassResult, list[int]]:
        _remove(self.outputs)
        res = PassResult(outputs=self.outputs)
        codes = []
        patcher = Patcher()
        patcher.set(cli, "sweep_row", timed(cli.sweep_row, res.items))
        try:
            for example, out in zip(self.ROWS, self.outputs):
                codes.append(_quiet(cli.main, self._argv(example, out)))
        finally:
            patcher.close()
        return res, codes

    def check(self, res: PassResult, codes: list[int]) -> None:
        pairs = (("lhs_product", "closed_form_lhs_product"),
                 ("rhs_product", "closed_form_rhs_product"),
                 ("lhs_sum", "closed_form_lhs_sum"),
                 ("rhs_sum", "closed_form_rhs_sum"))
        for (example, expected), out, code in zip(self.ROWS.items(), self.outputs, codes):
            res.attempted += expected
            rows = []
            if os.path.exists(out):
                with open(out, newline="", encoding="utf-8") as fh:
                    rows = list(csv.DictReader(fh))
            for row in rows[:expected]:
                reported = float(row["abs_err_max"])
                recomputed = max(abs(float(row[a]) - float(row[b])) for a, b in pairs)
                if not (reported < SWEEP_ERR_TOL and recomputed < SWEEP_ERR_TOL):
                    res.fail(f"example {example} p={row['p']} alpha={row['alpha']}: "
                             f"deviation {max(reported, recomputed):.3e}", incorrect=True)
            for _ in range(expected - min(len(rows), expected)):
                res.fail(f"example {example}: exit code {code}, row missing",
                         incorrect=False)


@dataclass(frozen=True)
class OptimizeItem:
    kind: str            # "full" or "cq" (rotated classical-quantum)
    dims: tuple[int, int]
    alpha: float
    mat: np.ndarray


class Optimize:
    """``quantum_correlation_D`` at the default OptimizerConfig on seeded
    full-rank and rotated classical-quantum states."""

    name = "optimize"
    # (kind, dims, count). Sorted by time, items 5-11 of 13 are the ~0.4 s
    # qubit-A full-rank class, so the median item (the 7th) sits in the
    # middle of one class, and the state-to-state spread of that class
    # averages out.
    MIX = (("cq", (2, 2), 2), ("cq", (3, 3), 2), ("full", (2, 2), 4),
           ("full", (2, 3), 3), ("full", (3, 3), 1), ("full", (4, 2), 1))

    def __init__(self, work: str, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.items = []
        for kind, (da, db), count in self.MIX:
            for _ in range(count):
                mat = (_cq_state(rng, da, db) if kind == "cq"
                       else _ginibre_state(rng, da * db))
                alpha = float(rng.choice((0.3, 0.5, 0.7)))
                self.items.append(OptimizeItem(kind, (da, db), alpha, mat))

    def first_item(self) -> None:
        item = self.items[0]
        try:
            correlation.quantum_correlation_D(_bipartite(item), item.alpha)
        except errors.OptimizerError:
            pass

    def run_pass(self) -> tuple[PassResult, list]:
        res = PassResult()
        outcomes = []
        for item in self.items:
            state = _bipartite(item)
            t0 = time.perf_counter()
            try:
                outcome = correlation.quantum_correlation_D(state, item.alpha)
            except Exception as exc:  # one failed item must not end the run
                outcome = exc
            res.items.append((t0, time.perf_counter()))
            outcomes.append((state, outcome))
        return res, outcomes

    def check(self, res: PassResult, outcomes: list) -> None:
        for item, (state, outcome) in zip(self.items, outcomes):
            res.attempted += 1
            label = f"{item.kind} {item.dims[0]}x{item.dims[1]} alpha={item.alpha}"
            if isinstance(outcome, Exception):
                res.fail(f"{label}: {type(outcome).__name__}: {outcome}", incorrect=False)
                continue
            value = outcome.value
            problems = []
            if not value >= 0.0:
                problems.append(f"value {value!r} negative")
            again = correlation.correlation_deficit(state, outcome.argmin_basis, item.alpha)
            if abs(again - value) > REPRODUCE_TOL:
                problems.append(f"deficit at argmin basis {again!r} != value {value!r}")
            if item.dims[0] == 2:
                q = correlation.DeficitEvaluator(state, item.alpha).bloch_quadratic()
                exact = 0.5 * float(np.linalg.eigvalsh(q)[0])
                if abs(value - exact) > ORACLE_GATE:
                    problems.append(f"value {value:.6e} vs exact qubit D {exact:.6e}")
            if item.kind == "cq" and value > CQ_NULL_TOL:
                problems.append(f"classical-quantum state gave D = {value:.3e}")
            if problems:
                res.fail(f"{label}: " + "; ".join(problems), incorrect=True)


def _bipartite(item: OptimizeItem):
    return linalg.BipartiteDensityMatrix(item.mat, *item.dims)


class Campaign:
    """``skewunc check --config`` with every property.

    The default campaign takes ~55 s, and ~19 s with n_optimizer lowered; the
    sample counts are lowered further so that a pass (~8 s) repeats within a
    run. Heisenberg alone still makes 2,700 bound checks at d = 2, 3, 4, and
    the closed-form property runs all 604 sweep rows.
    """

    name = "campaign"
    CONFIG = {"n_samples": 100, "n_theorem": 25, "n_optimizer": 1}

    def __init__(self, work: str, seed: int):
        self.seed = int(np.random.default_rng([seed, 3]).integers(1, 2**31))
        self.config = os.path.join(work, "campaign_config.json")
        self.report = os.path.join(work, "campaign_report.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"seed": self.seed, **self.CONFIG}, fh)

    def first_item(self) -> None:
        cfg = checks.CheckConfig(seed=self.seed, **self.CONFIG)
        checks.ALL_PROPERTIES[0](cfg)

    def run_pass(self) -> tuple[PassResult, tuple[int, list]]:
        _remove([self.report])
        res = PassResult(outputs=[self.report])
        outcomes: list = []
        patcher = Patcher()
        patcher.set(checks, "ALL_PROPERTIES", tuple(
            timed(prop, res.items, outcomes) for prop in checks.ALL_PROPERTIES))
        argv = ["check", "--config", self.config, "--out", self.report]
        try:
            code = _quiet(cli.main, argv)
        finally:
            patcher.close()
        return res, (code, outcomes)

    def check(self, res: PassResult, run: tuple[int, list]) -> None:
        code, outcomes = run
        n_runners = len(checks.ALL_PROPERTIES)
        res.attempted += n_runners
        failing = 0
        for outcome in outcomes:
            results = [r for r, _ in (outcome if isinstance(outcome, list) else [outcome])]
            if not all(r.passed for r in results):
                failing += 1
                res.fail("property failed: " + ", ".join(
                    r.name for r in results if not r.passed), incorrect=True)
        for _ in range(n_runners - len(outcomes)):
            res.fail(f"property runner did not run (exit code {code})", incorrect=False)
        if code != 0 and not failing and len(outcomes) == n_runners:
            res.fail(f"check exited {code} although every property passed",
                     incorrect=False)


class Eval:
    """~300 ``skewunc eval`` invocations on seeded full-rank state files at
    2x2, 2x3 and 2x4, bases alternating x,z and y,z."""

    name = "eval"
    N_ITEMS = 300

    def __init__(self, work: str, seed: int):
        rng = np.random.default_rng([seed, 4])
        self.items = []
        for i in range(self.N_ITEMS):
            db = (2, 3, 4)[i % 3]
            item = {
                "alpha": repr(round(float(rng.uniform(0.05, 0.95)), 3)),
                "bases": ("x,z", "y,z")[(i // 3) % 2],
                "state": os.path.join(work, f"state_{i:03d}.json"),
                "out": os.path.join(work, f"eval_{i:03d}.json"),
            }
            pairs = ",".join(f"[{float(z.real)!r},{float(z.imag)!r}]"
                             for z in _ginibre_state(rng, 2 * db).ravel())
            with open(item["state"], "w", encoding="utf-8") as fh:
                fh.write(f'{{"d_A":2,"d_B":{db},"matrix":[{pairs}]}}\n')
            self.items.append(item)

    def _argv(self, item: dict) -> list[str]:
        return ["eval", item["state"], "--bases", item["bases"],
                "--alpha", item["alpha"], "--out", item["out"]]

    def first_item(self) -> None:
        _quiet(cli.main, self._argv(self.items[0]))

    def run_pass(self) -> tuple[PassResult, list[int]]:
        _remove(item["out"] for item in self.items)
        res = PassResult(outputs=[item["out"] for item in self.items])
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            for item in self.items:
                t0 = time.perf_counter()
                codes.append(cli.main(self._argv(item)))
                res.items.append((t0, time.perf_counter()))
                sink.seek(0)
                sink.truncate()
        return res, codes

    def check(self, res: PassResult, codes: list[int]) -> None:
        for item, code in zip(self.items, codes):
            res.attempted += 1
            if not os.path.exists(item["out"]):
                res.fail(f"{item['state']}: exit code {code}, no output", incorrect=False)
                continue
            with open(item["out"], encoding="utf-8") as fh:
                doc = json.load(fh)
            held = all(doc[k]["holds"] for k in ("heisenberg", "product", "sum"))
            if code != 0 or not held:
                res.fail(f"{item['state']}: exit code {code}, holds={held}", incorrect=True)


WORKLOADS = {w.name: w for w in (Sweep, Optimize, Campaign, Eval)}

