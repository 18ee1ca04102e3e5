"""Property-check campaigns over seeded random ensembles.

Every invariant declared by the core modules is expressed here as a runner
that draws configured sample counts and yields each sample's slack and inputs.
Only a failing property turns its worst sample's inputs (state, basis, alpha)
into a witness payload. The CLI's check command and the test suite drive them.

Pass rule: a property passes when ``worst_slack >= -tol``. Inequality
properties use the literal margin as slack; agreement properties use the
negated absolute error, so the same rule applies everywhere. A NaN slack fails.
"""

from __future__ import annotations

import functools
import json
import math
import os
import zlib
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .bounds import heisenberg_type_checks, memory_bounds
from .correlation import (
    DeficitEvaluator,
    OptimizerConfig,
    brute_force_D_qubit,
    quantum_correlation_D,
)
from .errors import ConfigError
from .linalg import (
    BipartiteDensityMatrix,
    HermitianOperator,
    fractional_power,
    herm_eig,
    kron,
    partial_trace,
)
from .serialize import matrix_to_pairs
from .skew import (
    ProjectiveBasis,
    engine,
    skew_information_I,
    skew_information_via_powers,
    variance,
)
from .states import (
    EnsembleSpec,
    example2_state,
    random_density,
    random_hermitian,
    random_unitary,
    werner_isotropic,
    werner_swap,
)
from .sweeps import EXAMPLE_P_RANGES, SWEEP_ERR_TOL, p_grid, sweep_row

DEFAULT_ALPHAS = tuple(round(0.1 * k, 1) for k in range(1, 10))

# Theorem checks whose right side carries an oracle correlation value are held
# to this tolerance, not machine precision. The qubit oracle is exact
# (lambda_min(Q) / 2, its tripwire allows 1e-9), so the margin is headroom.
ORACLE_TOL = 1e-6


@dataclass(frozen=True)
class EnsembleRun:
    spec: EnsembleSpec
    n_samples: int


@dataclass(frozen=True)
class CheckConfig:
    """Settings for one check campaign."""

    seed: int = 42
    n_samples: int = 1000      # cheap random-sample properties
    n_optimizer: int = 100     # properties that run the basis optimizer
    n_theorem: int = 200       # theorem checks with an oracle-certified D
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    dims: tuple[int, ...] = (2, 3, 4)
    bound_tol: float = 1e-9
    ensembles: tuple[EnsembleRun, ...] = ()

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_samples < 1 or self.n_optimizer < 1 or self.n_theorem < 1:
            raise ConfigError("sample counts must be >= 1")
        if self.bound_tol <= 0:
            raise ConfigError("bound_tol must be positive")
        if not self.alphas or any(not (0.0 <= a <= 1.0) for a in self.alphas):
            raise ConfigError("alphas must be a nonempty subset of [0, 1]")
        if not self.dims or any(d < 2 for d in self.dims):
            raise ConfigError("dims must contain integers >= 2")


@dataclass(frozen=True)
class PropertyResult:
    name: str
    samples: int
    worst_slack: float
    tol: float
    passed: bool
    witness: str | None = None


def _tag_seed(seed: int, tag: str) -> int:
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(zlib.crc32(tag.encode()),))
    return int(ss.generate_state(1)[0])


def _witness(inputs: dict) -> dict:
    """Sample inputs as JSON: a ``state`` as its matrix and dims, arrays as pairs."""
    payload = {}
    for key, value in inputs.items():
        if key == "state" and isinstance(value, BipartiteDensityMatrix):
            payload.update(matrix=matrix_to_pairs(value.mat), d_A=value.d_A,
                           d_B=value.d_B)
        elif key == "state":
            payload.update(matrix=matrix_to_pairs(value.mat), dim=value.dim)
        elif isinstance(value, np.ndarray):
            payload[key] = matrix_to_pairs(value)
        else:
            payload[key] = value
    return payload


def _result(name: str, tol: float, samples) -> tuple[PropertyResult, dict | None]:
    """The pass rule. The worst sample is the first NaN, else the first lowest
    slack; only a failing property serializes its inputs (if not ``None``)."""
    worst, worst_inputs, count = math.inf, None, 0
    for count, (slack, inputs) in enumerate(samples, 1):
        if slack < worst or (math.isnan(slack) and not math.isnan(worst)):
            worst, worst_inputs = float(slack), inputs
    passed = bool(worst >= -tol)
    witness = None if passed or worst_inputs is None else _witness(worst_inputs)
    return PropertyResult(name, count, worst, tol, passed), witness


def _property(name: str, tol: float | None = None):
    """Make a generator of ``(slack, inputs)`` samples a runner returning
    ``(PropertyResult, witness or None)``; ``tol`` defaults to ``cfg.bound_tol``."""
    def decorate(samples):
        @functools.wraps(samples)
        def run(cfg: CheckConfig):
            return _result(name, cfg.bound_tol if tol is None else tol, samples(cfg))
        return run
    return decorate


def _bipartite_dims(cfg: CheckConfig) -> list[tuple[int, int]]:
    return [(2, 2), (2, 3)] if max(cfg.dims) >= 3 else [(2, 2)]


# ---------------------------------------------------------------------------
# linalg properties
# ---------------------------------------------------------------------------

@_property("linalg_eig_reconstruction", 1e-10)
def prop_eig_reconstruction(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "eig_reconstruction")
    dims = (2, 3, 4, 6)
    for i in range(cfg.n_samples):
        h = random_hermitian(dims[i % len(dims)], seed, index=i)
        dec = herm_eig(h)
        resid = float(np.max(np.abs(dec.reconstruct() - h.mat)))
        orth = float(np.max(np.abs(
            dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(h.dim))))
        yield -max(resid, orth), {"dim": h.dim, "matrix": h.mat}


@_property("linalg_fractional_power_pair", 1e-9)
def prop_fractional_power_pair(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "fractional_power_pair")
    for i in range(cfg.n_samples):
        d = cfg.dims[i % len(cfg.dims)]
        if i % 3 == 0 and d > 2:
            spec = EnsembleSpec("fixed_rank", d, seed, rank=d - 1)
        else:
            spec = EnsembleSpec("full_rank", d, seed)
        rho = random_density(spec, index=i)
        alpha = cfg.alphas[i % len(cfg.alphas)]
        prod = fractional_power(rho, alpha).mat @ fractional_power(rho, 1.0 - alpha).mat
        err = float(np.max(np.abs(prod - rho.mat)))
        yield -err, {"state": rho, "alpha": alpha}


@_property("linalg_partial_trace", 1e-9)
def prop_partial_trace(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "partial_trace")
    dims = _bipartite_dims(cfg)
    for i in range(cfg.n_samples):
        da, db = dims[i % len(dims)]
        rho = random_density(EnsembleSpec("full_rank", (da, db), seed), index=i)
        bad = 0.0
        for keep in ("A", "B"):
            red = partial_trace(rho, keep)
            bad = max(bad, abs(float(np.trace(red.mat).real) - 1.0),
                      max(0.0, -float(np.linalg.eigvalsh(red.mat)[0])))
        yield -bad, {"state": rho}


@_property("linalg_kron_roundtrip", 1e-12)
def prop_kron_roundtrip(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "kron_roundtrip")
    dims = _bipartite_dims(cfg)
    for i in range(cfg.n_samples):
        da, db = dims[i % len(dims)]
        a = random_density(EnsembleSpec("full_rank", da, seed), index=2 * i)
        b = random_density(EnsembleSpec("full_rank", db, seed), index=2 * i + 1)
        joint = BipartiteDensityMatrix(kron(a.mat, b.mat), da, db)
        err = max(float(np.max(np.abs(partial_trace(joint, "A").mat - a.mat))),
                  float(np.max(np.abs(partial_trace(joint, "B").mat - b.mat))))
        yield -err, {"state": joint}


# ---------------------------------------------------------------------------
# skew properties
# ---------------------------------------------------------------------------

@_property("skew_ordering_J_ge_I_ge_0")
def prop_skew_ordering(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "skew_ordering")
    for i in range(cfg.n_samples):
        d = cfg.dims[i % len(cfg.dims)]
        rho = random_density(EnsembleSpec("full_rank", d, seed), index=i)
        h = random_hermitian(d, seed + 1, index=i)
        alpha = cfg.alphas[i % len(cfg.alphas)]
        pair = engine(rho).pair(h.mat, alpha)
        yield min(pair.j_alpha - pair.i_alpha, pair.i_alpha), {
            "state": rho, "alpha": alpha, "observable": h.mat}


@_property("skew_pure_state_reduction", 1e-9)
def prop_pure_reduction(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "pure_reduction")
    for i in range(cfg.n_samples):
        d = cfg.dims[i % len(cfg.dims)]
        rho = random_density(EnsembleSpec("pure", d, seed), index=i)
        h = random_hermitian(d, seed + 1, index=i)
        v = variance(rho, h)
        err = max(abs(p.i_alpha - v) for p in engine(rho).pairs(h.mat, cfg.alphas))
        yield -err, {"state": rho, "observable": h.mat}


@_property("skew_alpha_symmetry", 1e-10)
def prop_alpha_symmetry(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "alpha_symmetry")
    for i in range(cfg.n_samples):
        d = cfg.dims[i % len(cfg.dims)]
        rho = random_density(EnsembleSpec("full_rank", d, seed), index=i)
        h = random_hermitian(d, seed + 1, index=i)
        alpha = cfg.alphas[i % len(cfg.alphas)]
        at, mirrored = engine(rho).pairs(h.mat, (alpha, 1 - alpha))
        err = max(abs(at.i_alpha - mirrored.i_alpha), abs(at.j_alpha - mirrored.j_alpha))
        yield -err, {"state": rho, "alpha": alpha}


@_property("skew_half_alpha_agreement", 1e-10)
def prop_half_alpha_agreement(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "half_alpha")
    for i in range(cfg.n_samples):
        d = cfg.dims[i % len(cfg.dims)]
        rho = random_density(EnsembleSpec("full_rank", d, seed), index=i)
        h = random_hermitian(d, seed + 1, index=i)
        main = skew_information_I(rho, h, 0.5)
        root = scipy.linalg.sqrtm(rho.mat)
        direct = float((np.trace(rho.mat @ h.mat @ h.mat)
                        - np.trace(root @ h.mat @ root @ h.mat)).real)
        via_powers = skew_information_via_powers(rho, h, 0.5)
        err = max(abs(main - direct), abs(main - via_powers))
        yield -err, {"state": rho, "observable": h.mat}


@_property("skew_local_monotonicity")
def prop_local_monotonicity(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "local_monotonicity")
    dims = _bipartite_dims(cfg)
    for i in range(cfg.n_samples):
        da, db = dims[i % len(dims)]
        rho = random_density(EnsembleSpec("full_rank", (da, db), seed), index=i)
        x = random_hermitian(da, seed + 1, index=i)
        alpha = cfg.alphas[i % len(cfg.alphas)]
        embedded = HermitianOperator(kron(x.mat, np.eye(db)))
        slack = (skew_information_I(rho, embedded, alpha)
                 - skew_information_I(partial_trace(rho, "A"), x, alpha))
        yield slack, {"state": rho, "alpha": alpha, "observable": x.mat}


# ---------------------------------------------------------------------------
# correlation properties
# ---------------------------------------------------------------------------

@_property("correlation_deficit_nonnegative")
def prop_deficit_nonnegative(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "deficit_nonneg")
    dims = _bipartite_dims(cfg)
    for i in range(cfg.n_samples):
        da, db = dims[i % len(dims)]
        rho = random_density(EnsembleSpec("full_rank", (da, db), seed), index=i)
        alpha = cfg.alphas[i % len(cfg.alphas)]
        basis = ProjectiveBasis(random_unitary(da, seed + 1, index=i))
        total, _ = DeficitEvaluator(rho, alpha).basis_deficit(basis.columns)
        yield total, {"state": rho, "alpha": alpha, "basis": basis.columns}


@_property("correlation_relabel_invariance", 1e-12)
def prop_relabel_invariance(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "relabel")
    for i in range(cfg.n_samples):
        rho = random_density(EnsembleSpec("full_rank", (2, 2), seed), index=i)
        alpha = cfg.alphas[i % len(cfg.alphas)]
        u = random_unitary(2, seed + 1, index=i)
        ev = DeficitEvaluator(rho, alpha)
        t1, _ = ev.basis_deficit(u)
        t2, _ = ev.basis_deficit(u[:, ::-1])
        yield -abs(t1 - t2), {"state": rho, "alpha": alpha}


@_property("correlation_oracle_consistency", 0.0)
def prop_oracle_consistency(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "oracle_consistency")
    alphas = (0.3, 0.5, 0.7)
    for i in range(cfg.n_optimizer):
        rho = random_density(EnsembleSpec("full_rank", (2, 2), seed), index=i)
        alpha = alphas[i % len(alphas)]
        opt = quantum_correlation_D(rho, alpha, OptimizerConfig(seed=seed + i)).value
        grid = brute_force_D_qubit(rho, alpha)
        # the oracle is the exact minimum, which the optimizer (a true deficit)
        # cannot undershoot beyond float noise; it may not overshoot it
        # meaningfully either
        slack = min(1e-6 - (opt - grid), (opt - grid) + 1e-4)
        yield slack, {"state": rho, "alpha": alpha, "optimizer": opt, "grid": grid}


@_property("correlation_local_unitary_covariance", 1e-4)
def prop_local_unitary_covariance(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "lu_covariance")
    for i in range(cfg.n_optimizer):
        rho = random_density(EnsembleSpec("full_rank", (2, 2), seed), index=i)
        alpha = cfg.alphas[i % len(cfg.alphas)]
        u = kron(random_unitary(2, seed + 1, index=i), np.eye(2))
        rotated = BipartiteDensityMatrix(u @ rho.mat @ u.conj().T, 2, 2)
        err = abs(brute_force_D_qubit(rho, alpha) - brute_force_D_qubit(rotated, alpha))
        yield -err, {"state": rho, "alpha": alpha}


@_property("correlation_classical_quantum_nullity", ORACLE_TOL)
def prop_cq_nullity(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "cq_nullity")
    dims = _bipartite_dims(cfg)
    states: list[BipartiteDensityMatrix] = [example2_state()]
    for i in range(cfg.n_optimizer):
        da, db = dims[i % len(dims)]
        states.append(random_density(
            EnsembleSpec("classical_quantum", (da, db), seed), index=i))
    for i, rho in enumerate(states):
        alpha = cfg.alphas[i % len(cfg.alphas)]
        value = quantum_correlation_D(rho, alpha, OptimizerConfig(seed=seed + i)).value
        yield -value, {"state": rho, "alpha": alpha, "value": value}


# ---------------------------------------------------------------------------
# bounds properties
# ---------------------------------------------------------------------------

@_property("bounds_heisenberg_random")
def prop_heisenberg(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "heisenberg")
    for d in cfg.dims:
        for i in range(cfg.n_samples):
            rho = random_density(EnsembleSpec("full_rank", d, seed + d), index=i)
            r = random_hermitian(d, seed + 10 * d, index=i)
            s = random_hermitian(d, seed + 20 * d, index=i)
            reports = heisenberg_type_checks(rho, r, s, cfg.alphas,
                                             tolerance=cfg.bound_tol)
            for alpha, rep in zip(cfg.alphas, reports):
                yield rep.slack, {"state": rho, "alpha": alpha, "r": r.mat, "s": s.mat}


def _random_two_qubit_pair(seed: int, i: int):
    rho = random_density(EnsembleSpec("full_rank", (2, 2), seed), index=i)
    phi = ProjectiveBasis(random_unitary(2, seed + 1, index=i))
    psi = ProjectiveBasis(random_unitary(2, seed + 2, index=i))
    return rho, phi, psi


def prop_theorems_with_oracle(cfg: CheckConfig):
    """Theorem checks and the proof-chain links, sharing one oracle run."""
    seed = _tag_seed(cfg.seed, "theorems")
    thm, chain = [], []
    for i in range(cfg.n_theorem):
        rho, phi, psi = _random_two_qubit_pair(seed, i)
        alpha = cfg.alphas[i % len(cfg.alphas)]
        d_val = brute_force_D_qubit(rho, alpha)
        prod, summ = memory_bounds(rho, phi, psi, alpha, d_val, tolerance=ORACLE_TOL)
        inputs = {"state": rho, "alpha": alpha, "d_tilde": d_val,
                  "phi": phi.columns, "psi": psi.columns}
        thm.append((min(prod.slack, summ.slack), inputs))

        # chain links of the product bound's proof
        sum_i_phi = float(sum(prod.terms["per_k_I_phi"]))
        sum_i_psi = float(sum(prod.terms["per_k_I_psi"]))
        mid = sum_i_phi * sum_i_psi
        both = np.concatenate((phi.projector_stack, psi.projector_stack))
        i_a = [p.i_alpha for [p] in engine(rho.reduced()).stacked_pairs(both, (alpha,))]
        i_a_phi, i_a_psi = i_a[:2], i_a[2:]
        mid2 = (d_val + sum(i_a_phi)) * (d_val + sum(i_a_psi))
        mid3 = d_val**2 + sum(a * b for a, b in zip(i_a_phi, i_a_psi))
        tight = min(prod.lhs - mid, mid2 - mid3, mid3 - prod.rhs)
        # the link through the minimum inherits the oracle's certification
        oracle_link = mid - mid2
        violation = max(-tight - cfg.bound_tol, -oracle_link - ORACLE_TOL)
        chain.append((-violation, inputs))
    return [_result("bounds_theorems_oracle_certified", ORACLE_TOL, thm),
            _result("bounds_proof_chain_consistency", 0.0, chain)]


@_property("bounds_closed_form_agreement", SWEEP_ERR_TOL)
def prop_closed_form_agreement(cfg: CheckConfig):
    for example_id in (1, 3):
        for p in p_grid(*EXAMPLE_P_RANGES[example_id], 0.01):
            for alpha in (0.2, 0.5):
                row = sweep_row(example_id, p, alpha, "grid")
                yield -row["abs_err_max"], {"example": example_id, "p": p,
                                            "alpha": alpha,
                                            "abs_err_max": row["abs_err_max"]}


# ---------------------------------------------------------------------------
# states properties
# ---------------------------------------------------------------------------

def default_ensembles(cfg: CheckConfig) -> tuple[EnsembleRun, ...]:
    seed = _tag_seed(cfg.seed, "ensembles")
    n = max(1, cfg.n_samples // 20)
    runs = []
    for d in cfg.dims:
        runs.append(EnsembleRun(EnsembleSpec("full_rank", d, seed), n))
        runs.append(EnsembleRun(EnsembleSpec("pure", d, seed + 1), n))
    runs.append(EnsembleRun(EnsembleSpec("fixed_rank", 4, seed + 2, rank=2), n))
    for dims in _bipartite_dims(cfg):
        runs.append(EnsembleRun(EnsembleSpec("product", dims, seed + 3), n))
        runs.append(EnsembleRun(EnsembleSpec("classical_quantum", dims, seed + 4), n))
        runs.append(EnsembleRun(EnsembleSpec("separable_mixture", dims, seed + 5), n))
    return tuple(runs)


@_property("states_factory_validity", 0.0)
def prop_factory_validity(cfg: CheckConfig):
    runs = cfg.ensembles or default_ensembles(cfg)
    for run in runs:
        for i in range(run.n_samples):
            try:
                random_density(run.spec, index=i)
                yield 0.0, None
            except Exception:
                yield -1.0, {"kind": run.spec.kind, "dims": run.spec.dims,
                             "seed": run.spec.seed, "index": i}
    for p in (-1.0, -0.5, 0.0, 0.5, 1.0):
        werner_swap(p)
        yield 0.0, None
    for p in (0.0, 1.0 / 3.0, 1.0):
        werner_isotropic(p)
        yield 0.0, None


def _twirl_invariance(cfg: CheckConfig, tag: str, family, p_lo: float, conj: bool):
    """``family(p)`` commutes with ``u (x) u``, or ``u (x) u*`` if ``conj``."""
    seed = _tag_seed(cfg.seed, tag)
    rng = np.random.default_rng(seed)
    for i in range(max(1, cfg.n_samples // 10)):
        p = float(rng.uniform(p_lo, 1.0))
        rho = family(p)
        u = random_unitary(2, seed + 1, index=i)
        uu = kron(u, u.conj() if conj else u)
        err = float(np.max(np.abs(uu @ rho.mat @ uu.conj().T - rho.mat)))
        yield -err, {"p": p}


@_property("states_werner_swap_symmetry", 1e-10)
def prop_werner_swap_symmetry(cfg: CheckConfig):
    return _twirl_invariance(cfg, "swap_symmetry", werner_swap, -1.0, conj=False)


@_property("states_isotropic_symmetry", 1e-10)
def prop_isotropic_symmetry(cfg: CheckConfig):
    return _twirl_invariance(cfg, "isotropic_symmetry", werner_isotropic, 0.0, conj=True)


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

ALL_PROPERTIES = (
    prop_eig_reconstruction,
    prop_fractional_power_pair,
    prop_partial_trace,
    prop_kron_roundtrip,
    prop_skew_ordering,
    prop_pure_reduction,
    prop_alpha_symmetry,
    prop_half_alpha_agreement,
    prop_local_monotonicity,
    prop_deficit_nonnegative,
    prop_relabel_invariance,
    prop_oracle_consistency,
    prop_local_unitary_covariance,
    prop_cq_nullity,
    prop_heisenberg,
    prop_theorems_with_oracle,
    prop_closed_form_agreement,
    prop_factory_validity,
    prop_werner_swap_symmetry,
    prop_isotropic_symmetry,
)


@dataclass(frozen=True)
class CheckReport:
    results: tuple[PropertyResult, ...]
    all_pass: bool

    def to_dict(self, cfg: CheckConfig) -> dict:
        return {
            "seed": cfg.seed,
            "n_samples": cfg.n_samples,
            "n_optimizer": cfg.n_optimizer,
            "n_theorem": cfg.n_theorem,
            "alphas": list(cfg.alphas),
            "dims": list(cfg.dims),
            "properties": [
                {"name": r.name, "samples": r.samples,
                 # JSON has no NaN or infinity
                 "worst_slack": r.worst_slack if math.isfinite(r.worst_slack) else None,
                 "tol": r.tol,
                 "pass": r.passed, "witness": r.witness}
                for r in self.results
            ],
            "all_pass": self.all_pass,
        }


def _write_witness(witness_dir: str, name: str, payload: dict) -> str:
    path = os.path.join(witness_dir, f"witness_{name}.json")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"property": name, **payload}, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write witness {path}: {exc}") from exc
    return path


def run_checks(cfg: CheckConfig, witness_dir: str | None = None,
               properties=None, progress=None) -> CheckReport:
    """Run a property campaign; returns all results in declaration order.

    ``properties`` can be overridden (or extended) with callables taking the
    config and returning one PropertyResult-payload pair or a list of them.
    """
    cfg.validate()
    if properties is None:
        properties = ALL_PROPERTIES
    results: list[PropertyResult] = []
    for prop in properties:
        outcome = prop(cfg)
        pairs = outcome if isinstance(outcome, list) else [outcome]
        for res, payload in pairs:
            if not res.passed and payload is not None and witness_dir:
                path = _write_witness(witness_dir, res.name, payload)
                res = replace(res, witness=path)
            results.append(res)
            if progress is not None:
                progress(res)
    return CheckReport(results=tuple(results),
                       all_pass=all(r.passed for r in results))
