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
from itertools import chain

import numpy as np

from .bounds import heisenberg_type_checks, memory_bounds
from .correlation import (
    DeficitEvaluator,
    brute_force_D_qubit,
    quantum_correlation_D,
)
from .errors import ConfigError, ValidationError
from .linalg import (
    BipartiteDensityMatrix,
    as_alphas,
    as_int,
    check_type,
    fractional_power,
    herm_eig,
    kron,
    partial_trace,
)
from .serialize import matrix_to_pairs, write_text
from .skew import (
    ProjectiveBasis,
    embedded,
    engine,
    skew_information_I,
    skew_information_via_powers,
    variance,
)
from .states import (
    EnsembleSpec,
    example2_state,
    random_densities,
    random_density,
    random_hermitian,
    random_unitary,
    stream_words,
    werner_isotropic,
    werner_swap,
)
from .sweeps import EXAMPLE_P_RANGES, SWEEP_ERR_TOL, p_grid, sweep_rows

DEFAULT_ALPHAS = tuple(round(0.1 * k, 1) for k in range(1, 10))

# Default property tolerance, also applied to the exact proof-chain links.
BOUND_TOL = 1e-9

# Most samples drawn and scored as one block, which holds its states, weights
# and reports at once: memory stays flat in n_samples.
_STACK = 100

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
    ensembles: tuple[EnsembleRun, ...] = ()

    def validate(self) -> None:
        try:
            for name, minimum in (("seed", 0), ("n_samples", 1), ("n_optimizer", 1),
                                  ("n_theorem", 1)):
                as_int(getattr(self, name), minimum, name)
            as_alphas(self.alphas)
            if not self.dims:
                raise ValidationError("dims must be nonempty")
            for d in self.dims:
                as_int(d, 2, "dims")
            for run in self.ensembles:
                as_int(check_type(run, EnsembleRun, "ensembles entry").n_samples, 1, "n_samples")
        except (TypeError, ValueError) as exc:   # ValidationError is a ValueError
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class PropertyResult:
    name: str
    samples: int
    worst_slack: float
    tol: float
    passed: bool
    witness: str | None = None


def _tag_seed(seed: int, tag: str) -> int:
    """The property seed for ``tag``: the first 32-bit state word of stream
    ``crc32(tag)`` of ``seed``."""
    return int(stream_words(seed, zlib.crc32(tag.encode()))[0]) & 0xFFFFFFFF


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


def _property(name: str, tol: float = BOUND_TOL):
    """Make a generator of ``(slack, inputs)`` samples a runner returning
    ``(PropertyResult, witness or None)``."""
    def decorate(samples):
        @functools.wraps(samples)
        def run(cfg: CheckConfig):
            return _result(name, tol, samples(cfg))
        return run
    return decorate


def _bipartite_dims(cfg: CheckConfig) -> list[tuple[int, int]]:
    return [(2, 2), (2, 3)] if max(cfg.dims) >= 3 else [(2, 2)]


def _blocks(n: int):
    """``range(n)`` in blocks of at most ``_STACK``."""
    for lo in range(0, n, _STACK):
        yield range(lo, min(lo + _STACK, n))


def _grouped(keys, score, *columns) -> list:
    """``score(key, *columns)`` on the entries of each key, with each column
    cut to those entries, and its answers (one per entry) in entry order."""
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    out = [None] * len(keys)
    for key, ks in groups.items():
        for k, answer in zip(ks, score(key, *([col[k] for k in ks] for col in columns)),
                             strict=True):
            out[k] = answer
    return out


def _partial_traces(states, keep: str) -> list:
    """``partial_trace(state, keep)`` of each bipartite state: one stacked call per shape."""
    return _grouped([(rho.d_A, rho.d_B) for rho in states],
                    lambda _, stack: partial_trace(stack, keep), states)


def _draws(cfg: CheckConfig, tag: str, n: int, dims, kind: str = "full_rank",
           alphas=None):
    """Yield ``n`` samples ``(i, seed, state, alpha)`` as blocks of at most
    ``_STACK``, in index order: ``seed`` is the property's seed for ``tag``,
    ``state`` is draw ``i`` of ``kind`` at the next of ``dims``, and ``alpha``
    the next of ``alphas`` (``cfg.alphas``). A block's states are drawn (and,
    if bipartite, reduced) as one stack per entry of ``dims``."""
    seed = _tag_seed(cfg.seed, tag)
    alphas = cfg.alphas if alphas is None else alphas
    specs = [EnsembleSpec(kind, dim, seed) for dim in dims]
    for block in _blocks(n):
        block_specs = [specs[i % len(specs)] for i in block]
        states = _grouped(block_specs, random_densities, block)
        if specs[0].bipartite:
            _partial_traces(states, "A")
        yield [(i, seed, rho, alphas[i % len(alphas)]) for i, rho in zip(block, states)]


def _per_sample(draw, block, offset: int = 1, local: bool = False) -> list:
    """``draw(d, seed + offset, i)`` for each sample ``(i, seed, rho, _)`` of a
    ``_draws`` block, with d the state's dimension (its d_A if ``local``): one
    block draw per dimension."""
    seed = block[0][1] + offset
    return _grouped([rho.d_A if local else rho.dim for _, _, rho, _ in block],
                    lambda d, idx: draw(d, seed, idx), [i for i, *_ in block])


def _skew_ij(states, hs, wanted) -> list[list[list[float]]]:
    """``[I, J]`` of each state against its observable ``hs[k]`` at each alpha of ``wanted[k]``:
    one stacked scoring per state dimension, at every alpha that its states want."""
    def score(_, states, hs, wanted):
        alphas = tuple(dict.fromkeys(chain.from_iterable(wanted)))
        i, j, _ = engine(*states).stacked_pairs(np.stack(hs)[:, None], alphas)
        ij = np.stack((i[:, 0], j[:, 0]), -1).tolist()
        return [[row[alphas.index(a)] for a in want] for row, want in zip(ij, wanted)]
    return _grouped([rho.dim for rho in states], score, states, hs, wanted)


def _deficits(block, bases) -> list[list[float]]:
    """The total deficit of each sample's state at its alpha for each of its
    bases ``bases[k]``: one ``DeficitEvaluator`` per state dimension and alpha."""
    def score(key, states, bases):
        ev = DeficitEvaluator(states, key[1])
        per_basis = [ev.basis_deficit(np.stack(columns)) for columns in zip(*bases)]
        return [[total for total, _ in scored] for scored in zip(*per_basis)]
    return _grouped([(rho.dim, alpha) for _, _, rho, alpha in block], score,
                    [rho for _, _, rho, _ in block], bases)


# ---------------------------------------------------------------------------
# linalg properties
# ---------------------------------------------------------------------------

@_property("linalg_eig_reconstruction", 1e-10)
def prop_eig_reconstruction(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "eig_reconstruction")
    dims = (2, 3, 4, 6)
    for block in _blocks(cfg.n_samples):
        for h in _grouped([dims[i % len(dims)] for i in block],
                          lambda d, idx: random_hermitian(d, seed, idx), block):
            dec = herm_eig(h)
            resid = float(np.max(np.abs(dec.reconstruct() - h.mat)))
            orth = float(np.max(np.abs(
                dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(h.dim))))
            yield -max(resid, orth), {"dim": h.dim, "matrix": h.mat}


@_property("linalg_fractional_power_pair", 1e-9)
def prop_fractional_power_pair(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "fractional_power_pair")
    full = {d: EnsembleSpec("full_rank", d, seed) for d in cfg.dims}
    fixed = {d: EnsembleSpec("fixed_rank", d, seed, rank=d - 1) for d in cfg.dims if d > 2}
    for block in _blocks(cfg.n_samples):
        dims = [cfg.dims[i % len(cfg.dims)] for i in block]
        specs = [fixed[d] if i % 3 == 0 and d > 2 else full[d] for i, d in zip(block, dims)]
        for i, rho in zip(block, _grouped(specs, random_densities, block)):
            alpha = cfg.alphas[i % len(cfg.alphas)]
            prod = fractional_power(rho, alpha).mat @ fractional_power(rho, 1.0 - alpha).mat
            err = float(np.max(np.abs(prod - rho.mat)))
            yield -err, {"state": rho, "alpha": alpha}


@_property("linalg_partial_trace", 1e-9)
def prop_partial_trace(cfg: CheckConfig):
    for block in _draws(cfg, "partial_trace", cfg.n_samples, _bipartite_dims(cfg)):
        rhos = [rho for _, _, rho, _ in block]
        for rho, *pair in zip(rhos, *(_partial_traces(rhos, keep) for keep in ("A", "B"))):
            bad = 0.0
            for red in pair:
                bad = max(bad, abs(float(np.trace(red.mat).real) - 1.0),
                          max(0.0, -float(np.linalg.eigvalsh(red.mat)[0])))
            yield -bad, {"state": rho}


@_property("linalg_kron_roundtrip", 1e-12)
def prop_kron_roundtrip(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "kron_roundtrip")
    dims = _bipartite_dims(cfg)
    specs = {d: EnsembleSpec("full_rank", d, seed) for d in chain.from_iterable(dims)}
    for block in _blocks(cfg.n_samples):
        shapes = [dims[i % len(dims)] for i in block]
        a_s, b_s = (_grouped([specs[shape[k]] for shape in shapes], random_densities,
                             [2 * i + k for i in block]) for k in (0, 1))
        joints = _grouped(shapes, lambda shape, a_s, b_s: BipartiteDensityMatrix.stack(
            [kron(a.mat, b.mat) for a, b in zip(a_s, b_s)], *shape), a_s, b_s)
        for a, b, joint, red_a, red_b in zip(a_s, b_s, joints, *(
                _partial_traces(joints, keep) for keep in ("A", "B"))):
            err = max(float(np.max(np.abs(red_a.mat - a.mat))),
                      float(np.max(np.abs(red_b.mat - b.mat))))
            yield -err, {"state": joint}


# ---------------------------------------------------------------------------
# skew properties
# ---------------------------------------------------------------------------

@_property("skew_ordering_J_ge_I_ge_0")
def prop_skew_ordering(cfg: CheckConfig):
    for block in _draws(cfg, "skew_ordering", cfg.n_samples, cfg.dims):
        hs = [h.mat for h in _per_sample(random_hermitian, block)]
        scored = _skew_ij([rho for _, _, rho, _ in block], hs,
                          [(alpha,) for *_, alpha in block])
        for (_, _, rho, alpha), h, [(i, j)] in zip(block, hs, scored):
            yield min(j - i, i), {"state": rho, "alpha": alpha, "observable": h}


@_property("skew_pure_state_reduction", 1e-9)
def prop_pure_reduction(cfg: CheckConfig):
    for block in _draws(cfg, "pure_reduction", cfg.n_samples, cfg.dims, "pure"):
        hs = _per_sample(random_hermitian, block)
        scored = _skew_ij([rho for _, _, rho, _ in block], [h.mat for h in hs],
                          [cfg.alphas] * len(block))
        for (_, _, rho, _), h, scores in zip(block, hs, scored):
            v = variance(rho, h)
            yield -max(abs(i - v) for i, _ in scores), {"state": rho, "observable": h.mat}


@_property("skew_alpha_symmetry", 1e-10)
def prop_alpha_symmetry(cfg: CheckConfig):
    for block in _draws(cfg, "alpha_symmetry", cfg.n_samples, cfg.dims):
        hs = [h.mat for h in _per_sample(random_hermitian, block)]
        scored = _skew_ij([rho for _, _, rho, _ in block], hs,
                          [(alpha, 1 - alpha) for *_, alpha in block])
        for (_, _, rho, alpha), ((i_at, j_at), (i_mirrored, j_mirrored)) in zip(block, scored):
            err = max(abs(i_at - i_mirrored), abs(j_at - j_mirrored))
            yield -err, {"state": rho, "alpha": alpha}


@_property("skew_half_alpha_agreement", 1e-10)
def prop_half_alpha_agreement(cfg: CheckConfig):
    import scipy.linalg   # the only scipy user here; loaded on first use

    for block in _draws(cfg, "half_alpha", cfg.n_samples, cfg.dims):
        for (_, _, rho, _), h in zip(block, _per_sample(random_hermitian, block)):
            main = skew_information_I(rho, h, 0.5)
            root = scipy.linalg.sqrtm(rho.mat)
            direct = float((np.trace(rho.mat @ h.mat @ h.mat)
                            - np.trace(root @ h.mat @ root @ h.mat)).real)
            via_powers = skew_information_via_powers(rho, h, 0.5)
            err = max(abs(main - direct), abs(main - via_powers))
            yield -err, {"state": rho, "observable": h.mat}


@_property("skew_local_monotonicity")
def prop_local_monotonicity(cfg: CheckConfig):
    for block in _draws(cfg, "local_monotonicity", cfg.n_samples, _bipartite_dims(cfg)):
        rhos = [rho for _, _, rho, _ in block]
        xs = [x.mat for x in _per_sample(random_hermitian, block, local=True)]
        wanted = [(alpha,) for *_, alpha in block]
        joint = _skew_ij(rhos, [embedded(x[None], rho.d_B)[0] for x, rho in zip(xs, rhos)], wanted)
        local = _skew_ij([rho.reduced() for rho in rhos], xs, wanted)
        for (_, _, rho, alpha), x, [(i_ab, _)], [(i_a, _)] in zip(block, xs, joint, local):
            yield i_ab - i_a, {"state": rho, "alpha": alpha, "observable": x}


# ---------------------------------------------------------------------------
# correlation properties
# ---------------------------------------------------------------------------

@_property("correlation_deficit_nonnegative")
def prop_deficit_nonnegative(cfg: CheckConfig):
    for block in _draws(cfg, "deficit_nonneg", cfg.n_samples, _bipartite_dims(cfg)):
        bases = [ProjectiveBasis(u).columns
                 for u in _per_sample(random_unitary, block, local=True)]
        for (_, _, rho, alpha), basis, [total] in zip(
                block, bases, _deficits(block, [(basis,) for basis in bases])):
            yield total, {"state": rho, "alpha": alpha, "basis": basis}


@_property("correlation_relabel_invariance", 1e-12)
def prop_relabel_invariance(cfg: CheckConfig):
    for block in _draws(cfg, "relabel", cfg.n_samples, [(2, 2)]):
        us = _per_sample(random_unitary, block, local=True)
        for (_, _, rho, alpha), (t1, t2) in zip(
                block, _deficits(block, [(u, u[:, ::-1]) for u in us])):
            yield -abs(t1 - t2), {"state": rho, "alpha": alpha}


@_property("correlation_oracle_consistency", 0.0)
def prop_oracle_consistency(cfg: CheckConfig):
    for i, seed, rho, alpha in chain.from_iterable(_draws(
            cfg, "oracle_consistency", cfg.n_optimizer, [(2, 2)], alphas=(0.3, 0.5, 0.7))):
        opt = quantum_correlation_D(rho, alpha, seed + i).value
        grid = brute_force_D_qubit(rho, alpha)
        # the oracle is the exact minimum, which the optimizer (a true deficit)
        # cannot undershoot beyond float noise; it may not overshoot it
        # meaningfully either
        slack = min(1e-6 - (opt - grid), (opt - grid) + 1e-4)
        yield slack, {"state": rho, "alpha": alpha, "optimizer": opt, "grid": grid}


@_property("correlation_local_unitary_covariance", 1e-4)
def prop_local_unitary_covariance(cfg: CheckConfig):
    for block in _draws(cfg, "lu_covariance", cfg.n_optimizer, [(2, 2)]):
        for (_, _, rho, alpha), u in zip(block, _per_sample(random_unitary, block, local=True)):
            [u] = embedded(u[None], rho.d_B)
            rotated = BipartiteDensityMatrix(u @ rho.mat @ u.conj().T, rho.d_A, rho.d_B)
            err = abs(brute_force_D_qubit(rho, alpha) - brute_force_D_qubit(rotated, alpha))
            yield -err, {"state": rho, "alpha": alpha}


@_property("correlation_classical_quantum_nullity", ORACLE_TOL)
def prop_cq_nullity(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "cq_nullity")
    draws = _draws(cfg, "cq_nullity", cfg.n_optimizer, _bipartite_dims(cfg),
                   "classical_quantum")
    states = [example2_state(), *(rho for _, _, rho, _ in chain.from_iterable(draws))]
    for i, rho in enumerate(states):
        alpha = cfg.alphas[i % len(cfg.alphas)]
        value = quantum_correlation_D(rho, alpha, seed + i).value
        yield -value, {"state": rho, "alpha": alpha, "value": value}


# ---------------------------------------------------------------------------
# bounds properties
# ---------------------------------------------------------------------------

@_property("bounds_heisenberg_random")
def prop_heisenberg(cfg: CheckConfig):
    seed = _tag_seed(cfg.seed, "heisenberg")
    for d in cfg.dims:
        for n in _blocks(cfg.n_samples):
            rhos = random_densities(EnsembleSpec("full_rank", d, seed + d), n)
            rs = random_hermitian(d, seed + 10 * d, n)
            ss = random_hermitian(d, seed + 20 * d, n)
            checked = heisenberg_type_checks(rhos, rs, ss, cfg.alphas)
            for rho, r, s, reports in zip(rhos, rs, ss, checked):
                for alpha, rep in zip(cfg.alphas, reports):
                    yield rep.slack, {"state": rho, "alpha": alpha, "r": r.mat, "s": s.mat}


def prop_theorems_with_oracle(cfg: CheckConfig):
    """Theorem checks and the proof-chain links, sharing one oracle run."""
    thm, links = [], []
    for block in _draws(cfg, "theorems", cfg.n_theorem, [(2, 2)]):
        phis, psis = (_per_sample(random_unitary, block, k, local=True) for k in (1, 2))
        for (_, _, rho, alpha), phi, psi in zip(block, phis, psis):
            phi, psi = ProjectiveBasis(phi), ProjectiveBasis(psi)
            d_val = brute_force_D_qubit(rho, alpha)
            prod, summ = memory_bounds(rho, phi, psi, alpha, d_val)
            inputs = {"state": rho, "alpha": alpha, "d_tilde": d_val,
                      "phi": phi.columns, "psi": psi.columns}
            thm.append((min(prod.slack, summ.slack), inputs))

            # chain links of the product bound's proof
            mid = float(sum(prod.terms["per_k_I_phi"])) * float(sum(prod.terms["per_k_I_psi"]))
            both = np.concatenate((phi.projector_stack, psi.projector_stack))
            i_a = engine(rho.reduced()).stacked_pairs(both, (alpha,))[0][:, 0].tolist()
            i_a_phi, i_a_psi = i_a[:2], i_a[2:]
            mid2 = (d_val + sum(i_a_phi)) * (d_val + sum(i_a_psi))
            mid3 = d_val**2 + sum(a * b for a, b in zip(i_a_phi, i_a_psi))
            tight = min(prod.lhs - mid, mid2 - mid3, mid3 - prod.rhs)
            # the link through the minimum inherits the oracle's certification
            oracle_link = mid - mid2
            violation = max(-tight - BOUND_TOL, -oracle_link - ORACLE_TOL)
            links.append((-violation, inputs))
    return [_result("bounds_theorems_oracle_certified", ORACLE_TOL, thm),
            _result("bounds_proof_chain_consistency", 0.0, links)]


@_property("bounds_closed_form_agreement", SWEEP_ERR_TOL)
def prop_closed_form_agreement(cfg: CheckConfig):
    for example_id in (1, 3):
        ps = p_grid(*EXAMPLE_P_RANGES[example_id], 0.01)
        for row in sweep_rows(example_id, ps, (0.2, 0.5), "grid"):
            yield -row["abs_err_max"], {"example": example_id, "p": row["p"],
                                        "alpha": row["alpha"],
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
    for block in _blocks(max(1, cfg.n_samples // 10)):
        for u in random_unitary(2, seed + 1, block):
            p = float(rng.uniform(p_lo, 1.0))
            rho = family(p)
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
                res = replace(res, witness=os.path.join(witness_dir, f"witness_{res.name}.json"))
                text = json.dumps({"property": res.name, **payload}, indent=2)
                write_text(res.witness, text + "\n", "witness")
            results.append(res)
            if progress is not None:
                progress(res)
    return CheckReport(results=tuple(results),
                       all_pass=all(r.passed for r in results))
