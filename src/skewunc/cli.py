"""Command-line front end.

Subcommands:

* ``reproduce``: sweep a closed-form example family over its mixing parameter
  and write pipeline values next to the closed forms (CSV or JSON).
* ``check``: run the property campaign over seeded random ensembles and write
  a structured report.
* ``eval``: evaluate all three bound checks for one state file.

Exit codes: 0 success, 1 property violation, 2 configuration or parse error,
3 internal numerical-consistency error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .bounds import BoundReport, heisenberg_type_check, memory_bounds
from .checks import CheckConfig, EnsembleRun, run_checks
from .correlation import OptimizerConfig
from .errors import (
    ConfigError,
    NumericalConsistencyError,
    OptimizerError,
    SkewuncError,
    ValidationError,
)
from .linalg import HermitianOperator, kron
from .serialize import fmt17, load_state
from .states import EnsembleSpec, pauli, pauli_basis
from .sweeps import (
    EXAMPLE_P_RANGES,
    ROW_COLUMNS,
    SWEEP_ERR_TOL,
    certified_d,
    p_grid,
    state_row,
    sweep_row,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

CSV_COLUMNS = ROW_COLUMNS

EXAMPLE2_NOTE = (
    "example 2: the x-basis uncertainty factor is exactly zero, so the "
    "product-form left side is 0 while the sum-form left side equals the "
    "z-basis factor (1/2); a report pairing product = 1/2 with sum = 0 would "
    "be arithmetically inconsistent, since the two left sides share the same "
    "two factors. Only the pipeline's own arithmetic is asserted here."
)


@dataclass
class SweepConfig:
    example_id: int | str = 1
    alphas: tuple[float, ...] = (0.2, 0.5)
    p_start: float | None = None
    p_stop: float | None = None
    p_step: float | None = None
    oracle: str = "grid"
    seed: int = 42
    out: str | None = None
    fmt: str = "csv"
    state_file: str | None = None
    optimizer: OptimizerConfig | None = None

    def optimizer_config(self) -> OptimizerConfig:
        return self.optimizer or OptimizerConfig(seed=self.seed)

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.example_id not in (1, 2, 3, "custom"):
            raise ConfigError(f"example must be 1, 2, 3 or 'custom', got {self.example_id!r}")
        if self.oracle not in ("grid", "optimizer"):
            raise ConfigError(f"oracle must be 'grid' or 'optimizer', got {self.oracle!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.fmt!r}")
        if not self.alphas or any(not (0.0 <= a <= 1.0) for a in self.alphas):
            raise ConfigError("alphas must be a nonempty subset of [0, 1]")
        if self.example_id == "custom" and not self.state_file:
            raise ConfigError("custom sweeps need a 'state' file in the config")
        rng = EXAMPLE_P_RANGES.get(self.example_id)
        if rng is not None:
            lo, hi = rng
            start = lo if self.p_start is None else self.p_start
            stop = hi if self.p_stop is None else self.p_stop
            step = 0.01 if self.p_step is None else self.p_step
            if step <= 0:
                raise ConfigError(f"p step must be positive, got {step}")
            if start < lo - 1e-12 or stop > hi + 1e-12 or stop < start:
                raise ConfigError(
                    f"p grid [{start}, {stop}] outside the valid range [{lo}, {hi}]")
            self.p_start, self.p_stop, self.p_step = start, stop, step


def _parse_alpha_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse alpha list {text!r}") from exc
    if not values:
        raise ConfigError("alpha list is empty")
    return values


def _converted(key: str, value, convert):
    """``convert(value)``, with a malformed value reported as a config error."""
    try:
        return convert(value)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def _float_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _reject_unknown_keys(doc: dict, known, what: str) -> None:
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} settings: {sorted(unknown)}")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must contain a JSON object")
    return doc


def _config_int(key: str, value, minimum: int) -> int:
    """An integral JSON number >= ``minimum``; bools and fractions are errors."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not float(value).is_integer() or value < minimum):
        raise ConfigError(f"{key!r} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _int_reader(key: str, minimum: int):
    return lambda value: _config_int(key, value, minimum)


def _optimizer_from_config(block, default_seed: int) -> OptimizerConfig:
    """Build the basis-search settings from a config-file block; missing
    settings take the ``OptimizerConfig`` defaults."""
    if block is None:
        return OptimizerConfig(seed=default_seed)
    if not isinstance(block, dict):
        raise ConfigError(f"'optimizer' must be an object, got {block!r}")
    unknown = set(block) - {f.name for f in fields(OptimizerConfig)}
    if unknown:
        raise ConfigError(f"unknown optimizer settings: {sorted(unknown)}")
    settings = {"seed": default_seed}
    for key, minimum in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
        if key in block:
            settings[key] = _config_int(key, block[key], minimum)
    return OptimizerConfig(**settings)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt17(value)
    return str(value)


def _write_rows(cfg: SweepConfig, rows: list[dict], notes: list[str]) -> str:
    out = cfg.out or f"reproduce_example{cfg.example_id}.{cfg.fmt}"
    if cfg.fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(_csv_cell(row[c]) for c in CSV_COLUMNS) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "example": cfg.example_id,
            "oracle": cfg.oracle,
            "seed": cfg.seed,
            "columns": list(CSV_COLUMNS),
            "rows": rows,
            "notes": notes,
        }
        text = json.dumps(doc, indent=2) + "\n"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return out


def cmd_reproduce(cfg: SweepConfig) -> int:
    cfg.validate()
    opt = cfg.optimizer_config()
    rows: list[dict] = []
    notes: list[str] = []
    if cfg.example_id in (1, 3):
        for p in p_grid(cfg.p_start, cfg.p_stop, cfg.p_step):
            for alpha in cfg.alphas:
                rows.append(sweep_row(cfg.example_id, p, alpha, cfg.oracle,
                                      optimizer_cfg=opt))
    elif cfg.example_id == 2:
        for alpha in cfg.alphas:
            rows.append(sweep_row(2, None, alpha, cfg.oracle, optimizer_cfg=opt))
        notes.append(EXAMPLE2_NOTE)
    else:  # custom state file
        state = load_state(cfg.state_file)
        for alpha in cfg.alphas:
            rows.append(state_row(state, alpha, cfg.oracle, optimizer_cfg=opt))
    out = _write_rows(cfg, rows, notes)
    checked = [r["abs_err_max"] for r in rows if r["abs_err_max"] is not None]
    worst = max(checked) if checked else 0.0
    ok = worst < SWEEP_ERR_TOL
    print(f"wrote {len(rows)} rows to {out}; worst closed-form deviation "
          f"{worst:.3e} (threshold {SWEEP_ERR_TOL:.0e})")
    for note in notes:
        print(f"note: {note}")
    return EXIT_OK if ok else EXIT_VIOLATION


def _ensemble_runs_from_config(items) -> tuple[EnsembleRun, ...]:
    runs = []
    for item in items:
        if not isinstance(item, dict):
            raise ConfigError(f"ensemble entry must be an object, got {item!r}")
        try:
            dims = item["dims"]
            dims = (tuple(_config_int("dims", d, 1) for d in dims)
                    if isinstance(dims, list) else _config_int("dims", dims, 1))
            rank = item.get("rank")
            spec = EnsembleSpec(kind=item["kind"], dims=dims,
                                seed=_config_int("seed", item.get("seed", 0), 0),
                                rank=None if rank is None else _config_int("rank", rank, 1))
        except (KeyError, TypeError, ValidationError) as exc:
            raise ConfigError(f"bad ensemble entry {item!r}: {exc}") from exc
        n_samples = _config_int("n_samples", item.get("n_samples", 1), 1)
        runs.append(EnsembleRun(spec=spec, n_samples=n_samples))
    return tuple(runs)


# How each key of a check config file is read.
_CHECK_KEYS = {
    "seed": _int_reader("seed", 0), "n_samples": _int_reader("n_samples", 1),
    "n_optimizer": _int_reader("n_optimizer", 1),
    "n_theorem": _int_reader("n_theorem", 1), "bound_tol": float,
    "alphas": _float_tuple,
    "dims": lambda ds: tuple(_config_int("dims", d, 2) for d in ds),
    "ensembles": _ensemble_runs_from_config,
}


def _build_check_config(doc: dict, args) -> CheckConfig:
    _reject_unknown_keys(doc, _CHECK_KEYS, "check")
    kwargs = {key: _converted(key, doc[key], convert)
              for key, convert in _CHECK_KEYS.items() if key in doc}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    cfg = CheckConfig(**kwargs)
    cfg.validate()
    return cfg


def cmd_check(args) -> int:
    doc = _load_config_file(args.config)
    cfg = _build_check_config(doc, args)
    out = args.out or "check_report.json"
    witness_dir = os.path.dirname(os.path.abspath(out))
    report = run_checks(cfg, witness_dir=witness_dir,
                        progress=lambda r: print(
                            f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
                            f"worst slack {r.worst_slack:.3e} over {r.samples} "
                            f"samples (tol {r.tol:.0e})"))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(cfg), fh, indent=2)
        fh.write("\n")
    print(f"report written to {out}; all_pass={report.all_pass}")
    return EXIT_OK if report.all_pass else EXIT_VIOLATION


def _report_dict(rep: BoundReport) -> dict:
    return {
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "slack": rep.slack,
        "holds": rep.holds,
        "tolerance": rep.tolerance,
        "terms": rep.terms,
    }


def cmd_eval(args) -> int:
    state = load_state(args.state_file)
    doc = _load_config_file(args.config)
    _reject_unknown_keys(doc, {"optimizer"}, "eval")
    axes = tuple(tok.strip() for tok in args.bases.split(",") if tok.strip())
    if len(axes) != 2 or any(a not in ("x", "y", "z") for a in axes):
        raise ConfigError(f"bases must be two of x, y, z; got {args.bases!r}")
    if state.d_A != 2:
        raise ConfigError("Pauli measurement bases need a qubit subsystem A")
    alpha = args.alpha
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    opt = _optimizer_from_config(doc.get("optimizer"), args.seed or 0)
    d_value = certified_d(state, alpha, args.oracle, optimizer_cfg=opt)
    prod, summ = memory_bounds(state, pauli_basis(axes[0]), pauli_basis(axes[1]),
                               alpha, d_value)
    eye_b = np.eye(state.d_B)
    r = HermitianOperator(kron(pauli(axes[0]).mat, eye_b))
    s = HermitianOperator(kron(pauli(axes[1]).mat, eye_b))
    heis = heisenberg_type_check(state, r, s, alpha)
    doc = {
        "state_file": args.state_file,
        "d_A": state.d_A,
        "d_B": state.d_B,
        "alpha": alpha,
        "bases": ",".join(axes),
        "oracle": args.oracle,
        "d_tilde": d_value,
        "heisenberg": _report_dict(heis),
        "product": _report_dict(prod),
        "sum": _report_dict(summ),
    }
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    all_hold = heis.holds and prod.holds and summ.holds
    return EXIT_OK if all_hold else EXIT_VIOLATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewunc",
        description="Skew-information uncertainty bounds: sweeps, property "
                    "checks, and single-state evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("reproduce", help="sweep an example family and "
                         "compare the pipeline with its closed forms")
    rep.add_argument("--config", default=None)
    rep.add_argument("--example", type=int, choices=(1, 2, 3), default=None)
    rep.add_argument("--alpha", default=None, metavar="LIST",
                     help="comma-separated alphas, e.g. 0.2,0.5")
    rep.add_argument("--p-start", type=float, default=None)
    rep.add_argument("--p-stop", type=float, default=None)
    rep.add_argument("--p-step", type=float, default=None)
    rep.add_argument("--oracle", choices=("grid", "optimizer"), default=None)
    rep.add_argument("--seed", type=int, default=None)
    rep.add_argument("--out", default=None)
    rep.add_argument("--format", choices=("csv", "json"), default=None)

    chk = sub.add_parser("check", help="run the property-check campaign")
    chk.add_argument("--config", default=None)
    chk.add_argument("--seed", type=int, default=None)
    chk.add_argument("--out", default=None)

    ev = sub.add_parser("eval", help="evaluate the bound checks for one state file")
    ev.add_argument("state_file")
    ev.add_argument("--config", default=None,
                    help="JSON config; the 'optimizer' block tunes the "
                         "basis search used with --oracle optimizer")
    ev.add_argument("--bases", default="x,z")
    ev.add_argument("--alpha", type=float, default=0.5)
    ev.add_argument("--oracle", choices=("grid", "optimizer"), default="grid")
    ev.add_argument("--seed", type=int, default=None)
    ev.add_argument("--out", default=None)

    return parser


# Config-file key -> (SweepConfig attribute, how the value is read). The
# "optimizer" block is read last, by _optimizer_from_config.
_SWEEP_KEYS = {
    "example": ("example_id", None), "alphas": ("alphas", _float_tuple),
    "p_start": ("p_start", float), "p_stop": ("p_stop", float),
    "p_step": ("p_step", float), "oracle": ("oracle", None),
    "out": ("out", None), "format": ("fmt", None),
    "state": ("state_file", None), "seed": ("seed", _int_reader("seed", 0)),
}


def _sweep_config_from(args) -> SweepConfig:
    doc = _load_config_file(args.config)
    _reject_unknown_keys(doc, {*_SWEEP_KEYS, "optimizer"}, "reproduce")
    cfg = SweepConfig()
    for key, (attr, convert) in _SWEEP_KEYS.items():
        if key in doc:
            value = doc[key]
            setattr(cfg, attr, value if convert is None
                    else _converted(key, value, convert))
    # flags override the file
    if args.example is not None:
        cfg.example_id = args.example
    if args.alpha is not None:
        cfg.alphas = _parse_alpha_list(args.alpha)
    if args.p_start is not None:
        cfg.p_start = args.p_start
    if args.p_stop is not None:
        cfg.p_stop = args.p_stop
    if args.p_step is not None:
        cfg.p_step = args.p_step
    if args.oracle is not None:
        cfg.oracle = args.oracle
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if args.format is not None:
        cfg.fmt = args.format
    # resolved last so the block's default seed follows any --seed override
    if "optimizer" in doc:
        cfg.optimizer = _optimizer_from_config(doc["optimizer"], cfg.seed)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            return cmd_reproduce(_sweep_config_from(args))
        if args.command == "check":
            return cmd_check(args)
        if args.command == "eval":
            return cmd_eval(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalConsistencyError, OptimizerError) as exc:
        print(f"numerical-consistency error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SkewuncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
