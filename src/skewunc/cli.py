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
import functools
import json
import os
import sys

import numpy as np

from .bounds import BoundReport, heisenberg_type_check, memory_bounds
from .checks import CheckConfig, EnsembleRun, run_checks
from .errors import (
    ConfigError,
    NumericalConsistencyError,
    OptimizerError,
    SkewuncError,
    SolverError,
    ValidationError,
)
from .linalg import HermitianOperator, as_alphas, as_real, check_alpha
from .serialize import fmt17, json_int, load_state, read_json_object, write_text
from .skew import embedded
from .states import EnsembleSpec, example2_state, pauli, pauli_basis
from .sweeps import (
    EXAMPLE_P_RANGES,
    ROW_COLUMNS,
    SWEEP_ERR_TOL,
    certified_d,
    example_grid,
    grid_states,
    state_rows,
    sweep_row,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

EXAMPLE2_NOTE = (
    "example 2: the x-basis uncertainty factor is exactly zero, so the "
    "product-form left side is 0 while the sum-form left side equals the "
    "z-basis factor (1/2); a report pairing product = 1/2 with sum = 0 would "
    "be arithmetically inconsistent, since the two left sides share the same "
    "two factors. Only the pipeline's own arithmetic is asserted here."
)


def _parse_alpha_list(text: str) -> tuple[float, ...]:
    """The ``--alpha`` text as numbers, for the ``alphas`` reader to check."""
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse alpha list {text!r}") from exc


def _converted(key: str, value, convert):
    """``convert(value)``, with a malformed value reported as a config error."""
    try:
        return convert(value)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc


def _reject_unknown_keys(doc: dict, known, what: str) -> None:
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} settings: {sorted(unknown)}")


def _reader(convert, ok, reason: str):
    """A setting's reader: convert the value, then reject it unless ``ok``
    holds. ``_converted`` reports either failure as a config error."""
    def read(value):
        value = convert(value)
        if not ok(value):
            raise ValueError(reason)
        return value
    return read


def _choice(*choices):
    """A reader of exactly one of ``choices``: equal and of the same type, so
    neither ``true`` nor ``1.0`` stands in for 1."""
    def ok(value):
        return any(type(value) is type(c) and value == c for c in choices)
    return _reader(lambda v: v, ok, f"must be one of {choices}")


_positive_float = _reader(as_real, lambda x: x > 0, "must be positive")
_string = _reader(lambda v: v, lambda v: isinstance(v, str), "must be a string")
_bases = _reader(lambda text: tuple(t.strip() for t in text.split(",")),
                 lambda axes: len(axes) == 2 and set(axes) <= {"x", "y", "z"},
                 "must be two of x, y, z")
_oracle = _choice("grid", "optimizer")


def _at_least(minimum: int, key: str):
    return lambda x: json_int(x, minimum, key)


def _settings(args, keys: dict, file_keys=None) -> dict:
    """Every setting of ``keys`` (name -> (reader, default)): its default,
    overridden by the ``--config`` file if any, then by the flag of the same
    name, both read by its reader. The file may hold ``file_keys`` (default: all)."""
    path = getattr(args, "config", None)
    doc = {} if path is None else read_json_object(path, "config")
    _reject_unknown_keys(doc, keys if file_keys is None else file_keys, args.command)
    settings = {key: default for key, (_, default) in keys.items()}
    settings.update((key, _converted(key, value, keys[key][0])) for key, value in doc.items())
    for key, (read, _) in keys.items():
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = _converted(key, flag, read)
    return settings


def _csv_cell(value) -> str:
    return "" if value is None else fmt17(value)


def _write_rows(cfg: dict, rows: list[dict], notes: list[str]) -> str:
    out = cfg["out"] or f"reproduce_example{cfg['example']}.{cfg['format']}"
    if cfg["format"] == "csv":
        lines = [",".join(ROW_COLUMNS)]
        lines += [",".join(_csv_cell(row[c]) for c in ROW_COLUMNS) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = {key: cfg[key] for key in ("example", "oracle", "seed")}
        doc.update(columns=list(ROW_COLUMNS), rows=rows, notes=notes)
        text = json.dumps(doc, indent=2) + "\n"
    write_text(out, text, "output file")
    return out


def _load_pauli_state(path: str):
    """Load a state file for the Pauli x/y/z bases, which measure subsystem A
    and so need ``d_A = 2``; checked before any D is computed."""
    state = load_state(path)
    if state.d_A != 2:
        raise ConfigError("Pauli measurement bases need a qubit subsystem A")
    return state


# How each reproduce setting is read, and its default. A setting's name is its
# config-file key and the dest of its flag, if it has one.
_SWEEP_KEYS = {
    "example": (_choice(1, 2, 3, "custom"), 1), "alphas": (as_alphas, (0.2, 0.5)),
    "p_start": (as_real, None), "p_stop": (as_real, None),
    "p_step": (_positive_float, None), "oracle": (_oracle, "grid"),
    "seed": (_at_least(0, "seed"), 42), "out": (_string, None),
    "format": (_choice("csv", "json"), "csv"), "state": (_string, None),
}


def cmd_reproduce(args) -> int:
    if args.alphas is not None:
        args.alphas = _parse_alpha_list(args.alphas)
    cfg = _settings(args, _SWEEP_KEYS)
    example, grid = cfg["example"], (cfg["p_start"], cfg["p_stop"], cfg["p_step"])
    if example == "custom" and not cfg["state"]:
        raise ConfigError("custom sweeps need a 'state' file in the config")
    if example != "custom" and cfg["state"] is not None:
        raise ConfigError("a 'state' file applies only to example \"custom\"")
    if example in EXAMPLE_P_RANGES:
        try:
            ps = example_grid(example, *grid)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
        rows = [sweep_row(example, p, alpha, cfg["oracle"], cfg["seed"], state)
                for p, state in grid_states(example, ps) for alpha in cfg["alphas"]]
    elif grid != (None, None, None):
        raise ConfigError("p_start, p_stop and p_step apply only to examples 1 and 3")
    else:  # example 2 or a custom state file
        state = example2_state() if example == 2 else _load_pauli_state(cfg["state"])
        rows = state_rows((state,), (None,), cfg["alphas"], cfg["oracle"], cfg["seed"])
    notes = [EXAMPLE2_NOTE] if example == 2 else []
    out = _write_rows(cfg, rows, notes)
    worst = max((r["abs_err_max"] for r in rows if r["abs_err_max"] is not None),
                default=0.0)
    print(f"wrote {len(rows)} rows to {out}; worst closed-form deviation "
          f"{worst:.3e} (threshold {SWEEP_ERR_TOL:.0e})")
    for note in notes:
        print(f"note: {note}")
    return EXIT_OK if worst < SWEEP_ERR_TOL else EXIT_VIOLATION


def _ensemble_runs_from_config(items) -> tuple[EnsembleRun, ...]:
    runs = []
    for item in items:
        if not isinstance(item, dict):
            raise ConfigError(f"ensemble entry must be an object, got {item!r}")
        _reject_unknown_keys(item, ("kind", "dims", "seed", "rank", "n_samples"),
                             "ensemble entry")
        try:
            dims = item["dims"]
            dims = (tuple(json_int(d, 1, "dims") for d in dims)
                    if isinstance(dims, list) else json_int(dims, 1, "dims"))
            rank = item.get("rank")
            spec = EnsembleSpec(kind=item["kind"], dims=dims,
                                seed=json_int(item.get("seed", 0), 0, "seed"),
                                rank=None if rank is None else json_int(rank, 1, "rank"))
        except (KeyError, TypeError, ValidationError) as exc:
            raise ConfigError(f"bad ensemble entry {item!r}: {exc}") from exc
        n_samples = json_int(item.get("n_samples", 1), 1, "n_samples")
        runs.append(EnsembleRun(spec=spec, n_samples=n_samples))
    return tuple(runs)


# How each check setting is read, and its default: the campaign's; 'out' is a flag only.
_CHECK_KEYS = {
    "seed": (_at_least(0, "seed"), CheckConfig.seed), "alphas": (as_alphas, CheckConfig.alphas),
    "n_samples": (_at_least(1, "n_samples"), CheckConfig.n_samples),
    "n_optimizer": (_at_least(1, "n_optimizer"), CheckConfig.n_optimizer),
    "n_theorem": (_at_least(1, "n_theorem"), CheckConfig.n_theorem),
    "dims": (lambda ds: tuple(json_int(d, 2, "dims") for d in ds), CheckConfig.dims),
    "ensembles": (_ensemble_runs_from_config, CheckConfig.ensembles),
    "out": (_string, "check_report.json"),
}


def cmd_check(args) -> int:
    settings = _settings(args, _CHECK_KEYS, file_keys=_CHECK_KEYS.keys() - {"out"})
    out = settings.pop("out")
    cfg = CheckConfig(**settings)
    witness_dir = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(witness_dir):  # fail before the campaign, not after
        raise ConfigError(f"cannot write {out}: {witness_dir} is not a directory")
    report = run_checks(cfg, witness_dir=witness_dir,
                        progress=lambda r: print(
                            f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
                            f"worst slack {r.worst_slack:.3e} over {r.samples} "
                            f"samples (tol {r.tol:.0e})"))
    write_text(out, json.dumps(report.to_dict(cfg), indent=2, allow_nan=False) + "\n",
               "output file")
    print(f"report written to {out}; all_pass={report.all_pass}")
    return EXIT_OK if report.all_pass else EXIT_VIOLATION


def _report_dict(rep: BoundReport) -> dict:
    return {key: getattr(rep, key)
            for key in ("lhs", "rhs", "slack", "holds", "tolerance", "terms")}


# How each eval setting is read, and its default; eval takes flags only.
_EVAL_KEYS = {
    "state": (_string, None), "bases": (_bases, ("x", "z")), "alpha": (check_alpha, 0.5),
    "oracle": (_oracle, "grid"), "seed": (_at_least(0, "seed"), 0), "out": (_string, None),
}


def cmd_eval(args) -> int:
    settings = _settings(args, _EVAL_KEYS)
    state = _load_pauli_state(settings["state"])
    axes, alpha = settings["bases"], settings["alpha"]
    d_value = certified_d(state, alpha, settings["oracle"], settings["seed"])
    prod, summ = memory_bounds(state, pauli_basis(axes[0]), pauli_basis(axes[1]),
                               alpha, d_value)
    r, s = map(HermitianOperator,
               embedded(np.stack([pauli(axis).mat for axis in axes]), state.d_B))
    heis = heisenberg_type_check(state, r, s, alpha)
    doc = {
        "state_file": settings["state"],
        "d_A": state.d_A,
        "d_B": state.d_B,
        "alpha": alpha,
        "bases": ",".join(axes),
        "oracle": settings["oracle"],
        "d_tilde": d_value,
        "heisenberg": _report_dict(heis),
        "product": _report_dict(prod),
        "sum": _report_dict(summ),
    }
    text = json.dumps(doc, indent=2)
    print(text)
    if settings["out"] is not None:
        write_text(settings["out"], text + "\n", "output file")
    all_hold = heis.holds and prod.holds and summ.holds
    return EXIT_OK if all_hold else EXIT_VIOLATION


@functools.cache   # built once per process: a build costs ten parses
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewunc",
        description="Skew-information uncertainty bounds: sweeps, property "
                    "checks, and single-state evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("reproduce", help="sweep an example family and "
                         "compare the pipeline with its closed forms")
    rep.add_argument("--config")
    rep.add_argument("--example", type=int, choices=(1, 2, 3))
    rep.add_argument("--alpha", dest="alphas", metavar="LIST",
                     help="comma-separated alphas, e.g. 0.2,0.5")
    rep.add_argument("--p-start", type=float)
    rep.add_argument("--p-stop", type=float)
    rep.add_argument("--p-step", type=float)
    rep.add_argument("--oracle", choices=("grid", "optimizer"))
    rep.add_argument("--seed", type=int)
    rep.add_argument("--out")
    rep.add_argument("--format", choices=("csv", "json"))

    chk = sub.add_parser("check", help="run the property-check campaign")
    chk.add_argument("--config")
    chk.add_argument("--seed", type=int)
    chk.add_argument("--out")

    ev = sub.add_parser("eval", help="evaluate the bound checks for one state file")
    ev.add_argument("state", metavar="state_file")
    ev.add_argument("--bases")
    ev.add_argument("--alpha", type=float)
    ev.add_argument("--oracle", choices=("grid", "optimizer"))
    ev.add_argument("--seed", type=int)
    ev.add_argument("--out")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        command = {"reproduce": cmd_reproduce, "check": cmd_check, "eval": cmd_eval}
        return command[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalConsistencyError, OptimizerError, SolverError) as exc:
        print(f"numerical-consistency error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SkewuncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
