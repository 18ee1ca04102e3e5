"""Self-test of the benchmark's tracing. Run with

    python3 -m pytest -q -s perfbench/test_tracing.py

Call counts are printed, not asserted: changes to the library are expected
to move them.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from skewunc import checks, cli, correlation, sweeps  # noqa: E402,F401  (cli loads every module)


def _originals() -> list:
    mods = {short: tracing.skewunc_module(short) for _, short, *_ in
            tracing.FUNCTIONS + tracing.METHODS}
    found = [getattr(mods[m], attr) for _, m, attr in tracing.FUNCTIONS]
    found += [vars(getattr(mods[m], cls))[meth] for _, m, cls, meth in tracing.METHODS]
    found += [correlation.quantum_correlation_D, correlation.minimize]
    found += list(checks.ALL_PROPERTIES)
    return found


def _bindings():
    """Every (owner, attribute, value) a skewunc module or class holds."""
    for mod in tracing.skewunc_modules():
        for attr, value in vars(mod).items():
            yield mod, attr, value
            if isinstance(value, type) and value.__module__.startswith("skewunc"):
                for name, member in vars(value).items():
                    yield value, name, member
    for prop in checks.ALL_PROPERTIES:
        yield checks, "ALL_PROPERTIES", prop


def _traced(tracer, module, name, *args):
    """Call ``module.name`` with the tracer installed, looked up after
    installing so that the wrapped function runs."""
    patcher = tracing.Patcher()
    tracer.install(patcher)
    try:
        return getattr(module, name)(*args)
    finally:
        patcher.close()


def test_install_leaves_no_unwrapped_original_and_close_restores_all():
    originals = _originals()
    before = {(id(owner), attr): value for owner, attr, value in _bindings()}
    patcher = tracing.Patcher()
    tracing.Tracer().install(patcher)
    try:
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, v in _bindings()
                if any(v is orig for orig in originals)]
    finally:
        patcher.close()
    assert left == []
    after = {(id(owner), attr): value for owner, attr, value in _bindings()}
    assert all(after[key] is value for key, value in before.items())


def test_spans_nest_with_parent_ids_and_self_times_add_up():
    tracer = tracing.Tracer(keep_spans=True)
    _traced(tracer, sweeps, "sweep_row", 1, 0.3, 0.5, "grid")
    spans = {s[0]: s for s in tracer.spans}
    roots = [s for s in spans.values() if s[1] == 0]
    assert [r[2] for r in roots] == ["sweeps.row"]
    for span_id, parent_id, name, start, end in spans.values():
        if parent_id:
            _, _, _, p_start, p_end = spans[parent_id]
            assert p_start <= start <= end <= p_end, name
    root = roots[0]
    self_total = sum(layer.self_s for layer in tracer.layers.values())
    assert abs(self_total - (root[4] - root[3])) < 1e-9
    counts = {name: layer.calls for name, layer in sorted(tracer.layers.items())}
    print(f"\none example-1 sweep row traces to {counts}")


def test_optimizer_counters_match_the_result_trace():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = correlation.BipartiteDensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real, 2, 2)
    tracer = tracing.Tracer()
    result = _traced(tracer, correlation, "quantum_correlation_D", rho, 0.5)
    metrics = tracer.layer_metrics()
    assert metrics["correlation.optimizer.restarts"] == len(result.optimizer_trace)
    assert metrics["correlation.optimizer.self_s.d2"] > 0
    assert 0 < metrics["correlation.optimizer.nfev"] <= metrics["correlation.vector_deficits.calls"]
    assert metrics["correlation.optimizer.failures"] == 0
    print(f"\nrestarts {metrics['correlation.optimizer.restarts']}, nfev "
          f"{metrics['correlation.optimizer.nfev']}, improving ratio "
          f"{metrics['correlation.optimizer.improving_restart_ratio']:.3f}")
