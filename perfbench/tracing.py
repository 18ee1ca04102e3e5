"""Spans and counters around skewunc's public functions, installed from
outside the library.

Each wrapped function is rebound in every ``skewunc`` module that holds it
(the defining module, modules that imported the name, the package namespace),
methods are replaced on their class, and ``checks.ALL_PROPERTIES`` is replaced
by a tuple of wrapped runners. ``Patcher.close`` restores every binding.

A span records its name, start, end and parent. A layer's self time is its
span time minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass

# A restart counts as improving when it lowers the running best of its
# optimizer call by more than this; it matches OptimizerConfig.tol, the value
# tolerance the library attaches to optimizer results. Restarts that land on
# the same minimum differ only in rounding and must not count.
IMPROVEMENT_TOL = 1e-6

OPTIMIZER_PREFIX = "correlation.optimizer."

# (span name, module, function) for module-level functions.
FUNCTIONS = (
    ("linalg.herm_eig", "linalg", "herm_eig"),
    ("linalg.partial_trace", "linalg", "partial_trace"),
    ("skew.compat_L", "skew", "compat_L"),
    ("correlation.grid_oracle", "correlation", "brute_force_D_qubit"),
    ("bounds.product", "bounds", "product_bound_check"),
    ("bounds.sum", "bounds", "sum_bound_check"),
    ("bounds.heisenberg", "bounds", "heisenberg_type_check"),
    ("bounds.closed_forms", "bounds", "example_closed_forms"),
    ("states.random_density", "states", "random_density"),
    ("states.family", "states", "werner_swap"),
    ("states.family", "states", "werner_isotropic"),
    ("states.family", "states", "example2_state"),
    ("sweeps.row", "sweeps", "sweep_row"),
    ("serialize.load_state", "serialize", "load_state"),
    ("cli", "cli", "main"),
)

# (span name, module, class, method). Every DensityMatrix and
# BipartiteDensityMatrix construction runs DensityMatrix.__init__ once.
METHODS = (
    ("linalg.state_validate", "linalg", "DensityMatrix", "__init__"),
    ("skew.engine_build", "skew", "SkewEngine", "__init__"),
    ("skew.pair", "skew", "SkewEngine", "pair"),
    ("correlation.evaluator_build", "correlation", "DeficitEvaluator", "__init__"),
    ("correlation.vector_deficits", "correlation", "DeficitEvaluator", "vector_deficits"),
)

OPTIMIZER_DIMS = (2, 3, 4)


def skewunc_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "skewunc" or name.startswith("skewunc.")]


def skewunc_module(short: str):
    return sys.modules[f"skewunc.{short}"]


def property_span(prop) -> str:
    return "checks.prop." + prop.__name__.removeprefix("prop_")


class Patcher:
    """Rebinds attributes and puts the originals back on ``close``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind_everywhere(self, original, replacement) -> None:
        """Replace every module-level binding of ``original`` in skewunc."""
        for mod in skewunc_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def close(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


@dataclass
class Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "start", "child_s", "best")

    def __init__(self, name, span_id, parent_id, start):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.child_s = 0.0
        self.best = float("inf")


class Tracer:
    """In-memory spans and counters for one traced run.

    With ``keep_spans`` every finished span is kept as
    ``(span_id, parent_id, name, start, end)``; otherwise only the per-layer
    sums are kept, which bounds memory on workloads with ~10^5 spans.
    ``clock`` times the spans.
    """

    def __init__(self, keep_spans: bool = False, clock=time.perf_counter):
        self.clock = clock
        self.layers: dict[str, Layer] = {}
        self.counts: Counter = Counter()
        self.spans: list[tuple] | None = [] if keep_spans else None
        self._stack: list[_Frame] = []
        self._next_id = 1

    def _enter(self, name: str) -> _Frame:
        parent = self._stack[-1].span_id if self._stack else 0
        frame = _Frame(name, self._next_id, parent, self.clock())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, failed: bool) -> None:
        end = self.clock()
        self._stack.pop()
        dur = end - frame.start
        layer = self.layers.get(frame.name)
        if layer is None:
            layer = self.layers[frame.name] = Layer()
        layer.calls += 1
        layer.total_s += dur
        layer.self_s += dur - frame.child_s
        layer.errors += failed
        if self._stack:
            self._stack[-1].child_s += dur
        if self.spans is not None:
            self.spans.append((frame.span_id, frame.parent_id, frame.name,
                               frame.start, end))

    def _optimizer_frame(self) -> _Frame | None:
        for frame in reversed(self._stack):
            if frame.name.startswith(OPTIMIZER_PREFIX):
                return frame
        return None

    def span(self, name, fn, name_of=None, on_call=None):
        """Wrap ``fn`` in a span called ``name`` (or ``name_of(*args)``)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            frame = self._enter(name if name_of is None else name_of(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, failed=True)
                raise
            self._exit(frame, failed=False)
            return result
        return traced

    def _count_vectors(self, evaluator, vectors) -> None:
        shape = getattr(vectors, "shape", ())
        self.counts["vectors"] += shape[0] if len(shape) == 2 else 1
        if self._optimizer_frame() is not None:
            self.counts["nfev"] += 1

    def _restart_probe(self, minimize):
        """Counts each local search an optimizer call starts, and the ones
        that lower its running best."""
        @functools.wraps(minimize)
        def probed(*args, **kwargs):
            res = minimize(*args, **kwargs)
            frame = self._optimizer_frame()
            if frame is not None:
                self.counts["restarts"] += 1
                if res.fun < frame.best - IMPROVEMENT_TOL:
                    self.counts["improving_restarts"] += 1
                if res.fun < frame.best:
                    frame.best = float(res.fun)
            return res
        return probed

    def install(self, patcher: Patcher) -> None:
        """Wrap every traced function wherever skewunc binds it."""
        for span_name, mod, attr in FUNCTIONS:
            original = getattr(skewunc_module(mod), attr)
            patcher.rebind_everywhere(original, self.span(span_name, original))
        correlation = skewunc_module("correlation")
        original = correlation.quantum_correlation_D
        patcher.rebind_everywhere(original, self.span(
            None, original, name_of=lambda rho, *a, **k: f"{OPTIMIZER_PREFIX}d{rho.d_A}"))
        patcher.set(correlation, "minimize", self._restart_probe(correlation.minimize))
        for span_name, mod, cls_name, meth in METHODS:
            cls = getattr(skewunc_module(mod), cls_name)
            on_call = self._count_vectors if meth == "vector_deficits" else None
            patcher.set(cls, meth, self.span(span_name, vars(cls)[meth], on_call=on_call))
        checks = skewunc_module("checks")
        wrapped = []
        for prop in checks.ALL_PROPERTIES:
            traced = self.span(property_span(prop), prop)
            patcher.rebind_everywhere(prop, traced)
            wrapped.append(traced)
        patcher.set(checks, "ALL_PROPERTIES", tuple(wrapped))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values for one traced run, keyed as in BENCHMARK.json.

        Every layer the patch tables can produce is present, at zero when the
        workload never entered it.
        """
        names = {span for span, *_ in FUNCTIONS + METHODS}
        names.update(f"{OPTIMIZER_PREFIX}d{d}" for d in OPTIMIZER_DIMS)
        names.update(property_span(p) for p in skewunc_module("checks").ALL_PROPERTIES)
        out: dict[str, float] = {}
        failures = 0
        for name in sorted(names | set(self.layers)):
            layer = self.layers.get(name, Layer())
            if name.startswith(OPTIMIZER_PREFIX):
                out[f"{OPTIMIZER_PREFIX}self_s.{name.removeprefix(OPTIMIZER_PREFIX)}"] = layer.self_s
                failures += layer.errors
                continue
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.self_s"] = layer.self_s
            out[f"{name}.s"] = layer.total_s
        restarts = self.counts["restarts"]
        out["correlation.vector_deficits.vectors"] = self.counts["vectors"]
        out[f"{OPTIMIZER_PREFIX}restarts"] = restarts
        out[f"{OPTIMIZER_PREFIX}nfev"] = self.counts["nfev"]
        out[f"{OPTIMIZER_PREFIX}improving_restart_ratio"] = (
            self.counts["improving_restarts"] / restarts if restarts else 0.0)
        out[f"{OPTIMIZER_PREFIX}failures"] = failures
        return out
