"""Benchmark of skewunc: four seeded workloads through its CLI and library.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Load model: a closed loop with one caller. One process runs one item at a
time on one thread; BLAS is held to one thread as well. Passes over the
workload repeat while the next one is expected to end within ``--seconds``;
at least one pass runs. Every item's output is checked after its pass,
outside the timed region.

Timings are scaled to a reference speed (see ``speed.py``): on a shared
machine the same work runs up to 1.8x slower from one moment to the next, and
a reference kernel timed every 50 ms during each pass measures by how much.
``wall_s`` is the median over passes of the scaled pass time;
``item_p50_ms`` is the median over items of each item's median scaled time;
``setup_s`` is the median of several fresh-interpreter set-ups after the
passes, scaled by the passes' mean speed.

Human-readable lines come first. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics from a traced run. ``--workload all``
runs every workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

# numpy is imported only after this, here and in the set-up probes this
# process starts: one BLAS thread keeps the load within the one-caller model
# and the timings steadier.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")   # relative to ROOT, so output bytes do not name the checkout
SETUP_PROBES = 5                 # measured fresh interpreters per run, after one warm-up
PROBE_TIMEOUT_S = 60


def load_skewunc() -> None:
    """Import skewunc from this checkout's ``src`` and nowhere else."""
    if not (SRC / "skewunc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no skewunc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import skewunc
    if Path(skewunc.__file__).resolve().parent != SRC / "skewunc":
        raise SystemExit(f"perfbench: imported skewunc from {skewunc.__file__}, not {SRC}")


def probe(workload: str, seed: int) -> None:
    """Set-up probe, run in a fresh interpreter: import the library, run the
    workload's first item, and report how long input generation took."""
    import workloads
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[workload](str(WORK / workload), seed)
    generation_s = time.perf_counter() - t0
    wl.first_item()
    print(f"ready {generation_s!r}", flush=True)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first completed item,
    less the benchmark's own input generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {line}{out}")
    return elapsed - float(line.split()[1])


def run_passes(wl, seconds: float, tracer=None, sampler=None):
    """Passes until the next one would end after ``seconds``; at least one.
    Returns the passes and each pass's (start, end)."""
    from tracing import Patcher
    passes, spans = [], []
    start = time.perf_counter()
    while True:
        patcher = Patcher()
        if tracer is not None:
            tracer.install(patcher)
        try:
            with sampler or contextlib.nullcontext():
                t0 = time.perf_counter()
                res, raw = wl.run_pass()
                spans.append((t0, time.perf_counter()))
        finally:
            patcher.close()
        wl.check(res, raw)
        passes.append(res)
        typical = median(end - begin for begin, end in spans)
        if time.perf_counter() - start + typical > seconds:
            return passes, spans


def span_seconds(span, sampler) -> float:
    """Seconds of a (start, end) span: raw without a sampler, otherwise less
    the reference-kernel time inside it and scaled to the reference speed."""
    begin, end = span
    if sampler is None:
        return end - begin
    return (end - begin - sampler.kernel_within(begin, end)) * sampler.scale(begin, end)


def machine_facts() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_sha": sha,
    }


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def select(kind: str, values: dict) -> dict:
    units = declared(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"no value for declared {kind} metrics {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def summarize(name: str, passes, spans, sampler=None) -> dict:
    n_items = max(len(p.items) for p in passes)
    per_item = sorted(
        median(span_seconds(p.items[i], sampler) for p in passes if i < len(p.items))
        for i in range(n_items))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = [p.digest() for p in passes if p.outputs]
    print(f"[{name}] {len(passes)} passes, {n_items} items per pass, "
          f"{attempted} items attempted, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f} ratio)")
    deciles = statistics.quantiles(per_item, n=10) if len(per_item) >= 2 else per_item * 9
    beyond = sum(t > deciles[8] for t in per_item)
    if beyond >= 10:
        print(f"[{name}] item_p90_ms {deciles[8] * 1e3:.4f} ms "
              f"({len(per_item)} samples, {beyond} beyond it)")
    for message in sorted({m for p in passes for m in p.errors})[:10]:
        print(f"[{name}] failed item: {message}")
    return {
        "attempted": attempted,
        "failed": failed,
        "incorrect": sum(p.incorrect for p in passes),
        "item_s": per_item,
        "pass_s": [span_seconds(s, sampler) for s in spans],
        "output_bytes": median(p.output_bytes() for p in passes),
        "digest": digests[0] if digests else None,
        "digests_agree": len(set(digests)) <= 1,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from speed import REFERENCE_S, SpeedSampler
    from tracing import Tracer

    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](str(work), seed)

    if not trace:
        sampler = SpeedSampler()
        passes, spans = run_passes(wl, seconds, sampler=sampler)
        setup_probe(name, seed)   # warm-up: fills the bytecode and file caches
        setup = [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
        summary = summarize(name, passes, spans, sampler)
        raw = [end - begin for begin, end in spans]
        print(f"[{name}] raw pass times {', '.join(f'{s:.4f}' for s in raw)} s; "
              f"reference kernel {median(sampler.kernel_s) * 1e3:.4f} ms median over "
              f"{len(sampler.kernel_s)} samples (reference {REFERENCE_S * 1e3:g} ms)")
        print(f"[{name}] raw set-up probes {', '.join(f'{s:.4f}' for s in setup)} s")
        # the speed decorrelates within a second, so the probes are scaled by
        # the run's mean speed
        run_scale = sampler.scale(spans[0][0], spans[-1][1])
        values = {
            "setup_s": median(setup) * run_scale,
            "wall_s": median(summary["pass_s"]),
            "item_p50_ms": median(summary["item_s"]) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = select("end_to_end", values)
    else:
        sampler = SpeedSampler()
        plain, plain_spans = run_passes(wl, seconds / 2, sampler=sampler)
        tracer = Tracer(clock=sampler.clock)
        traced, traced_spans = run_passes(wl, seconds / 2, tracer, sampler)
        summary = summarize(name, plain + traced, plain_spans + traced_spans, sampler)
        plain_s = median(span_seconds(s, sampler) for s in plain_spans)
        traced_s = median(span_seconds(s, sampler) for s in traced_spans)
        traced_scale = sampler.scale(traced_spans[0][0], traced_spans[-1][1])
        units = declared("per_layer")
        n = len(traced)
        values = {}
        for key, value in tracer.layer_metrics().items():
            if units.get(key) == "s":
                value *= traced_scale
            values[key] = value if key.endswith("_ratio") else value / n
        values["cli.output_bytes"] = summary["output_bytes"]
        values["trace.overhead_ratio"] = traced_s / plain_s
        print(f"[{name}] untraced pass {plain_s:.4f} s, traced {traced_s:.4f} s "
              f"at the reference speed; {n} traced passes")
        metrics = select("per_layer", values)

    for metric, entry in metrics.items():
        print(f"[{name}] {metric} {entry['value']:.6g} {entry['unit']}")
    info = {"workload": name, "seed": seed, "machine": machine_facts(),
            "output_sha256": summary["digest"],
            "output_digests_agree_across_passes": summary["digests_agree"],
            "output_bytes": summary["output_bytes"]}
    print("info " + json.dumps(info, sort_keys=True))
    return {"correct": summary["incorrect"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "optimize", "campaign", "eval", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    load_skewunc()
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    import workloads
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
