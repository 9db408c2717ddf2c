"""Benchmark of the schrijver package: one workload, one seed, one result line.

    python3 perfbench/run.py --workload diameters --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from `src/` of
that checkout.  One caller, no threads: each workload's pass (see
workloads.py) runs in a closed loop until `--seconds` have passed.

With `--trace 0` the run reports the end-to-end metrics, tracing off:
setup_s (median of fresh-interpreter samples of importing the package and
building the workload's graphs, each given at nominal host speed), wall_s (the median pass), latency_p50_ms
and latency_p99_ms (over the operations of a pass, each taking its median
over the passes) and peak_rss_mb.  The times of passes are given at the
nominal host speed: each stretch of a pass between two probes of
reference kernels is divided by the slowdown those probes measured (see
hostspeed.py).  The record line keeps the unadjusted times and each
pass's overall slowdown.  With `--trace 1` it runs untraced passes for
half the time, then one traced pass, and reports per-layer calls, self
time and counters, unadjusted.

Every answer is checked; failures are counted, never fatal.  The last
line of standard output is the result object; the line before it records
the environment, the seed and the run's details.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

from hostspeed import NOMINAL_S, HostSpeed
from tracer import COUNTS, LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Fresh interpreters time `import schrijver` plus the workload's graph
# builds, then the python kernel of hostspeed.py (median of 3) in the same
# process; each sample is given at nominal host speed by that kernel's
# slowdown, and setup_s is the median of the samples.  They are spread
# between the passes, so the median sees the machine across the whole run.
SETUP_SAMPLES = 9
SETUP_PROBE = """
import json, statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from schrijver import CycleParams, SchrijverGraph
for n, k in json.loads(sys.argv[2]):
    SchrijverGraph(CycleParams(n, k))
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
from hostspeed import python_kernel
kernel = []
for _ in range(3):
    t0 = time.perf_counter()
    python_kernel()
    kernel.append(time.perf_counter() - t0)
print(setup, statistics.median(kernel))
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{kind}": unit
       for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **dict.fromkeys(COUNTS, "count"),
    "graph.sweeps_per_vertex": "ratio",
    "certificates.verified_ratio": "ratio",
    "paths.cert_excess_edges": "edges",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import `schrijver` from this checkout's src/ (refusing any other copy), then the workloads."""
    if not (SRC / "schrijver" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import schrijver

    if Path(schrijver.__file__).resolve().parent != SRC / "schrijver":
        raise SystemExit(f"perfbench: imported schrijver from {schrijver.__file__}")
    import workloads

    return workloads


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    # The package falls back to a numpy BFS without saying so when numba
    # is missing; numbers from the two backends are not comparable.
    numba_loaded = "numba" in sys.modules
    try:
        import numba  # noqa: F401

        numba_available = True
    except ImportError:
        numba_available = False
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if revision else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_available": numba_available,
        "bfs_backend": "numba" if numba_loaded else "numpy",
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
    }


def setup_sample(cells) -> tuple[float, float]:
    """Set-up time of one fresh interpreter, and its python kernel's slowdown."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(cells), str(BENCH_DIR)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup, kernel = (float(x) for x in out.stdout.split()[-2:])
    return setup, kernel / NOMINAL_S["python"]


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_passes(workload, graphs, job, seconds: float, speed=None, between=None) -> list:
    """Closed loop of whole passes for `seconds` (at least one pass).

    A pass starts only if it would end within `seconds`, judged by the
    length of the pass before it, so a run does not outlast `seconds` by
    most of a pass.

    `between` runs before each pass and the workload's checks after it,
    both untimed.  Checking each pass as it ends keeps one pass's outputs
    in memory at a time, so peak RSS does not grow with the number of
    passes a run holds.  With a HostSpeed probe, each pass starts and ends
    with a probe sample and probes between its operations; their time is
    taken out of the pass's wall and CPU time, and the pass's wall and
    latencies are also given at nominal speed.
    """
    passes = []
    start = perf_counter()
    length = 0.0  # of the pass before, with its probes, `between` and checks
    while not passes or perf_counter() - start + length <= seconds:
        begun = perf_counter()
        if between:
            between()
        if speed is None:
            probe, first, spent = (), 0, 0.0
        else:
            first = len(speed.samples)
            speed.sample()
            probe, spent = (speed,), speed.spent
        c0, t0 = process_time(), perf_counter()
        tally = workload.run_pass(graphs, job, *probe)
        tally.wall = perf_counter() - t0
        tally.cpu = process_time() - c0
        if speed is not None:
            tally.wall -= speed.spent - spent
            tally.cpu -= speed.spent - spent
            speed.sample()
            tally.wall_nominal, slowdowns = speed.adjust(
                workload.speed_kernels, first, tally.starts)
            tally.nominal = [x / f for x, f in zip(tally.latencies, slowdowns)]
        workload.finish(graphs, job, [tally])
        passes.append(tally)
        length = perf_counter() - begun
    return passes


def layer_metrics(tracer: Tracer, untraced_wall: float, traced, pass_start: int):
    """Per-layer metrics, and each layer's self-time share of the traced pass."""
    calls, self_all, self_pass, covered = tracer.self_times(pass_start)
    values = {}
    for name, c, s in zip(tracer.names, calls, self_all):
        values[f"{name}.calls"] = c
        values[f"{name}.self_s"] = s
    counts = tracer.counts
    values.update((name, counts[name]) for name in COUNTS)
    verify_calls = values["certificates.verify_certificate.calls"]
    values["graph.sweeps_per_vertex"] = (
        counts["graph.sweeps"] / counts["graph.vertices"] if counts["graph.vertices"] else 0.0
    )
    values["certificates.verified_ratio"] = (
        counts["certificates.verified"] / verify_calls if verify_calls else 0.0
    )
    values["paths.cert_excess_edges"] = traced.excess_edges
    values["trace.overhead_s"] = traced.wall - untraced_wall
    values["trace.uncovered_share"] = (traced.wall - covered) / traced.wall
    shares = {name: s / traced.wall for name, s in zip(tracer.names, self_pass) if s}
    return values, shares


def untraced_run(workload, graphs, job, seconds: float):
    """End-to-end metrics, tracing off."""
    cells = list(workload.cells)
    speed = HostSpeed()
    setup = []
    passes = run_passes(workload, graphs, job, seconds, speed,
                        between=lambda: setup.append(setup_sample(cells)))
    setup += [setup_sample(cells) for _ in range(SETUP_SAMPLES - len(setup))]

    # Every pass repeats the same operations in the same order; each
    # operation's latency is its median over the passes.
    def summary(walls, latencies):
        per_operation = [statistics.median(reps) for reps in zip(*latencies)]
        return {
            "wall_s": statistics.median(walls),
            "latency_p50_ms": statistics.median(per_operation) * 1e3,
            "latency_p99_ms": percentile(per_operation, 99) * 1e3,
        }

    values = {
        "setup_s": statistics.median(t / f for t, f in setup),
        **summary([t.wall_nominal for t in passes], [t.nominal for t in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return passes, values, {
        "setup_samples_s": [t for t, _ in setup],
        "setup_slowdowns": [f for _, f in setup],
        "speed_kernels": list(workload.speed_kernels),
        "speed_samples": len(speed.samples),
        "kernel_median_s": {name: statistics.median(x[name] for x in speed.samples)
                            for name in speed.samples[0]},
        "pass_slowdown": [t.wall / t.wall_nominal for t in passes],
        "unadjusted": {
            "setup_s": statistics.median(t for t, _ in setup),
            **summary([t.wall for t in passes], [t.latencies for t in passes]),
        },
    }


def traced_run(workload, graphs, job, seconds: float, tracer: Tracer, name: str):
    """Per-layer metrics: untraced passes for half the time, then one traced pass.

    The tracing overhead is the traced pass's wall time minus the median
    untraced pass's, both unadjusted for host speed.
    """
    passes = run_passes(workload, graphs, job, seconds / 2)
    untraced_wall = statistics.median(t.wall for t in passes)
    pass_start = len(tracer.start)
    tracer.install()
    try:
        c0, t0 = process_time(), perf_counter()
        traced = workload.run_pass(graphs, job)
        traced.wall = perf_counter() - t0
        traced.cpu = process_time() - c0
    finally:
        tracer.uninstall()
    workload.finish(graphs, job, [traced])
    passes.append(traced)
    values, shares = layer_metrics(tracer, untraced_wall, traced, pass_start)
    spans_file = OUT_DIR / f"spans-{name}.json.gz"
    tracer.write(spans_file)
    return passes, values, {
        "spans": len(tracer.start),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "self_share_of_traced_pass": shares,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    W = import_program()
    if args.workload not in W.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(W.WORKLOADS)}")
    workload = W.WORKLOADS[args.workload]()

    # In the traced run, the graph builds of the set-up get spans too.
    tracer = Tracer()
    if args.trace:
        tracer.install()
    try:
        graphs = W.build_graphs(workload.cells)
    finally:
        tracer.uninstall()
    job = workload.make_job(graphs, args.seed)
    # The graphs and inputs live for the whole run; keep the cyclic garbage
    # collector from rescanning them, so its pauses do not land on
    # whichever operation happens to trigger a full collection.
    gc.collect()
    gc.freeze()

    if args.trace:
        passes, values, details = traced_run(
            workload, graphs, job, args.seconds, tracer, f"{workload.name}-seed{args.seed}")
        units = PER_LAYER
    else:
        passes, values, details = untraced_run(workload, graphs, job, args.seconds)
        units = END_TO_END

    attempted = sum(t.attempted for t in passes)
    failed = sum(t.failed for t in passes)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [t.wall for t in passes],
        "pass_cpu_s": [t.cpu for t in passes],
        "pass_latency_sum_s": [sum(t.latencies) for t in passes],
        "latency_samples": len(passes[0].latencies),
        "certificates_checked_per_pass": passes[0].certs_checked,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failures": [m for t in passes for m in t.messages][: W.MAX_MESSAGES],
        **details,
        "environment": environment(),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
