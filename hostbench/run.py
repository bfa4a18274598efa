"""Host-time benchmark of the GNNIE simulator: one workload per process.

Usage (from the repository root)::

    python3 hostbench/run.py --workload reddit_infer --seed 0 --seconds 40 --trace 0

Every number is host time — how long the simulator takes to run on this
machine — never the modeled accelerator's cycles.  ``--trace 0`` measures
the end-to-end metrics with no instrumentation; ``--trace 1`` installs the
timing shims of ``layers.py`` and reports per-layer self times instead.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by a human-readable report: the environment stamp, the workload's
``model_digest`` (sha256 over its canonical modeled outputs) and a metric or
layer table.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from layers import SITES, LayerTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Timed passes per untraced run, at least (more if ``--seconds`` allows).
MIN_PASSES = 3
#: Default measuring time, BENCHMARK.json's ``run_seconds``.
DEFAULT_SECONDS = 40
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Environment variables that reroute the program (fault injection, the
#: scalar and no-verify escape hatches); the benchmark measures the default
#: path, so they are cleared.
PROGRAM_SWITCHES = ("REPRO_FAULTS", "REPRO_NO_BATCH", "REPRO_NO_VERIFY")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = _non_negative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = _Parser(prog="hostbench", description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.add_argument("--seconds", type=_positive_int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha() -> str:
    """HEAD of the enclosing git checkout, read from disk; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
    }


def _digest(outputs: list[str]) -> str:
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()


class Run:
    """Accumulates the passes of one benchmark invocation."""

    def __init__(self, workload, scratch: Path) -> None:
        self.workload = workload
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.problems: list[str] = []

    def timed_pass(self, metrics) -> tuple[int, float]:
        gc.collect()
        start = time.perf_counter()
        outcome = self.workload.run_pass(metrics, self.scratch)
        wall = time.perf_counter() - start
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.digests.add(_digest(outcome.outputs))
        self.problems += outcome.problems
        return outcome.ops, wall

    def finish(self) -> tuple[bool, str]:
        self.problems += self.workload.spot_check()
        if len(self.digests) != 1:
            self.problems.append(f"model_digest differs between passes: {sorted(self.digests)}")
        # Problems repeat once per pass; report each once.
        self.problems = list(dict.fromkeys(self.problems))
        correct = not self.problems and self.failed == 0
        return correct, ",".join(sorted(self.digests))


def _timed_setup(workload, seed: int, import_s: float) -> float:
    gc.collect()
    start = time.perf_counter()
    workload.setup(seed)
    return import_s + time.perf_counter() - start - workload.harness_s


def measure_end_to_end(workload, seed: int, seconds: int, import_s: float, scratch: Path):
    from repro.obs import MetricsRegistry

    # One set-up, then the body, as in one ``repro`` process: the peak
    # resident memory is read before the spot check and the repeated
    # set-ups, which only the benchmark runs.
    setups = [_timed_setup(workload, seed, import_s)]
    run = Run(workload, scratch)
    rates = []
    started = time.perf_counter()
    while len(rates) < MIN_PASSES or time.perf_counter() - started < seconds:
        ops, wall = run.timed_pass(MetricsRegistry())
        rates.append(ops / wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct, digest = run.finish()
    setups += [_timed_setup(workload, seed, import_s) for _ in range(SETUP_REPEATS - 1)]
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "ok_ratio": (1 - run.failed / run.attempted, "ratio"),
    }
    rate_q = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
    report = [
        f"{'metric':<14} {'value':>12}  unit",
        *(f"{name:<14} {value:>12.4f}  {unit}" for name, (value, unit) in metrics.items()),
        f"{'failed_ratio':<14} {run.failed / run.attempted:>12.4f}  ratio",
        f"ops_per_s over {len(rates)} passes: q1 {rate_q[0]:.4f}, q3 {rate_q[2]:.4f}; "
        f"setup_s over {len(setups)} set-ups: {', '.join(f'{s:.3f}' for s in setups)}",
    ]
    return run, correct, digest, metrics, report


def _layer_names() -> list[str]:
    return list(dict.fromkeys(layer for layer, _, _ in SITES))


def _layer_table(title: str, stats: dict, wall: float, per: int) -> list[str]:
    lines = [title, f"  {'layer':<20} {'self s':>10} {'calls':>10} {'share':>8}"]
    covered = 0.0
    for layer in sorted(_layer_names(), key=lambda name: -stats[name].self_s):
        stat = stats[layer]
        covered += stat.self_s
        if stat.calls:
            lines.append(
                f"  {layer:<20} {stat.self_s / per:>10.4f} {stat.calls / per:>10.1f} "
                f"{stat.self_s / wall:>8.1%}"
            )
    lines.append(f"  {'other':<20} {(wall - covered) / per:>10.4f} {'':>10} {1 - covered / wall:>8.1%}")
    return lines


def measure_layers(workload, seed: int, seconds: int, scratch: Path):
    from repro.check.verifier import verify_counters
    from repro.obs import MetricsRegistry

    tracer = LayerTracer()
    start = time.perf_counter()
    with tracer:
        workload.setup(seed)
    setup_wall = time.perf_counter() - start - workload.harness_s
    setup_stats = tracer.stats
    tracer.reset()

    run = Run(workload, scratch)
    traced_metrics = MetricsRegistry()
    untraced_walls, traced_walls = [], []
    traced_ops = 0
    verify = {"runs": 0, "hits": 0}
    started = time.perf_counter()
    while not traced_walls or time.perf_counter() - started < seconds:
        untraced_walls.append(run.timed_pass(MetricsRegistry())[1])
        before = verify_counters()
        with tracer:
            ops, wall = run.timed_pass(traced_metrics)
        after = verify_counters()
        for key in verify:
            verify[key] += after[key] - before[key]
        traced_ops += ops
        traced_walls.append(wall)
    run.problems += workload.traced_guard(tracer, traced_ops)
    correct, digest = run.finish()

    passes = len(traced_walls)
    stats = tracer.stats
    body_s = sum(traced_walls)

    def self_s(layer: str) -> float:
        return stats[layer].self_s / passes

    def counter(name: str) -> float:
        return traced_metrics.counter(name).value

    cache_lookups = sum(
        counter(f"executor.cache_sim.{kind}") for kind in ("runs", "memo_hits", "context_hits")
    )
    covered = sum(stat.self_s for stat in stats.values())
    metrics = {
        "datasets.build_s": (setup_stats["datasets.build"].self_s, "s"),
        "sparse.features_s": (setup_stats["sparse.features"].self_s, "s"),
        "plan.lower_s": (self_s("plan.lower"), "s"),
        "check.verify_s": (self_s("check.verify"), "s"),
        "check.verify.runs": (verify["runs"] / passes, "count"),
        "check.verify.hits": (verify["hits"] / passes, "count"),
        "cache.sim_s": (self_s("cache.sim"), "s"),
        "cache.sim.calls": (stats["cache.sim"].calls / passes, "count"),
        "cache.iterations": (tracer.counts["cache.iterations"] / passes, "count"),
        "cache.vertex_fetches": (tracer.counts["cache.vertex_fetches"] / passes, "count"),
        "cache.dram_bytes": (tracer.counts["cache.dram_bytes"] / passes, "bytes"),
        "cache.memo_hit_ratio": (
            1 - counter("executor.cache_sim.runs") / cache_lookups if cache_lookups else 0.0,
            "ratio",
        ),
        "sim.execute_s": (stats["sim.execute"].total_s / passes, "s"),
        "sim.pricing_self_s": (self_s("sim.execute"), "s"),
        "sim.execute.calls": (stats["sim.execute"].calls / passes, "count"),
        "sim.total_cycles": (tracer.counts["sim.total_cycles"] / passes, "cycles"),
        "baselines.execute_s": (self_s("baselines.execute"), "s"),
        "sweep.run_s": (stats["sweep.run"].total_s / passes, "s"),
        "sweep.self_s": (self_s("sweep.run"), "s"),
        "sweep.store.append_s": (self_s("sweep.store.append"), "s"),
        "sweep.store.rows": (stats["sweep.store.append"].calls / passes, "count"),
        "sweep.cells.executed": (
            (counter("sweep.cells.executed") - counter("sweep.cells.unsupported")) / passes,
            "count",
        ),
        "sweep.cells.unsupported": (counter("sweep.cells.unsupported") / passes, "count"),
        "sweep.cells.failed": (counter("sweep.cells.failed") / passes, "count"),
        "graph.partition_s": (self_s("graph.partition"), "s"),
        "scaleout.subgraph_s": (self_s("scaleout.subgraph"), "s"),
        "scaleout.execute_s": (self_s("scaleout.execute"), "s"),
        "scaleout.halo_bytes": (tracer.counts["scaleout.halo_bytes"] / passes, "bytes"),
        "other_s": ((body_s - covered) / passes, "s"),
        "trace.body_s": (body_s / passes, "s"),
        "trace.coverage": (covered / body_s, "ratio"),
        "trace.overhead_ratio": (
            statistics.median(traced_walls) / statistics.median(untraced_walls),
            "ratio",
        ),
    }
    report = [
        *_layer_table(f"set-up layers (one traced set-up, {setup_wall:.3f} s)", setup_stats, setup_wall, 1),
        *_layer_table(
            f"body layers (per pass, mean of {passes} traced passes, "
            f"{body_s / passes:.3f} s each)",
            stats,
            body_s,
            passes,
        ),
        f"trace overhead: traced {statistics.median(traced_walls):.3f} s vs untraced "
        f"{statistics.median(untraced_walls):.3f} s per pass (medians)",
    ]
    return run, correct, digest, metrics, report


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for name in PROGRAM_SWITCHES:
        os.environ.pop(name, None)
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.sweep  # the heaviest import; pulls in the simulator
    except ImportError as error:
        print(f"hostbench: error: cannot import the simulator from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    if not Path(repro.sweep.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"hostbench: error: imported the simulator from {repro.sweep.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    workload = WORKLOADS[args.workload]()
    bench_build = ROOT / ".bench_build"
    bench_build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="hostbench-", dir=bench_build) as scratch:
        measure = measure_layers if args.trace else measure_end_to_end
        extra = () if args.trace else (import_s,)
        run, correct, digest, metrics, report = measure(
            workload, args.seed, args.seconds, *extra, Path(scratch)
        )

    print(f"hostbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    print(f"model_digest {digest}")
    print("\n".join(report))
    for problem in run.problems:
        print(f"problem: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
