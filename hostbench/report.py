"""Run every workload, untraced and traced, and print one combined report.

Usage (from the repository root)::

    python3 hostbench/report.py

Each workload runs in its own process (``run.py``), once with tracing off for
the end-to-end metrics and once with tracing on for the per-layer table, on
seed 0 and again on the held-out seed 1.  The report fails (exit 1) when a
run is not correct or when the traced and untraced runs of one seed disagree
on the ``model_digest``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import DEFAULT_SECONDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = ("ops_per_s", "setup_s", "peak_rss_mb", "ok_ratio")
SEED = 0
HOLDOUT_SEED = 1


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` process; returns its result plus digest and report lines."""
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.splitlines()
    # run.py exits 1 after printing the result of a run that is not correct.
    if completed.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"report: error: {workload} seed={seed} trace={trace} exited "
            f"{completed.returncode}: {completed.stderr.strip().splitlines()[-1:]}"
        )
    result = json.loads(lines[-1])
    result["digest"] = next(
        line.split()[1] for line in lines if line.startswith("model_digest ")
    )
    result["lines"] = lines[:-1]
    return result


def _share(result: dict, metric: str) -> float:
    """A traced layer's self time as a share of the traced body."""
    metrics = result["metrics"]
    return metrics[metric]["value"] / metrics["trace.body_s"]["value"]


def character(workload: str, traced: dict) -> str | None:
    """What the workload was chosen to stress, as measured on this code."""
    if workload == "reddit_infer":
        return f"cache.sim share of body {_share(traced, 'cache.sim_s'):.1%} (chosen at >= 50%)"
    if workload == "design_grid":
        return f"cache.sim share of body {_share(traced, 'cache.sim_s'):.1%} (chosen at < 5%)"
    if workload == "scaleout_curve":
        share = _share(traced, "graph.partition_s") + _share(traced, "scaleout.subgraph_s")
        return f"graph.partition + scaleout.subgraph share of body {share:.1%} (chosen as largest)"
    return None


def main() -> int:
    ok = True
    rows = []
    for workload in WORKLOADS:
        for seed in (SEED, HOLDOUT_SEED):
            plain = run_workload(workload, seed, DEFAULT_SECONDS, 0)
            traced = run_workload(workload, seed, DEFAULT_SECONDS, 1)
            same = plain["digest"] == traced["digest"]
            ok &= plain["correct"] and traced["correct"] and same
            rows.append((workload, seed, plain, traced, same))
            if seed == SEED:
                print(f"== {workload} (seed {seed}) ==")
                print("\n".join(line for line in traced["lines"] if line.startswith(("  ", "set-up", "body", "trace"))))
                note = character(workload, traced)
                if note:
                    print(note)
            for result in (plain, traced):
                for line in result["lines"]:
                    if line.startswith("problem: "):
                        print(f"{workload} seed={seed}: {line}")

    print()
    print(f"{'workload':<16} {'seed':>5} " + " ".join(f"{name:>14}" for name in END_TO_END)
          + f" {'failed_ratio':>12}  digest (traced == untraced)")
    units = {}
    for workload, seed, plain, traced, same in rows:
        metrics = plain["metrics"]
        units.update({name: metrics[name]["unit"] for name in END_TO_END})
        failed_ratio = plain["failed"] / plain["attempted"]
        print(
            f"{workload:<16} {seed:>5} "
            + " ".join(f"{metrics[name]['value']:>14.4f}" for name in END_TO_END)
            + f" {failed_ratio:>12.4f}  {plain['digest'][:16]} {'==' if same else '!='} "
            f"{traced['digest'][:16]}"
            + ("" if plain["correct"] and traced["correct"] else "  NOT CORRECT")
        )
    print("units: " + ", ".join(f"{name} {unit}" for name, unit in units.items())
          + ", failed_ratio ratio")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
