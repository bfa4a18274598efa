"""Command-line interface for the GNNIE reproduction.

Examples
--------
List the registered datasets and their Table II statistics::

    python -m repro datasets

Simulate one inference and print the per-phase report::

    python -m repro simulate --dataset cora --model gat
    python -m repro simulate --dataset pubmed --model gcn --design A --json

Profile one inference: span-by-span attribution (modeled cycles, MACs,
DRAM bytes, energy; host wall time) plus a Perfetto-loadable Chrome trace::

    python -m repro profile --dataset cora --family gcn
    python -m repro profile --dataset cora --family gcn --trace-out t.json \\
        --metrics-out metrics.csv

Show the lowered phase-op program for one (dataset, model) pair::

    python -m repro plan --dataset cora --model gat
    python -m repro plan --dataset pubmed --model diffpool --json

Compare GNNIE against the baseline platforms::

    python -m repro compare --dataset citeseer --model gcn
    python -m repro compare --dataset citeseer --model gcn --json

Sweep the named design points A–E::

    python -m repro designs --dataset cora --model gcn

Evaluate miss-path mechanisms (victim cache / miss cache / stream buffers)
behind the input buffer::

    python -m repro cache --dataset cora --mechanism victim,stream
    python -m repro cache --dataset pubmed --policy all --mechanism victim,miss,stream

Run a scenario sweep (dataset × family × backend matrix) into a resumable
result store, fanning cells across worker processes::

    python -m repro sweep --jobs 4 --store sweep.jsonl
    python -m repro sweep --datasets cora,citeseer --models gcn,gat \\
        --backends gnnie,pyg-cpu --scale 0.1 --jobs 2 --store sweep.jsonl
    python -m repro sweep --store sweep.jsonl --json   # resumes: skips done cells
    python -m repro sweep --jobs 2 --store sweep.jsonl --trace sweep-trace.json

Scale out across simulated multi-chip fleets (edge-cut partition plus
halo-exchange traffic over the chip-to-chip link)::

    python -m repro plan --dataset cora --model gcn --chips 4
    python -m repro compare --dataset cora --model gcn --chips 4
    python -m repro sweep --backends gnnie --chips 1,4,16 --store sweep.jsonl

The fleet is supervised: failing groups retry with backoff, batch groups
degrade to per-cell execution to isolate a poisoned cell, crashed workers
rebuild the pool, and permanently-failed cells land as explicit ``failed``
rows (``--strict`` raises instead).  ``--faults`` arms a deterministic
chaos plan (see :mod:`repro.faults`)::

    python -m repro sweep --jobs 2 --timeout 30 --max-attempts 3 --store s.jsonl
    python -m repro sweep --jobs 2 --faults plan.json --store s.jsonl

Inspect and heal a result store (corrupt rows are quarantined at load, the
``store`` tools excise or rewrite them)::

    python -m repro store verify --store sweep.jsonl
    python -m repro store repair --store sweep.jsonl
    python -m repro store compact --store sweep.jsonl

Close the design-space loop: generations of sweep -> aggregate -> propose,
resumable through the same store machinery::

    python -m repro tune --dataset cora --model gcn --generations 4 \\
        --population 6 --mac-budget 1280 --jobs 2 --store tune.jsonl
    python -m repro tune --dataset cora --model gcn --generations 4 \\
        --population 6 --store tune.jsonl --json   # resume: 0 executed
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import Callable, Sequence

import repro
from repro.analysis import (
    TRACE_POLICIES,
    format_table,
    miss_path_ablation_rows,
    speedup_entry,
)
from repro.analysis.roofline import roofline_analysis
from repro.cache import MissPathConfig, mechanism_names
from repro.datasets import build_dataset, dataset_names, dataset_spec
from repro.hw import DESIGN_PRESETS, AcceleratorConfig, design_preset
from repro.models import MODEL_FAMILIES
from repro.plan import executor, executor_names, lower
from repro.sim import GNNIEExecutor, input_buffer_capacity
from repro.sim.trace import phase_table, result_to_json
from repro.sweep import (
    ResultStore,
    RetryPolicy,
    ScenarioMatrix,
    SweepCell,
    SweepError,
    compact_store,
    is_failed_row,
    repair_store,
    run_batch_timed,
    run_sweep,
    verify_store,
)

__all__ = ["main", "build_parser"]


def _scale(text: str) -> float:
    """argparse type for ``--scale``: a dataset scale factor in (0, 1]."""
    try:
        value = float(text)
        valid = 0 < value <= 1
    except ValueError:
        valid = False
    if not valid:
        raise argparse.ArgumentTypeError(f"invalid scale {text!r}: must be in (0, 1]")
    return value


def _seed(text: str) -> int:
    """argparse type for ``--seed``: an integer >= 0."""
    try:
        value = int(text)
        valid = value >= 0
    except ValueError:
        valid = False
    if not valid:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}: must be an integer >= 0")
    return value


def _count(text: str) -> int:
    """argparse type for a count (chips, jobs, generations, sizes): an integer >= 1."""
    try:
        value = int(text)
        valid = value >= 1
    except ValueError:
        valid = False
    if not valid:
        raise argparse.ArgumentTypeError(f"invalid count {text!r}: must be an integer >= 1")
    return value


def _counts(text: str) -> list[int]:
    """argparse type for a comma-separated list of counts (``sweep --chips``)."""
    try:
        counts = [_count(part) for part in text.split(",") if part.strip()]
    except argparse.ArgumentTypeError:
        counts = []
    if not counts:
        raise argparse.ArgumentTypeError(
            f"invalid counts {text!r}: must be a comma-separated list of integers >= 1"
        )
    return counts


def _seconds(text: str) -> float:
    """argparse type for ``--timeout``: a finite number of seconds > 0."""
    try:
        value = float(text)
        valid = 0 < value < math.inf
    except ValueError:
        valid = False
    if not valid:
        raise argparse.ArgumentTypeError(f"invalid seconds {text!r}: must be a number > 0")
    return value


def _names(
    noun: str,
    known: Sequence[str],
    *,
    fold: Callable[[str], str] = str.lower,
    every: bool = False,
) -> Callable[[str], list[str]]:
    """argparse type for a comma-separated list of ``known`` names.

    Names are stripped and case-folded with ``fold``; with ``every``, the
    word ``all`` stands for every known name.
    """

    def convert(text: str) -> list[str]:
        if every and text.strip().lower() == "all":
            return list(known)
        names = [fold(name.strip()) for name in text.split(",") if name.strip()]
        unknown = sorted(set(names) - set(known))
        if unknown or not names:
            problem = f"unknown {noun} {unknown}" if unknown else f"no {noun} in {text!r}"
            raise argparse.ArgumentTypeError(f"{problem}; known: {', '.join(known)}")
        return names

    return convert


def _group(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """An option group that subcommands attach with ``parents=``."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _fleet_group(store: str) -> argparse.ArgumentParser:
    """The options of a command that runs a worker fleet into a result store."""
    fleet = _group()
    fleet.add_argument(
        "--jobs", type=_count, default=1, help="worker processes (1 = run in-process)"
    )
    fleet.add_argument(
        "--store",
        default=store,
        help=f"resumable result store path (JSONL, one row per cell; default: {store})",
    )
    fleet.add_argument(
        "--no-resume",
        action="store_true",
        help="truncate an existing store instead of skipping its completed cells",
    )
    fleet.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="trace the fleet and write a merged Chrome trace-event JSON "
        "(one track per worker process); rows are unchanged",
    )
    return fleet


def _command(
    subparsers, name: str, handler: Callable, help: str, *groups: argparse.ArgumentParser
) -> argparse.ArgumentParser:
    """Add subcommand ``name`` with the option ``groups`` it reads.

    The subcommand's ``prog`` (e.g. ``repro store verify``) is kept in the
    namespace so :func:`main` can prefix its one error line with it.
    """
    sub = subparsers.add_parser(name, help=help, parents=list(groups))
    sub.set_defaults(handler=handler, prog=sub.prog)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GNNIE (DAC 2022) reproduction: simulate GNN inference on the GNNIE accelerator model.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    command = functools.partial(_command, subparsers)

    # Option groups: each option is declared once here, and a subcommand
    # attaches only the groups it reads.
    dataset = _group()
    dataset.add_argument(
        "--dataset", default="cora", choices=dataset_names(), help="benchmark dataset"
    )
    sample = _group()
    sample.add_argument(
        "--scale",
        type=_scale,
        default=None,
        help="dataset scale factor in (0, 1] (default: the registry scale)",
    )
    sample.add_argument(
        "--seed",
        type=_seed,
        default=0,
        help="dataset generation seed (sweep and tune derive their "
        "per-dataset and proposer seeds from it)",
    )
    workload = _group(dataset, sample)
    family = _group()
    family.add_argument(
        "--model",
        "--family",
        dest="model",
        default="gcn",
        choices=list(MODEL_FAMILIES),
        help="GNN family (Table III); --family is a second spelling",
    )
    design = _group()
    design.add_argument(
        "--design",
        default=None,
        choices=sorted(DESIGN_PRESETS),
        help="use a named design point instead of the default GNNIE configuration",
    )
    chips = _group()
    chips.add_argument(
        "--chips",
        type=_count,
        default=1,
        help="scale GNNIE out across N simulated chips (default: 1); plan shows "
        "each chip's plan with its spliced halo-exchange ops, compare runs "
        "the baselines single-chip",
    )
    report = _group()
    report.add_argument("--json", action="store_true", help="emit the report as JSON")

    command("datasets", _cmd_datasets, "list registered datasets")

    simulate = command(
        "simulate", _cmd_simulate, "simulate one inference", workload, family, design, report
    )
    simulate.add_argument(
        "--roofline", action="store_true", help="append a per-phase bottleneck analysis"
    )

    profile = command(
        "profile",
        _cmd_profile,
        "profile one inference: per-span attribution + Chrome-trace export",
        workload,
        family,
        design,
        report,
    )
    profile.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON (chrome://tracing / Perfetto), "
        "one track per GNN layer",
    )
    profile.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics registry (.csv -> CSV, anything else -> JSON)",
    )

    plan = command(
        "plan",
        _cmd_plan,
        "show the lowered phase-op program for a (dataset, model) pair",
        workload,
        family,
        chips,
        report,
    )
    plan.add_argument(
        "--check",
        action="store_true",
        help="verify the plan (and every chip plan with --chips > 1) against "
        "the repro.check verifier rules before printing",
    )

    check = command(
        "check",
        _cmd_check,
        "static analysis: determinism linter over src/repro plus plan "
        "verification across every registered family x dataset",
        report,
    )
    check.add_argument(
        "--lint",
        action="store_true",
        help="run only the determinism linter (default: linter + plans)",
    )
    check.add_argument(
        "--plans",
        action="store_true",
        help="run only plan verification (default: linter + plans)",
    )
    check.add_argument(
        "--paths",
        nargs="+",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    check.add_argument(
        "--baseline",
        default="repro-check-baseline.json",
        help="committed findings baseline; only findings not in it fail "
        "(default: repro-check-baseline.json)",
    )
    check.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file to contain exactly the current findings",
    )

    command(
        "compare",
        _cmd_compare,
        "compare against baseline platforms",
        workload,
        family,
        design,
        chips,
        report,
    )
    command("designs", _cmd_designs, "evaluate design points A-E", workload, family)

    cache = command(
        "cache",
        _cmd_cache,
        "evaluate miss-path mechanisms (victim/miss/stream) behind the input buffer",
        workload,
    )
    cache.add_argument(
        "--mechanism",
        type=_names("mechanisms", mechanism_names()),
        default="victim,miss,stream",
        help=(
            "comma-separated miss-path mechanisms to evaluate "
            f"(known: {', '.join(mechanism_names())}); each is evaluated alone "
            "plus one combined hierarchy row when several are given"
        ),
    )
    cache.add_argument(
        "--policy",
        default="vertex_order",
        choices=sorted(TRACE_POLICIES) + ["all"],
        help="hit-path policy whose miss trace is filtered (default: the "
        "vertex-order baseline, the policy with the random-traffic problem)",
    )
    cache.add_argument(
        "--feature-length",
        type=_count,
        default=128,
        help="aggregated feature length used to size one vertex record",
    )
    cache.add_argument("--victim-entries", type=_count, help="victim cache entries")
    cache.add_argument("--miss-entries", type=_count, help="miss cache tag entries")
    cache.add_argument("--stream-buffers", type=_count, help="number of stream buffers")
    cache.add_argument(
        "--stream-depth", type=_count, help="prefetch depth per stream buffer"
    )

    sweep = command(
        "sweep",
        _cmd_sweep,
        "run a (dataset × model × backend) scenario matrix into a resumable store",
        sample,
        _fleet_group("sweep.jsonl"),
        report,
    )
    sweep.add_argument(
        "--datasets",
        type=_names("datasets", dataset_names(), every=True),
        default="all",
        help="comma-separated dataset names, or 'all' (default: all five)",
    )
    sweep.add_argument(
        "--models",
        type=_names("models", list(MODEL_FAMILIES), every=True),
        default="all",
        help="comma-separated GNN families, or 'all' (default: all five)",
    )
    sweep.add_argument(
        "--backends",
        type=_names("backends", executor_names(), every=True),
        default="all",
        help=(
            "comma-separated executor backends, or 'all' "
            f"(default: {', '.join(executor_names())})"
        ),
    )
    sweep.add_argument(
        "--designs",
        type=_names("designs", sorted(DESIGN_PRESETS), fold=str.upper),
        default=None,
        help="comma-separated design points A-E to sweep as configurations "
        "(default: the GNNIE configuration); baseline platforms model fixed "
        "silicon and are swept once regardless",
    )
    sweep.add_argument(
        "--chips",
        type=_counts,
        default="1",
        help="comma-separated chip counts to sweep as a scale-out axis "
        "(e.g. '1,4,16'); counts above 1 apply only to backends that "
        "support scale-out (default: 1)",
    )
    sweep.add_argument(
        "--max-attempts",
        type=_count,
        default=2,
        metavar="N",
        help="executions a failing group is charged before it degrades / "
        "fails permanently (default: 2)",
    )
    sweep.add_argument(
        "--timeout",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per dispatched group under --jobs > 1; an "
        "expired group's worker is terminated and the group charged one "
        "attempt (default: no timeout)",
    )
    sweep.add_argument(
        "--strict",
        action="store_true",
        help="raise one SweepError aggregating every permanent failure "
        "instead of landing explicit failed rows",
    )
    sweep.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="arm a deterministic fault-injection plan: a JSON file path or "
        "inline JSON (chaos testing; see repro.faults)",
    )

    store_parser = subparsers.add_parser(
        "store",
        help="inspect and heal a result store (verify / repair / compact)",
    )
    store_subparsers = store_parser.add_subparsers(dest="store_command", required=True)
    for action, description in (
        ("verify", "read-only health report; exit 1 if damage is found"),
        ("repair", "excise corrupt lines into a .quarantine sidecar, drop a partial tail"),
        ("compact", "rewrite one canonical checksummed line per key (last write wins)"),
    ):
        _command(store_subparsers, action, _cmd_store, description, report).add_argument(
            "--store", required=True, help="result store path (JSONL)"
        )

    tune = command(
        "tune",
        _cmd_tune,
        "closed-loop autotuner: sweep -> aggregate -> propose over generations",
        workload,
        family,
        _fleet_group("tune.jsonl"),
        report,
    )
    tune.add_argument(
        "--generations", type=_count, default=4, help="generations of the closed loop"
    )
    tune.add_argument(
        "--population", type=_count, default=6, help="candidate configurations per generation"
    )
    tune.add_argument(
        "--mac-budget",
        type=_count,
        default=1280,
        help="total-MAC admissibility budget for proposed allocations",
    )

    return parser


def _graph(args: argparse.Namespace):
    return build_dataset(args.dataset, scale=args.scale, seed=args.seed)


def _config(args: argparse.Namespace) -> AcceleratorConfig:
    return design_preset(args.design) if args.design else AcceleratorConfig()


def _run_fleet(args: argparse.Namespace, label: str, metadata: dict, run: Callable):
    """Return ``run(tracer, metrics)``, traced when ``--trace`` names a file.

    Under ``--trace`` the fleet's spans and metrics are merged into one
    Chrome trace (one track per worker process) labelled with ``metadata``.
    """
    if not args.trace:
        return run(None, None)
    from repro.obs import MetricsRegistry, Tracer, write_chrome_trace

    tracer = Tracer()
    metrics = MetricsRegistry()
    result = run(tracer, metrics)
    write_chrome_trace(
        args.trace, tracer.records, track="pid", metrics=metrics, metadata=metadata
    )
    print(f"{label} trace written to {args.trace}", file=sys.stderr)
    return result


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in dataset_names():
        spec = dataset_spec(name)
        rows.append(
            {
                "dataset": spec.name,
                "abbrev": spec.abbreviation,
                "vertices": spec.num_vertices,
                "edges": spec.num_edges,
                "features": spec.feature_length,
                "labels": spec.num_labels,
                "feature_sparsity_pct": round(100 * spec.feature_sparsity, 2),
                "default_scale": spec.default_scale,
            }
        )
    print(format_table(rows, title="Registered datasets (Table II)"))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    graph, config = _graph(args), _config(args)
    result = GNNIEExecutor(config).execute(lower(args.model, graph), graph)
    if args.json:
        print(result_to_json(result))
        return 0
    print(format_table([result.summary()], title=f"GNNIE {args.model.upper()} on {graph.name}"))
    print()
    print(format_table(phase_table(result), title="Per-phase breakdown"))
    if args.roofline:
        summary = roofline_analysis(result, config)
        rows = [
            {
                "layer": phase.layer_index,
                "phase": phase.phase,
                "cycles": phase.total_cycles,
                "intensity_macs_per_byte": phase.arithmetic_intensity,
                "bound": phase.bound,
            }
            for phase in summary.phases
        ]
        print()
        print(format_table(rows, title="Roofline classification"))
        print(f"compute-bound fraction: {summary.compute_bound_fraction:.2f}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        flame_rows,
        metrics_to_csv,
        metrics_to_json,
        write_chrome_trace,
    )

    graph, config = _graph(args), _config(args)
    tracer = Tracer()
    metrics = MetricsRegistry()
    result = GNNIEExecutor(config, tracer=tracer, metrics=metrics).execute(
        lower(args.model, graph), graph
    )

    metadata = {
        "dataset": graph.name,
        "family": args.model,
        "config": config.name,
        "total_cycles": result.total_cycles,
        "latency_seconds": result.latency_seconds,
    }
    trace_path = None
    if args.trace_out:
        trace_path = write_chrome_trace(
            args.trace_out,
            tracer.records,
            track="layer",
            metrics=metrics,
            metadata=metadata,
        )
    if args.metrics_out:
        text = (
            metrics_to_csv(metrics)
            if args.metrics_out.endswith(".csv")
            else metrics_to_json(metrics) + "\n"
        )
        with open(args.metrics_out, "w") as handle:
            handle.write(text)

    flame = flame_rows(tracer.records)
    if args.json:
        print(
            json.dumps(
                {
                    "summary": result.summary(),
                    "spans": flame,
                    "metrics": metrics.snapshot(),
                    "trace": str(trace_path) if trace_path else None,
                },
                indent=2,
            )
        )
        return 0
    print(
        format_table(
            [result.summary()], title=f"GNNIE {args.model.upper()} on {graph.name}"
        )
    )
    print()
    print(format_table(flame, title="Span attribution (modeled cycles + host time)"))
    snapshot = metrics.snapshot()
    if snapshot:
        rows = [
            {
                "metric": entry["name"],
                "kind": entry["kind"],
                "labels": ";".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
                or "-",
                "value": entry["value"],
            }
            for entry in snapshot
        ]
        print()
        print(format_table(rows, title="Metrics"))
    if trace_path is not None:
        print(f"\nChrome trace written to {trace_path} (load in Perfetto or chrome://tracing)")
    return 0


def _check_plans(plans: "list[tuple[str, object]]") -> int:
    """Verify labeled plans, printing violations; 0 when all are clean."""
    from repro.check import plan_violations

    failures = 0
    for label, plan in plans:
        violations = plan_violations(plan)  # type: ignore[arg-type]
        if violations:
            failures += 1
            for violation in violations:
                print(f"{label}: {violation.describe()}", file=sys.stderr)
    return failures


def _cmd_plan(args: argparse.Namespace) -> int:
    graph = _graph(args)
    plan = lower(args.model, graph)
    if args.check and args.chips == 1:
        if _check_plans([(f"{args.model}/{graph.name}", plan)]):
            return 1
        print(f"plan verified clean: {args.model} on {graph.name}", file=sys.stderr)
    if args.chips == 1:
        if args.json:
            print(plan.to_json())
            return 0
        title = (
            f"Inference plan: {plan.family.upper()} on {graph.name} "
            f"({plan.num_layers} layers, {plan.in_features} -> {plan.out_features} features)"
        )
        print(format_table(plan.op_rows(), title=title))
        return 0

    from repro.scaleout import partition_workload

    workload = partition_workload(graph, plan, args.chips)
    partition = workload.partition
    if args.check:
        labeled = [(f"{args.model}/{graph.name}", plan)] + [
            (f"{args.model}/{graph.name}/chip{chip}", chip_plan)
            for chip, chip_plan in enumerate(workload.chip_plans)
        ]
        if _check_plans(labeled):
            return 1
        print(
            f"plan verified clean: {args.model} on {graph.name} "
            f"(+{len(workload.chip_plans)} chip plans)",
            file=sys.stderr,
        )
    if args.json:
        print(
            json.dumps(
                {
                    "chips": args.chips,
                    "method": partition.method,
                    "part_sizes": [int(size) for size in partition.part_sizes()],
                    "halo_vertices": [int(count) for count in partition.halo_counts],
                    "cut_edges": int(partition.cut_edges),
                    "imbalance": partition.imbalance(),
                    "plans": [
                        json.loads(chip_plan.to_json()) for chip_plan in workload.chip_plans
                    ],
                },
                indent=2,
            )
        )
        return 0
    summary_rows = [
        {
            "chip": chip,
            "vertices": int(partition.part_sizes()[chip]),
            "halo_vertices": int(partition.halo_counts[chip]),
        }
        for chip in range(args.chips)
    ]
    print(
        format_table(
            summary_rows,
            title=(
                f"Partition: {graph.name} across {args.chips} chips "
                f"({partition.method}, {partition.cut_edges} cut edges, "
                f"imbalance {partition.imbalance():.2f})"
            ),
        )
    )
    for chip, chip_plan in enumerate(workload.chip_plans):
        print()
        print(
            format_table(
                chip_plan.op_rows(),
                title=f"Chip {chip} plan: {chip_plan.family.upper()} on {graph.name}",
            )
        )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import (
        filter_findings,
        lint_paths,
        load_baseline,
        verify_registered_plans,
        write_baseline,
    )

    run_lint = args.lint or not args.plans
    run_plans = args.plans or not args.lint

    findings = lint_paths(args.paths, root=".") if run_lint else []
    baseline = load_baseline(args.baseline) if run_lint else set()
    new_findings = filter_findings(findings, baseline)
    if run_lint and args.update_baseline:
        write_baseline(findings, args.baseline)
        new_findings = []

    plan_rows = verify_registered_plans() if run_plans else []
    bad_plans = [row for row in plan_rows if not row["ok"]]

    ok = not new_findings and not bad_plans
    if args.json:
        print(
            json.dumps(
                {
                    "ok": ok,
                    "lint": {
                        "findings": [finding.to_dict() for finding in findings],
                        "baselined": len(findings) - len(new_findings),
                        "new": [finding.to_dict() for finding in new_findings],
                    }
                    if run_lint
                    else None,
                    "plans": plan_rows if run_plans else None,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0 if ok else 1

    if run_lint:
        for finding in findings:
            marker = "" if finding.key() not in baseline else " (baselined)"
            print(f"{finding.describe()}{marker}")
        print(
            f"lint: {len(findings)} finding(s), "
            f"{len(new_findings)} not in baseline"
        )
    if run_plans:
        for row in bad_plans:
            for violation in row["violations"]:
                print(f"{row['family']}/{row['dataset']}: {violation}", file=sys.stderr)
        print(
            f"plans: {len(plan_rows)} family x dataset pair(s) verified, "
            f"{len(bad_plans)} with violations"
        )
    if not ok:
        print("repro check: FAILED", file=sys.stderr)
        return 1
    print("repro check: ok")
    return 0


#: ``repro compare`` backends in display order (``executor_names()`` is
#: alphabetical): GNNIE first, then the paper's comparison platforms.
_COMPARE_BACKENDS = ("gnnie", "pyg-cpu", "pyg-gpu", "hygcn", "awb-gcn", "engn")


def _cmd_compare(args: argparse.Namespace) -> int:
    graph, config = _graph(args), _config(args)
    # One sweep group over the CLI-built graph: the GNNIE fleet at --chips,
    # the baselines single-chip (they model fixed single-device silicon).
    cells = [
        SweepCell(
            args.dataset,
            args.scale,
            args.seed,
            args.model,
            backend,
            config,
            chips=args.chips if backend == "gnnie" else 1,
        )
        for backend in _COMPARE_BACKENDS
    ]
    gnnie, *baselines = [row for row, _, _ in run_batch_timed(cells, graph)]
    rows = [
        {
            "platform": "GNNIE" if args.chips == 1 else f"GNNIE x{args.chips}",
            "supported": True,
            "latency_ms": round(gnnie["metrics"]["latency_seconds"] * 1e3, 4),
            "speedup": 1.0,
        }
    ]
    for row in baselines:
        supported = row["supported"]
        rows.append(
            {
                "platform": executor(row["backend"]).name,
                "supported": supported,
                "latency_ms": (
                    round(row["metrics"]["latency_seconds"] * 1e3, 4) if supported else None
                ),
                "speedup": (
                    round(speedup_entry(row, gnnie)["speedup"], 2) if supported else None
                ),
            }
        )
    if args.json:
        report = {"dataset": graph.name, "model": args.model.upper(), "rows": rows}
        if args.chips != 1:
            report["chips"] = args.chips
        print(json.dumps(report, indent=2))
        return 0
    table_rows = [
        {
            "platform": row["platform"],
            "latency_ms": row["latency_ms"] if row["supported"] else "unsupported",
            "speedup": row["speedup"] if row["supported"] else "-",
        }
        for row in rows
    ]
    print(
        format_table(table_rows, title=f"{args.model.upper()} on {graph.name}: GNNIE vs baselines")
    )
    return 0


def _cmd_designs(args: argparse.Namespace) -> int:
    graph = _graph(args)
    plan = lower(args.model, graph)
    rows = []
    for name in ("A", "B", "C", "D", "E"):
        config = design_preset(name)
        result = GNNIEExecutor(config).execute(plan, graph)
        rows.append(
            {
                "design": config.name,
                "total_macs": config.total_macs,
                "cycles": result.total_cycles,
                "latency_us": round(result.latency_seconds * 1e6, 2),
                "energy_uJ": round(result.energy_joules * 1e6, 2),
            }
        )
    print(format_table(rows, title=f"Design points A-E: {args.model.upper()} on {graph.name}"))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    graph = _graph(args)
    config = AcceleratorConfig().resolve_input_buffer(graph.name)
    capacity, record_bytes = input_buffer_capacity(graph.adjacency, config, args.feature_length)
    overrides = {
        "victim_entries": args.victim_entries,
        "miss_entries": args.miss_entries,
        "stream_buffers": args.stream_buffers,
        "stream_depth": args.stream_depth,
    }
    sizing = MissPathConfig(
        **{key: value for key, value in overrides.items() if value is not None}
    )
    policies = sorted(TRACE_POLICIES) if args.policy == "all" else [args.policy]
    rows = miss_path_ablation_rows(
        graph.adjacency,
        capacity=capacity,
        bytes_per_vertex=record_bytes,
        policies=policies,
        mechanisms=tuple(dict.fromkeys(args.mechanism)),
        miss_config=sizing,
        dataset=graph.name,
    )
    title = (
        f"Miss-path hierarchy on {graph.name} "
        f"(buffer capacity {capacity} vertices, record {record_bytes} B)"
    )
    print(format_table(rows, title=title))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import geomean_table_rows

    retry = RetryPolicy(
        max_attempts=args.max_attempts,
        timeout_seconds=args.timeout,
        failed_rows=not args.strict,
    )
    if args.faults:
        from repro.faults import FaultPlan, install_plan

        # Validate eagerly so a bad plan fails here, not inside a worker.
        if args.faults.lstrip().startswith("{"):
            FaultPlan.from_json(args.faults)
        else:
            with open(args.faults) as handle:
                FaultPlan.from_json(handle.read())
        install_plan(args.faults)
    store = ResultStore(args.store, resume=not args.no_resume)
    matrix = ScenarioMatrix.build(
        args.datasets,
        args.models,
        backends=args.backends,
        configs=[design_preset(name) for name in args.designs] if args.designs else None,
        scale=args.scale,
        seed=args.seed,
        chips=args.chips,
    )

    started = time.perf_counter()

    def progress(cell, row, done, total, cached, wall_s):
        if is_failed_row(row):
            status = f"failed ({row['error']['type']}, {row['attempts']} attempts)"
        else:
            status = "ok" if row["supported"] else "unsupported"
        status += " (resumed)" if cached else f" ({wall_s:.2f}s)"
        elapsed = time.perf_counter() - started
        rate = done / elapsed if elapsed > 0 else 0.0
        eta = (total - done) / rate if rate > 0 else 0.0
        print(
            f"  [{done}/{total}] {cell.describe()}: {status} "
            f"| {rate:.1f} rows/s, eta {eta:.0f}s",
            file=sys.stderr,
        )

    try:
        summary = _run_fleet(
            args,
            "fleet",
            {"command": "sweep", "jobs": args.jobs, "cells": len(matrix)},
            lambda tracer, metrics: run_sweep(
                matrix,
                store=store,
                jobs=args.jobs,
                progress=progress,
                tracer=tracer,
                metrics=metrics,
                retry=retry,
            ),
        )
    except SweepError as error:  # --strict with permanent failures
        print(f"sweep failed: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary.as_dict(), indent=2))
        return 0
    fault_note = ""
    if summary.failed or summary.retries or summary.timeouts or summary.pool_rebuilds:
        fault_note = (
            f", {summary.failed} failed [{summary.retries} retries, "
            f"{summary.timeouts} timeouts, {summary.pool_rebuilds} pool rebuilds]"
        )
    print(
        f"sweep: {summary.total} cells ({summary.executed} executed, "
        f"{summary.skipped} resumed, {summary.unsupported} unsupported"
        f"{fault_note}) "
        f"in {summary.wall_seconds:.2f}s ({summary.rows_per_second:.1f} rows/s) "
        f"-> {summary.store_path}"
    )
    rows = geomean_table_rows(summary.rows)
    if rows:
        print()
        print(format_table(rows, title="GNNIE geomean speedup / energy gain per backend"))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    action = {"verify": verify_store, "repair": repair_store, "compact": compact_store}[
        args.store_command
    ]
    report = action(args.store)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(
            f"{report.action} {report.path}: {report.lines} line(s), "
            f"{report.rows} row(s) ({report.failed_rows} failed, "
            f"{report.duplicate_keys} duplicate key(s), "
            f"{report.unchecksummed_rows} without checksum)"
        )
        for number, reason in report.corrupt:
            print(f"  corrupt line {number}: {reason}")
        if report.partial_tail:
            print("  partial tail (torn final write)")
        if report.removed_lines:
            print(f"  removed {report.removed_lines} line(s)")
        if report.quarantine_path:
            print(f"  quarantined evidence -> {report.quarantine_path}")
    if args.store_command == "verify":
        return 0 if report.clean else 1
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.analysis import tune_table_rows
    from repro.analysis.tune_report import tune_report
    from repro.tune import TuneSpec, run_tune

    spec = TuneSpec(
        dataset=args.dataset,
        family=args.model,
        scale=args.scale,
        seed=args.seed,
        generations=args.generations,
        population=args.population,
        mac_budget=args.mac_budget,
    )
    store = ResultStore(args.store, resume=not args.no_resume)
    result = _run_fleet(
        args,
        "tuning",
        {"command": "tune", "dataset": spec.dataset, "family": spec.family},
        lambda tracer, metrics: run_tune(
            spec,
            store=store,
            jobs=args.jobs,
            log=lambda line: print(line, file=sys.stderr),
            tracer=tracer,
            metrics=metrics,
        ),
    )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
        return 0
    print(
        f"tune: {len(result.generations)} generations, "
        f"{result.evaluated_cells} unique cells "
        f"({result.executed_cells} executed, "
        f"{result.evaluated_cells - result.executed_cells} resumed) -> {result.store_path}"
    )
    report = tune_report(
        store, dataset=spec.dataset, family=spec.family, baseline=spec.baseline
    )
    rows = tune_table_rows(report)
    if rows:
        print()
        print(
            format_table(
                rows,
                title=f"Autotuned designs by β ({spec.family.upper()} on {spec.dataset}, "
                f"baseline {spec.baseline.name})",
            )
        )
    if result.best is not None:
        print(f"\nbest design: {result.best['name']} (β = {result.best['beta']:.4f})")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, KeyError) as error:
        # A bad user-supplied file, store or spec: one argparse-style line.
        message = error.args[0] if isinstance(error, KeyError) and error.args else error
        print(f"{args.prog}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
