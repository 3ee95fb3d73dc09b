"""Command-line interface: ``python -m repro <experiment> [options]``.

Each subcommand regenerates one of the paper's artefacts (or an
ablation) and prints it in the paper's layout.  ``all`` runs the full
reproduction, ``list`` shows what is available.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, Optional, Sequence

from repro.config import BUILDS, DATAPATH_ENV, OBSERVE_ENV

EXPERIMENTS: Dict[str, str] = {
    "table1": "E1: map/unmap cycle breakdown (paper Table 1)",
    "figure7": "E2: cycles per packet by component (paper Figure 7)",
    "figure8": "E3: throughput vs cycles/packet (paper Figure 8)",
    "figure12": "E4: the full evaluation grid (paper Figure 12)",
    "table2": "E5: normalised performance (paper Table 2)",
    "table3": "E6: Netperf RR round-trip times (paper Table 3)",
    "miss-penalty": "E7: IOTLB miss penalty (paper section 5.3)",
    "prefetchers": "E8: TLB prefetchers vs rIOTLB (paper section 5.4)",
    "sata": "E9: SATA/Bonnie++ sidebar (paper section 4)",
    "passthrough": "E10: HWpt vs SWpt revalidation (paper section 5.1)",
    "ablations": "A1-A4: design-choice sensitivity sweeps "
    "(deprecated: use `repro ablate`)",
    "micro": "A5: mode ordering under uncalibrated (MICRO) costs",
    "safety": "A6: stale-DMA window per mode (safety trade-off)",
}


def _run_experiment(name: str, fast: bool, jobs: Optional[int] = None) -> str:
    """Dispatch one experiment; returns its rendered text.

    ``jobs`` parallelises the grid-shaped experiments (figure12, table2,
    ablations) over worker processes; the rest run serially regardless.
    """
    # Imports are deferred so `repro list --help` stays instant.
    from repro import analysis

    if name == "table1":
        return analysis.run_table1(
            packets=200 if fast else 600, warmup=50 if fast else 150
        ).render()
    if name == "figure7":
        return analysis.run_figure7(
            packets=200 if fast else 600, warmup=50 if fast else 150
        ).render()
    if name == "figure8":
        result = analysis.run_figure8(packets=150 if fast else 400)
        return (
            f"{result.render()}\n"
            f"max model-vs-busywait error: {result.max_model_error():.2%}"
        )
    if name == "figure12":
        from repro.analysis.figure12 import run_figure12_analysis

        return run_figure12_analysis(fast=fast, jobs=jobs).render()
    if name == "table2":
        return analysis.run_table2(fast=fast, jobs=jobs).render()
    if name == "table3":
        return analysis.run_table3(
            transactions=80 if fast else 200, warmup=20 if fast else 40
        ).render()
    if name == "miss-penalty":
        return analysis.run_miss_penalty(sends=1500 if fast else 4000).render()
    if name == "prefetchers":
        return analysis.run_prefetcher_study(packets=150 if fast else 400).render()
    if name == "sata":
        return analysis.run_sata(requests=10 if fast else 40).render()
    if name == "passthrough":
        return analysis.run_passthrough(packets=150 if fast else 300).render()
    if name == "ablations":
        packets = 150 if fast else 300
        parts = [
            analysis.sweep_burst_length(packets=packets, jobs=jobs).render(),
            analysis.sweep_defer_threshold(packets=packets, jobs=jobs).render(),
            analysis.ablate_prefetch(packets=packets, jobs=jobs).render(),
            analysis.sweep_alloc_pathology(
                requests=60 if fast else 120, jobs=jobs
            ).render(),
            analysis.sweep_ring_sizing(packets=packets * 2, jobs=jobs).render(),
            analysis.sweep_iotlb_capacity(
                sends=1000 if fast else 4000, jobs=jobs
            ).render(),
        ]
        return "\n\n".join(parts)
    if name == "micro":
        return analysis.run_micro_validation(packets=150 if fast else 300).render()
    if name == "safety":
        return analysis.run_safety(packets=100 if fast else 200).render()
    raise KeyError(name)


def _run_profiled(name: str, fast: bool, jobs: Optional[int], top: int) -> str:
    """Run one experiment under cProfile; append the hot-spot table.

    Profiles the *simulator*, not the simulated hardware — the cycle
    model's numbers are unaffected.  Worker subprocesses of the grid
    experiments are not profiled (cProfile is per-process), so profile
    those serially (no ``--jobs``) for a complete picture.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        text = _run_experiment(name, fast, jobs)
    finally:
        profiler.disable()
    table = io.StringIO()
    stats = pstats.Stats(profiler, stream=table)
    stats.sort_stats("cumulative").print_stats(max(top, 1))
    return f"{text}\n\n--- cProfile: top {max(top, 1)} by cumulative time ---\n{table.getvalue().rstrip()}"


def _mode_path(path: str, label: str) -> str:
    """Insert a run-mode label before the path's extension."""
    stem, ext = os.path.splitext(path)
    return f"{stem}.{label}{ext or '.jsonl'}"


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the rIOMMU paper's evaluation (ASPLOS'15).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list", "report", "tenants"],
        help="experiment to run ('list' to describe them, 'all' for "
        "everything, 'report' for the observed-grid run report, "
        "'tenants' for the multi-tenant interference scenario)",
    )
    parser.add_argument(
        "--fast", action="store_true", help="smaller runs (noisier, quicker)"
    )
    parser.add_argument(
        "--datapath",
        choices=BUILDS,
        default=None,
        help="simulator datapath build (default: $REPRO_DATAPATH, else "
        "columnar) — scalar is the reference per-event loop, columnar "
        "the batched, observer-free mode-specialized hot loop; both are "
        "bit-identical",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for grid experiments (figure12, table2, "
        "ablations); 0 = one per CPU, default serial — results are "
        "identical for any value",
    )
    parser.add_argument(
        "--observe",
        choices=("off", "lite", "full"),
        default=None,
        help="telemetry tier (default: $REPRO_OBSERVE, else off) — lite "
        "keeps the columnar datapath and grid parallelism "
        "active (burst-granular counters + flight recorder); full is "
        "the per-event trace bus, which forces scalar/serial",
    )
    parser.add_argument(
        "--watch",
        nargs="?",
        const=1.0,
        default=None,
        type=float,
        metavar="SECS",
        help="emit live heartbeats (progress, events/sec, ETA, per-"
        "tenant latency quantiles and SLO burn-rate) to stderr every "
        "SECS seconds (default 1); implies --observe lite",
    )
    parser.add_argument(
        "--telemetry",
        metavar="FILE",
        default=None,
        help="with 'tenants': dump the run's lite telemetry as "
        "telemetry/v1 JSONL to FILE (one file per mode, mode label "
        "inserted before the extension); implies --observe lite",
    )
    parser.add_argument(
        "-o", "--output", metavar="FILE", help="also write the artefact to FILE"
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const=20,
        default=None,
        type=int,
        metavar="N",
        help="profile the run under cProfile and print the top N "
        "functions by cumulative time (default 20)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record the run's event trace to FILE (JSONL), plus "
        "FILE-derived .chrome.json (load in Perfetto/chrome://tracing) "
        "and .metrics.json siblings; forces grid experiments serial",
    )
    parser.add_argument(
        "--trace-filter",
        metavar="EVENTS",
        default=None,
        help="comma-separated event types to record (default: all); "
        "see docs/observability.md for the taxonomy",
    )
    parser.add_argument(
        "--html",
        metavar="FILE",
        default=None,
        help="with 'report': also write the self-contained HTML report "
        "to FILE",
    )
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="with 'report': render per-mode ASCII timeline sparklines "
        "(cycles, throughput, hit rate, open windows per cycle window)",
    )
    parser.add_argument(
        "--scenario",
        metavar="NAME|FILE",
        default="balanced",
        help="with 'tenants': scenario preset (balanced, aggressor, "
        "critical) or a ScenarioSpec JSON file (default: balanced); "
        "'critical' gates the exit code on the victim's p99 SLO",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    raw = list(sys.argv[1:] if argv is None else argv)

    # Verbs with their own grammar dispatch before the experiment
    # parser: `repro diff A B [...]`, `repro ablate [...]` and
    # `repro obs validate PATH [...]`.
    if raw and raw[0] == "diff":
        from repro.analysis.diff import main as diff_main

        return diff_main(raw[1:])
    if raw and raw[0] == "ablate":
        from repro.analysis.ablate import main as ablate_main

        return ablate_main(raw[1:])
    if raw and raw[0] == "obs":
        if len(raw) >= 2 and raw[1] == "validate":
            from repro.obs.validate import main as validate_main

            return validate_main(raw[2:])
        print(
            "usage: repro obs validate ARTIFACT|DIR [...]", file=sys.stderr
        )
        return 2

    args = build_parser().parse_args(raw)

    # --datapath/--observe are exported once, here, before
    # anything runs: every entry point resolves its RunConfig through
    # RunConfig.from_env() and hands it down by argument.  --watch and
    # --telemetry only make sense with lite telemetry, so they imply it
    # when --observe is not given explicitly.
    observe = args.observe
    if observe is None and (args.watch is not None or args.telemetry):
        observe = "lite"
    if observe is not None:
        os.environ[OBSERVE_ENV] = observe
    if args.datapath is not None:
        os.environ[DATAPATH_ENV] = args.datapath
    if args.watch is not None:
        from repro.obs.lite import LITE

        LITE.monitor_defaults = {"interval": args.watch}

    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            print(f"{name:<{width}}  {EXPERIMENTS[name]}")
        print(f"{'report':<{width}}  observed-grid run report "
              "(--timeline for sparklines, --html FILE)")
        print(f"{'tenants':<{width}}  S1: multi-tenant IOMMU interference "
              "scenario (--scenario balanced|aggressor|critical|FILE.json)")
        print(f"{'ablate':<{width}}  ranked component-importance ablation "
              "over the declared registry (repro ablate --quick)")
        print(f"{'diff':<{width}}  compare two runs/artifacts, localize "
              "the first divergence (repro diff A B)")
        print(f"{'obs':<{width}}  validate observability artifacts "
              "(repro obs validate PATH|DIR ...)")
        return 0

    if args.experiment == "report":
        from repro.analysis.dashboard import run_report

        started = time.time()
        report = run_report(fast=args.fast, jobs=args.jobs)
        text = report.render(timelines=args.timeline)
        print(text)
        print(f"\n[report in {time.time() - started:.1f}s]")
        if args.html:
            report.save_html(args.html)
            print(f"html report written to {args.html}")
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
            print(f"written to {args.output}")
        # The report doubles as a gate: exact attribution + protection.
        return 0 if report.passed else 1

    if args.experiment == "tenants":
        from repro.analysis.tenancy import run_tenants
        from repro.sim.tenancy import SCENARIO_PRESETS, ScenarioSpec, preset_scenario

        if args.scenario in SCENARIO_PRESETS:
            scenario = preset_scenario(args.scenario)
        else:
            import json

            with open(args.scenario) as handle:
                try:
                    scenario = ScenarioSpec.from_dict(json.load(handle))
                except ValueError as error:
                    print(f"--scenario {args.scenario}: {error}", file=sys.stderr)
                    return 2
        started = time.time()
        result = run_tenants(scenario=scenario, fast=args.fast)
        text = result.render()
        print(text)
        print(f"\n[tenants in {time.time() - started:.1f}s]")
        if args.telemetry:
            from repro.obs.lite import write_telemetry

            written = 0
            for mode, run in result.results.items():
                if run.telemetry is None:
                    continue
                path = _mode_path(args.telemetry, mode.label)
                count = write_telemetry(run.telemetry, path)
                print(f"telemetry ({mode.label}) written to {path} "
                      f"({count} records)")
                written += 1
            if not written:
                print(
                    "no telemetry recorded (runs were not observe=lite)",
                    file=sys.stderr,
                )
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
            print(f"written to {args.output}")
        # Mixed-criticality gate: non-zero when a critical tenant's
        # p99 SLO was breached under any run mode.
        return 0 if result.passed else 1

    tracing = args.trace is not None
    if tracing:
        from repro.obs import TRACE, export_all, parse_filter

        try:
            TRACE.enable(filter=parse_filter(args.trace_filter))
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    chunks = []
    try:
        for name in names:
            started = time.time()
            if args.profile is not None:
                text = _run_profiled(name, args.fast, args.jobs, args.profile)
            else:
                text = _run_experiment(name, args.fast, args.jobs)
            chunks.append(text)
            print(text)
            print(f"[{name} in {time.time() - started:.1f}s]\n")
    finally:
        if tracing:
            TRACE.disable()
    if tracing:
        for kind, path in export_all(TRACE, args.trace).items():
            print(f"trace {kind} written to {path}")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("\n\n".join(chunks) + "\n")
        print(f"written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
