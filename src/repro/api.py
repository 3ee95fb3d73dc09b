"""The stable public surface of the reproduction: ``import repro.api``.

Everything external code should need lives here under one flat,
versioned namespace: machine construction, the DMA mapping protocol,
the Figure 12 runner, and the observability bus.  Names in ``__all__``
are covered by the usual deprecation policy — anything else in the
package is internal and may move without notice.

Quick start::

    from repro.api import MLX_SETUP, RunConfig, run_mode_sweep

    results = run_mode_sweep(MLX_SETUP, "stream", config=RunConfig(fast=True))
    for mode, r in results.items():
        print(mode.label, f"{r.gbps:.1f} Gbps")

All run-shaping knobs (sizing, datapath build, shards, observation,
timeline window, tenancy scenario) travel in one frozen
:class:`~repro.config.RunConfig`, passed as ``config=`` (see
``repro.config``).

Tracing a run::

    from repro.api import TRACE, RunConfig, export_all, run_benchmark

    TRACE.enable()
    try:
        run_benchmark(MLX_SETUP, Mode.RIOMMU, "stream",
                      config=RunConfig(fast=True))
        export_all(TRACE, "run.jsonl")   # + run.chrome.json, run.metrics.json
    finally:
        TRACE.disable()

Observing a run (attribution + protection audit, no trace retention)::

    from repro.api import MLX_SETUP, Mode, RunConfig, run_benchmark

    result = run_benchmark(MLX_SETUP, Mode.DEFER, "stream",
                           config=RunConfig(fast=True, observe=True))
    print(result.obs["profile"]["reconciles"])     # True — bit-exact
    print(result.obs["audit"]["stale_window_dmas"])  # > 0 under defer

Lite telemetry (keeps the columnar build and shards active)::

    from repro.api import MLX_SETUP, Mode, RunConfig, run_benchmark

    result = run_benchmark(MLX_SETUP, Mode.RIOMMU, "stream",
                           config=RunConfig(fast=True, observe="lite"))
    print(result.telemetry["profile"]["reconciles"])  # True — bit-exact
    print(result.telemetry["bursts"])                 # flight-recorder coverage
"""

from __future__ import annotations

from repro.config import RunConfig
from repro.dma import (
    DmaDirection,
    MapRequest,
    MapResult,
    UnmapRequest,
    UnmapResult,
)
from repro.kernel.machine import Machine
from repro.modes import ALL_MODES, BASELINE_MODES, Mode
from repro.analysis.ablate import (
    ABLATION_SCHEMA,
    AblationPlan,
    AblationReport,
    build_plan,
    build_report,
    execute_plan,
    select_components,
    validate_ablation_report,
)
from repro.analysis.dashboard import RunReport, run_report
from repro.sim.components import (
    ARM_SCHEMA,
    COMPONENTS,
    ArmSpec,
    ComponentSpec,
    arm_id,
    register_component,
    run_arm,
)
from repro.obs import (
    DIFF_SCHEMA,
    EVENT_TYPES,
    HEARTBEAT_ENV,
    LITE,
    OBS_SCHEMA,
    OBSERVE_ENV,
    TELEMETRY_SCHEMA,
    TIMELINE_SCHEMA,
    TRACE,
    CycleProfiler,
    DiffReport,
    FlightRecorder,
    Log2Histogram,
    MetricsRegistry,
    ProtectionAuditor,
    RunMonitor,
    RunObserver,
    TimelineSampler,
    Tracer,
    collect_machine_metrics,
    diff_metrics,
    diff_timelines,
    diff_traces,
    export_all,
    merge_timelines,
    observe_requested,
    parse_filter,
    read_timeline,
    render_timeline,
    timeline_total,
    validate_jsonl,
    slo_burn_rate,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
    write_telemetry,
    write_timeline,
)
from repro.sim.multiring import MultiRingStream
from repro.sim.registry import BENCHMARKS, BenchmarkSpec, register_benchmark
from repro.sim.results import RunResult, normalized, normalized_cpu
from repro.sim.runner import (
    BENCHMARK_NAMES,
    EvaluationGrid,
    make_benchmark,
    run_benchmark,
    run_figure12,
    run_mode_sweep,
    run_with_config,
)
from repro.sim.tenancy import (
    SCENARIO_PRESETS,
    ScenarioSpec,
    TenantScenario,
    TenantSpec,
    preset_scenario,
)
from repro.sim.scheduler import (
    SHARDS_ENV,
    EventScheduler,
    EventSim,
    load_checkpoint,
    resolve_shards,
    run_events,
    save_checkpoint,
    set_shards,
)
from repro.sim.setups import ALL_SETUPS, BRCM_SETUP, MLX_SETUP, Setup, setup_by_name

__all__ = [
    # machine + mapping protocol
    "DmaDirection",
    "Machine",
    "MapRequest",
    "MapResult",
    "UnmapRequest",
    "UnmapResult",
    # modes and setups
    "ALL_MODES",
    "ALL_SETUPS",
    "BASELINE_MODES",
    "BRCM_SETUP",
    "MLX_SETUP",
    "Mode",
    "Setup",
    "setup_by_name",
    # benchmarks and the Figure 12 runner
    "BENCHMARKS",
    "BENCHMARK_NAMES",
    "BenchmarkSpec",
    "EvaluationGrid",
    "RunResult",
    "make_benchmark",
    "normalized",
    "normalized_cpu",
    "register_benchmark",
    "run_benchmark",
    "run_figure12",
    "run_mode_sweep",
    "run_with_config",
    # unified run configuration
    "RunConfig",
    # multi-tenant contention scenario
    "SCENARIO_PRESETS",
    "ScenarioSpec",
    "TenantScenario",
    "TenantSpec",
    "preset_scenario",
    # event-scheduled kernel & sharding
    "SHARDS_ENV",
    "EventScheduler",
    "EventSim",
    "MultiRingStream",
    "load_checkpoint",
    "resolve_shards",
    "run_events",
    "save_checkpoint",
    "set_shards",
    # observability bus
    "EVENT_TYPES",
    "MetricsRegistry",
    "TRACE",
    "Tracer",
    "collect_machine_metrics",
    "export_all",
    "parse_filter",
    "validate_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics",
    # ablation engine
    "ABLATION_SCHEMA",
    "ARM_SCHEMA",
    "AblationPlan",
    "AblationReport",
    "ArmSpec",
    "COMPONENTS",
    "ComponentSpec",
    "arm_id",
    "build_plan",
    "build_report",
    "execute_plan",
    "register_component",
    "run_arm",
    "select_components",
    "validate_ablation_report",
    # attribution, audit & reporting
    "CycleProfiler",
    "Log2Histogram",
    "OBS_SCHEMA",
    "OBSERVE_ENV",
    "ProtectionAuditor",
    "RunObserver",
    "RunReport",
    "observe_requested",
    "run_report",
    # lite telemetry & live monitoring
    "HEARTBEAT_ENV",
    "LITE",
    "TELEMETRY_SCHEMA",
    "FlightRecorder",
    "RunMonitor",
    "slo_burn_rate",
    "write_telemetry",
    # timelines & diffing
    "DIFF_SCHEMA",
    "DiffReport",
    "TIMELINE_SCHEMA",
    "TimelineSampler",
    "diff_metrics",
    "diff_timelines",
    "diff_traces",
    "merge_timelines",
    "read_timeline",
    "render_timeline",
    "timeline_total",
    "write_timeline",
]
