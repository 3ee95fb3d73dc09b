"""Observability: the structured tracing & metrics bus (see ISSUE 3).

``TRACE`` is the process-local event bus every hot layer emits into;
:class:`MetricsRegistry` unifies the per-layer stats objects into flat,
mergeable snapshots; :mod:`repro.obs.export` turns a captured trace
into JSONL / Chrome ``trace_event`` / metrics-summary artefacts.

Tracing is strictly observational — enabling it never changes a
modelled number — and costs one attribute check per site when off.

``LITE`` is the counters-first telemetry tier: burst-granular
counters, a flight recorder and a live run monitor that compose with
the columnar datapath and grid parallelism instead of vetoing them —
``RunConfig(observe="lite")``.
"""

from repro.obs.export import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    chrome_trace,
    export_all,
    jsonl_records,
    metrics_summary,
    read_jsonl,
    validate_jsonl,
    validate_records,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro.obs.audit import ProtectionAuditor
from repro.obs.diffing import (
    DIFF_SCHEMA,
    DiffReport,
    diff_metrics,
    diff_timelines,
    diff_traces,
    validate_diff_report,
)
from repro.obs.lite import (
    HEARTBEAT_ENV,
    TELEMETRY_EVENTS,
    TELEMETRY_SCHEMA,
    LITE,
    FlightRecorder,
    LiteCounters,
    LiteTelemetry,
    RunMonitor,
    slo_burn_rate,
    validate_telemetry_records,
    write_telemetry,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    Log2Histogram,
    MetricsRegistry,
    collect_machine_metrics,
    log2_bucket,
)
from repro.obs.profile import (
    OBS_SCHEMA,
    OBSERVE_ENV,
    CycleProfiler,
    RunObserver,
    observe_requested,
)
from repro.obs.timeline import (
    TIMELINE_SCHEMA,
    TIMELINE_WINDOW_ENV,
    TimelineSampler,
    merge_timelines,
    read_timeline,
    render_timeline,
    timeline_total,
    validate_timeline_jsonl,
    validate_timeline_records,
    window_cycles_requested,
    write_timeline,
)
from repro.obs.tracer import EVENT_TYPES, TRACE, Tracer, parse_filter

__all__ = [
    "DIFF_SCHEMA",
    "EVENT_TYPES",
    "HEARTBEAT_ENV",
    "LITE",
    "METRICS_SCHEMA",
    "OBS_SCHEMA",
    "OBSERVE_ENV",
    "TELEMETRY_EVENTS",
    "TELEMETRY_SCHEMA",
    "TIMELINE_SCHEMA",
    "TIMELINE_WINDOW_ENV",
    "TRACE",
    "TRACE_SCHEMA",
    "Counter",
    "CycleProfiler",
    "DiffReport",
    "FlightRecorder",
    "Histogram",
    "LiteCounters",
    "LiteTelemetry",
    "Log2Histogram",
    "MetricsRegistry",
    "ProtectionAuditor",
    "RunMonitor",
    "RunObserver",
    "TimelineSampler",
    "Tracer",
    "chrome_trace",
    "collect_machine_metrics",
    "diff_metrics",
    "diff_timelines",
    "diff_traces",
    "export_all",
    "jsonl_records",
    "log2_bucket",
    "merge_timelines",
    "metrics_summary",
    "observe_requested",
    "parse_filter",
    "read_jsonl",
    "read_timeline",
    "render_timeline",
    "slo_burn_rate",
    "timeline_total",
    "validate_diff_report",
    "validate_jsonl",
    "validate_records",
    "validate_telemetry_records",
    "validate_timeline_jsonl",
    "validate_timeline_records",
    "window_cycles_requested",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics",
    "write_telemetry",
]
