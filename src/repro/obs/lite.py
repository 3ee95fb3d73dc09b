"""Always-on lite telemetry: counters, flight recorder, live monitor.

The full observability stack (PRs 3-5) rides the per-event trace bus,
so switching it on forfeits the columnar fast builds and forces grid
runs serial.  This module is the counters-first tier that composes
with both: ``observe="lite"`` keeps ``datapath=columnar`` and
``--jobs`` active, and costs a bounded per-*burst* hook instead of a
per-*event* bus.

Three pieces, all reachable through the :data:`LITE` singleton:

* :class:`LiteCounters` — per-account cycle/event folds that reconcile
  **bit-exactly** with the full-trace :class:`~repro.obs.profile.
  CycleProfiler`.  No arithmetic of its own is needed: a
  :class:`~repro.perf.cycles.CycleAccount` folds its charge stream with
  the same ``exact_add`` arithmetic the streaming profiler replays, so
  ``account.cycles`` *is* the profiler's per-account ``measured`` dict,
  bit for bit and in the same insertion order.  Lite therefore only
  copies account state at phase boundaries: warmup totals at each
  ``account.reset()`` and measured totals at run end — zero work on the
  charge path itself.
* :class:`FlightRecorder` — a bounded per-domain ring of
  deterministically stride-sampled burst records plus the last N
  records preceding any fault or SLO breach, dumped as ``telemetry/v1``
  JSONL on demand so post-mortems don't need a re-run under trace.
* :class:`RunMonitor` — periodic heartbeats (modelled-cycle progress,
  wall-clock bursts/sec, ETA, per-tenant latency quantiles and SLO
  burn-rate from the merged ``Log2Histogram``\\ s) to stderr/JSONL.

Grid composition: grid workers inherit ``REPRO_OBSERVE=lite`` through
the environment and return their own ``result.telemetry``.

Import discipline: :mod:`repro.perf.cycles` and :mod:`repro.faults`
call into :data:`LITE` from their hot paths, so this module imports
only the stdlib and :mod:`repro.obs.metrics` at module level
(``Component`` is imported lazily inside presentation methods).
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import Log2Histogram, MetricsRegistry

#: Schema identifier stamped on telemetry summaries, JSONL dumps and
#: heartbeat records.
TELEMETRY_SCHEMA = "riommu-repro/telemetry/v1"

#: Heartbeat opt-in for non-CLI entry points: seconds between
#: heartbeats ("" disables; "0" emits at every check).
HEARTBEAT_ENV = "REPRO_HEARTBEAT"

#: Record types a ``telemetry/v1`` JSONL dump may contain.
TELEMETRY_EVENTS = frozenset(
    {
        "telemetry_meta",
        "profile",
        "metrics",
        "flight_samples",
        "flight_recent",
        "fault_capture",
        "heartbeat",
    }
)

#: Table 1 presentation order (lazy: Component imports this module's
#: caller, repro.perf.cycles, so resolve at first use).
_COMPONENT_ORDER: Optional[Tuple[str, ...]] = None


def _component_order() -> Tuple[str, ...]:
    global _COMPONENT_ORDER
    if _COMPONENT_ORDER is None:
        from repro.perf.cycles import Component

        _COMPONENT_ORDER = tuple(c.value for c in Component)
    return _COMPONENT_ORDER


def _phase_of(actor) -> Optional[int]:
    """The actor's workload phase (0 warmup / 1 measure / 2 done)."""
    phase = getattr(actor, "phase", None)
    if phase is None:
        inner = getattr(actor, "inner", None)
        if inner is not None:
            phase = getattr(inner, "phase", None)
    return phase


def _machine_of(actor):
    machine = getattr(actor, "machine", None)
    if machine is None:
        inner = getattr(actor, "inner", None)
        if inner is not None:
            machine = getattr(inner, "machine", None)
    return machine


class _Entry:
    """One registered account's live fold: a reference plus warmup state.

    Measured cycles/events are *not* mirrored here — they are read off
    the account itself when the fold is materialized, which is what
    makes the lite tier free on the charge path.
    """

    __slots__ = ("account", "warmup", "warmup_events", "resets")

    def __init__(self, account) -> None:
        self.account = account
        self.warmup: Dict[str, float] = {}
        self.warmup_events: Dict[str, int] = {}
        self.resets = 0

    def on_reset(self) -> None:
        """Fold the phase into warmup, exactly like ``_AccountFold.reset``.

        Reads the flushing ``cycles``/``events`` properties *before*
        ``CycleAccount.reset`` clears them: the account discards staged
        charges unfolded, but the profiler already folded their
        emissions, so flushing first is what keeps warmup bit-identical
        to the full-trace fold (the flush uses the same ``exact_add``).
        """
        account = self.account
        for comp, cycles in account.cycles.items():
            key = comp.value
            self.warmup[key] = self.warmup.get(key, 0.0) + cycles
        for comp, n in account.events.items():
            key = comp.value
            self.warmup_events[key] = self.warmup_events.get(key, 0) + n
        self.resets += 1

    def state(self) -> Optional[Dict[str, object]]:
        """This fold as plain picklable data; None if never charged.

        Never-charged accounts (e.g. the ``dma-api`` account a driver-
        backed DMA API replaces at construction) emit no trace events,
        so the profiler has no fold for them either — skipping keeps
        the lite fold list aligned with the profiler's first-charge
        order.
        """
        account = self.account
        cycles = {comp.value: v for comp, v in account.cycles.items()}
        if not cycles and not self.warmup:
            return None
        return {
            "acct": account.trace_id,
            "label": account.label,
            "cycles": cycles,
            "events": {comp.value: n for comp, n in account.events.items()},
            "warmup": dict(self.warmup),
            "warmup_events": dict(self.warmup_events),
            "resets": self.resets,
        }


class LiteCounters:
    """Mergeable per-account counter folds for one lite session.

    Mirrors :class:`~repro.obs.profile.CycleProfiler`'s reads
    (``total``/``by_primitive``/``by_layer``/``by_phase``/
    ``event_counts``) over the fold states of the session's accounts,
    in registration order.
    """

    def __init__(self) -> None:
        self._entries: List[_Entry] = []
        self._by_tid: Dict[int, _Entry] = {}

    # -- registration hooks ---------------------------------------------

    def register(self, account) -> None:
        entry = _Entry(account)
        self._entries.append(entry)
        self._by_tid[account.trace_id] = entry

    def on_reset(self, account) -> None:
        entry = self._by_tid.get(account.trace_id)
        if entry is not None:
            entry.on_reset()

    # -- reads -----------------------------------------------------------

    def folds(self) -> List[Dict[str, object]]:
        """Every account's fold state, in registration order."""
        out: List[Dict[str, object]] = []
        for entry in self._entries:
            state = entry.state()
            if state is not None:
                out.append(state)
        return out

    @staticmethod
    def total(folds: List[Dict[str, object]]) -> float:
        """Measured-phase cycles, summed exactly like the profiler."""
        return sum(sum(fold["cycles"].values()) for fold in folds)

    @staticmethod
    def _merge(folds, key: str, order: Tuple[str, ...]) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for fold in folds:
            for comp, value in fold[key].items():
                merged[comp] = merged.get(comp, 0) + value
        return {comp: merged[comp] for comp in order if comp in merged}

    def summary(self) -> Dict[str, object]:
        """The profile section, shaped like ``CycleProfiler.summary``."""
        folds = self.folds()
        order = _component_order()
        by_layer: Dict[str, Dict[str, float]] = {}
        for fold in folds:
            label = fold["label"]
            name = label if label is not None else f"acct-{fold['acct']}"
            layer = by_layer.setdefault(name, {})
            for comp, cycles in fold["cycles"].items():
                layer[comp] = layer.get(comp, 0.0) + cycles
        measured = self._merge(folds, "cycles", order)
        return {
            "total_cycles": self.total(folds),
            "by_primitive": measured,
            "by_layer": by_layer,
            "by_phase": {
                "warmup": self._merge(folds, "warmup", order),
                "measured": measured,
            },
            "event_counts": {
                comp: int(n)
                for comp, n in self._merge(folds, "events", order).items()
            },
            "accounts": len(folds),
        }


class FlightRecorder:
    """Bounded per-domain burst record rings with fault capture.

    Every burst appends one record ``[index, clock, phase]`` to the
    domain's ``recent`` ring; every ``stride``-th burst is additionally
    kept in the domain's ``samples`` ring.  Indices and clocks are
    modelled quantities, so the rings are deterministic.
    :meth:`capture` freezes the current ``recent`` rings — the last N
    bursts preceding a fault or SLO breach.
    """

    MAX_CAPTURES = 8

    def __init__(self, recent: int = 32, ring: int = 256, stride: int = 64) -> None:
        self.recent_n = recent
        self.ring = ring
        self.stride = stride
        #: domain -> {"count", "recent", "samples"}
        self._domains: Dict[int, Dict[str, object]] = {}
        self.faults: List[Dict[str, object]] = []

    def record(self, actor, clock: float) -> int:
        domain = actor.domain
        state = self._domains.get(domain)
        if state is None:
            state = self._domains[domain] = {
                "count": 0,
                "recent": deque(maxlen=self.recent_n),
                "samples": deque(maxlen=self.ring),
            }
        index = state["count"]
        state["count"] = index + 1
        record = [index, clock, _phase_of(actor)]
        state["recent"].append(record)
        if index % self.stride == 0:
            state["samples"].append(record)
        return index

    def capture(self, kind: str, detail: Dict[str, object]) -> None:
        """Freeze the last-N rings under a fault/breach label (bounded)."""
        if len(self.faults) >= self.MAX_CAPTURES:
            return
        self.faults.append(
            {
                "kind": kind,
                "detail": detail,
                "recent": {
                    domain: list(state["recent"])
                    for domain, state in sorted(self._domains.items())
                },
            }
        )

    def restore_domain(self, domain: int, state: Dict[str, object]) -> None:
        """Re-seed a domain's live rings (checkpoint resume): indices
        and ring contents continue where the checkpoint left them."""
        self._domains[domain] = {
            "count": state["count"],
            "recent": deque(state["recent"], maxlen=self.recent_n),
            "samples": deque(state["samples"], maxlen=self.ring),
        }

    # -- reads -----------------------------------------------------------

    def _merged(self) -> Dict[int, Dict[str, object]]:
        return {
            domain: {
                "count": state["count"],
                "recent": list(state["recent"]),
                "samples": list(state["samples"]),
            }
            for domain, state in sorted(self._domains.items())
        }

    def bursts(self) -> int:
        return sum(state["count"] for state in self._merged().values())

    def summary(self) -> Dict[str, object]:
        merged = self._merged()
        return {
            "stride": self.stride,
            "bursts": {domain: state["count"] for domain, state in merged.items()},
            "samples": {
                domain: state["samples"] for domain, state in merged.items()
            },
            "recent": {domain: state["recent"] for domain, state in merged.items()},
            "faults": list(self.faults),
        }


class RunMonitor:
    """Live heartbeats for an event-kernel run, as JSON lines.

    Checks wall-clock every ``check_every`` bursts and emits one
    heartbeat per ``interval`` seconds (``interval=0`` emits at every
    check — useful for tests and smoke jobs).  Heartbeats go to
    ``stream`` (default stderr) and optionally append to ``path``;
    every record is also retained on ``heartbeats`` for the summary.

    Per-tenant rows are derived live from each tenant actor's merged
    :class:`Log2Histogram`, including the SLO *burn rate*: the fraction
    of latency samples so far above the tenant's p99 SLO — a
    deterministic function of the merged bucket counts.  The first SLO
    breach observed triggers a flight-recorder capture.
    """

    def __init__(
        self,
        interval: float = 1.0,
        check_every: int = 64,
        stream=None,
        path: Optional[str] = None,
        clock: Optional[object] = None,
    ) -> None:
        self.interval = interval
        self.check_every = max(1, int(check_every))
        self.stream = stream
        self.path = path
        self._clock = clock if clock is not None else time.monotonic
        self.heartbeats: List[Dict[str, object]] = []
        self.clock_hz: Optional[float] = None
        self.recorder: Optional[FlightRecorder] = None
        self._start = self._clock()
        self._bursts = 0
        self._since_check = 0
        self._last_emit = self._start
        self._seen: Dict[int, object] = {}
        self._done = 0
        self._max_clock = 0.0
        self._breached: set = set()

    # -- burst hook ------------------------------------------------------

    def on_burst(self, actor, alive: bool, clock: float) -> None:
        self._bursts += 1
        key = id(actor)
        if key not in self._seen:
            self._seen[key] = actor
        if clock > self._max_clock:
            self._max_clock = clock
        if not alive:
            self._done += 1
        self._since_check += 1
        if self._since_check < self.check_every and alive:
            return
        self._since_check = 0
        now = self._clock()
        if now - self._last_emit >= self.interval:
            self._last_emit = now
            self.emit(now)

    # -- heartbeat assembly ---------------------------------------------

    def _tenant_rows(self) -> Dict[str, Dict[str, object]]:
        by_tenant: Dict[str, List[object]] = {}
        specs: Dict[str, object] = {}
        for actor in self._seen.values():
            tenant = getattr(actor, "tenant", None)
            hist = getattr(actor, "hist", None)
            if tenant is None or hist is None:
                continue
            by_tenant.setdefault(tenant.name, []).append(hist)
            specs[tenant.name] = tenant
        rows: Dict[str, Dict[str, object]] = {}
        for name in sorted(by_tenant):
            merged = Log2Histogram("latency_cycles")
            for hist in by_tenant[name]:
                merged.merge(hist)
            tenant = specs[name]
            row: Dict[str, object] = {"items": merged.count}
            scale = 1e6 / self.clock_hz if self.clock_hz else None
            if merged.count:
                pcts = merged.percentiles()
                if scale is not None:
                    row.update(
                        {
                            "p50_us": pcts["p50"] * scale,
                            "p95_us": pcts["p95"] * scale,
                            "p99_us": pcts["p99"] * scale,
                        }
                    )
            slo = getattr(tenant, "slo_p99_us", None)
            row["slo_p99_us"] = slo
            if slo is not None and scale is not None and merged.count:
                burn = slo_burn_rate(merged, slo / scale)
                row["slo_burn"] = burn
                row["slo_ok"] = row.get("p99_us", 0.0) <= slo
                if not row["slo_ok"] and name not in self._breached:
                    self._breached.add(name)
                    if self.recorder is not None:
                        self.recorder.capture(
                            "slo_breach",
                            {"tenant": name, "p99_us": row["p99_us"], "slo_p99_us": slo},
                        )
            rows[name] = row
        return rows

    def emit(self, now: Optional[float] = None) -> Dict[str, object]:
        """Assemble and write one heartbeat record."""
        if now is None:
            now = self._clock()
        wall = now - self._start
        seen = len(self._seen)
        done = self._done
        progress = done / seen if seen else 0.0
        record: Dict[str, object] = {
            "event": "heartbeat",
            "schema": TELEMETRY_SCHEMA,
            "seq": len(self.heartbeats),
            "wall_s": wall,
            "bursts": self._bursts,
            "bursts_per_s": self._bursts / wall if wall > 0 else None,
            "modelled_cycles": self._max_clock,
            "actors": seen,
            "done": done,
            "progress": progress,
            "eta_s": wall * (1.0 - progress) / progress if progress else None,
        }
        tenants = self._tenant_rows()
        if tenants:
            record["tenants"] = tenants
        self.heartbeats.append(record)
        line = json.dumps(record, sort_keys=True)
        stream = self.stream if self.stream is not None else sys.stderr
        print(line, file=stream, flush=True)
        if self.path:
            with open(self.path, "a") as handle:
                handle.write(line + "\n")
        return record


def slo_burn_rate(hist: Log2Histogram, threshold: float) -> float:
    """Fraction of observed samples above ``threshold``.

    Walks the log2 buckets like ``Log2Histogram.percentile`` in
    reverse: buckets wholly above the threshold count in full, the
    bucket containing it contributes the fraction of its geometric
    span above the threshold.  Deterministic in the merged counts.
    """
    if hist.count == 0 or threshold <= 0:
        return 0.0
    import math

    above = 0.0
    for exponent, count in hist.buckets.items():
        lo = math.ldexp(1.0, exponent)
        hi = math.ldexp(1.0, exponent + 1)
        if threshold <= lo:
            above += count
        elif threshold < hi:
            above += count * (hi - threshold) / (hi - lo)
    return min(1.0, above / hist.count)


class LiteTelemetry:
    """The process-wide lite telemetry session (see :data:`LITE`).

    ``active`` gates every hook; the hot-path contract is one attribute
    check per burst (and one per account construction/reset), nothing
    per charge.  ``start``/``stop`` bracket one run —
    ``run_with_config`` owns that lifecycle for ``observe="lite"``.
    """

    def __init__(self) -> None:
        self.active = False
        self.counters: Optional[LiteCounters] = None
        self.recorder: Optional[FlightRecorder] = None
        self.monitor: Optional[RunMonitor] = None
        self.clock_hz: Optional[float] = None
        #: domain -> machine-gauge snapshot captured at domain end
        self._gauges: Dict[int, Dict[str, object]] = {}
        #: CLI-configured monitor kwargs (``repro tenants --watch``);
        #: consulted by :meth:`start` when no monitor is passed.
        self.monitor_defaults: Optional[Dict[str, object]] = None

    # -- lifecycle -------------------------------------------------------

    def start(
        self,
        *,
        clock_hz: Optional[float] = None,
        monitor: Optional[RunMonitor] = None,
        recorder: Optional[FlightRecorder] = None,
    ) -> None:
        """Begin a session, fully resetting any prior (or forked) state."""
        self.counters = LiteCounters()
        self.recorder = recorder if recorder is not None else FlightRecorder()
        if monitor is None:
            kwargs = self.monitor_defaults
            if kwargs is None:
                env = os.environ.get(HEARTBEAT_ENV, "")
                if env != "":
                    kwargs = {"interval": float(env)}
            if kwargs is not None:
                monitor = RunMonitor(**kwargs)
        self.monitor = monitor
        if monitor is not None:
            monitor.clock_hz = clock_hz
            monitor.recorder = self.recorder
        self.clock_hz = clock_hz
        self._gauges = {}
        self.active = True

    def stop(self) -> None:
        self.active = False
        self.counters = None
        self.recorder = None
        self.monitor = None
        self.clock_hz = None
        self._gauges = {}

    # -- hot-path hooks --------------------------------------------------

    def on_account(self, account) -> None:
        """New ``CycleAccount`` (called from its constructor)."""
        self.counters.register(account)

    def on_reset(self, account) -> None:
        """Phase boundary (called from ``CycleAccount.reset``)."""
        self.counters.on_reset(account)

    def on_burst(self, actor, alive: bool, clock: Optional[float] = None) -> None:
        """One actor burst completed.

        The event kernel passes the clock it just computed for heap
        re-posting; other callers leave it None and pay the read.
        """
        if clock is None:
            clock = actor.clock()
        self.recorder.record(actor, clock)
        if self.monitor is not None:
            self.monitor.on_burst(actor, alive, clock)
        if not alive:
            self._on_domain_done(actor)

    def on_fault(self, kind: str, **detail) -> None:
        """An :class:`~repro.faults.IoPageFault` was raised."""
        self.recorder.capture(kind, detail)

    # -- per-domain machine gauges ---------------------------------------

    def _on_domain_done(self, actor) -> None:
        machine = _machine_of(actor)
        if machine is None:
            return
        from repro.obs.metrics import collect_machine_metrics

        self._gauges[actor.domain] = collect_machine_metrics(machine)

    def _merged_gauges(self) -> Dict[str, object]:
        gauges = self._gauges
        if not gauges:
            return {}
        return MetricsRegistry.merge([gauges[domain] for domain in sorted(gauges)])

    # -- checkpointing ---------------------------------------------------

    def checkpoint_state(self) -> Dict[str, object]:
        """Session state that must survive a checkpoint/resume cycle.

        Measured cycles live on the (pickled) accounts themselves; only
        the session-held state — warmup folds, rings, heartbeats count —
        needs carrying.  Folds are keyed by account ``trace_id``, which
        pickles with the account.
        """
        warmups = {}
        for entry in self.counters._entries:
            if entry.warmup or entry.resets:
                warmups[entry.account.trace_id] = {
                    "warmup": dict(entry.warmup),
                    "warmup_events": dict(entry.warmup_events),
                    "resets": entry.resets,
                }
        return {
            "schema": TELEMETRY_SCHEMA,
            "warmups": warmups,
            "recorder": self.recorder._merged(),
            "heartbeats": len(self.monitor.heartbeats) if self.monitor else 0,
        }

    def restore(self, state: Dict[str, object], actors) -> None:
        """Re-register a resumed sim's accounts and re-attach state."""
        for actor in actors:
            account = actor._clock._account
            if account.trace_id not in self.counters._by_tid:
                self.counters.register(account)
            saved = state.get("warmups", {}).get(account.trace_id)
            if saved:
                entry = self.counters._by_tid[account.trace_id]
                entry.warmup = dict(saved["warmup"])
                entry.warmup_events = dict(saved["warmup_events"])
                entry.resets = saved["resets"]
        for domain, rec in state.get("recorder", {}).items():
            self.recorder.restore_domain(domain, rec)

    # -- summary ---------------------------------------------------------

    def summary(self, result=None) -> Dict[str, object]:
        """One JSON-friendly dict for ``RunResult.telemetry``."""
        profile = self.counters.summary()
        if result is not None:
            profile["cycles_total"] = result.cycles_total
            delta = profile["total_cycles"] - result.cycles_total
            profile["reconcile_delta"] = delta
            profile["reconciles"] = delta == 0.0
        return {
            "schema": TELEMETRY_SCHEMA,
            "observe": "lite",
            "profile": profile,
            "bursts": self.recorder.bursts(),
            "metrics": self._merged_gauges(),
            "flight_recorder": self.recorder.summary(),
            "heartbeats": list(self.monitor.heartbeats) if self.monitor else [],
        }


#: The process-wide lite telemetry session.  Hot paths check
#: ``LITE.active`` exactly like they check ``TRACE.active``.
LITE = LiteTelemetry()


# -- telemetry/v1 JSONL --------------------------------------------------


def validate_telemetry_records(records: List[Dict[str, object]]) -> List[str]:
    """Validate a ``telemetry/v1`` JSONL dump; returns error strings.

    Structural checks, line-numbered like the trace validator: the
    ``telemetry_meta`` header must come first and carry the schema; every
    record's ``event`` must be in :data:`TELEMETRY_EVENTS`; exactly one
    ``profile`` record with a numeric ``total_cycles``; flight-recorder
    records carry ``[index, clock, phase]`` triples; heartbeats carry
    the schema and a monotonically increasing ``seq``.
    """
    errors: List[str] = []
    if not records:
        return ["empty telemetry dump (missing telemetry_meta header)"]
    head = records[0]
    if head.get("event") != "telemetry_meta":
        errors.append(
            f"line 1: first record is {head.get('event')!r}, "
            "expected 'telemetry_meta'"
        )
    schema = str(head.get("schema", ""))
    if not schema.startswith("riommu-repro/telemetry/"):
        errors.append(f"line 1: schema {schema!r} is not a telemetry schema")
    profiles = 0
    last_seq = -1
    for i, record in enumerate(records, start=1):
        event = record.get("event")
        if event not in TELEMETRY_EVENTS:
            errors.append(f"line {i}: unknown telemetry event {event!r}")
            continue
        if event == "profile":
            profiles += 1
            if not isinstance(record.get("total_cycles"), (int, float)):
                errors.append(f"line {i}: profile missing numeric total_cycles")
        elif event in ("flight_samples", "flight_recent"):
            if "domain" not in record:
                errors.append(f"line {i}: {event} record missing domain")
            rows = record.get("samples" if event == "flight_samples" else "records")
            if not isinstance(rows, list):
                errors.append(f"line {i}: {event} rows are not a list")
            else:
                for row in rows:
                    if not (isinstance(row, list) and len(row) == 3):
                        errors.append(
                            f"line {i}: burst record {row!r} is not an "
                            "[index, clock, phase] triple"
                        )
                        break
        elif event == "heartbeat":
            if str(record.get("schema", "")) != schema and schema:
                errors.append(f"line {i}: heartbeat schema mismatch")
            seq = record.get("seq")
            if not isinstance(seq, int) or seq <= last_seq:
                errors.append(
                    f"line {i}: heartbeat seq {seq!r} is not increasing"
                )
            else:
                last_seq = seq
    if profiles != 1:
        errors.append(f"expected exactly one profile record, found {profiles}")
    return errors


def write_telemetry(telemetry: Dict[str, object], path: str) -> int:
    """Dump a ``RunResult.telemetry`` summary as ``telemetry/v1`` JSONL.

    First record is the ``telemetry_meta`` header carrying the schema;
    then the profile, merged machine gauges, per-domain flight-recorder
    rings, any fault captures, and retained heartbeats — one JSON
    object per line.  Returns the number of records written.
    """
    recorder = telemetry.get("flight_recorder", {})
    records: List[Dict[str, object]] = [
        {
            "event": "telemetry_meta",
            "schema": telemetry.get("schema", TELEMETRY_SCHEMA),
            "observe": telemetry.get("observe", "lite"),
            "bursts": telemetry.get("bursts", 0),
        },
        {"event": "profile", **telemetry.get("profile", {})},
        {"event": "metrics", "metrics": telemetry.get("metrics", {})},
    ]
    for domain, samples in recorder.get("samples", {}).items():
        records.append(
            {
                "event": "flight_samples",
                "domain": domain,
                "stride": recorder.get("stride"),
                "samples": samples,
            }
        )
    for domain, recent in recorder.get("recent", {}).items():
        records.append(
            {"event": "flight_recent", "domain": domain, "records": recent}
        )
    for fault in recorder.get("faults", []):
        records.append({"event": "fault_capture", **fault})
    for heartbeat in telemetry.get("heartbeats", []):
        records.append(heartbeat)
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)
