"""Streaming cycle-attribution profiler: Table 1's decomposition per run.

The paper's whole argument is an attribution claim — IOMMU cost *is*
the per-primitive driver cycles of Table 1.  This module makes that
claim observable per run: :class:`CycleProfiler` subscribes to the
trace bus as a streaming sink (no full-trace retention) and folds every
``cycle_charge`` event into a per-primitive × per-layer × per-phase
breakdown whose measured-phase total reconciles **bit-exactly** with
``RunResult.cycles_total`` — the fold uses the same
:func:`~repro.perf.cycles.exact_add` arithmetic as the accounts
themselves, so no float drift can creep in.

:class:`RunObserver` bundles the profiler with the protection-window
auditor (:mod:`repro.obs.audit`) and the log2-bucketed histograms of
per-packet cycles and map→unmap mapping lifetimes, attaching one
``obs`` summary dict to the run's result.  Observation is strictly
observational: the sinks only read the stream, so golden results are
bit-identical with observers on or off (the parity tests pin this).

Enable per call (``config=RunConfig(observe=True)``), or process-wide
with the ``REPRO_OBSERVE`` environment variable — which the parallel
runner's worker processes inherit, so grid runs stay parallel while
each cell observes itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.audit import ProtectionAuditor
from repro.obs.metrics import Log2Histogram, MetricsRegistry
from repro.obs.timeline import TimelineSampler
from repro.obs.tracer import TRACE
from repro.perf.cycles import Component, exact_add

#: Schema identifier stamped into every ``RunResult.obs`` summary.
OBS_SCHEMA = "riommu-repro/obs/v1"

# The observe knob lives in repro.config (the single RunConfig.from_env
# path); the historical names stay importable from here.
from repro.config import OBSERVE_ENV, observe_from_env

#: Table 1 presentation order for per-primitive breakdowns.
_COMPONENT_ORDER = tuple(c.value for c in Component)


def observe_requested() -> bool:
    """True when ``REPRO_OBSERVE`` asks for any per-run observation."""
    return observe_from_env() != "off"


class _AccountFold:
    """Per-account running fold of the ``cycle_charge`` stream.

    ``measured`` accumulates the current phase in first-charge insertion
    order — the same order the account's own dict grows in — so summing
    its values reproduces ``CycleAccount.total()`` to the last bit.
    A ``cycle_reset`` folds the phase into ``warmup`` and starts over,
    mirroring the benchmarks' post-warmup ``account.reset()``.
    """

    __slots__ = ("label", "measured", "events", "warmup", "warmup_events", "resets")

    def __init__(self, label: Optional[str]) -> None:
        self.label = label
        self.measured: Dict[str, float] = {}
        self.events: Dict[str, int] = {}
        self.warmup: Dict[str, float] = {}
        self.warmup_events: Dict[str, int] = {}
        self.resets = 0

    def charge(self, comp: str, cycles: float, events: int, n: int) -> None:
        measured = self.measured
        measured[comp] = exact_add(measured.get(comp, 0.0), cycles, n)
        self.events[comp] = self.events.get(comp, 0) + events * n

    def reset(self) -> None:
        for comp, cycles in self.measured.items():
            self.warmup[comp] = self.warmup.get(comp, 0.0) + cycles
        for comp, n in self.events.items():
            self.warmup_events[comp] = self.warmup_events.get(comp, 0) + n
        self.measured = {}
        self.events = {}
        self.resets += 1

    def total(self) -> float:
        """Measured-phase total, summed in insertion order (bit-exact)."""
        return sum(self.measured.values())


class CycleProfiler:
    """A trace sink folding ``cycle_charge`` events into attributions.

    Use as ``TRACE.subscribe(profiler)``; the instance is the sink
    callable.  Retains O(accounts × components) state, never the trace.
    """

    def __init__(self) -> None:
        #: account id -> fold, in first-seen order
        self._accounts: Dict[int, _AccountFold] = {}

    # -- sink entry point ------------------------------------------------

    def __call__(self, ts: float, etype: str, fields: Dict[str, object]) -> None:
        if etype == "cycle_charge":
            acct = fields["acct"]
            fold = self._accounts.get(acct)
            if fold is None:
                fold = self._accounts[acct] = _AccountFold(fields.get("label"))
            elif fold.label is None:
                fold.label = fields.get("label")
            fold.charge(
                fields["comp"],
                fields["cycles"],
                fields["events"],
                fields["n"],
            )
        elif etype == "cycle_reset":
            fold = self._accounts.get(fields["acct"])
            if fold is not None:
                fold.reset()

    # -- reads -----------------------------------------------------------

    def total(self) -> float:
        """Measured-phase cycles across all accounts (bit-exact)."""
        return sum(fold.total() for fold in self._accounts.values())

    def _layer_name(self, acct: int, fold: _AccountFold) -> str:
        return fold.label if fold.label is not None else f"acct-{acct}"

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """Measured cycles per layer per Table 1 component."""
        out: Dict[str, Dict[str, float]] = {}
        for acct, fold in self._accounts.items():
            layer = out.setdefault(self._layer_name(acct, fold), {})
            for comp, cycles in fold.measured.items():
                layer[comp] = layer.get(comp, 0.0) + cycles
        return out

    def by_primitive(self) -> Dict[str, float]:
        """Measured cycles per Table 1 component, in Table 1 order."""
        merged: Dict[str, float] = {}
        for fold in self._accounts.values():
            for comp, cycles in fold.measured.items():
                merged[comp] = merged.get(comp, 0.0) + cycles
        return {
            comp: merged[comp] for comp in _COMPONENT_ORDER if comp in merged
        }

    def by_phase(self) -> Dict[str, Dict[str, float]]:
        """``{"warmup": {comp: cycles}, "measured": {comp: cycles}}``."""
        warmup: Dict[str, float] = {}
        for fold in self._accounts.values():
            for comp, cycles in fold.warmup.items():
                warmup[comp] = warmup.get(comp, 0.0) + cycles
        return {
            "warmup": {
                comp: warmup[comp] for comp in _COMPONENT_ORDER if comp in warmup
            },
            "measured": self.by_primitive(),
        }

    def event_counts(self) -> Dict[str, int]:
        """Measured-phase charge counts per component."""
        merged: Dict[str, int] = {}
        for fold in self._accounts.values():
            for comp, n in fold.events.items():
                merged[comp] = merged.get(comp, 0) + n
        return {comp: merged[comp] for comp in _COMPONENT_ORDER if comp in merged}

    def summary(self) -> Dict[str, object]:
        """The attribution breakdown as one JSON-friendly dict."""
        return {
            "total_cycles": self.total(),
            "by_primitive": self.by_primitive(),
            "by_layer": self.by_layer(),
            "by_phase": self.by_phase(),
            "event_counts": self.event_counts(),
            "accounts": len(self._accounts),
        }


class RunObserver:
    """Profiler + auditor + distribution histograms for one run.

    Subscribe/unsubscribe via the context-manager protocol::

        with RunObserver() as obs:
            result = run_events(bench, setup, mode)
        result.obs = obs.summary(result)

    One sink dispatches to the profiler, the auditor, the per-packet
    cycle histogram (deltas between successive PROCESSING charges) and
    the map→unmap lifetime histogram; nothing retains events.
    """

    def __init__(
        self,
        clock_hz: Optional[float] = None,
        timeline_window: Optional[float] = None,
    ) -> None:
        self.profiler = CycleProfiler()
        self.registry = MetricsRegistry()
        #: cycles between successive per-packet PROCESSING charges
        self.packet_cycles: Log2Histogram = self.registry.log2_histogram(
            "packet_cycles"
        )
        #: modelled cycles each mapping stayed live (map -> unmap)
        self.mapping_lifetime: Log2Histogram = self.registry.log2_histogram(
            "mapping_lifetime"
        )
        #: cycles each torn-down mapping stayed reachable
        self.window_cycles: Log2Histogram = self.registry.log2_histogram(
            "stale_window_cycles"
        )
        self.auditor = ProtectionAuditor(window_histogram=self.window_cycles)
        #: fixed-width cycle-window time-series of the whole run; reads
        #: the auditor's open-window gauge, so it dispatches after it
        self.timeline = TimelineSampler(
            window_cycles=timeline_window,
            clock_hz=clock_hz,
            auditor=self.auditor,
        )
        #: account id -> ts of its previous PROCESSING charge
        self._last_processing: Dict[int, float] = {}
        #: mapping key -> map-event ts (baseline and rIOMMU keys differ)
        self._live_maps: Dict[Tuple, float] = {}
        self._finalized = False

    # -- sink entry point ------------------------------------------------

    def __call__(self, ts: float, etype: str, fields: Dict[str, object]) -> None:
        self.profiler(ts, etype, fields)
        self.auditor(ts, etype, fields)
        self.timeline(ts, etype, fields)
        if etype == "cycle_charge":
            if fields["comp"] == Component.PROCESSING.value:
                acct = fields["acct"]
                prev = self._last_processing.get(acct)
                if prev is not None:
                    self.packet_cycles.observe(ts - prev)
                self._last_processing[acct] = ts
        elif etype == "map":
            self._live_maps[self._map_key(fields)] = ts
        elif etype == "unmap":
            opened = self._live_maps.pop(self._map_key(fields), None)
            if opened is not None:
                self.mapping_lifetime.observe(ts - opened)
        elif etype == "cycle_reset":
            # Phase boundary: the next packet's delta would span the
            # reset, so restart the delta chain (warmup packets still
            # contributed their own deltas before this point).
            self._last_processing.pop(fields["acct"], None)

    @staticmethod
    def _map_key(fields: Dict[str, object]) -> Tuple:
        if fields.get("layer") == "riommu":
            return (fields.get("bdf"), fields.get("rid"), fields.get("rentry"))
        return (fields.get("bdf"), fields.get("device_addr"))

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "RunObserver":
        # The modelled-cycle clock is process-cumulative across observed
        # runs; anchor the timeline's windows to this run's start.
        self.timeline.origin = TRACE.now
        TRACE.subscribe(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        TRACE.unsubscribe(self)
        self.finalize()

    def finalize(self, end_ts: Optional[float] = None) -> None:
        """Close still-open vulnerability windows at the run's end."""
        if not self._finalized:
            final_ts = TRACE.now if end_ts is None else end_ts
            self.auditor.finalize(final_ts)
            self.timeline.finalize(final_ts)
            self._finalized = True

    # -- summary ---------------------------------------------------------

    def percentiles(self) -> Dict[str, Dict[str, float]]:
        """p50/p95/p99 for each tracked distribution."""
        return {
            hist.name: hist.percentiles()
            for hist in (self.packet_cycles, self.mapping_lifetime)
        }

    def summary(self, result=None) -> Dict[str, object]:
        """One JSON-friendly dict for ``RunResult.obs``.

        With ``result`` given, the profile section gains the
        reconciliation fields (``reconciles`` is the bit-exact equality
        the acceptance tests pin) and the audit section the mode's
        expectation.
        """
        self.finalize()
        profile = self.profiler.summary()
        audit = self.auditor.report()
        if result is not None:
            profile["cycles_total"] = result.cycles_total
            delta = self.profiler.total() - result.cycles_total
            profile["reconcile_delta"] = delta
            profile["reconciles"] = delta == 0.0
            audit["mode"] = result.mode.label
            audit["mode_expected_safe"] = result.mode.safe
        return {
            "schema": OBS_SCHEMA,
            "profile": profile,
            "audit": audit,
            "percentiles": self.percentiles(),
            "metrics": self.registry.snapshot(),
            "timeline": self.timeline.summary(),
        }
