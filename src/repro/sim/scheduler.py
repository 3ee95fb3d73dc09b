"""Event-scheduled simulation kernel with intra-run domain sharding.

Every workload runs on this kernel.  The paper's datapath is inherently
per-ring — every rIOMMU structure (rRINGs, rIOTLB entries,
invalidation) is keyed by ring/domain — so the kernel interleaves
independent domains in modelled-time order and can spread one big run
over several cores:

* **Actors** (:class:`WorkloadActor`) own one independently-advancing
  piece of the simulation — a device/ring/driver complex — and expose
  ``step()``, which runs one *burst* of work (a pump interval of
  transmits, an interrupt-moderation window of transactions, one served
  request).  Bursts are the workloads' natural synchronization points:
  interrupt coalescing, QI drains and rIOTLB invalidations all happen
  on burst boundaries, so between boundaries actors share no state.
* The **scheduler** (:class:`EventScheduler`) keeps a cycle-stamped
  event heap.  Each actor is stamped with its own modelled-cycle clock
  (a :class:`~repro.perf.cycles.MonotonicClock` over its cycle
  account), and the kernel always dispatches the actor whose clock is
  furthest behind — modelled-time interleaving instead of Python call
  order.  Ties break by posting sequence, so dispatch is deterministic.
* :class:`EventSim` wraps a workload into actors + scheduler and can
  run to completion, run a bounded number of events, or be pickled
  mid-run (:func:`save_checkpoint` / :func:`load_checkpoint`) and
  resumed bit-identically — week-long simulated traces no longer have
  to finish in one process lifetime.
* **Intra-run domain sharding**: a multi-domain workload's actors
  partition into shards that advance independently between
  synchronization events.  Shards execute either serially in-process
  (the deterministic reference — still one event heap interleaving all
  domains) or on a worker pool (:func:`run_events` with
  ``REPRO_SHARDS`` > 1), composing with the ``--jobs`` grid fan-out.
  Both paths finalize through the workload's single merge function
  with payloads ordered by domain index, so the sharded result is
  bit-identical to the serial one by construction.

The shard count is one knob::

    REPRO_SHARDS=N               # default: 1 (serial reference)

With a tracer or observer attached the kernel runs serially in-process
regardless of ``REPRO_SHARDS`` (worker-process events would never
reach this process's trace buffer), exactly like the parallel grid
runner.
"""

from __future__ import annotations

import heapq
import os
import pickle
from typing import Dict, List, Optional, Sequence, Tuple

from repro.modes import Mode
from repro.obs.lite import LITE
from repro.obs.tracer import TRACE
from repro.perf.cycles import CycleAccount, MonotonicClock
from repro.sim.results import RunResult
from repro.sim.setups import Setup

# The shard knob constant and resolver live in repro.config (the single
# RunConfig.from_env path); the historical names stay importable here.
from repro.config import SHARDS_ENV, resolve_shards

#: Schema identifier carried by every checkpoint file.
CHECKPOINT_SCHEMA = "riommu-repro/checkpoint/v1"


def set_shards(shards: int) -> int:
    """Select the shard count process-wide and export it to workers."""
    shards = resolve_shards(shards)
    os.environ[SHARDS_ENV] = str(shards)
    return shards


class WorkloadActor:
    """One independently-advancing piece of a simulation.

    An actor owns a device/ring/driver complex and a cycle account; the
    scheduler reads its position in modelled time off :meth:`clock` and
    calls :meth:`step` to advance it by one burst.  ``step()`` returns
    True while more bursts remain and False once the actor is finished.
    A burst ends at one of the workload's synchronization points, and
    an actor touches no state shared with another actor between two of
    them, which is what makes any interleaving of actors (and any shard
    layout) produce the same modelled numbers.

    Actors are explicit state machines rather than generators so a
    mid-run simulation can be pickled and resumed (generators cannot).
    """

    #: Index of the domain this actor simulates (multi-domain workloads).
    domain: int = 0

    def __init__(self, account: CycleAccount) -> None:
        self._clock = MonotonicClock(account)

    def clock(self) -> float:
        """The actor's position in modelled time (monotonic cycles)."""
        return self._clock.now()

    def step(self) -> bool:
        """Advance one burst; True while more work remains."""
        raise NotImplementedError


class EventScheduler:
    """A cycle-stamped event heap over a fixed set of actors.

    Entries are ``(cycle, seq, actor_index)`` tuples — actors are
    referenced by index so heap entries stay comparable and the whole
    scheduler pickles as plain data.  ``seq`` is a monotone tiebreaker:
    two actors at the same modelled cycle dispatch in posting order,
    making the schedule fully deterministic.
    """

    __slots__ = ("_heap", "_seq", "events_dispatched")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int]] = []
        self._seq = 0
        #: Total events dispatched so far (checkpoint/progress metadata).
        self.events_dispatched = 0

    def __len__(self) -> int:
        return len(self._heap)

    def post(self, cycle: float, actor_index: int) -> None:
        """Schedule ``actor_index`` to run at modelled ``cycle``."""
        heapq.heappush(self._heap, (cycle, self._seq, actor_index))
        self._seq += 1

    def pop(self) -> Tuple[float, int]:
        """Remove and return the earliest event as ``(cycle, actor_index)``."""
        cycle, _, actor_index = heapq.heappop(self._heap)
        self.events_dispatched += 1
        return cycle, actor_index

    # Pickle support for __slots__ without __dict__.
    def __getstate__(self):
        return (self._heap, self._seq, self.events_dispatched)

    def __setstate__(self, state):
        self._heap, self._seq, self.events_dispatched = state


class EventSim:
    """A workload lifted onto the event kernel.

    Builds the workload's actors, seeds the heap with one event per
    actor, and dispatches events in modelled-time order until every
    actor reports completion.  The whole object — scheduler, actors,
    machines, rings, memory — is picklable, which is what checkpoint /
    resume serialises.
    """

    def __init__(self, workload, setup: Setup, mode: Mode) -> None:
        self.workload = workload
        self.setup = setup
        self.mode = mode
        self.actors: List[WorkloadActor] = list(workload.build_actors(setup, mode))
        if not self.actors:
            raise ValueError(f"workload {workload!r} built no actors")
        self.scheduler = EventScheduler()
        for index, actor in enumerate(self.actors):
            self.scheduler.post(actor.clock(), index)

    @property
    def finished(self) -> bool:
        """True once every actor has run to completion."""
        return len(self.scheduler) == 0

    def step(self) -> bool:
        """Dispatch the earliest event; True while events remain after it."""
        _, actor_index = self.scheduler.pop()
        actor = self.actors[actor_index]
        alive = actor.step()
        if alive:
            now = actor.clock()
            if LITE.active:
                # One bounded hook per burst — the lite telemetry
                # tier's whole hot-path cost (no per-event trace bus);
                # it reuses the clock read the heap re-post needs.
                LITE.on_burst(actor, alive, now)
            self.scheduler.post(now, actor_index)
        elif LITE.active:
            LITE.on_burst(actor, alive, actor.clock())
        return not self.finished

    def run(self, max_events: Optional[int] = None) -> bool:
        """Dispatch events until done (or ``max_events``); True when done."""
        dispatched = 0
        while not self.finished:
            if max_events is not None and dispatched >= max_events:
                return False
            self.step()
            dispatched += 1
        return True

    def result(self) -> RunResult:
        """The completed run's :class:`RunResult` (raises if unfinished)."""
        if not self.finished:
            raise RuntimeError(
                "simulation has pending events; run() it to completion first"
            )
        return self.workload.finalize_events(self.actors, self.setup, self.mode)


# -- checkpoint / resume ----------------------------------------------------


def save_checkpoint(sim: EventSim, path) -> None:
    """Serialise a (possibly mid-run) :class:`EventSim` to ``path``.

    The checkpoint freezes the entire simulation object graph —
    scheduler heap, actors, machines, page tables, rings, physical
    memory — at a burst boundary, so :func:`load_checkpoint` + ``run()``
    completes bit-identically to an uninterrupted run.  Refused while a
    tracer (or observer) is attached: the trace buffer is process-global
    state a checkpoint cannot carry.
    """
    if TRACE.active:
        raise RuntimeError(
            "cannot checkpoint while a tracer/observer is attached: the "
            "trace buffer is process state the checkpoint cannot capture"
        )
    from repro import datapath

    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "datapath": datapath.current_build(),
        "events_dispatched": sim.scheduler.events_dispatched,
        "sim": sim,
    }
    if LITE.active:
        # Lite telemetry composes with checkpointing: the session-held
        # state (warmup folds, flight-recorder rings) rides along so a
        # resumed run's telemetry matches an uninterrupted one.
        payload["telemetry"] = LITE.checkpoint_state()
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load_checkpoint(path) -> EventSim:
    """Reload a checkpointed simulation, validating schema and build.

    A checkpoint taken under one datapath build must not silently
    resume under another — the builds are bit-identical in results but
    not in which staged counters are live mid-run.
    """
    from repro import datapath

    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != CHECKPOINT_SCHEMA:
        raise ValueError(f"not a simulation checkpoint (schema {schema!r})")
    saved_build = payload.get("datapath")
    active_build = datapath.current_build()
    if saved_build != active_build:
        raise ValueError(
            f"checkpoint was taken under the {saved_build!r} datapath build "
            f"but {active_build!r} is active; select the matching build "
            f"(REPRO_DATAPATH={saved_build}) before resuming"
        )
    sim = payload["sim"]
    if LITE.active and "telemetry" in payload:
        LITE.restore(payload["telemetry"], sim.actors)
    return sim


# -- sharded execution ------------------------------------------------------


def shard_plan(workload, shards: int) -> Optional[List[Tuple[int, ...]]]:
    """Partition a workload's domains into ``shards`` round-robin stripes.

    Returns None when sharding does not apply: a single shard requested,
    a single-domain workload, or a workload without the per-domain
    protocol (``run_domains``/``finalize_domains``).  Single-domain
    figure-12 workloads therefore always take the serial reference path
    no matter what ``REPRO_SHARDS`` says.
    """
    domains = int(getattr(workload, "domains", 1))
    if shards <= 1 or domains <= 1 or not hasattr(workload, "run_domains"):
        return None
    shards = min(shards, domains)
    return [tuple(range(start, domains, shards)) for start in range(shards)]


#: One shard's work order, picklable: (workload, setup name, mode label,
#: domain indices, lite-telemetry flag).  The workload objects are small
#: parameter holders.
ShardTask = Tuple[object, str, str, Tuple[int, ...], bool]


def _run_shard(task: ShardTask) -> Dict[str, object]:
    """Execute one shard's domains (the worker-process entry point).

    Returns ``{"payloads": [...], "telemetry": [...] | None}``.  Under
    lite telemetry the shard runs its domains one at a time, capturing
    each finished domain's counters/rings as picklable state; the
    parent absorbs the states and merges them in domain order, which
    equals a serial run's registration order — so sharded lite folds
    are bit-identical to serial ones.
    """
    from repro.sim.setups import setup_by_name

    workload, setup_name, mode_label, domain_ids, lite = task
    setup = setup_by_name(setup_name)
    mode = Mode(mode_label)
    if not lite:
        return {
            "payloads": workload.run_domains(setup, mode, domain_ids),
            "telemetry": None,
        }
    if not LITE.active:
        # Spawned (rather than forked) worker: open a session of our
        # own; forked workers inherit the parent's active session.
        LITE.start()
    payloads: List[Dict[str, object]] = []
    states: List[Dict[str, object]] = []
    for domain in domain_ids:
        mark = LITE.mark()
        payloads.extend(workload.run_domains(setup, mode, (domain,)))
        states.append(LITE.capture_domain(mark, domain))
    return {"payloads": payloads, "telemetry": states}


def run_events(
    workload,
    setup: Setup,
    mode: Mode,
    shards: Optional[int] = None,
) -> RunResult:
    """Run a workload on the event kernel, sharded when it applies.

    With an applicable shard plan and no tracer attached, domains fan
    out over a worker pool and the per-domain payloads merge in domain
    order; otherwise a single event heap interleaves every actor in
    modelled-time order in-process.  ``shards=None`` consults
    ``REPRO_SHARDS``.
    """
    plan = shard_plan(workload, resolve_shards(shards))
    if plan is not None and len(plan) > 1 and not TRACE.active:
        from repro.sim.parallel import parallel_map

        lite = LITE.active
        tasks: List[ShardTask] = [
            (workload, setup.name, mode.label, domain_ids, lite)
            for domain_ids in plan
        ]
        per_shard = parallel_map(_run_shard, tasks, max_workers=len(plan))
        payloads = [payload for shard in per_shard for payload in shard["payloads"]]
        if lite:
            LITE.absorb(
                [state for shard in per_shard for state in shard["telemetry"] or []]
            )
        return workload.finalize_domains(payloads, setup, mode)
    sim = EventSim(workload, setup, mode)
    sim.run()
    return sim.result()
