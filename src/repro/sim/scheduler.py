"""Event-scheduled simulation kernel.

Every workload runs on this kernel.  The paper's datapath is inherently
per-ring — every rIOMMU structure (rRINGs, rIOTLB entries,
invalidation) is keyed by ring/domain — so the kernel interleaves
independent domains in modelled-time order:

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
* A multi-domain workload (``mstream``, ``tenants``) is one heap
  interleaving every domain's actors in-process; its domains share no
  runtime state, so the workload folds their payloads in domain order
  (``finalize_domains``) once the heap drains.

Each :class:`EventSim` builds its machines for the datapath build it
is given.
"""

from __future__ import annotations

import heapq
import json
import pickle
from typing import Dict, List, Optional, Tuple

from repro.config import BUILDS, DEFAULT_BUILD
from repro.modes import Mode
from repro.obs.lite import LITE, _machine_of
from repro.obs.tracer import TRACE
from repro.perf.cycles import CycleAccount, MonotonicClock
from repro.sim.results import RunResult
from repro.sim.setups import Setup

#: Schema identifier carried in the header line of every checkpoint file.
CHECKPOINT_SCHEMA = "riommu-repro/checkpoint/v2"


class WorkloadActor:
    """One independently-advancing piece of a simulation.

    An actor owns a device/ring/driver complex and a cycle account; the
    scheduler reads its position in modelled time off :meth:`clock` and
    calls :meth:`step` to advance it by one burst.  ``step()`` returns
    True while more bursts remain and False once the actor is finished.
    A burst ends at one of the workload's synchronization points, and
    an actor touches no state shared with another actor between two of
    them, which is what makes any interleaving of actors produce the
    same modelled numbers.

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

    Builds the workload's actors, their machines built for the
    ``datapath`` build, seeds the heap with one event per actor, and
    dispatches events in modelled-time order until every actor reports
    completion.  The whole object — scheduler, actors, machines, rings,
    memory — is picklable, which is what checkpoint / resume serialises.
    """

    def __init__(
        self, workload, setup: Setup, mode: Mode, datapath: str = DEFAULT_BUILD
    ) -> None:
        self.workload = workload
        self.setup = setup
        self.mode = mode
        self.datapath = datapath
        self.actors: List[WorkloadActor] = list(
            workload.build_actors(setup, mode, datapath)
        )
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
#
# A checkpoint file is one plain JSON header line (schema, build, event
# count) followed by the pickled simulation.  The header is checked
# before any byte of the pickle is read, and the pickle is loaded
# through an unpickler that admits only repro's own classes and the few
# stdlib types a simulation holds.


class CheckpointError(ValueError):
    """A file is not a loadable simulation checkpoint."""


class CheckpointBuildError(CheckpointError):
    """A checkpoint's header names another build than its machines carry."""


#: Longest header line :func:`load_checkpoint` reads before refusing.
_HEADER_LIMIT = 4096

#: The non-``repro`` globals a checkpoint of any mode or workload holds
#: (enumerated from checkpoints of every registered workload under all
#: seven modes, both builds, with and without lite telemetry).
_STDLIB_GLOBALS = frozenset({("collections", "OrderedDict"), ("collections", "deque")})

#: The bound methods a checkpoint holds (the NIC's completion callbacks,
#: which pickle spells as ``getattr(driver, name)``), enumerated alike.
_BOUND_METHODS = frozenset(
    {
        ("repro.kernel.net_driver", "NetDriver", "_handle_rx_burst"),
        ("repro.kernel.net_driver", "NetDriver", "_handle_tx_burst"),
    }
)


def _bound_method(owner, name: str):
    """The unpickler's stand-in for ``builtins.getattr``.

    Resolves only the :data:`_BOUND_METHODS`, so a payload cannot reach
    any other attribute through ``getattr``.
    """
    cls = type(owner)
    if (cls.__module__, cls.__qualname__, name) in _BOUND_METHODS:
        return getattr(owner, name)
    raise CheckpointError(f"checkpoint asks for {cls.__qualname__}.{name}")


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
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "datapath": sim.datapath,
        "events_dispatched": sim.scheduler.events_dispatched,
    }
    payload = {"sim": sim}
    if LITE.active:
        # Lite telemetry composes with checkpointing: the session-held
        # state (warmup folds, flight-recorder rings) rides along so a
        # resumed run's telemetry matches an uninterrupted one.
        payload["telemetry"] = LITE.checkpoint_state()
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


def _read_header(handle) -> Dict[str, object]:
    """Read and validate a checkpoint's header line from a binary file.

    Raises :class:`CheckpointError` for anything but a complete header
    of this schema naming a known build; reads nothing past the line.
    """
    line = handle.readline(_HEADER_LIMIT)
    if not line.endswith(b"\n"):
        raise CheckpointError("not a simulation checkpoint (no header line)")
    try:
        header = json.loads(line)
    except ValueError:
        raise CheckpointError(
            "not a simulation checkpoint (unreadable header)"
        ) from None
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(f"not a simulation checkpoint (schema {schema!r})")
    build = header.get("datapath")
    if build not in BUILDS:
        raise CheckpointError(
            f"checkpoint header names an unknown datapath build {build!r}"
        )
    return header


class _CheckpointUnpickler(pickle.Unpickler):
    """Resolves only repro classes, :data:`_STDLIB_GLOBALS` and
    :data:`_BOUND_METHODS`."""

    def find_class(self, module: str, name: str):
        if (module, name) == ("builtins", "getattr"):
            return _bound_method
        if (module, name) in _STDLIB_GLOBALS:
            return super().find_class(module, name)
        if (
            module.split(".")[0] == "repro"
            and not module.endswith("__main__")
            and "." not in name
        ):
            found = super().find_class(module, name)
            owner = getattr(found, "__module__", "") or ""
            if isinstance(found, type) and owner.split(".")[0] == "repro":
                return found
        raise CheckpointError(
            f"checkpoint refers to {module}.{name}, which no simulation holds"
        )


def load_checkpoint(path) -> EventSim:
    """Reload a checkpointed simulation, validating header and build.

    The header is checked before any unpickling, and the payload may
    name only repro classes and the stdlib types a simulation holds, so
    a foreign or tampered file is refused without running any of it.
    The simulation resumes under the build its pickled machines carry;
    a header that disagrees with them raises
    :class:`CheckpointBuildError`.
    """
    with open(path, "rb") as handle:
        header = _read_header(handle)
        try:
            payload = _CheckpointUnpickler(handle).load()
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(f"corrupt checkpoint payload ({exc!r})") from None
    sim = payload.get("sim") if isinstance(payload, dict) else None
    if not isinstance(sim, EventSim):
        raise CheckpointError("checkpoint payload holds no simulation")
    machines = [_machine_of(actor) for actor in sim.actors]
    builds = {sim.datapath} | {m.datapath for m in machines if m is not None}
    if builds != {header["datapath"]}:
        raise CheckpointBuildError(
            f"checkpoint header names the {header['datapath']!r} datapath build "
            f"but its machines carry {sorted(builds)}"
        )
    if LITE.active and "telemetry" in payload:
        LITE.restore(payload["telemetry"], sim.actors)
    return sim


def run_events(
    workload, setup: Setup, mode: Mode, datapath: str = DEFAULT_BUILD
) -> RunResult:
    """Run a workload to completion on one event heap in this process.

    Every machine of the run is built for the ``datapath`` build.
    """
    sim = EventSim(workload, setup, mode, datapath)
    sim.run()
    return sim.result()
