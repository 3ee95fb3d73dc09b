"""Unit tests for the event-scheduled simulation kernel.

Covers the kernel's plain-data pieces in isolation: the monotonic
cycle clock, the deterministic event heap, bounded EventSim runs, and
the checkpoint guards (tracer refusal, the header checked before any
unpickling, the restricted unpickler, datapath-build validation).  The
golden parity matrix lives in ``test_event_parity.py``; checkpoint/
resume determinism in ``test_checkpoint.py``.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.modes import Mode
from repro.obs.tracer import TRACE
from repro.perf.cycles import Component, CycleAccount, MonotonicClock
from repro.sim.netperf import NetperfRR
from repro.sim.multiring import MultiRingStream
from repro.sim.scheduler import (
    CHECKPOINT_SCHEMA,
    CheckpointBuildError,
    CheckpointError,
    EventScheduler,
    EventSim,
    load_checkpoint,
    run_events,
    save_checkpoint,
)
from repro.sim.setups import MLX_SETUP


@pytest.fixture(autouse=True)
def _clean_tracer():
    TRACE.reset()
    yield
    TRACE.reset()


# -- the monotonic cycle clock -------------------------------------------


def test_monotonic_clock_tracks_account():
    account = CycleAccount()
    clock = MonotonicClock(account)
    assert clock.now() == 0.0
    account.charge(Component.IOVA_ALLOC, 10.0)
    assert clock.now() == 10.0
    account.charge(Component.IOVA_ALLOC, 2.5)
    assert clock.now() == 12.5


def test_monotonic_clock_survives_resets():
    """The warmup->measure reset must not make time jump backwards."""
    account = CycleAccount()
    clock = MonotonicClock(account)
    account.charge(Component.IOVA_ALLOC, 100.0)
    assert clock.now() == 100.0
    account.reset()
    # Time holds (never decreases) and keeps advancing from the fold.
    assert clock.now() == 100.0
    account.charge(Component.IOVA_ALLOC, 7.0)
    assert clock.now() == 107.0
    account.reset()
    account.charge(Component.IOVA_ALLOC, 1.0)
    assert clock.now() == 108.0


# -- the event heap ------------------------------------------------------


def test_scheduler_dispatches_in_cycle_order():
    sched = EventScheduler()
    sched.post(30.0, 0)
    sched.post(10.0, 1)
    sched.post(20.0, 2)
    assert len(sched) == 3
    assert [sched.pop() for _ in range(3)] == [(10.0, 1), (20.0, 2), (30.0, 0)]
    assert len(sched) == 0
    assert sched.events_dispatched == 3


def test_scheduler_breaks_ties_by_posting_order():
    sched = EventScheduler()
    for actor in (4, 2, 7):
        sched.post(5.0, actor)
    assert [sched.pop()[1] for _ in range(3)] == [4, 2, 7]


def test_scheduler_pickles_mid_flight():
    sched = EventScheduler()
    sched.post(1.0, 0)
    sched.post(2.0, 1)
    sched.pop()
    clone = pickle.loads(pickle.dumps(sched))
    assert len(clone) == 1
    assert clone.events_dispatched == 1
    assert clone.pop() == (2.0, 1)
    # The seq counter survives too: new posts keep deterministic order.
    clone.post(2.0, 5)
    clone.post(2.0, 6)
    assert [clone.pop()[1] for _ in range(2)] == [5, 6]


# -- EventSim ------------------------------------------------------------


def _small_rr():
    return NetperfRR(transactions=40, warmup=10)


def test_event_sim_bounded_run_then_completes():
    sim = EventSim(_small_rr(), MLX_SETUP, Mode.STRICT)
    assert not sim.finished
    with pytest.raises(RuntimeError, match="pending events"):
        sim.result()
    assert sim.run(max_events=3) is False
    assert sim.scheduler.events_dispatched == 3
    assert sim.run() is True
    assert sim.finished
    reference = run_events(_small_rr(), MLX_SETUP, Mode.STRICT)
    assert sim.result().to_dict() == reference.to_dict()


def test_event_sim_counts_multi_domain_actors():
    workload = MultiRingStream(domains=3, packets=40, warmup=10)
    sim = EventSim(workload, MLX_SETUP, Mode.NONE)
    assert len(sim.actors) == 3
    assert sorted(actor.domain for actor in sim.actors) == [0, 1, 2]
    assert len(sim.scheduler) == 3


def test_every_registered_workload_runs_on_the_kernel():
    """run_events has no fallback: every registry entry must build actors."""
    from repro.sim.registry import BENCHMARKS, make_benchmark

    for name in BENCHMARKS:
        workload = make_benchmark(name, fast=True)
        assert callable(getattr(workload, "build_actors", None)), name
        assert callable(getattr(workload, "finalize_events", None)), name
        assert not hasattr(workload, "run"), name


# -- checkpoint guards ---------------------------------------------------


def test_checkpoint_refused_while_tracing(tmp_path):
    sim = EventSim(_small_rr(), MLX_SETUP, Mode.STRICT)
    TRACE.enable()
    try:
        with pytest.raises(RuntimeError, match="tracer"):
            save_checkpoint(sim, tmp_path / "ckpt.pkl")
    finally:
        TRACE.disable()
        TRACE.reset()


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "not-a-checkpoint.pkl"
    with open(path, "wb") as handle:
        pickle.dump({"schema": "someone/elses", "sim": None}, handle)
    with pytest.raises(ValueError, match="not a simulation checkpoint"):
        load_checkpoint(path)


def test_load_rejects_datapath_build_mismatch(tmp_path):
    sim = EventSim(_small_rr(), MLX_SETUP, Mode.STRICT, "scalar")
    path = tmp_path / "ckpt.pkl"
    save_checkpoint(sim, path)
    header, payload = path.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    assert fields["schema"] == CHECKPOINT_SCHEMA
    assert fields["datapath"] == "scalar"
    fields["datapath"] = "columnar"
    path.write_bytes(json.dumps(fields).encode() + b"\n" + payload)
    with pytest.raises(CheckpointBuildError, match="datapath build"):
        load_checkpoint(path)


def test_checkpoint_resumes_under_the_build_its_machines_carry(tmp_path):
    sim = EventSim(_small_rr(), MLX_SETUP, Mode.RIOMMU, "scalar")
    sim.run(max_events=5)
    path = tmp_path / "ckpt.pkl"
    save_checkpoint(sim, path)
    resumed = load_checkpoint(path)
    assert resumed.datapath == "scalar"
    assert not resumed.actors[0].machine.columnar
    resumed.run()
    reference = EventSim(_small_rr(), MLX_SETUP, Mode.RIOMMU)
    reference.run()
    assert resumed.result().to_dict() == reference.result().to_dict()


def _line(fields) -> bytes:
    return json.dumps(fields).encode() + b"\n"


def _header() -> bytes:
    return _line({"schema": CHECKPOINT_SCHEMA, "datapath": "columnar"})


def _reduce_payload(module: str, name: str, arg: str) -> bytes:
    """A protocol-4 pickle calling ``module.name(arg)`` when loaded."""
    encoded = arg.encode()
    return (
        b"\x80\x04c" + f"{module}\n{name}\n".encode()
        + b"\x8c" + bytes([len(encoded)]) + encoded
        + b"\x85R."
    )


@pytest.mark.parametrize(
    "module, name",
    [("posix", "mkdir"), ("os", "mkdir"), ("repro.config", "os.mkdir")],
)
def test_load_refuses_foreign_globals_without_running_them(tmp_path, module, name):
    marker = tmp_path / "ran"
    path = tmp_path / "evil.ckpt"
    path.write_bytes(_header() + _reduce_payload(module, name, str(marker)))
    with pytest.raises(CheckpointError, match="no simulation holds"):
        load_checkpoint(path)
    assert not marker.exists()


@pytest.mark.parametrize(
    "head",
    [
        b"",
        _header()[:20],  # truncated: no newline
        b"\x80\x04\x95 not json\n",
        _line({"schema": "someone/elses", "datapath": "columnar"}),
        _line({"schema": CHECKPOINT_SCHEMA, "datapath": "vector"}),
        b"[1, 2]\n",
    ],
    ids=["empty", "truncated", "binary", "foreign", "unknown-build", "not-object"],
)
def test_load_refuses_bad_headers_before_unpickling(tmp_path, head):
    marker = tmp_path / "ran"
    path = tmp_path / "bad.ckpt"
    path.write_bytes(head + _reduce_payload("posix", "mkdir", str(marker)))
    with pytest.raises(CheckpointError, match="checkpoint"):
        load_checkpoint(path)
    assert not marker.exists()


def test_load_refuses_a_truncated_payload(tmp_path):
    sim = EventSim(_small_rr(), MLX_SETUP, Mode.STRICT)
    path = tmp_path / "ckpt.pkl"
    save_checkpoint(sim, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(path)
