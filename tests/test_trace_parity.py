"""Tracing is strictly observational: enabling it changes no number.

The tentpole guarantee of the observability bus — the golden figure-12
numbers, fault identities, and per-run metrics must be bit-identical
with tracing on or off — plus the reconciliation property: replaying a
trace's ``cycle_charge`` stream rebuilds the run's CycleAccount totals
exactly.
"""

import pytest

from repro.config import RunConfig
from repro.faults import IoPageFault
from repro.kernel.machine import Machine
from repro.modes import Mode
from repro.obs.export import metrics_summary, validate_records, jsonl_records
from repro.obs.tracer import TRACE
from repro.sim.runner import run_benchmark, run_figure12
from repro.sim.setups import ALL_SETUPS, MLX_SETUP


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    TRACE.reset()
    yield
    TRACE.reset()


def _fast_grid_dict(**kwargs):
    return run_figure12(
        setups=ALL_SETUPS,
        benchmarks=("rr", "memcached"),
        modes=(Mode.NONE, Mode.STRICT, Mode.DEFER, Mode.RIOMMU),
        config=RunConfig(fast=True),
        **kwargs,
    ).to_dict()


def test_figure12_slice_bit_identical_with_tracing_on():
    baseline = _fast_grid_dict()
    TRACE.enable()
    traced = _fast_grid_dict()
    TRACE.disable()
    assert len(TRACE.events) > 0
    assert traced == baseline


def test_figure12_slice_bit_identical_with_filtered_tracing():
    baseline = _fast_grid_dict()
    TRACE.enable(filter={"map", "fault"})
    traced = _fast_grid_dict()
    TRACE.disable()
    assert traced == baseline
    assert set(TRACE.event_counts()) <= {"map", "fault"}


def test_tracing_forces_grid_serial_and_still_matches():
    """jobs>1 under tracing runs serially (workers would lose events)."""
    baseline = _fast_grid_dict(jobs=1)
    TRACE.enable()
    traced = _fast_grid_dict(jobs=4)
    TRACE.disable()
    assert traced == baseline
    # Proof it ran in-process: the trace actually captured the cells.
    assert TRACE.event_counts().get("map", 0) > 0


def test_per_run_metrics_identical_with_tracing_on():
    plain = run_benchmark(MLX_SETUP, Mode.RIOMMU, "rr", config=RunConfig(fast=True))
    TRACE.enable()
    traced = run_benchmark(MLX_SETUP, Mode.RIOMMU, "rr", config=RunConfig(fast=True))
    TRACE.disable()
    assert plain.metrics is not None
    assert traced.metrics == plain.metrics


def test_trace_reconciles_with_cycle_account_totals():
    """Replayed cycle_charge totals == the run's reported cycle totals.

    ``cycle_reset`` markers (the warmup boundary) are honoured, so the
    replayed account ends with exactly the measured-phase cycles that
    ``RunResult.cycles_total`` reports.
    """
    TRACE.enable()
    result = run_benchmark(MLX_SETUP, Mode.STRICT, "rr", config=RunConfig(fast=True))
    TRACE.disable()
    summary = metrics_summary(TRACE)
    replayed_total = sum(summary["cycles_by_component"].values())
    assert replayed_total == result.cycles_total
    # And the records it came from are schema-valid.
    assert validate_records(list(jsonl_records(TRACE))) == []


def test_fault_identity_unchanged_by_tracing():
    def provoke():
        machine = Machine(Mode.STRICT)
        machine.dma_api(0x0300)
        try:
            machine.bus.dma_write(0x0300, 0xDEAD000, b"rogue")
        except IoPageFault as fault:
            return (type(fault).__name__, fault.bdf, fault.iova, str(fault))
        raise AssertionError("expected an IoPageFault")

    plain = provoke()
    TRACE.enable()
    traced = provoke()
    TRACE.disable()
    assert traced == plain
    assert TRACE.event_counts().get("fault", 0) >= 1


def test_safety_probe_offsets_identical_with_tracing_on():
    from repro.analysis.safety import run_safety

    plain = run_safety(packets=40, flush_threshold=16)
    TRACE.enable()
    traced = run_safety(packets=40, flush_threshold=16)
    TRACE.disable()
    assert traced.exposed_fraction == plain.exposed_fraction
    assert traced.mean_window_unmaps == plain.mean_window_unmaps
