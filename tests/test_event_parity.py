"""Event-kernel parity: the kernel reproduces the golden grid.

Every figure-12 cell runs on the event-scheduled kernel.  Its contract:
with observers on or off it produces the modelled numbers of
``tests/data/figure12_fast_golden.json`` — which was recorded before
the kernel existed, by the fixed call-order loop it replaced —
bit-for-bit.  The multi-ring workload must additionally give the same
result traced and untraced.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.config import RunConfig
from repro.modes import ALL_MODES, Mode
from repro.obs.tracer import TRACE
from repro.sim.multiring import MultiRingStream
from repro.sim.registry import BENCHMARKS
from repro.sim.runner import BENCHMARK_NAMES, run_benchmark
from repro.sim.scheduler import run_events
from repro.sim.setups import MLX_SETUP

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "figure12_fast_golden.json").read_text()
)


@pytest.fixture(autouse=True)
def _clean_state():
    TRACE.reset()
    yield
    TRACE.reset()


# -- the matrix: every mode x observers on/off ---------------------------


@pytest.mark.parametrize("observe", [False, True], ids=["observe-off", "observe-on"])
@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.label for m in ALL_MODES])
def test_parity_matrix(mode, observe):
    result = run_benchmark(
        MLX_SETUP, mode, "rr", config=RunConfig(fast=True, observe=observe)
    )
    assert result.to_dict() == GOLDEN["mlx"]["rr"][mode.label]
    if observe:
        assert result.obs["profile"]["reconciles"] is True
        assert result.obs["profile"]["reconcile_delta"] == 0.0
    else:
        assert result.obs is None


# -- every figure-12 benchmark, spot-checked on two modes each -----------


@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_every_benchmark_is_engine_invariant(bench_name):
    for mode in (Mode.STRICT, Mode.RIOMMU):
        golden = GOLDEN["mlx"][bench_name][mode.label]
        config = RunConfig(fast=True)
        result = run_benchmark(MLX_SETUP, mode, bench_name, config=config)
        assert result.to_dict() == golden, (bench_name, mode.label)


# -- multi-ring -----------------------------------------------------------


_MSTREAM = dict(domains=4, packets=120, warmup=30)


def test_mstream_registered_but_not_figure12():
    assert "mstream" in BENCHMARKS
    assert BENCHMARKS["mstream"].figure12 is False
    assert "mstream" not in BENCHMARK_NAMES


def test_mstream_runs_serially_while_tracing():
    """A traced multi-domain run records its events in this process and
    models the same numbers as an untraced one."""
    TRACE.enable()
    try:
        result = run_events(MultiRingStream(**_MSTREAM), MLX_SETUP, Mode.RIOMMU)
        assert len(TRACE.events) > 0
    finally:
        TRACE.disable()
    reference = run_events(MultiRingStream(**_MSTREAM), MLX_SETUP, Mode.RIOMMU)
    assert result.to_dict() == reference.to_dict()
