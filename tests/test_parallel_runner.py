"""Parity and unit tests for the parallel evaluation-grid runner.

The central claim: worker count is invisible in the results.  The same
grid run with ``jobs=1`` and ``jobs=4`` must serialise to byte-identical
JSON, and both must match the golden snapshot captured from the serial
runner before any of the hot-path optimisations landed.
"""

import json
import os
import pathlib

import pytest

from repro.config import RunConfig
from repro.modes import ALL_MODES, Mode
from repro.sim.parallel import (
    grid_cells,
    parallel_map,
    resolve_jobs,
    run_cell,
    run_grid,
)
from repro.sim.runner import BENCHMARK_NAMES, run_figure12
from repro.sim.setups import ALL_SETUPS, MLX_SETUP

GOLDEN = pathlib.Path(__file__).parent / "data" / "figure12_fast_golden.json"


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs(0) >= 1  # one per CPU
    assert resolve_jobs(-3) == resolve_jobs(0)


def test_grid_cells_serial_nested_order():
    config = RunConfig(fast=True)
    cells = grid_cells(ALL_SETUPS, ("stream", "rr"), ALL_MODES, config)
    assert len(cells) == len(ALL_SETUPS) * 2 * len(ALL_MODES)
    # Outer loop setups, then benchmarks, then modes — the serial order.
    assert cells[0] == (ALL_SETUPS[0].name, "stream", ALL_MODES[0].label, config)
    assert cells[len(ALL_MODES)][1] == "rr"
    assert [c[2] for c in cells[: len(ALL_MODES)]] == [m.label for m in ALL_MODES]


def test_parallel_map_serial_path_preserves_order_and_exceptions():
    assert parallel_map(lambda x: x * x, [3, 1, 2], max_workers=1) == [9, 1, 4]
    with pytest.raises(ZeroDivisionError):
        parallel_map(lambda x: 1 // x, [1, 0], max_workers=1)


def test_parallel_map_unpicklable_falls_back_to_serial():
    # A lambda cannot be pickled, so the pool path must degrade to the
    # in-process loop instead of blowing up — and say that it did.
    with pytest.warns(RuntimeWarning, match="not picklable"):
        result = parallel_map(lambda x: x + 1, [1, 2, 3], max_workers=2)
    assert result == [2, 3, 4]


def _record_call_then_raise(item):
    """Append this call's PID to the log file, then fail like a bad fn."""
    log, _ = item
    with open(log, "a") as handle:
        handle.write(f"{os.getpid()}\n")
    raise TypeError("fn itself failed")


def test_parallel_map_fn_exception_propagates_once(tmp_path, recwarn):
    # An exception raised by fn (even one of the types a pickling
    # failure raises) is the workload's error, not a pool failure: it
    # must propagate without a serial rerun in this process.
    log = tmp_path / "calls.log"
    items = [(str(log), i) for i in range(4)]
    with pytest.raises(TypeError, match="fn itself failed"):
        parallel_map(_record_call_then_raise, items, max_workers=2)
    pids = log.read_text().split()
    assert 1 <= len(pids) <= len(items)
    assert str(os.getpid()) not in pids
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_run_cell_matches_run_benchmark():
    from repro.sim.runner import run_benchmark

    direct = run_benchmark(MLX_SETUP, Mode.STRICT, "rr", config=RunConfig(fast=True))
    via_cell = run_cell(("mlx", "rr", "strict", RunConfig(fast=True)))
    assert direct.to_dict() == via_cell.to_dict()


def test_grid_parallel_identical_to_serial():
    """jobs=4 and jobs=1 produce byte-identical grids (small slice)."""
    kwargs = dict(
        setups=ALL_SETUPS,
        benchmarks=("rr",),
        modes=(Mode.NONE, Mode.STRICT, Mode.RIOMMU),
        config=RunConfig(fast=True),
    )
    serial = run_grid(jobs=1, **kwargs)
    parallel = run_grid(jobs=4, **kwargs)
    assert json.dumps(serial.to_dict(), sort_keys=False) == json.dumps(
        parallel.to_dict(), sort_keys=False
    )
    # Mode key order inside each panel matches the serial nested loops.
    for setup in serial.results:
        assert list(parallel.results[setup]["rr"]) == list(serial.results[setup]["rr"])


def test_run_figure12_jobs_parity_and_golden():
    """Full fast grid: jobs=1 == jobs=4 == the pre-optimisation golden.

    The golden file was captured from ``run_figure12`` at fast sizes before
    the single-page fast paths, the translation memo, and the parallel
    runner existed — so this test pins both parallel/serial parity *and*
    that the optimisations changed no modelled number.
    """
    config = RunConfig.from_env(fast=True)
    serial = run_figure12(jobs=1, config=config).to_dict()
    parallel = run_figure12(jobs=4, config=config).to_dict()
    assert serial == parallel
    golden = json.loads(GOLDEN.read_text())
    assert serial == golden


def test_run_grid_defaults_cover_all_benchmarks():
    cells = grid_cells(ALL_SETUPS, BENCHMARK_NAMES, ALL_MODES, RunConfig(fast=True))
    assert len(cells) == len(ALL_SETUPS) * len(BENCHMARK_NAMES) * len(ALL_MODES)


def _log_call(log, original, name):
    """Wrap ``original`` so every call appends ``name pid build`` to ``log``."""

    def spy(self, *args, **kwargs):
        with open(log, "a") as handle:
            build = getattr(self, "columnar", None)
            handle.write(f"{name} {os.getpid()} {build}\n")
        return original(self, *args, **kwargs)

    return spy


def test_workers_run_the_config_their_task_carries(monkeypatch, tmp_path):
    """Pool workers build their machines from the RunConfig in their task.

    ``REPRO_DATAPATH=columnar`` in the environment must not reach a grid
    whose config asks for the scalar build: the spies (inherited by the
    forked workers) log every transmit pass with the worker's PID and
    the NIC's build, and the columnar-only Tx loop must never run.
    """
    import multiprocessing

    from repro.devices.nic import SimulatedNic

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the spies reach worker processes only through fork")
    log = tmp_path / "calls.log"
    for name in ("process_tx", "_process_tx_columnar"):
        monkeypatch.setattr(
            SimulatedNic, name, _log_call(log, getattr(SimulatedNic, name), name)
        )
    monkeypatch.setenv("REPRO_DATAPATH", "columnar")
    config = RunConfig(fast=True, datapath="scalar")
    grid = run_figure12(
        setups=(MLX_SETUP,),
        benchmarks=("rr",),
        modes=(Mode.STRICT, Mode.RIOMMU),
        jobs=2,
        config=config,
    )
    calls = [line.split() for line in log.read_text().splitlines()]
    assert calls, "no worker transmitted"
    assert {name for name, _pid, _build in calls} == {"process_tx"}
    assert {build for _name, _pid, build in calls} == {"False"}
    assert str(os.getpid()) not in {pid for _name, pid, _build in calls}
    reference = run_figure12(
        setups=(MLX_SETUP,),
        benchmarks=("rr",),
        modes=(Mode.STRICT, Mode.RIOMMU),
        jobs=1,
        config=RunConfig(fast=True),
    )
    assert grid.to_dict() == reference.to_dict()
