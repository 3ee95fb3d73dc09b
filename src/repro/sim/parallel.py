"""Parallel execution of the evaluation grid.

Every (setup, benchmark, mode) cell of Figure 12 is an independent
simulation — each ``run_benchmark`` call builds its own machine, so
cells share no state and can run in separate worker processes.  This
module fans cells out over a :class:`~concurrent.futures.ProcessPoolExecutor`
and merges the results back into an :class:`~repro.sim.runner.EvaluationGrid`
whose iteration order is *identical* to the serial runner's nested
loops, so ``to_dict()`` output is byte-for-byte the same regardless of
worker count (the parity tests pin this).

Cells are shipped to workers by name (setup name, benchmark name, mode
label) rather than by object, so nothing fancy needs to pickle; the
worker re-resolves the objects from the registries.  Each cell also
carries the run's :class:`~repro.config.RunConfig`, so a worker never
consults its environment for a knob.  If a pool cannot
be created or dies (no ``fork`` support, resource limits, a worker
killed), the runner warns and executes the cells serially in-process —
slower, never wrong.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.config import RunConfig
from repro.modes import ALL_MODES, Mode
from repro.sim.results import RunResult
from repro.sim.setups import ALL_SETUPS, Setup, setup_by_name

T = TypeVar("T")
U = TypeVar("U")

#: One grid cell, in picklable-by-name form: (setup, benchmark, mode, config).
GridCell = Tuple[str, str, str, RunConfig]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` request to a worker count.

    ``None`` or ``1`` mean serial; ``0`` (and negatives) mean "one
    worker per available CPU"; anything else is taken literally.
    """
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def run_cell(cell: GridCell) -> RunResult:
    """Execute one grid cell (the worker-process entry point).

    Every knob, the datapath build included, comes from the config the
    cell carries.
    """
    # Imported lazily: the runner imports this module for its public
    # helpers, so a top-level import would be circular.
    from repro.sim.runner import run_with_config

    setup_name, benchmark, mode_label, config = cell
    return run_with_config(
        setup_by_name(setup_name), Mode(mode_label), benchmark, config
    )


def parallel_map(
    fn: Callable[[T], U],
    items: Sequence[T],
    max_workers: int,
    chunksize: int = 1,
) -> List[U]:
    """``[fn(x) for x in items]`` across ``max_workers`` processes.

    Result order matches ``items`` order.  An exception raised by ``fn``
    propagates once, exactly as it would from the serial loop.  If the
    work cannot be shipped to worker processes (an unpicklable ``fn`` or
    item) or the pool cannot be created or breaks mid-flight, the whole
    list runs serially in-process instead — with a
    :class:`RuntimeWarning`, because degraded execution is never silent.
    """
    if max_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        # Pickled up front so a payload failure (CPython raises
        # AttributeError/TypeError, not PicklingError, for lambdas and
        # locals) is told apart from the same exception raised by fn.
        pickle.dumps((fn, list(items)))
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        return _serial_fallback(fn, items, f"work is not picklable ({exc})")
    try:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            try:
                results = pool.map(fn, items, chunksize=max(chunksize, 1))
            except OSError as exc:
                return _serial_fallback(fn, items, f"pool failed to start ({exc})")
            return list(results)
    except BrokenProcessPool as exc:
        return _serial_fallback(fn, items, f"pool broke ({exc})")


def _serial_fallback(fn: Callable[[T], U], items: Sequence[T], why: str) -> List[U]:
    """Run ``items`` in-process after a pool failure, saying so."""
    warnings.warn(
        f"parallel_map: {why}; running {len(items)} items serially",
        RuntimeWarning,
        stacklevel=3,
    )
    return [fn(item) for item in items]


def grid_cells(
    setups: Iterable[Setup] = ALL_SETUPS,
    benchmarks: Iterable[str] = (),
    modes: Iterable[Mode] = ALL_MODES,
    config: RunConfig = RunConfig(),
) -> List[GridCell]:
    """The grid flattened to cells, in the serial runner's nested order."""
    return [
        (setup.name, benchmark, mode.label, config)
        for setup in setups
        for benchmark in benchmarks
        for mode in modes
    ]


def run_grid(
    setups: Iterable[Setup] = ALL_SETUPS,
    benchmarks: Iterable[str] = (),
    modes: Iterable[Mode] = ALL_MODES,
    config: RunConfig = RunConfig(),
    jobs: Optional[int] = None,
    chunksize: int = 1,
):
    """Run the evaluation grid across ``jobs`` worker processes.

    Returns an :class:`~repro.sim.runner.EvaluationGrid` indistinguishable
    from ``run_figure12(...)`` run serially: cells are merged in the
    serial nested-loop order, so dict iteration (and therefore
    ``to_dict()`` / saved JSON) is identical for any worker count.
    """
    from repro.sim.runner import BENCHMARK_NAMES, EvaluationGrid

    setups = tuple(setups)
    benchmarks = tuple(benchmarks) if benchmarks else BENCHMARK_NAMES
    modes = tuple(modes)
    cells = grid_cells(setups, benchmarks, modes, config)
    results = parallel_map(run_cell, cells, resolve_jobs(jobs), chunksize)

    grid = EvaluationGrid()
    for (setup_name, benchmark, mode_label, _), result in zip(cells, results):
        grid.results.setdefault(setup_name, {}).setdefault(benchmark, {})[
            Mode(mode_label)
        ] = result
    return grid
