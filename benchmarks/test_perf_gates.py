"""Wall-clock gates on the simulator's own speed.

The paper's metric is modelled cycles, pinned by goldens elsewhere;
these tests time the host instead, so they are ``@pytest.mark.perf``
and opt-in (``-m perf`` or ``REPRO_RUN_PERF=1``).  Each guards one
live feature with a fixed bound:

* the columnar build is >= 1.3x the scalar reference on the stream
  cells;
* the lite telemetry tier costs <= 3% over ``observe=off``;
* the ``jobs=4`` grid is >= 2x serial, on hosts with >= 4 CPUs.

Run them with::

    REPRO_RUN_PERF=1 python -m pytest benchmarks/test_perf_gates.py -q

End-to-end throughput across commits is the repo benchmark's job
(``benchmarks/e2e/bench.py``), not these tests'.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.config import RunConfig
from repro.modes import Mode
from repro.sim.runner import run_figure12, run_with_config
from repro.sim.setups import setup_by_name

#: The paper's headline stream benchmark under the costliest baseline
#: protection, rIOMMU, and no protection: the inner loops the columnar
#: build specializes.
STREAM_CELLS = (
    ("mlx", "stream", "strict"),
    ("mlx", "stream", "riommu"),
    ("mlx", "stream", "none"),
)


def best_of(fn, repeats: int) -> float:
    """Best wall-clock seconds of ``repeats`` calls of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def runner(cell, **overrides):
    """A call that runs ``cell`` under ``RunConfig.from_env(**overrides)``."""
    setup_name, benchmark, mode_label = cell
    setup, mode = setup_by_name(setup_name), Mode(mode_label)
    config = RunConfig.from_env(**overrides)
    return lambda: run_with_config(setup, mode, benchmark, config)


@pytest.mark.perf
def test_columnar_beats_scalar():
    """Columnar >= 1.3x scalar on every stream cell, fast sizes, best of 3."""
    seconds = {}
    for build in ("scalar", "columnar"):
        for cell in STREAM_CELLS:
            seconds[build, cell] = best_of(
                runner(cell, fast=True, datapath=build), 3
            )
    slow = []
    for cell in STREAM_CELLS:
        ratio = seconds["scalar", cell] / seconds["columnar", cell]
        print(f"{'/'.join(cell)}: columnar {ratio:.2f}x scalar")
        if ratio < 1.3:
            slow.append(f"{'/'.join(cell)} {ratio:.2f}x")
    assert not slow, f"columnar build below 1.3x scalar: {slow}"


@pytest.mark.perf
def test_lite_overhead():
    """``observe=lite`` costs <= 3% over ``off`` across the stream cells.

    Per cell: one untimed warm-up, then the arms alternate for 5
    repeats, so load drift hits both equally; each arm keeps its best.
    The bound is on the aggregate: the fastest cell takes about 13 ms,
    and a per-cell ratio at that scale gates scheduler jitter.
    """
    off_total = lite_total = 0.0
    for cell in STREAM_CELLS:
        off = runner(cell, fast=True, observe="off")
        lite = runner(cell, fast=True, observe="lite")
        off()
        off_s = lite_s = float("inf")
        for _ in range(5):
            off_s = min(off_s, best_of(off, 1))
            lite_s = min(lite_s, best_of(lite, 1))
        off_total += off_s
        lite_total += lite_s
    overhead = lite_total / off_total - 1.0
    print(f"observe=lite overhead over observe=off: {overhead:+.1%}")
    assert overhead <= 0.03, f"observe=lite costs {overhead:+.1%} (bound 3%)"


@pytest.mark.perf
@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs >= 4 CPUs")
def test_parallel_grid_speedup():
    """jobs=4 must beat serial by >= 2x on a 4-core machine."""
    config = RunConfig.from_env(fast=True)
    serial = best_of(lambda: run_figure12(jobs=1, config=config), 1)
    parallel = best_of(lambda: run_figure12(jobs=4, config=config), 1)
    assert parallel <= serial / 2, f"serial {serial:.2f}s, jobs=4 {parallel:.2f}s"
