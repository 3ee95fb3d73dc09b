"""E4 — regenerate the paper's Figure 12 (the full evaluation grid)."""

import pytest

from repro.analysis.figure12 import Figure12Result
from repro.modes import ALL_MODES, Mode
from repro.sim import run_figure12


@pytest.fixture(scope="module")
def grid():
    return run_figure12()


@pytest.mark.benchmark(group="figure12")
def test_figure12(benchmark, save_artifact, grid):
    result = benchmark.pedantic(lambda: Figure12Result(grid=grid), rounds=1, iterations=1)
    save_artifact("figure12", result.render())

    mlx_stream = grid.panel("mlx", "stream")
    assert mlx_stream[Mode.RIOMMU].gbps / mlx_stream[Mode.NONE].gbps == pytest.approx(
        0.77, abs=0.03
    )
    brcm_stream = grid.panel("brcm", "stream")
    for mode in ALL_MODES:
        if mode is Mode.STRICT:
            assert brcm_stream[mode].gbps < 10.0
        else:
            assert brcm_stream[mode].gbps == 10.0

    # Apache 1K: both setups serve ~12K requests/s with the IOMMU off (§5.2).
    for setup in ("mlx", "brcm"):
        none = grid.get(setup, "apache 1K", Mode.NONE)
        assert none.requests_per_sec == pytest.approx(12_000, rel=0.08)

    # Memcached is an order of magnitude faster than Apache 1K (§5.2).
    for setup in ("mlx", "brcm"):
        memcached = grid.get(setup, "memcached", Mode.NONE).requests_per_sec
        apache = grid.get(setup, "apache 1K", Mode.NONE).requests_per_sec
        assert memcached > 8 * apache
