"""E5 — regenerate the paper's Table 2 (normalised performance)."""

import pytest

from repro.analysis import table2_from_grid
from repro.analysis.paper_data import PAPER_TABLE2, TABLE2_DENOMINATORS
from repro.modes import Mode
from repro.sim import run_figure12


@pytest.mark.benchmark(group="table2")
def test_table2(benchmark, save_artifact):
    result = benchmark.pedantic(
        lambda: table2_from_grid(run_figure12()), rounds=1, iterations=1
    )
    save_artifact("table2", result.render())

    # The anchor cells of the abstract must land within 10% of the paper.
    assert result.cell(
        "mlx", "stream", "throughput", Mode.RIOMMU, Mode.STRICT
    ) == pytest.approx(7.56, rel=0.10)
    assert result.cell(
        "mlx", "stream", "throughput", Mode.RIOMMU, Mode.NONE
    ) == pytest.approx(0.77, rel=0.05)
    assert result.cell(
        "mlx", "stream", "throughput", Mode.RIOMMU_NC, Mode.NONE
    ) == pytest.approx(0.52, rel=0.05)
    assert result.cell(
        "brcm", "stream", "throughput", Mode.RIOMMU, Mode.STRICT
    ) == pytest.approx(2.17, rel=0.12)
    assert result.cell(
        "brcm", "stream", "cpu", Mode.RIOMMU, Mode.STRICT
    ) == pytest.approx(0.36, abs=0.08)

    # Every mlx stream cell within 12%.
    for numerator in (Mode.RIOMMU, Mode.RIOMMU_NC):
        for denominator in TABLE2_DENOMINATORS:
            measured = result.cell("mlx", "stream", "throughput", numerator, denominator)
            paper = PAPER_TABLE2["mlx"]["stream"]["throughput"][numerator][denominator]
            assert measured == pytest.approx(paper, rel=0.12)
