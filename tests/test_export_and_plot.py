"""Tests for trace persistence, JSON export, and ASCII plotting."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.analysis.ascii_plot import bar_chart, stacked_bar_chart, xy_plot
from repro.config import RunConfig
from repro.modes import Mode
from repro.prefetch import (
    EventKind,
    TraceEvent,
    load_trace,
    save_trace,
    synthesize_ring_trace,
)
from repro.sim import MLX_SETUP, run_benchmark, run_figure12


# -- trace persistence ------------------------------------------------------


def test_trace_roundtrip(tmp_path):
    trace = synthesize_ring_trace(ring_entries=8, rounds=2, reuse_window=16)
    path = tmp_path / "trace.txt"
    save_trace(trace, path)
    assert load_trace(path) == trace


def test_trace_file_format(tmp_path):
    path = tmp_path / "trace.txt"
    save_trace([TraceEvent(EventKind.MAP, 7), TraceEvent(EventKind.ACCESS, 7)], path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "M 7"
    assert lines[2] == "A 7"


def test_trace_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("# comment\n\nM 3\n# more\nU 3\n")
    trace = load_trace(path)
    assert [e.kind for e in trace] == [EventKind.MAP, EventKind.UNMAP]


def test_trace_load_rejects_garbage(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("Z not-a-number\n")
    with pytest.raises(ValueError):
        load_trace(path)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(EventKind)), st.integers(min_value=0, max_value=1 << 36)
        ),
        max_size=50,
    )
)
def test_property_trace_roundtrip(tmp_path_factory, events):
    trace = [TraceEvent(kind, vpn) for kind, vpn in events]
    path = tmp_path_factory.mktemp("traces") / "t.txt"
    save_trace(trace, path)
    assert load_trace(path) == trace


# -- JSON export ----------------------------------------------------------------


def test_run_result_to_dict():
    result = run_benchmark(
        MLX_SETUP, Mode.NONE, "memcached", config=RunConfig(fast=True)
    )
    data = result.to_dict()
    assert data["mode"] == "none"
    assert data["benchmark"] == "memcached"
    assert data["throughput_metric"] > 0
    json.dumps(data)  # must be JSON-serialisable


def test_grid_save_json(tmp_path):
    grid = run_figure12(
        setups=[MLX_SETUP],
        benchmarks=["memcached"],
        modes=[Mode.NONE, Mode.RIOMMU],
        config=RunConfig(fast=True),
    )
    path = tmp_path / "grid.json"
    grid.save_json(path)
    loaded = json.loads(path.read_text())
    assert loaded["mlx"]["memcached"]["riommu"]["cpu"] == 1.0


# -- ASCII plots ---------------------------------------------------------------------


def test_bar_chart_scales_to_peak():
    chart = bar_chart(["a", "bb"], [10.0, 20.0], width=10)
    lines = chart.splitlines()
    assert lines[0].count("#") == 5
    assert lines[1].count("#") == 10


def test_bar_chart_validation():
    with pytest.raises(ValueError):
        bar_chart(["a"], [1.0, 2.0])


def test_bar_chart_empty():
    assert bar_chart([], [], title="t") == "t"


def test_stacked_bar_chart_has_legend_and_rows():
    chart = stacked_bar_chart(
        ["m1", "m2"],
        [{"x": 5.0, "y": 5.0}, {"x": 1.0, "y": 2.0}],
        width=20,
    )
    assert "x" in chart and "y" in chart
    assert len(chart.splitlines()) == 3  # legend + 2 rows


def test_xy_plot_contains_all_series_glyphs():
    chart = xy_plot(
        {"a": [(1, 1), (2, 2)], "b": [(1.5, 1.5)]}, width=20, height=8, glyphs="*o"
    )
    assert "*" in chart and "o" in chart
    assert "a" in chart and "b" in chart


def test_xy_plot_log_axis_labels():
    chart = xy_plot({"s": [(100, 1), (10000, 2)]}, logx=True, width=30, height=6)
    assert "100" in chart and "10,000" in chart


def test_xy_plot_empty():
    assert xy_plot({}, title="nothing") == "nothing"


def test_figure_renders_include_charts():
    from repro.analysis import run_figure7

    text = run_figure7(packets=120, warmup=30).render()
    assert "iotlb inv" in text  # the table
    assert "|" in text and "#" in text  # the chart
