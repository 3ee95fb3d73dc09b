"""Unit tests for setups, workloads and the benchmark runner."""

import pytest

from repro.config import RunConfig
from repro.modes import ALL_MODES, Mode
from repro.sim import (
    ALL_SETUPS,
    ApacheBench,
    BRCM_SETUP,
    MLX_SETUP,
    MemcachedBench,
    NetperfRR,
    NetperfStream,
    make_benchmark,
    normalized,
    run_benchmark,
    run_mode_sweep,
    setup_by_name,
)
from repro.sim.scheduler import run_events


def test_setups_match_paper_parameters():
    assert MLX_SETUP.clock_hz == BRCM_SETUP.clock_hz == 3.1e9
    assert MLX_SETUP.c_none_stream == 1816.0
    assert MLX_SETUP.rr_base_rtt_us == 13.4
    assert BRCM_SETUP.rr_base_rtt_us == 34.6
    assert MLX_SETUP.nic_profile.buffers_per_packet == 2
    assert BRCM_SETUP.nic_profile.buffers_per_packet == 1


def test_setup_lookup():
    assert setup_by_name("mlx") is MLX_SETUP
    assert setup_by_name("brcm") is BRCM_SETUP
    with pytest.raises(KeyError):
        setup_by_name("intel")


def test_brcm_scales_only_baseline_modes():
    assert BRCM_SETUP.cost_scale(Mode.STRICT) < 1.0
    assert BRCM_SETUP.cost_scale(Mode.RIOMMU) == 1.0
    assert MLX_SETUP.cost_scale(Mode.STRICT) == 1.0


def test_make_benchmark_names():
    for name in ("stream", "rr", "apache 1M", "apache 1K", "memcached"):
        bench = make_benchmark(name, fast=True)
        assert bench.name == name
    with pytest.raises(KeyError):
        make_benchmark("specint")


def test_apache_response_frames():
    assert ApacheBench(file_bytes=1 << 10).response_frames == 1
    assert ApacheBench(file_bytes=1 << 20).response_frames == 725


def test_stream_none_mode_matches_model():
    result = run_events(NetperfStream(packets=200, warmup=50), MLX_SETUP, Mode.NONE)
    assert result.cycles_per_packet == pytest.approx(1816, rel=0.01)
    assert result.gbps == pytest.approx(20.5, rel=0.02)
    assert result.cpu == 1.0


def test_stream_strict_matches_model():
    result = run_events(NetperfStream(packets=200, warmup=50), MLX_SETUP, Mode.STRICT)
    # C = 1816 + 2 * (4618 + 2999) = 17050
    assert result.cycles_per_packet == pytest.approx(17050, rel=0.01)


def test_stream_brcm_line_rate_saturation():
    for mode in (Mode.STRICT_PLUS, Mode.DEFER, Mode.RIOMMU, Mode.NONE):
        result = run_events(NetperfStream(packets=200, warmup=50), BRCM_SETUP, mode)
        assert result.line_rate_limited
        assert result.gbps == 10.0
    strict = run_events(NetperfStream(packets=200, warmup=50), BRCM_SETUP, Mode.STRICT)
    assert not strict.line_rate_limited
    assert strict.gbps < 5.0


def test_rr_none_matches_base_rtt():
    result = run_events(NetperfRR(transactions=40, warmup=10), MLX_SETUP, Mode.NONE)
    assert result.rtt_us == pytest.approx(13.4, rel=0.01)


def test_rr_riommu_close_to_paper():
    result = run_events(NetperfRR(transactions=80, warmup=10), MLX_SETUP, Mode.RIOMMU)
    assert result.rtt_us == pytest.approx(13.9, abs=0.4)


def test_rr_rtt_ordering():
    workload = NetperfRR(transactions=60, warmup=10)
    rtts = {mode: run_events(workload, MLX_SETUP, mode).rtt_us for mode in ALL_MODES}
    assert rtts[Mode.NONE] < rtts[Mode.RIOMMU] < rtts[Mode.RIOMMU_NC]
    assert rtts[Mode.RIOMMU_NC] < rtts[Mode.STRICT_PLUS] < rtts[Mode.STRICT]


def test_apache_1k_rate_matches_paper():
    result = run_events(
        ApacheBench(file_bytes=1 << 10, requests=30, warmup=5), MLX_SETUP, Mode.NONE
    )
    # Paper §5.2: ~12K requests/second of 1 KB files.
    assert result.requests_per_sec == pytest.approx(12_000, rel=0.06)


def test_apache_1m_is_throughput_bound():
    result = run_events(
        ApacheBench(file_bytes=1 << 20, requests=3, warmup=1), MLX_SETUP, Mode.STRICT
    )
    assert result.gbps is not None and result.gbps < 3.0  # like stream/strict


def test_memcached_order_of_magnitude_faster_than_apache():
    apache = run_events(
        ApacheBench(file_bytes=1 << 10, requests=25, warmup=5), MLX_SETUP, Mode.NONE
    )
    memcached = run_events(MemcachedBench(requests=50, warmup=10), MLX_SETUP, Mode.NONE)
    assert memcached.requests_per_sec > 8 * apache.requests_per_sec


def test_run_benchmark_and_sweep():
    result = run_benchmark(
        MLX_SETUP, Mode.NONE, "memcached", config=RunConfig(fast=True)
    )
    assert result.benchmark == "memcached"
    sweep = run_mode_sweep(
        MLX_SETUP, "memcached", modes=(Mode.NONE, Mode.STRICT),
        config=RunConfig(fast=True),
    )
    assert normalized(sweep, Mode.NONE, Mode.STRICT) > 1.0


def test_workload_run_is_stateless():
    """Two consecutive runs of one instance give identical results.

    run_mode_sweep and the parallel grid runner rely on workloads being
    pure parameter holders: each run builds fresh actors and machines.
    """
    for workload in (
        NetperfStream(packets=200, warmup=40),
        NetperfRR(transactions=50),
        MemcachedBench(requests=100, warmup=20),
    ):
        first = run_events(workload, MLX_SETUP, Mode.STRICT)
        second = run_events(workload, MLX_SETUP, Mode.STRICT)
        assert first.to_dict() == second.to_dict()


def test_result_describe_mentions_key_fields():
    result = run_benchmark(MLX_SETUP, Mode.NONE, "rr", config=RunConfig(fast=True))
    text = result.describe()
    assert "mlx" in text and "rr" in text and "rtt" in text


def test_breakdown_components_sum_to_total():
    result = run_events(NetperfStream(packets=150, warmup=30), MLX_SETUP, Mode.STRICT)
    total = sum(result.per_packet_breakdown.values())
    assert total == pytest.approx(result.cycles_per_packet, rel=1e-6)
    assert result.overhead_per_packet() == pytest.approx(
        result.cycles_per_packet - 1816, rel=0.01
    )
