"""Lite telemetry (ISSUE 9): composition, reconciliation, monitoring.

The tier's contract, pinned here:

* ``observe="lite"`` keeps the columnar fast path **active** (the
  full-trace tier vetoes it), while the modelled results stay
  bit-identical to an unobserved run.
* Lite counters reconcile **bit-exactly** with the full-trace
  ``CycleProfiler`` folds in every figure-12 mode and on the
  multi-domain ``mstream`` run.
* The flight recorder freezes its last-N rings when a fault is raised
  and the dump round-trips through ``telemetry/v1`` validation.
* The ``RunMonitor`` emits parseable heartbeat JSONL with progress,
  throughput, ETA and per-tenant SLO burn-rates.
* Checkpoint/resume carries the session-held telemetry state, so a
  resumed run's telemetry equals an uninterrupted one's.
"""

import io
import json

import pytest

from repro.config import RunConfig
from repro.modes import ALL_MODES, Mode
from repro.obs.lite import (
    LITE,
    TELEMETRY_SCHEMA,
    FlightRecorder,
    RunMonitor,
    slo_burn_rate,
    validate_telemetry_records,
    write_telemetry,
)
from repro.obs.metrics import Log2Histogram
from repro.sim.runner import run_with_config
from repro.sim.setups import MLX_SETUP


@pytest.fixture(autouse=True)
def _clean_lite_session():
    LITE.stop()
    LITE.monitor_defaults = None
    yield
    LITE.stop()
    LITE.monitor_defaults = None


#: Profile keys that must match the full-trace observer bit-for-bit.
_PROFILE_KEYS = (
    "total_cycles",
    "by_primitive",
    "by_layer",
    "by_phase",
    "event_counts",
    "accounts",
    "cycles_total",
    "reconcile_delta",
    "reconciles",
)


def _lite(mode, benchmark="stream", **kwargs):
    config = RunConfig(fast=True, observe="lite", **kwargs)
    return run_with_config(MLX_SETUP, mode, benchmark, config)


def _full(mode, benchmark="stream"):
    config = RunConfig(fast=True, observe="full")
    return run_with_config(MLX_SETUP, mode, benchmark, config)


# -- reconciliation against the full-trace profiler -----------------------


@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda mode: mode.label)
def test_lite_counters_match_full_trace_folds_bit_exactly(mode):
    lite = _lite(mode)
    full = _full(mode)
    lite_profile = lite.telemetry["profile"]
    full_profile = full.obs["profile"]
    for key in _PROFILE_KEYS:
        assert lite_profile[key] == full_profile[key], key
    assert lite_profile["reconciles"] is True
    # And neither tier perturbed the modelled numbers.
    assert lite.to_dict() == full.to_dict()


def test_lite_run_is_bit_identical_to_an_unobserved_run():
    lite = _lite(Mode.RIOMMU)
    off = run_with_config(
        MLX_SETUP, Mode.RIOMMU, "stream", RunConfig(fast=True, observe="off")
    )
    assert lite.to_dict() == off.to_dict()
    assert off.telemetry is None
    assert lite.telemetry["schema"] == TELEMETRY_SCHEMA
    assert lite.telemetry["bursts"] > 0


# -- composition: the fast paths stay active under lite --------------------


def test_lite_keeps_the_columnar_fast_path_active(monkeypatch):
    from repro.core.driver import RIommuDriver

    monkeypatch.delenv("REPRO_DATAPATH", raising=False)
    calls = {"n": 0}
    original = RIommuDriver._map_fast

    def spy(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RIommuDriver, "_map_fast", spy)
    result = _lite(Mode.RIOMMU)
    assert calls["n"] > 0, "lite telemetry must not veto the columnar build"
    assert result.telemetry["profile"]["reconciles"] is True

    # The full-trace tier takes the scalar path instead (the veto this
    # PR's tier exists to avoid).
    calls["n"] = 0
    _full(Mode.RIOMMU)
    assert calls["n"] == 0


def test_lite_matches_the_full_trace_profiler_on_mstream():
    lite = _lite(Mode.STRICT, benchmark="mstream")
    full = _full(Mode.STRICT, benchmark="mstream")
    for key in _PROFILE_KEYS:
        assert lite.telemetry["profile"][key] == full.obs["profile"][key], key


# -- flight recorder -------------------------------------------------------


class _FakeActor:
    """A minimal actor: domain, advancing clock, workload phase."""

    def __init__(self, domain=0):
        self.domain = domain
        self.phase = 1
        self._cycles = 0.0

    def clock(self):
        self._cycles += 100.0
        return self._cycles


def test_fault_freezes_the_flight_recorder_and_dump_validates(tmp_path):
    from repro.faults import TranslationFault

    LITE.start(clock_hz=1e9)
    actor = _FakeActor()
    for _ in range(10):
        LITE.on_burst(actor, True)

    with pytest.raises(TranslationFault):
        raise TranslationFault("stale PTE", bdf=0x100, iova=0x2000)

    capture = LITE.recorder.faults[0]
    assert capture["kind"] == "TranslationFault"
    assert capture["detail"]["iova"] == 0x2000
    recent = capture["recent"][0]
    assert len(recent) == 10
    assert recent[-1] == [9, 1000.0, 1]  # [index, clock, phase]

    telemetry = LITE.summary()
    LITE.stop()
    path = tmp_path / "telemetry.jsonl"
    count = write_telemetry(telemetry, str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == count
    assert validate_telemetry_records(records) == []
    faults = [r for r in records if r["event"] == "fault_capture"]
    assert faults and faults[0]["detail"]["bdf"] == 0x100


def test_flight_recorder_strides_and_bounds_deterministically():
    recorder = FlightRecorder(recent=4, ring=8, stride=3)
    actor = _FakeActor(domain=2)
    for _ in range(20):
        recorder.record(actor, actor.clock())
    summary = recorder.summary()
    assert summary["bursts"] == {2: 20}
    # Every 3rd index sampled, ring-bounded to the last 8.
    assert [row[0] for row in summary["samples"][2]] == [0, 3, 6, 9, 12, 15, 18]
    # Recent keeps exactly the last 4 records.
    assert [row[0] for row in summary["recent"][2]] == [16, 17, 18, 19]


# -- live run monitor ------------------------------------------------------


def test_monitor_heartbeats_parse_and_report_progress():
    wall = {"now": 0.0}
    stream = io.StringIO()
    monitor = RunMonitor(
        interval=1.0, check_every=2, stream=stream, clock=lambda: wall["now"]
    )
    actors = [_FakeActor(domain=d) for d in range(2)]
    for burst in range(10):
        wall["now"] += 0.3
        monitor.on_burst(actors[burst % 2], True, clock=float(burst * 50))
    # An actor finishing forces a check; step past the interval so the
    # final heartbeat reflects the completed state.
    wall["now"] += 1.1
    monitor.on_burst(actors[0], False, clock=1000.0)

    lines = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert lines and lines == monitor.heartbeats
    assert [hb["seq"] for hb in lines] == list(range(len(lines)))
    for heartbeat in lines:
        assert heartbeat["event"] == "heartbeat"
        assert heartbeat["schema"] == TELEMETRY_SCHEMA
        assert heartbeat["bursts_per_s"] > 0
    last = lines[-1]
    assert last["actors"] == 2
    assert last["done"] == 1
    assert last["progress"] == 0.5
    assert last["modelled_cycles"] == 1000.0
    assert last["eta_s"] == pytest.approx(last["wall_s"])


def test_monitor_tenant_rows_carry_quantiles_and_slo_burn():
    class _Tenant:
        name = "victim"
        slo_p99_us = 5.0

    actor = _FakeActor()
    actor.tenant = _Tenant()
    actor.hist = Log2Histogram("latency_cycles")
    for _ in range(90):
        actor.hist.observe(1000.0)  # 1 us at 1 GHz — inside SLO
    for _ in range(10):
        actor.hist.observe(64000.0)  # 64 us — breaches it

    recorder = FlightRecorder()
    monitor = RunMonitor(interval=0.0, check_every=1, stream=io.StringIO())
    monitor.clock_hz = 1e9
    monitor.recorder = recorder
    monitor.on_burst(actor, True, clock=100.0)

    row = monitor.heartbeats[-1]["tenants"]["victim"]
    assert row["items"] == 100
    assert row["p99_us"] > row["slo_p99_us"] == 5.0
    assert row["slo_ok"] is False
    assert 0.0 < row["slo_burn"] <= 0.2
    # The first observed breach froze the flight recorder.
    assert recorder.faults[0]["kind"] == "slo_breach"
    assert recorder.faults[0]["detail"]["tenant"] == "victim"


def test_slo_burn_rate_walks_the_log2_buckets():
    hist = Log2Histogram("latency_cycles")
    for _ in range(50):
        hist.observe(100.0)
    for _ in range(50):
        hist.observe(10000.0)
    assert slo_burn_rate(hist, 1e9) == 0.0
    assert slo_burn_rate(hist, 1.0) == 1.0
    middle = slo_burn_rate(hist, 1000.0)
    assert 0.4 <= middle <= 0.6
    # Monotone in the threshold, like any survival function.
    assert slo_burn_rate(hist, 500.0) >= middle >= slo_burn_rate(hist, 5000.0)
    assert slo_burn_rate(Log2Histogram("empty"), 1.0) == 0.0


def test_heartbeat_env_opts_runs_into_monitoring(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_HEARTBEAT", "0")
    result = _lite(Mode.RIOMMU)
    heartbeats = result.telemetry["heartbeats"]
    assert heartbeats, "REPRO_HEARTBEAT=0 must emit at every check"
    for heartbeat in heartbeats:
        assert heartbeat["schema"] == TELEMETRY_SCHEMA
    # Heartbeats stream to stderr as JSONL while the run is live.
    err_lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in err_lines] == heartbeats


# -- checkpoint / resume ---------------------------------------------------


def test_checkpoint_resume_carries_the_telemetry_session(tmp_path):
    from repro.sim.multiring import MultiRingStream
    from repro.sim.scheduler import EventSim, load_checkpoint, save_checkpoint

    def run_sim(interrupt_after=None):
        workload = MultiRingStream(domains=2, packets=120, warmup=30)
        LITE.start(clock_hz=MLX_SETUP.clock_hz)
        try:
            sim = EventSim(workload, MLX_SETUP, Mode.RIOMMU)
            if interrupt_after is not None:
                sim.run(max_events=interrupt_after)
                path = tmp_path / "mid.ckpt"
                save_checkpoint(sim, path)
                LITE.stop()
                LITE.start(clock_hz=MLX_SETUP.clock_hz)
                sim = load_checkpoint(path)
            sim.run()
            result = sim.result()
            return result, LITE.summary(result)
        finally:
            LITE.stop()

    straight_result, straight_telemetry = run_sim()
    resumed_result, resumed_telemetry = run_sim(interrupt_after=7)
    assert resumed_result.to_dict() == straight_result.to_dict()
    assert resumed_telemetry["profile"] == straight_telemetry["profile"]
    assert (
        resumed_telemetry["flight_recorder"]
        == straight_telemetry["flight_recorder"]
    )
    assert resumed_telemetry["bursts"] == straight_telemetry["bursts"]
