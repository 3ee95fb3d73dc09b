"""Tests for the perf trajectory harness.

The smoke test always runs (tiny grid, asserts the report shape and
that ``BENCH_runner.json`` lands on disk).  The timing assertions are
``@pytest.mark.perf`` — opt-in, because wall-clock thresholds are
meaningless on loaded or single-core CI machines.  Run them with
``pytest -m perf benchmarks/test_perf_harness.py`` or
``REPRO_RUN_PERF=1 pytest benchmarks/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from perf_harness import DEFAULT_OUTPUT, run_harness, time_call


def test_harness_smoke_emits_report(tmp_path):
    """A tiny harness run produces a well-formed BENCH_runner.json."""
    out = tmp_path / "BENCH_runner.json"
    report = run_harness(
        jobs=2,
        fast=True,
        repeats=1,
        setups=("mlx",),
        benchmarks=("rr",),
        modes=("strict", "none"),
        output=out,
    )
    assert out.exists()
    on_disk = json.loads(out.read_text())
    assert on_disk["schema"] == "riommu-repro/bench-runner/v2"
    assert on_disk["datapath"] in ("scalar", "columnar")
    assert on_disk["fastpath_enabled"] == (on_disk["datapath"] != "scalar")
    assert on_disk["grid"]["cells"] == 2
    assert on_disk["grid"]["serial_seconds"] > 0
    assert on_disk["grid"]["parallel_seconds"] > 0
    assert on_disk["grid"]["speedup_vs_serial"] > 0
    assert len(on_disk["cells"]) == 8
    for row in on_disk["cells"]:
        assert row["seconds"] > 0
    # The tenant sweep cells ride in the representative set: the
    # balanced multi-tenant scenario under strict and under rIOMMU.
    tenant_rows = [r for r in on_disk["cells"] if r["benchmark"] == "tenants"]
    assert {r["mode"] for r in tenant_rows} == {"strict", "riommu"}
    assert on_disk["shards"] >= 1
    assert on_disk["observe"] in ("off", "lite", "full")
    sharding = on_disk["sharding"]
    assert sharding["cell"] == "mlx/mstream/strict"
    assert sharding["serial_seconds"] > 0
    assert sharding["sharded_seconds"] > 0
    assert sharding["speedup_vs_serial"] > 0
    # The lite-telemetry overhead column: every stream cell timed under
    # observe=off and observe=lite, with the ratio spelled out.
    lite_rows = on_disk["observe_lite"]
    assert [row["cell"] for row in lite_rows] == [
        "mlx/stream/strict",
        "mlx/stream/riommu",
        "mlx/stream/none",
    ]
    for row in lite_rows:
        assert row["off_seconds"] > 0
        assert row["lite_seconds"] > 0
        # seconds are rounded to 4 decimals in the report, so the
        # recomputed ratio only matches loosely on fast (tiny) cells.
        assert row["overhead_vs_off"] == pytest.approx(
            row["lite_seconds"] / row["off_seconds"] - 1.0, abs=0.01
        )
    assert report["output_path"] == str(out)


def test_observe_bench_can_be_skipped(tmp_path):
    out = tmp_path / "BENCH_runner.json"
    report = run_harness(
        jobs=1,
        repeats=1,
        setups=("mlx",),
        benchmarks=("rr",),
        modes=("strict",),
        output=out,
        quick=True,
        shard_bench=0,
        observe_bench=False,
    )
    assert report["observe_lite"] is None


def test_default_output_location():
    """The default report path sits under benchmarks/output/."""
    assert DEFAULT_OUTPUT.name == "BENCH_runner.json"
    assert DEFAULT_OUTPUT.parent.name == "output"


def test_shard_speedup_skip_predicate():
    """The gate skips exactly when the host has fewer cores than shards."""
    import perf_gate

    assert perf_gate.shard_speedup_skip_reason(4, cores=1) is not None
    assert perf_gate.shard_speedup_skip_reason(4, cores=3) is not None
    assert perf_gate.shard_speedup_skip_reason(4, cores=4) is None
    assert perf_gate.shard_speedup_skip_reason(4, cores=16) is None
    assert perf_gate.shard_speedup_skip_reason(1, cores=1) is None


def test_shard_speedup_skips_without_timing(monkeypatch):
    """Under-provisioned hosts never time the cell (no misleading ratio)."""
    import perf_gate

    monkeypatch.setattr(perf_gate.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(
        perf_gate,
        "time_sharding",
        lambda **kwargs: pytest.fail("time_sharding must not run when skipped"),
    )
    measurement, errors = perf_gate.check_shard_speedup(1.5, shards=4)
    assert errors == []
    assert measurement["skipped"] is True
    assert measurement["enforced"] is False
    assert "1 cores < 4 shards" in measurement["skip_reason"]
    assert "speedup_vs_serial" not in measurement


def test_lite_overhead_gate_quantifies_breaches(monkeypatch):
    """The gate compares the aggregate and quantifies a breach.

    Gating per cell would fail on scheduler jitter (the fastest stream
    cell is ~13ms at fast sizing); the aggregate is what the 3% CI
    contract holds.
    """
    import perf_gate

    rows = [
        {"cell": "mlx/stream/strict", "off_seconds": 0.10,
         "lite_seconds": 0.101, "overhead_vs_off": 0.01},
        {"cell": "mlx/stream/riommu", "off_seconds": 0.10,
         "lite_seconds": 0.12, "overhead_vs_off": 0.20},
    ]
    monkeypatch.setattr(
        perf_gate, "time_observe_overhead", lambda **kwargs: [dict(r) for r in rows]
    )
    # Aggregate: 0.221 / 0.20 - 1 = +10.5% — over a 3% gate.
    measurement, errors = perf_gate.check_lite_overhead(0.03)
    assert len(errors) == 1
    assert "+10.5%" in errors[0] and "<= 3%" in errors[0]
    assert measurement["overhead_vs_off"] == pytest.approx(0.105)
    assert measurement["max_overhead"] == 0.03
    assert [row["cell"] for row in measurement["cells"]] == [
        "mlx/stream/strict", "mlx/stream/riommu",
    ]
    # ... and clean under a tolerance that admits it.
    _, clean = perf_gate.check_lite_overhead(0.25)
    assert clean == []


@pytest.mark.perf
def test_fastpath_speeds_up_single_cell():
    """The stream cell must be >= 15% faster with fast paths enabled.

    The slow path is forced in a subprocess via REPRO_DATAPATH=scalar
    (the build is read at import time), so both arms measure the same
    code on the same machine back to back.  The always-on
    micro-optimisations (context-lookup cache, cached rbtree keys,
    inlined cacheline arithmetic) speed up *both* arms.
    """
    code = (
        "import time\n"
        "from repro.sim.parallel import run_cell\n"
        "cell = ('mlx', 'stream', 'strict', False)\n"
        "best = min(\n"
        "    (lambda t0: (run_cell(cell), time.perf_counter() - t0)[1])(\n"
        "        time.perf_counter())\n"
        "    for _ in range(3)\n"
        ")\n"
        "print(best)\n"
    )

    def run(extra_env):
        env = dict(os.environ, **extra_env)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        return float(out.stdout.strip())

    fast = run({})
    slow = run({"REPRO_DATAPATH": "scalar"})
    assert fast <= slow * 0.85, f"fastpath {fast:.3f}s vs slowpath {slow:.3f}s"


@pytest.mark.perf
@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs >= 4 CPUs")
def test_parallel_grid_speedup():
    """jobs=4 must beat serial by >= 2x on a 4-core machine."""
    from repro.sim.runner import run_figure12

    from repro.config import RunConfig

    config = RunConfig.from_env(fast=True)
    serial = time_call(lambda: run_figure12(jobs=1, config=config), repeats=1)
    parallel = time_call(lambda: run_figure12(jobs=4, config=config), repeats=1)
    assert parallel <= serial / 2, f"serial {serial:.2f}s, jobs=4 {parallel:.2f}s"
