"""Tests of the end-to-end benchmark itself, at small sizes (about 20 s).

Run with ``python -m pytest benchmarks/e2e -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

cells = bench._import_simulator()
import layers  # noqa: E402

SPEC = bench.load_spec()


def _bench(*args: str, **env: str) -> subprocess.CompletedProcess:
    environ = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    environ.update(env)
    return subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *args],
        capture_output=True,
        text=True,
        env=environ,
        cwd=bench.ROOT,
        timeout=170,
    )


def _assert_printed(proc: subprocess.CompletedProcess, metrics) -> None:
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [metric["name"] for metric in metrics]
    for metric in metrics:
        printed = line["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        pattern = rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}\b"
        assert re.search(pattern, proc.stdout, re.M), metric["name"]


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc = _bench("--workload", "tx-riommu", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    _assert_printed(proc, SPEC["end_to_end"])
    assert "digests=pinned reference=ok" in proc.stdout


def test_every_per_layer_metric_is_printed_with_its_unit():
    proc = _bench("--workload", "tenants-mix", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    _assert_printed(proc, SPEC["per_layer"])


def test_perturbed_cell_result_raises_fail_frac(monkeypatch):
    clean = bench.measure("tx-riommu", 1, rounds=1, sizes=cells.SMALL)
    pinned = clean["digests"]
    again = bench.measure("tx-riommu", 1, rounds=1, sizes=cells.SMALL, pinned=pinned)
    assert bench.end_to_end_metrics(again)["fail_frac"] == 0

    original = cells.NetperfStream._result

    def perturbed(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        result.cpu *= 1.0 + 1e-12
        return result

    monkeypatch.setattr(cells.NetperfStream, "_result", perturbed)
    bad = bench.measure("tx-riommu", 1, rounds=1, sizes=cells.SMALL, pinned=pinned)
    assert bench.end_to_end_metrics(bad)["fail_frac"] == 1.0
    assert bad["failed"] == bad["attempted"] == 2


def test_fold_charges_builtins_to_the_caller_layer():
    layer_of = layers.package_layer_of("/pkg/repro", "/bench/e2e")
    loop = ("/bench/e2e/bench.py", 10, "loop")
    walk = ("/pkg/repro/iommu/page_table.py", 20, "walk")
    builtin = ("~", 0, "<built-in method builtins.sorted>")
    key = ("/usr/lib/python3/enum.py", 30, "__hash__")
    stats = {
        loop: (1, 1, 0.1, 1.0, {}),
        walk: (2, 2, 0.5, 0.9, {loop: (2, 2, 0.5, 0.9)}),
        builtin: (4, 4, 0.2, 0.3, {walk: (3, 3, 0.15, 0.225), loop: (1, 1, 0.05, 0.075)}),
        key: (1, 1, 0.1, 0.1, {builtin: (1, 1, 0.1, 0.1)}),
    }
    folded = layers.fold(stats, layer_of)
    # sorted() runs 3/4 of its time under walk; the key function it calls
    # is charged through it, by sorted's cumulative-time split.
    assert folded["iommu"]["self_s"] == pytest.approx(0.5 + 0.15 + 0.1 * 0.75)
    assert folded["other"]["self_s"] == pytest.approx(0.1 + 0.05 + 0.1 * 0.25)
    assert folded["iommu"]["calls"] == pytest.approx(2 + 3 + 0.75)
    assert folded["iommu"]["entries"] == 2
    assert sum(layer["self_s"] for layer in folded.values()) == pytest.approx(0.9)
    assert sum(layer["calls"] for layer in folded.values()) == pytest.approx(8)


@pytest.fixture(scope="module")
def traced_pair():
    return [
        bench.measure("tx-baseline", 1, rounds=1, trace=True, sizes=cells.SMALL)
        for _ in range(2)
    ]


def test_layer_self_times_sum_to_the_profiled_time(traced_pair):
    for record in traced_pair:
        trace = record["trace"]
        folded = sum(layer["self_s"] for layer in trace["layers"].values())
        assert folded == pytest.approx(trace["profiled_s"], rel=0.01)


def test_calls_per_pkt_repeat_exactly_across_traced_runs(traced_pair):
    first, second = (bench.per_layer_metrics(record) for record in traced_pair)
    counts = [name for name in first if name.endswith(("calls_per_pkt", "entries_per_pkt"))]
    assert len(counts) == 2 * len(layers.LAYERS) + 1
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    assert first["iommu.calls_per_pkt"] > 0


def test_tenant_mix_is_seeded():
    assert cells.tenant_mix(1) == cells.tenant_mix(1)
    assert cells.tenant_mix(1) != cells.tenant_mix(2)
    for seed in range(1, 40):
        tenants = cells.tenant_mix(seed).tenants
        assert sorted(t.workload for t in tenants) == sorted(cells.TENANT_DEMAND)
        assert sum(t.domains for t in tenants) == 6
        split = {t.workload for t in tenants if t.domains == 2}
        assert all(len(split & set(pair)) == 1 for pair in cells.SPLIT_PAIRS)
        for tenant in tenants:
            assert tenant.domains * tenant.intensity == cells.TENANT_DEMAND[tenant.workload]


def test_guard_refuses_a_repro_variable_that_changes_the_configuration():
    proc = _bench("--workload", "tx-riommu", "--seconds", "1", REPRO_DATAPATH="scalar")
    assert proc.returncode == 2
    assert "REPRO_DATAPATH" in proc.stderr and "{" not in proc.stdout
    bench.check_environment({"REPRO_RUN_PERF": "1", "REPRO_HEARTBEAT": "1"})
    with pytest.raises(bench.GuardError):
        bench.check_environment({"REPRO_SHARDS": "2"})
    with pytest.raises(bench.GuardError):
        bench.check_environment({"REPRO_OBSERVE": "bogus"})


def test_guard_refuses_a_percentile_with_a_thin_tail():
    record = {"workload": "w", "bursts": [1e-6] * 999}
    with pytest.raises(bench.GuardError, match="9 samples beyond"):
        bench.check_percentiles(record)
    bench.check_percentiles({"workload": "w", "bursts": [1e-6] * 1000})


def test_compare_verdicts():
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert bench.verdict(a, [x * 1.01 for x in a], "higher", 0.08) == "within bound"
    assert bench.verdict(a, [x * 0.85 for x in a], "higher", 0.08) == "worse"
    assert bench.verdict(a, [x * 1.2 for x in a], "higher", 0.08) == "better"
    assert bench.verdict(a, [60.0, 140.0, 100.0, 70.0, 130.0], "higher", 0.08) == "unresolved"
    assert bench.verdict([0.0] * 5, [0.0, 0.0, 0.5, 0.0, 0.0], "lower", 0.0) == "worse"
    assert bench.verdict([0.12] * 5, [0.12] * 5, "lower", 0.0) == "within bound"
