"""The multi-tenant interference scenario: determinism, contention, SLOs.

Three claims under test:

* **Determinism** — the scenario is bit-identical whether it runs
  through the runner or straight on the event kernel, including the
  per-tenant latency percentiles (integer histogram-bucket merges).
* **Interference** — a victim tenant's p99 latency under the shared
  baseline IOMMU degrades monotonically as an aggressor's intensity
  rises, while rIOMMU's per-ring reach keeps it flat (the paper's
  isolation argument, extended to multi-tenancy).
* **Mixed criticality** — the SLO gate trips exactly when a critical
  tenant breaches its p99 objective.
"""

import json

import pytest

from repro.config import RunConfig
from repro.modes import Mode
from repro.sim.registry import BENCHMARKS, make_benchmark
from repro.sim.runner import run_with_config
from repro.sim.scheduler import EventSim, run_events
from repro.sim.setups import MLX_SETUP
from repro.sim.tenancy import (
    SCENARIO_PRESETS,
    TENANTS_SCHEMA,
    ScenarioSpec,
    TenantScenario,
    TenantSpec,
    preset_scenario,
)


def _run(scenario, mode):
    config = RunConfig(fast=True, tenancy=scenario)
    return run_with_config(MLX_SETUP, mode, "tenants", config)


# -- specs as data -------------------------------------------------------


def test_spec_json_round_trip():
    spec = preset_scenario("critical")
    wire = json.dumps(spec.to_dict(), sort_keys=True)
    assert ScenarioSpec.from_dict(json.loads(wire)) == spec


def test_every_preset_builds_and_validates():
    for name in SCENARIO_PRESETS:
        spec = preset_scenario(name)
        assert spec.tenants
        assert spec.total_demand > 0
    with pytest.raises(KeyError, match="unknown scenario preset"):
        preset_scenario("noisy-neighbour")


def test_spec_validation_rejects_bad_tenants():
    with pytest.raises(ValueError, match="unknown tenant workload"):
        TenantSpec(name="t", workload="specint")
    with pytest.raises(ValueError, match="needs an slo_p99_us"):
        TenantSpec(name="t", critical=True)
    with pytest.raises(ValueError, match="duplicate tenant names"):
        ScenarioSpec(tenants=(TenantSpec(name="a"), TenantSpec(name="a")))
    with pytest.raises(ValueError, match="iotlb_capacity too small"):
        ScenarioSpec(tenants=(TenantSpec(name="a", domains=40),))


@pytest.mark.parametrize(
    "raw, field",
    [
        ("[]", "scenario must be a JSON object"),
        ("{}", "scenario is missing 'tenants'"),
        ('{"tenants": 3}', "field 'tenants' must be list"),
        ('{"tenants": [5]}', "tenants[0] must be a JSON object"),
        ('{"tenants": [{"name": "a", "x": 1}]}', "tenants[0] has unknown keys ['x']"),
        ('{"tenants": [{"workload": "rr"}]}', "tenants[0] is missing 'name'"),
        ('{"tenants": [{"name": "a", "domains": "2"}]}', "'domains' must be int"),
        ('{"tenants": [{"name": "a", "domains": true}]}', "'domains' must be int"),
        ('{"tenants": [], "qi_bta": 0.1}', "scenario has unknown keys ['qi_bta']"),
        ("{not json", "Expecting property name"),
    ],
)
def test_malformed_scenario_json_raises_value_error(raw, field):
    """Bad ``REPRO_TENANCY`` JSON is a ValueError naming the env var and field."""
    with pytest.raises(ValueError) as excinfo:
        RunConfig.from_env({"REPRO_TENANCY": raw})
    message = str(excinfo.value)
    assert message.startswith("REPRO_TENANCY: ")
    assert field in message


def test_cli_rejects_malformed_scenario_file(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"tenants": [{"name": "a", "bogus": 1}]}))
    assert main(["tenants", "--fast", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"--scenario {path}: tenants[0] has unknown keys ['bogus']" in err


def test_contention_model_is_zero_sum_and_monotone():
    lo = preset_scenario("aggressor", aggressor_intensity=1.0)
    hi = preset_scenario("aggressor", aggressor_intensity=8.0)
    victim_lo, victim_hi = lo.tenants[0], hi.tenants[0]
    # More aggressor demand -> smaller victim IOTLB slice, bigger QI tax.
    assert hi.iotlb_share(victim_hi) < lo.iotlb_share(victim_lo)
    assert hi.qi_factor(victim_hi) > lo.qi_factor(victim_lo)
    # A tenant alone on the IOMMU pays no queueing tax.
    solo = ScenarioSpec(tenants=(TenantSpec(name="only"),))
    assert solo.qi_factor(solo.tenants[0]) == 1.0


# -- registration --------------------------------------------------------


def test_registered_as_non_figure12_benchmark():
    assert "tenants" in BENCHMARKS
    assert BENCHMARKS["tenants"].figure12 is False
    bench = make_benchmark("tenants", fast=True)
    assert isinstance(bench, TenantScenario)
    assert bench.spec == preset_scenario("balanced")


def test_make_benchmark_threads_the_config_tenancy():
    spec = preset_scenario("critical")
    bench = make_benchmark("tenants", fast=True, tenancy=spec)
    assert bench.spec is spec


# -- determinism ---------------------------------------------------------


@pytest.mark.parametrize("mode", (Mode.STRICT, Mode.RIOMMU))
def test_bit_identical_across_engines_and_shard_counts(mode):
    # The name predates the removal of the loop engine and of intra-run
    # sharding; what is left is the runner against the bare kernel.
    scenario = preset_scenario("balanced")
    reference = _run(scenario, mode)
    other = run_events(TenantScenario(spec=scenario, fast=True), MLX_SETUP, mode)
    assert other.to_dict() == reference.to_dict()
    assert other.tenants == reference.tenants


def test_finalize_is_invariant_to_payload_permutation():
    scenario = preset_scenario("balanced")
    bench = TenantScenario(spec=scenario, fast=True)
    sim = EventSim(bench, MLX_SETUP, Mode.STRICT)
    sim.run()
    payloads = [actor.payload() for actor in sim.actors]
    forward = bench.finalize_domains(list(payloads), MLX_SETUP, Mode.STRICT)
    shuffled = bench.finalize_domains(
        list(reversed(payloads)), MLX_SETUP, Mode.STRICT
    )
    assert forward.to_dict() == shuffled.to_dict()
    assert forward.tenants == shuffled.tenants


def test_tenant_report_shape():
    result = _run(preset_scenario("balanced"), Mode.STRICT)
    report = result.tenants
    assert report["schema"] == TENANTS_SCHEMA
    assert report["mode"] == "strict"
    assert [row["tenant"] for row in report["tenants"]] == [
        "t-stream", "t-rr", "t-memcached", "t-apache"
    ]
    for row in report["tenants"]:
        assert row["items"] > 0
        assert 0 < row["p50_us"] <= row["p95_us"] <= row["p99_us"]
        assert row["gbps"] > 0
        assert row["stall_events"] > 0      # strict: shared-IOTLB misses
    # The balanced preset gates nothing.
    assert report["slo"] == {"gated": False, "ok": True, "violations": []}
    # tenants stays out of the golden to_dict surface.
    assert "tenants" not in result.to_dict()


# -- interference --------------------------------------------------------


def test_victim_p99_degrades_with_aggressor_intensity_under_baseline():
    p99s = []
    for intensity in (1.0, 2.0, 4.0, 8.0):
        scenario = preset_scenario("aggressor", aggressor_intensity=intensity)
        result = _run(scenario, Mode.STRICT)
        victim = result.tenants["tenants"][0]
        assert victim["tenant"] == "victim"
        p99s.append(victim["p99_us"])
    assert p99s == sorted(p99s)
    assert p99s[-1] > p99s[0] * 1.3


def test_riommu_isolates_the_victim():
    quiet = preset_scenario("aggressor", aggressor_intensity=1.0)
    loud = preset_scenario("aggressor", aggressor_intensity=8.0)
    quiet_p99 = _run(quiet, Mode.RIOMMU).tenants["tenants"][0]["p99_us"]
    loud_p99 = _run(loud, Mode.RIOMMU).tenants["tenants"][0]["p99_us"]
    # Per-ring rIOTLB reach: the aggressor cannot evict the victim's
    # entries, so p99 moves only by the (QI) queueing tax, never the
    # capacity cliff the baseline falls off.
    assert loud_p99 < quiet_p99 * 1.5
    strict_p99 = _run(loud, Mode.STRICT).tenants["tenants"][0]["p99_us"]
    assert strict_p99 > loud_p99 * 2


# -- mixed criticality ---------------------------------------------------


def test_slo_gate_trips_under_strict_and_clears_under_riommu():
    scenario = preset_scenario("critical")
    assert scenario.slo_gated
    strict = _run(scenario, Mode.STRICT).tenants["slo"]
    assert strict["ok"] is False
    assert strict["violations"] == ["victim"]
    riommu = _run(scenario, Mode.RIOMMU).tenants["slo"]
    assert riommu["ok"] is True
    assert riommu["violations"] == []


def test_non_critical_slo_is_reported_but_never_gates():
    scenario = preset_scenario("aggressor")     # victim slo, not critical
    report = _run(scenario, Mode.STRICT).tenants
    victim = report["tenants"][0]
    assert victim["slo_p99_us"] is not None
    assert report["slo"]["gated"] is False
    assert report["slo"]["violations"] == []
