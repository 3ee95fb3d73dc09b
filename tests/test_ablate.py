"""The ablation engine's determinism, gating and validation contracts.

The load-bearing properties: content-hashed run IDs are stable across
invocations, completed arms are never re-run, serial and parallel
executions emit byte-identical ranked reports, every arm's cycle
attribution reconciles bit-exactly, and the harmful-component gate
fails the run.
"""

import hashlib
import json

import pytest

from repro.analysis.ablate import (
    AblationReport,
    build_plan,
    build_report,
    execute_plan,
    main as ablate_main,
    select_components,
    validate_ablation_arm,
    validate_ablation_report,
)
from repro.sim.components import COMPONENTS, ArmSpec, arm_id, run_arm

#: Small registry subset used by the executing tests: four distinct
#: arms (shared baseline + prefetch-removed + strict+ + strict) at
#: fast sizing keeps the suite quick.
SUBSET = ["magazine-allocator", "prefetcher"]


@pytest.fixture(scope="module")
def small_plan():
    return build_plan(select_components(SUBSET), ArmSpec(fast=True))


@pytest.fixture(scope="module")
def executed(small_plan, tmp_path_factory):
    out = tmp_path_factory.mktemp("arms")
    return execute_plan(small_plan, str(out))


# -- plan determinism ------------------------------------------------------


def test_arm_id_is_content_hash_of_canonical_json():
    spec = ArmSpec(fast=True)
    blob = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    assert arm_id(spec) == hashlib.sha256(blob.encode()).hexdigest()[:12]


def test_arm_ids_stable_across_invocations():
    first = build_plan(select_components(None), ArmSpec(fast=True))
    second = build_plan(select_components(None), ArmSpec(fast=True))
    assert list(first.arms) == list(second.arms)
    assert first.pairs == second.pairs


def test_plan_dedupes_shared_arms(small_plan):
    # magazine-allocator contributes strict+/strict, prefetcher keeps
    # the baseline as its present arm: 4 distinct arms, not 5.
    assert len(small_plan.arms) == 4
    present_ids = {present for _n, present, _r in small_plan.pairs}
    assert arm_id(small_plan.baseline) in present_ids


def test_full_registry_plan_covers_all_components():
    plan = build_plan(select_components(None), ArmSpec(fast=True))
    assert len(plan.pairs) == len(COMPONENTS) >= 5
    for _name, present, removed in plan.pairs:
        assert present in plan.arms and removed in plan.arms


def test_distinct_specs_hash_distinctly():
    base = ArmSpec(fast=True)
    assert arm_id(base) != arm_id(ArmSpec(fast=True, mode="strict"))
    assert arm_id(base) != arm_id(
        ArmSpec(fast=True, machine_kwargs={"riommu_prefetch": False})
    )


def test_armspec_rejects_unknown_mode_and_build():
    with pytest.raises(ValueError):
        ArmSpec(mode="nonsense")
    with pytest.raises(ValueError):
        ArmSpec(datapath="vectorized")


# -- execution: evidence + repeat avoidance --------------------------------


def test_every_arm_reconciles_bit_exactly(executed):
    for record in executed.values():
        assert record["reconciles"] is True
        assert record["reconcile_delta"] == 0.0
        assert record["attributed_cycles"] == record["cycles_total"]
        assert record["passes_agree"] is True


def test_repeat_avoidance_skips_completed_arms(
    small_plan, executed, tmp_path, monkeypatch
):
    out = tmp_path / "arms"
    out.mkdir()
    for arm, record in executed.items():
        (out / f"arm-{arm}.json").write_text(json.dumps(record))

    def explode(_payload):  # pragma: no cover - failure path
        raise AssertionError("completed arm was re-executed")

    monkeypatch.setattr("repro.analysis.ablate.run_arm", explode)
    records = execute_plan(small_plan, str(out))
    assert records == executed


def test_stale_record_is_re_run(small_plan, executed, tmp_path):
    out = tmp_path / "arms"
    out.mkdir()
    arms = list(executed)
    for arm, record in executed.items():
        (out / f"arm-{arm}.json").write_text(json.dumps(record))
    # Corrupt one record's embedded ID: it must be treated as stale.
    stale = dict(executed[arms[0]], id="000000000000")
    (out / f"arm-{arms[0]}.json").write_text(json.dumps(stale))
    records = execute_plan(small_plan, str(out))
    assert records[arms[0]]["id"] == arms[0]
    assert records == executed


def test_serial_and_parallel_reports_bit_identical(small_plan, tmp_path):
    serial = execute_plan(small_plan, str(tmp_path / "serial"), jobs=None)
    parallel = execute_plan(small_plan, str(tmp_path / "parallel"), jobs=2)
    serial_json = build_report(small_plan, serial).to_json()
    parallel_json = build_report(small_plan, parallel).to_json()
    assert serial_json == parallel_json


# -- ranking + gate --------------------------------------------------------


def test_report_ranks_magazine_allocator_first(small_plan, executed):
    report = build_report(small_plan, executed)
    assert report.rows[0]["component"] == "magazine-allocator"
    assert report.rows[0]["throughput_delta"] > 0
    assert report.passed and not report.harmful
    assert "magazine-allocator" in report.render()


def test_harmful_component_gates_report(tmp_path):
    components = select_components(
        ["prefetcher", "injected-overhead"], inject_harmful=True
    )
    plan = build_plan(components, ArmSpec(fast=True))
    records = execute_plan(plan, str(tmp_path))
    report = build_report(plan, records)
    assert report.harmful == ["injected-overhead"]
    assert not report.passed
    assert "HARMFUL" in report.render()


def test_unreconciled_arm_fails_report(small_plan, executed):
    broken = {arm: dict(rec) for arm, rec in executed.items()}
    victim = next(iter(broken))
    broken[victim]["reconciles"] = False
    report = build_report(small_plan, broken)
    assert report.unreconciled == [victim]
    assert not report.passed


def test_html_section_renders(small_plan, executed):
    report = build_report(small_plan, executed)
    html = report.to_html()
    assert "Ablation ranking" in html and "badge pass" in html


def test_dashboard_embeds_ablation_section(small_plan, executed):
    from repro.analysis.dashboard import RunReport
    from repro.sim.runner import EvaluationGrid

    report = build_report(small_plan, executed)
    dash = RunReport(grid=EvaluationGrid(), ablation=report)
    assert "Ablation ranking" in dash.to_html()
    assert "Component importance" in dash.render()
    # A failing ablation fails the embedding report's verdict too.
    failing = AblationReport(
        rows=[dict(report.rows[0], harmful=True)],
        arms=report.arms,
        baseline_id=report.baseline_id,
    )
    assert not RunReport(grid=EvaluationGrid(), ablation=failing).passed


# -- validation ------------------------------------------------------------


def test_report_payload_validates(small_plan, executed):
    payload = json.loads(build_report(small_plan, executed).to_json())
    assert validate_ablation_report(payload) == []


def test_validator_catches_corruption(small_plan, executed):
    payload = json.loads(build_report(small_plan, executed).to_json())
    del payload["ranking"][0]["throughput_delta"]
    assert validate_ablation_report(payload)
    payload = json.loads(build_report(small_plan, executed).to_json())
    victim = next(iter(payload["arms"]))
    payload["arms"][victim]["spec"]["mode"] = "strict"
    assert any("hashes to" in e for e in validate_ablation_report(payload))


def test_arm_record_validates_standalone(executed):
    record = next(iter(executed.values()))
    assert validate_ablation_arm(record) == []
    assert validate_ablation_arm({**record, "schema": "nope"})


def test_obs_validate_dispatches_ablation_schemas(
    small_plan, executed, tmp_path, capsys
):
    from repro.obs.validate import main as validate_main

    out = tmp_path / "report.json"
    build_report(small_plan, executed).save_json(str(out))
    arm, record = next(iter(executed.items()))
    (tmp_path / f"arm-{arm}.json").write_text(json.dumps(record))
    assert validate_main([str(tmp_path)]) == 0
    tally = capsys.readouterr().out
    assert "2 ok / 0 skipped / 0 failed" in tally


# -- worker + CLI ----------------------------------------------------------


def test_run_arm_restores_datapath_build():
    from repro import datapath

    before = datapath.current_build()
    run_arm(ArmSpec(fast=True, datapath="scalar").to_dict())
    assert datapath.current_build() == before


def test_cli_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "abl")
    assert (
        ablate_main(
            ["--quick", "--components", "prefetcher", "--out", out]
        )
        == 0
    )
    capsys.readouterr()
    assert ablate_main(["--components", "bogus"]) == 2
    assert "unknown component" in capsys.readouterr().err
    assert ablate_main(["--list"]) == 0
    assert "magazine-allocator" in capsys.readouterr().out
