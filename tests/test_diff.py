"""Cross-run diffing: same-seed runs diff clean, one perturbed charge
is localized to the exact first diverging event with its component
delta — the parity-failure-localization guarantee of ``repro diff``.
"""

import copy
import json

import pytest

from repro.analysis.diff import _run_live, main as diff_main, run_diff
from repro.config import RunConfig
from repro.obs.diffing import (
    DIFF_SCHEMA,
    diff_metrics,
    diff_timelines,
    diff_traces,
    validate_diff_report,
)
from repro.obs.tracer import TRACE


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    TRACE.reset()
    yield
    TRACE.reset()


@pytest.fixture(scope="module")
def golden_records():
    """One traced mlx/rr/strict run, shared by the module's tests."""
    TRACE.reset()
    records = _run_live("mlx/rr/strict", fast=True)
    TRACE.reset()
    return records


def _write_jsonl(path, records):
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


# -- same-seed runs are clean --------------------------------------------


def test_same_seed_live_runs_diff_clean():
    report = run_diff("mlx/rr/strict", "mlx/rr/strict", fast=True)
    assert report.clean
    assert report.divergence is None
    assert report.component_deltas == {}
    assert report.event_count_deltas == {}
    assert "CLEAN" in report.render()


def test_same_artifact_diffs_clean(tmp_path, golden_records):
    path = tmp_path / "golden.jsonl"
    _write_jsonl(path, golden_records)
    assert diff_main([str(path), str(path)]) == 0


def test_live_vs_own_artifact_diffs_clean(tmp_path, golden_records):
    """A recorded artifact matches a fresh live run of the same cell."""
    path = tmp_path / "golden.jsonl"
    _write_jsonl(path, golden_records)
    report = run_diff(str(path), "mlx/rr/strict", fast=True)
    assert report.clean, report.render()


# -- parity-failure localization (the satellite guarantee) ---------------


def test_single_perturbed_charge_is_localized_exactly(golden_records):
    perturbed = copy.deepcopy(golden_records)
    last_reset = max(
        i for i, r in enumerate(perturbed) if r.get("event") == "cycle_reset"
    )
    charges = [
        i
        for i, r in enumerate(perturbed)
        if r.get("event") == "cycle_charge" and i > last_reset
    ]
    target = charges[len(charges) // 2]
    comp = perturbed[target]["comp"]
    perturbed[target] = dict(
        perturbed[target], cycles=perturbed[target]["cycles"] + 7.0
    )

    report = diff_traces(golden_records, perturbed, context=2)
    assert not report.clean
    # Exact first diverging event: the perturbed record itself (body
    # indices exclude the trace_meta header line).
    assert report.divergence["index"] == target - 1
    assert report.divergence["line_a"] == target + 1
    changed = report.divergence["changed_fields"]
    assert list(changed) == ["cycles"]
    a_cycles, b_cycles = changed["cycles"]
    assert b_cycles - a_cycles == 7.0
    # ... and the damage is attributed to the right Table 1 component.
    assert list(report.component_deltas) == [comp]
    assert report.component_deltas[comp][2] == pytest.approx(7.0)
    # Context rows bracket the divergence with same/diff markers.
    rows = report.divergence["context"]
    assert any(not row["same"] for row in rows)
    assert any(row["same"] for row in rows)
    rendered = report.render()
    assert "DIVERGED" in rendered and comp in rendered


def test_warmup_perturbation_localizes_without_component_delta(golden_records):
    """A warmup-phase charge diverges but is excluded from attribution
    (the measured-phase replay mirrors the profiler's reset)."""
    perturbed = copy.deepcopy(golden_records)
    first_charge = next(
        i for i, r in enumerate(perturbed) if r.get("event") == "cycle_charge"
    )
    perturbed[first_charge] = dict(
        perturbed[first_charge], cycles=perturbed[first_charge]["cycles"] + 5.0
    )
    report = diff_traces(golden_records, perturbed)
    assert not report.clean
    assert report.divergence["index"] == first_charge - 1
    assert report.component_deltas == {}


def test_dropped_event_shows_length_mismatch(golden_records):
    truncated = golden_records[:-10]
    report = diff_traces(golden_records, truncated)
    assert not report.clean
    assert report.length_a == report.length_b + 10
    assert report.divergence["index"] == report.length_b
    assert "length mismatch" in report.render()


def test_acct_and_domain_renumbering_is_not_divergence(golden_records):
    """Process-local counters (acct ids, VT-d domain ids) are offset
    noise, not divergence — the diff canonicalizes them."""
    shifted = []
    for record in golden_records:
        record = dict(record)
        if "acct" in record:
            record["acct"] = record["acct"] + 17
        if record.get("event") == "unmap" and "domain" in record:
            record["domain"] = record["domain"] + 17
        if record.get("event") == "invalidate" and "tag" in record:
            record["tag"] = record["tag"] + 17
        if record.get("event") == "qi_submit" and record.get("opcode") in (1, 2):
            record["operand1"] = record["operand1"] + 17
        shifted.append(record)
    assert diff_traces(golden_records, shifted).clean


# -- timeline and metrics diffs ------------------------------------------


def _observed_timeline(mode_label):
    from repro.modes import Mode
    from repro.sim.runner import run_benchmark
    from repro.sim.setups import MLX_SETUP

    result = run_benchmark(
        MLX_SETUP,
        Mode(mode_label),
        "rr",
        config=RunConfig(fast=True, observe=True),
    )
    return result.obs["timeline"]


def test_timeline_diff_clean_and_perturbed(tmp_path):
    summary = _observed_timeline("strict")
    assert diff_timelines(summary, summary).clean
    TRACE.reset()

    perturbed = json.loads(json.dumps(summary))
    window = perturbed["windows"][len(perturbed["windows"]) // 2]
    comp = next(iter(window["cycles"]))
    window["cycles"][comp] += 9.0
    report = diff_timelines(summary, perturbed)
    assert not report.clean
    assert report.divergence["index"] == window["w"] == summary["windows"][
        len(summary["windows"]) // 2
    ]["w"]
    assert report.component_deltas[comp][2] == pytest.approx(9.0)

    # File-based timeline diff through the CLI sniffs the kind.
    from repro.obs.timeline import write_timeline

    a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_timeline(summary, a_path)
    write_timeline(perturbed, b_path)
    assert diff_main([str(a_path), str(b_path)]) == 1
    assert diff_main([str(a_path), str(a_path)]) == 0


def test_metrics_diff_flattens_and_skips_timestamp():
    a = {
        "schema": "riommu-repro/trace-metrics/v1",
        "timestamp": "2026-01-01T00:00:00",
        "event_counts": {"map": 10, "unmap": 10},
        "span_cycles": 1000.0,
    }
    b = json.loads(json.dumps(a))
    b["timestamp"] = "2026-01-02T00:00:00"
    assert diff_metrics(a, b).clean

    b["event_counts"]["map"] = 12
    report = diff_metrics(a, b)
    assert not report.clean
    assert report.metric_deltas == {"event_counts.map": [10, 12, 2]}


# -- CLI exit codes + report schema --------------------------------------


def test_cli_exit_codes(tmp_path, golden_records):
    # 2: usage (missing args, unknown path, kind mismatch).
    assert diff_main([]) == 2
    assert diff_main(["no/such/path.jsonl", "also/missing.jsonl"]) == 2
    trace_path = tmp_path / "t.jsonl"
    _write_jsonl(trace_path, golden_records)
    metrics_path = tmp_path / "m.json"
    metrics_path.write_text(
        json.dumps(
            {
                "schema": "riommu-repro/trace-metrics/v1",
                "event_counts": {},
                "span_cycles": 0.0,
                "cycles_by_component": {},
            }
        )
    )
    assert diff_main([str(trace_path), str(metrics_path)]) == 2
    # 0/1 paths are covered above; --json writes a valid report.
    out = tmp_path / "report.json"
    assert diff_main([str(trace_path), str(trace_path), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == DIFF_SCHEMA
    assert validate_diff_report(payload) == []


def test_diff_report_roundtrip_validates(golden_records):
    perturbed = copy.deepcopy(golden_records)
    perturbed.append({"event": "map", "ts": 1.0})
    report = diff_traces(golden_records, perturbed)
    assert validate_diff_report(report.to_dict()) == []
    # Damaged reports fail validation.
    bad = report.to_dict()
    bad["kind"] = "nonsense"
    assert any("kind" in e for e in validate_diff_report(bad))
    bad = report.to_dict()
    bad["clean"] = True
    assert any("clean" in e for e in validate_diff_report(bad))


def test_live_diff_refuses_while_recording():
    TRACE.enable()
    try:
        with pytest.raises(ValueError, match="recording"):
            _run_live("mlx/rr/strict", fast=True)
    finally:
        TRACE.disable()
