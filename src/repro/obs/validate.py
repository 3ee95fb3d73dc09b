"""Schema validator CLI: ``python -m repro.obs.validate ARTIFACT ...``.

Validates any observability artifact the repo emits — trace JSONL
(``riommu-repro/trace/v1``), timeline JSONL
(``riommu-repro/timeline/v1``), lite telemetry JSONL
(``riommu-repro/telemetry/v1``), metrics JSON
(``riommu-repro/trace-metrics/v1``), serialized diff reports
(``riommu-repro/diff-report/v1``) and ranked ablation reports
(``riommu-repro/ablation-report/v1``) — dispatching on the declared
schema.  Also reachable as ``repro obs validate``.

Arguments may be files **or directories**: a directory is scanned for
``*.jsonl`` / ``*.json`` members (sorted), each validated by its
schema; members with no recognisable schema are reported as ``SKIP``
without failing the scan (a directory of mixed artifacts — e.g. a CI
run's output — validates as a unit).  A scan that expanded any
directory ends with a one-line tally: ``N ok / N skipped / N failed``.

Exit codes:

===== ==================================================================
code  meaning
===== ==================================================================
0     every validated artifact is schema-valid (skips do not fail)
1     at least one artifact failed validation (each problem printed
      as ``file: message``)
2     usage error (no arguments given)
===== ==================================================================
"""

from __future__ import annotations

import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro.obs.export import TRACE_SCHEMA, read_jsonl, validate_records

#: Marker returned for directory members with no recognisable schema.
_SKIP = "__skip__"


def _validate_json_payload(path: str, explicit: bool) -> List[str]:
    """Validate a whole-file JSON artifact by its declared schema."""
    from repro.obs.diffing import DIFF_SCHEMA, validate_diff_report

    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"unreadable artifact: {exc}"]
    schema = payload.get("schema", "") if isinstance(payload, dict) else ""
    if schema == DIFF_SCHEMA:
        return validate_diff_report(payload)
    if schema.startswith("riommu-repro/ablation-report/"):
        from repro.analysis.ablate import validate_ablation_report

        return validate_ablation_report(payload)
    if schema.startswith("riommu-repro/ablation-arm/"):
        from repro.analysis.ablate import validate_ablation_arm

        return validate_ablation_arm(payload)
    if schema.startswith("riommu-repro/trace-metrics/"):
        missing = [
            key
            for key in ("event_counts", "span_cycles", "cycles_by_component")
            if key not in payload
        ]
        return [f"metrics summary missing {missing}"] if missing else []
    if explicit:
        return [f"unrecognized schema {schema!r}"]
    return [_SKIP]


def _validate_jsonl_payload(path: str, explicit: bool) -> List[str]:
    """Validate a JSONL artifact, dispatching on its header record."""
    from repro.obs.timeline import validate_timeline_records

    try:
        records = read_jsonl(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable trace: {exc}"]
    if records:
        head = records[0].get("event")
        if head == "timeline_meta":
            return validate_timeline_records(records)
        if head == "telemetry_meta":
            from repro.obs.lite import validate_telemetry_records

            return validate_telemetry_records(records)
        if head != "trace_meta" and not explicit:
            # Directory scan: a headerless JSONL of some other
            # provenance is not ours to judge here.
            return [_SKIP]
    return validate_records(records)


def validate_artifact(path: str, explicit: bool = True) -> List[str]:
    """Validate one artifact file; ``[_SKIP]`` marks unrecognized kinds."""
    if path.endswith(".jsonl"):
        return _validate_jsonl_payload(path, explicit)
    if path.endswith(".json"):
        return _validate_json_payload(path, explicit)
    if explicit:
        # Preserve the historical behaviour for explicit arguments of
        # any extension: treat them as traces.
        try:
            records = read_jsonl(path)
        except (OSError, ValueError) as exc:
            return [f"unreadable trace: {exc}"]
        return validate_records(records)
    return [_SKIP]


def _expand(paths: Sequence[str]) -> List[Tuple[str, bool]]:
    """Expand directories into their artifact members.

    Returns ``(path, explicit)`` pairs: explicitly named files must
    carry a recognisable schema, directory members may be skipped.
    """
    out: List[Tuple[str, bool]] = []
    for path in paths:
        if os.path.isdir(path):
            members = sorted(
                os.path.join(path, name)
                for name in os.listdir(path)
                if name.endswith((".jsonl", ".json"))
            )
            out.extend((member, False) for member in members)
            if not members:
                out.append((path, True))  # empty dir: surfaced as an error
        else:
            out.append((path, True))
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Validate each named artifact/directory; returns the exit code."""
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print(
            "usage: python -m repro.obs.validate ARTIFACT|DIR [...]\n"
            "       (trace/timeline/telemetry JSONL, metrics JSON, diff "
            "reports,\n        ablation reports; directories are scanned)\n"
            "exit codes: 0 all valid, 1 validation failures, 2 usage error"
        )
        return 2
    scanned_dir = any(os.path.isdir(path) for path in paths)
    ok = skipped = failures = 0
    for path, explicit in _expand(paths):
        if os.path.isdir(path):
            failures += 1
            print(f"{path}: empty directory (no .jsonl/.json artifacts)")
            continue
        errors = validate_artifact(path, explicit)
        if errors == [_SKIP]:
            skipped += 1
            print(f"{path}: SKIP (unrecognized artifact)")
        elif errors:
            failures += 1
            for error in errors:
                print(f"{path}: {error}")
        else:
            ok += 1
            print(f"{path}: OK")
    if scanned_dir:
        print(f"{ok} ok / {skipped} skipped / {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
