"""``repro diff``: compare two runs or artifacts, localize divergence.

Each side of the comparison is either

* a **file** — a trace JSONL (``riommu-repro/trace/v1``), a timeline
  JSONL (``riommu-repro/timeline/v1``) or a metrics JSON
  (``riommu-repro/trace-metrics/v1``); the kind is sniffed from the
  schema, and both sides must agree — or
* a **live cell spec** ``setup/benchmark/mode`` (e.g.
  ``mlx/stream/strict``), run on the spot with the event tracer on;
  live sides always diff as traces.

Exit codes: 0 = clean (bit-identical), 1 = diverged, 2 = usage or
unreadable input.  ``--json FILE`` additionally writes the structured
:class:`~repro.obs.diffing.DiffReport` (schema
``riommu-repro/diff-report/v1``).  The CI diff-smoke job pins both
directions: two same-seed runs must exit 0, a perturbed run must
exit 1 with the first diverging event named.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.diffing import (
    DEFAULT_CONTEXT,
    DiffReport,
    diff_metrics,
    diff_timelines,
    diff_traces,
)

_LIVE_USAGE = "live specs are setup/benchmark/mode, e.g. mlx/stream/strict"


def _load_side(spec: str, fast: bool) -> Tuple[str, object]:
    """Resolve one side to ``(kind, payload)``.

    Files load as ``("trace", records)``, ``("timeline", summary)`` or
    ``("metrics", dict)``; live specs run a freshly traced cell and
    return ``("trace", records)``.  Raises ValueError with a printable
    message otherwise.
    """
    if os.path.exists(spec):
        return _load_artifact(spec)
    if spec.count("/") == 2 and not spec.endswith((".json", ".jsonl")):
        return "trace", _run_live(spec, fast)
    raise ValueError(f"{spec}: no such file ({_LIVE_USAGE})")


def _load_artifact(path: str) -> Tuple[str, object]:
    from repro.obs.export import TRACE_SCHEMA, read_jsonl
    from repro.obs.timeline import TIMELINE_SCHEMA, read_timeline

    try:
        if path.endswith(".jsonl"):
            records = read_jsonl(path)
        else:
            with open(path) as handle:
                payload = json.load(handle)
            schema = payload.get("schema", "") if isinstance(payload, dict) else ""
            if "trace-metrics" in schema or "bench" in schema:
                return "metrics", payload
            raise ValueError(f"{path}: unrecognized schema {schema!r}")
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: unreadable ({exc})")
    if not records:
        raise ValueError(f"{path}: empty artifact")
    schema = records[0].get("schema", "")
    if schema == TIMELINE_SCHEMA:
        return "timeline", read_timeline(path)
    if schema == TRACE_SCHEMA or records[0].get("event") != "timeline_meta":
        return "trace", records
    raise ValueError(f"{path}: unrecognized schema {schema!r}")


def _run_live(spec: str, fast: bool) -> List[Dict[str, object]]:
    """Run one cell with the tracer recording; return its JSONL records."""
    from repro.config import RunConfig
    from repro.obs.export import jsonl_records
    from repro.obs.tracer import TRACE
    from repro.sim.parallel import run_cell

    setup_name, benchmark, mode_label = spec.split("/")
    was_recording = TRACE.recording
    if was_recording:
        raise ValueError("cannot run a live diff while the tracer is recording")
    TRACE.enable()
    try:
        config = RunConfig.from_env(fast=fast)
        run_cell((setup_name, benchmark, mode_label, config))
    finally:
        TRACE.disable()
    records = [dict(record) for record in jsonl_records(TRACE)]
    TRACE.reset()
    return records


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro diff",
        description="Compare two runs/artifacts; exit 1 on divergence.",
    )
    parser.add_argument("a", help="artifact path or live cell spec")
    parser.add_argument("b", help="artifact path or live cell spec")
    parser.add_argument(
        "--context",
        type=int,
        default=DEFAULT_CONTEXT,
        metavar="N",
        help="records of context around the first divergence (default 3)",
    )
    parser.add_argument(
        "--fast", action="store_true", help="fast-size runs for live specs"
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the structured diff report (diff-report/v1)",
    )
    return parser


def run_diff(
    a_spec: str,
    b_spec: str,
    context: int = DEFAULT_CONTEXT,
    fast: bool = False,
) -> DiffReport:
    """Resolve both sides and compare them; raises ValueError on misuse."""
    kind_a, payload_a = _load_side(a_spec, fast)
    kind_b, payload_b = _load_side(b_spec, fast)
    if kind_a != kind_b:
        raise ValueError(
            f"cannot diff a {kind_a} against a {kind_b} "
            f"({a_spec} vs {b_spec})"
        )
    if kind_a == "trace":
        return diff_traces(
            payload_a, payload_b, context, a_label=a_spec, b_label=b_spec
        )
    if kind_a == "timeline":
        return diff_timelines(
            payload_a, payload_b, context, a_label=a_spec, b_label=b_spec
        )
    return diff_metrics(payload_a, payload_b, a_label=a_spec, b_label=b_spec)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns 0 clean, 1 diverged, 2 usage."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        report = run_diff(args.a, args.b, context=args.context, fast=args.fast)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    print(report.render())
    if args.json:
        report.save_json(args.json)
        print(f"diff report written to {args.json}")
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
