"""Cross-run diffing: localize the first divergence between two runs.

The repo leans hard on bit-exact parity gates (fastpath, batch, trace,
serial-vs-parallel, golden figure-12).  When one fails, equality
assertions say *that* two runs diverged but not *where*.  This module
turns two artifacts — trace JSONL, timeline JSONL, or metrics JSON —
into a :class:`DiffReport` that pinpoints the **first diverging
record**, shows N records of surrounding context from both sides, and
summarises the damage as structured deltas:

* per-field deltas of the diverging record pair,
* per-Table-1-component attribution deltas (the ``cycle_charge``
  streams of both sides replayed through chained ``exact_add`` folds),
* event-count deltas per type, and
* for timelines, the first diverging window and its cumulative deltas.

``repro diff`` (:mod:`repro.analysis.diff`) wraps this as a CLI that
also runs live cells; exit code 1 on any divergence makes it a CI
gate: same-seed runs must diff clean, a perturbed knob must not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.perf.cycles import exact_add

#: Schema identifier stamped into every serialized diff report.
DIFF_SCHEMA = "riommu-repro/diff-report/v1"

#: Context records shown around the first divergence by default.
DEFAULT_CONTEXT = 3


def _strip_meta(records: Sequence[Dict[str, object]], meta_event: str):
    """Split ``(meta, body)``; the meta line is compared separately."""
    if records and records[0].get("event") == meta_event:
        return records[0], list(records[1:])
    return None, list(records)


#: ``qi_submit`` opcodes whose ``operand1`` is a domain id (page- and
#: device-selective IOTLB invalidations; WAIT carries a status value).
_DOMAIN_OPCODES = (1, 2)


def _canonicalize_ids(
    records: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Rewrite process-local ids to first-appearance indices.

    Cycle-account ids come from a process-wide counter, so the *same*
    run traced twice in one process carries different raw ids.  VT-d
    domain ids are numbered per IOMMU, but traces written while they
    were process-wide carry offset ones, so both are renumbered by order
    of first appearance: real divergences (ids opening in a different
    order) still differ, offset noise is erased.  Domain ids appear as
    ``domain`` on unmaps, ``tag`` on page/device invalidates, and
    ``operand1`` of page/device ``qi_submit`` descriptors.
    """
    accts: Dict[object, int] = {}
    domains: Dict[object, int] = {}

    def _canon(mapping: Dict[object, int], raw: object) -> int:
        if raw not in mapping:
            mapping[raw] = len(mapping)
        return mapping[raw]

    out: List[Dict[str, object]] = []
    for record in records:
        rewritten = None
        if "acct" in record:
            rewritten = dict(record)
            rewritten["acct"] = _canon(accts, record["acct"])
        etype = record.get("event")
        if etype == "unmap" and "domain" in record:
            rewritten = rewritten or dict(record)
            rewritten["domain"] = _canon(domains, record["domain"])
        elif etype == "invalidate" and "tag" in record:
            rewritten = rewritten or dict(record)
            rewritten["tag"] = _canon(domains, record["tag"])
        elif etype == "qi_submit" and record.get("opcode") in _DOMAIN_OPCODES:
            rewritten = rewritten or dict(record)
            rewritten["operand1"] = _canon(domains, record["operand1"])
        out.append(rewritten if rewritten is not None else record)
    return out


def _replay_components(records: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Measured-phase cycles per component, chained-``exact_add`` folds.

    Mirrors the profiler: per-account folds, ``cycle_reset`` restarts
    the measured phase, and totals merge across accounts at the end.
    """
    folds: Dict[object, Dict[str, float]] = {}
    for record in records:
        etype = record.get("event")
        if etype == "cycle_charge":
            fold = folds.setdefault(record["acct"], {})
            comp = record["comp"]
            fold[comp] = exact_add(
                fold.get(comp, 0.0), record["cycles"], record["n"]
            )
        elif etype == "cycle_reset":
            folds.pop(record.get("acct"), None)
    merged: Dict[str, float] = {}
    for fold in folds.values():
        for comp, cycles in fold.items():
            merged[comp] = merged.get(comp, 0.0) + cycles
    return merged


def _event_counts(records: Sequence[Dict[str, object]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in records:
        etype = str(record.get("event"))
        counts[etype] = counts.get(etype, 0) + 1
    return dict(sorted(counts.items()))


def _numeric_delta_map(
    a: Dict[str, float], b: Dict[str, float]
) -> Dict[str, List[float]]:
    """``{key: [a, b, b - a]}`` for every key whose values differ."""
    out: Dict[str, List[float]] = {}
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, 0.0), b.get(key, 0.0)
        if va != vb:
            out[key] = [va, vb, vb - va]
    return out


def _flatten(value, prefix: str = "") -> Dict[str, object]:
    """Nested dicts to dotted leaf keys (lists indexed numerically)."""
    out: Dict[str, object] = {}
    if isinstance(value, dict):
        for key, item in value.items():
            out.update(_flatten(item, f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            out.update(_flatten(item, f"{prefix}[{i}]"))
    else:
        out[prefix] = value
    return out


@dataclass
class DiffReport:
    """Everything one comparison found, renderable and serializable."""

    kind: str
    a_label: str
    b_label: str
    clean: bool
    length_a: int = 0
    length_b: int = 0
    #: first diverging record: index, line numbers, both records,
    #: changed fields, and N records of context from both sides
    divergence: Optional[Dict[str, object]] = None
    #: Table 1 attribution deltas (trace diffs): comp -> [a, b, b-a]
    component_deltas: Dict[str, List[float]] = field(default_factory=dict)
    #: event-count deltas per type: etype -> [a, b, b-a]
    event_count_deltas: Dict[str, List[float]] = field(default_factory=dict)
    #: flat metric deltas (metrics/timeline diffs): key -> [a, b, b-a]
    metric_deltas: Dict[str, List[float]] = field(default_factory=dict)
    #: meta-header mismatches worth flagging (never divergence by itself)
    meta_notes: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": DIFF_SCHEMA,
            "kind": self.kind,
            "a": self.a_label,
            "b": self.b_label,
            "clean": self.clean,
            "length_a": self.length_a,
            "length_b": self.length_b,
            "divergence": self.divergence,
            "component_deltas": self.component_deltas,
            "event_count_deltas": self.event_count_deltas,
            "metric_deltas": self.metric_deltas,
            "meta_notes": self.meta_notes,
        }

    def save_json(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """The report as aligned plain text, divergence first."""
        lines: List[str] = []
        verdict = "CLEAN" if self.clean else "DIVERGED"
        lines.append(
            f"{self.kind} diff: {self.a_label} vs {self.b_label} — {verdict}"
        )
        lines.append(
            f"records: {self.length_a} vs {self.length_b}"
            + ("" if self.length_a == self.length_b else "  ** length mismatch **")
        )
        for note in self.meta_notes:
            lines.append(f"meta: {note}")
        div = self.divergence
        if div is not None:
            lines.append("")
            lines.append(
                f"first divergence at record #{div['index']} "
                f"(line {div['line_a']} vs {div['line_b']}):"
            )
            changed = div.get("changed_fields") or {}
            for key, (va, vb) in changed.items():
                lines.append(f"  {key}: {va!r} -> {vb!r}")
            lines.append("  context:")
            for row in div.get("context", ()):
                marker = "=" if row["same"] else "!"
                lines.append(f"   {marker} a[{row['index']}] {row['a']}")
                if not row["same"]:
                    lines.append(f"   {marker} b[{row['index']}] {row['b']}")
        for title, deltas in (
            ("attribution deltas (cycles by component, b - a)", self.component_deltas),
            ("event-count deltas (b - a)", self.event_count_deltas),
            ("metric deltas (b - a)", self.metric_deltas),
        ):
            if not deltas:
                continue
            lines.append("")
            lines.append(title + ":")
            width = max(len(key) for key in deltas)
            for key, (va, vb, delta) in deltas.items():
                lines.append(f"  {key:<{width}}  {va} -> {vb}  ({delta:+})")
        if self.clean:
            lines.append("no divergence: the runs are bit-identical")
        return "\n".join(lines)


def _compact(record: Dict[str, object]) -> str:
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


def _build_divergence(
    a: Sequence[Dict[str, object]],
    b: Sequence[Dict[str, object]],
    index: int,
    context: int,
    line_offset_a: int,
    line_offset_b: int,
) -> Dict[str, object]:
    ra = a[index] if index < len(a) else None
    rb = b[index] if index < len(b) else None
    changed: Dict[str, Tuple[object, object]] = {}
    if ra is not None and rb is not None:
        for key in sorted(set(ra) | set(rb)):
            if ra.get(key) != rb.get(key):
                changed[key] = (ra.get(key), rb.get(key))
    rows: List[Dict[str, object]] = []
    lo = max(0, index - context)
    hi = index + context + 1
    for i in range(lo, hi):
        ia = a[i] if i < len(a) else None
        ib = b[i] if i < len(b) else None
        if ia is None and ib is None:
            break
        rows.append(
            {
                "index": i,
                "a": _compact(ia) if ia is not None else "<end of a>",
                "b": _compact(ib) if ib is not None else "<end of b>",
                "same": ia == ib,
            }
        )
    return {
        "index": index,
        "line_a": index + line_offset_a,
        "line_b": index + line_offset_b,
        "a": ra,
        "b": rb,
        "changed_fields": {k: list(v) for k, v in changed.items()},
        "context": rows,
    }


def diff_traces(
    a_records: Sequence[Dict[str, object]],
    b_records: Sequence[Dict[str, object]],
    context: int = DEFAULT_CONTEXT,
    a_label: str = "a",
    b_label: str = "b",
) -> DiffReport:
    """Compare two trace-JSONL record streams (meta headers included).

    Records are compared pairwise in order; the first unequal pair (or
    the shorter stream running out) is the divergence.  Attribution and
    event-count deltas are always computed — a single perturbed
    ``cycle_charge`` shows up twice: localized at its record, and as a
    component delta.
    """
    meta_a, body_a = _strip_meta(a_records, "trace_meta")
    meta_b, body_b = _strip_meta(b_records, "trace_meta")
    body_a = _canonicalize_ids(body_a)
    body_b = _canonicalize_ids(body_b)
    report = DiffReport(
        kind="trace",
        a_label=a_label,
        b_label=b_label,
        clean=True,
        length_a=len(body_a),
        length_b=len(body_b),
    )
    if (meta_a is None) != (meta_b is None):
        report.meta_notes.append("only one side has a trace_meta header")
    elif meta_a is not None and meta_a != meta_b:
        for key in sorted(set(meta_a) | set(meta_b)):
            if meta_a.get(key) != meta_b.get(key):
                report.meta_notes.append(
                    f"{key}: {meta_a.get(key)!r} != {meta_b.get(key)!r}"
                )
    index = _first_unequal(body_a, body_b)
    if index is not None:
        report.clean = False
        # JSONL line numbers are 1-based and include the meta header.
        report.divergence = _build_divergence(
            body_a, body_b, index, context,
            line_offset_a=2 if meta_a is not None else 1,
            line_offset_b=2 if meta_b is not None else 1,
        )
    report.component_deltas = _numeric_delta_map(
        _replay_components(body_a), _replay_components(body_b)
    )
    report.event_count_deltas = _numeric_delta_map(
        _event_counts(body_a), _event_counts(body_b)
    )
    return report


def _first_unequal(
    a: Sequence[Dict[str, object]], b: Sequence[Dict[str, object]]
) -> Optional[int]:
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def diff_timelines(
    a_summary: Dict[str, object],
    b_summary: Dict[str, object],
    context: int = DEFAULT_CONTEXT,
    a_label: str = "a",
    b_label: str = "b",
) -> DiffReport:
    """Compare two timeline summaries window by window."""
    body_a = list(a_summary.get("windows") or ())
    body_b = list(b_summary.get("windows") or ())
    report = DiffReport(
        kind="timeline",
        a_label=a_label,
        b_label=b_label,
        clean=True,
        length_a=len(body_a),
        length_b=len(body_b),
    )
    for key in ("window_cycles", "clock_hz", "cycles_total", "span_cycles"):
        if a_summary.get(key) != b_summary.get(key):
            report.meta_notes.append(
                f"{key}: {a_summary.get(key)!r} != {b_summary.get(key)!r}"
            )
    index = _first_unequal(body_a, body_b)
    if index is not None:
        report.clean = False
        report.divergence = _build_divergence(
            body_a, body_b, index, context, line_offset_a=2, line_offset_b=2
        )
        ra = body_a[index] if index < len(body_a) else {}
        rb = body_b[index] if index < len(body_b) else {}
        report.component_deltas = _numeric_delta_map(
            ra.get("cycles", {}), rb.get("cycles", {})
        )
    if a_summary.get("cycles_total") != b_summary.get("cycles_total"):
        report.clean = False
        report.metric_deltas = _numeric_delta_map(
            {"cycles_total": a_summary.get("cycles_total", 0.0)},
            {"cycles_total": b_summary.get("cycles_total", 0.0)},
        )
    return report


def diff_metrics(
    a_metrics: Dict[str, object],
    b_metrics: Dict[str, object],
    a_label: str = "a",
    b_label: str = "b",
) -> DiffReport:
    """Compare two metrics dicts (flattened to dotted leaf keys)."""
    flat_a = _flatten(a_metrics)
    flat_b = _flatten(b_metrics)
    report = DiffReport(
        kind="metrics",
        a_label=a_label,
        b_label=b_label,
        clean=True,
        length_a=len(flat_a),
        length_b=len(flat_b),
    )
    deltas: Dict[str, List[object]] = {}
    for key in sorted(set(flat_a) | set(flat_b)):
        if key == "timestamp":
            continue
        va, vb = flat_a.get(key), flat_b.get(key)
        if va != vb:
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                deltas[key] = [va, vb, vb - va]
            else:
                deltas[key] = [va, vb, None]
    if deltas:
        report.clean = False
        report.metric_deltas = {
            k: v for k, v in deltas.items() if v[2] is not None
        }
        # The raw (possibly non-numeric) pairs live in the divergence
        # slot, so string-valued differences are not lost.
        first = next(iter(deltas))
        report.divergence = {
            "index": 0,
            "line_a": 1,
            "line_b": 1,
            "a": {first: deltas[first][0]},
            "b": {first: deltas[first][1]},
            "changed_fields": {k: [v[0], v[1]] for k, v in deltas.items()},
            "context": [],
        }
    return report


def validate_diff_report(payload: Dict[str, object]) -> List[str]:
    """Validate a serialized diff report; empty list means valid."""
    errors: List[str] = []
    if payload.get("schema") != DIFF_SCHEMA:
        errors.append(f"schema {payload.get('schema')!r} != {DIFF_SCHEMA!r}")
    if payload.get("kind") not in ("trace", "timeline", "metrics"):
        errors.append(f"unknown diff kind {payload.get('kind')!r}")
    if not isinstance(payload.get("clean"), bool):
        errors.append("missing boolean 'clean' verdict")
    div = payload.get("divergence")
    if payload.get("clean") and div is not None:
        errors.append("clean report carries a divergence")
    if div is not None:
        if not isinstance(div, dict) or not isinstance(div.get("index"), int):
            errors.append("divergence missing integer 'index'")
        elif not isinstance(div.get("changed_fields"), dict):
            errors.append("divergence missing 'changed_fields'")
    for key in ("component_deltas", "event_count_deltas", "metric_deltas"):
        if not isinstance(payload.get(key), dict):
            errors.append(f"missing delta map {key!r}")
    return errors
