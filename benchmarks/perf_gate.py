"""Cross-build + event-kernel CI perf gate.

Runs the quick benchmark (the representative cells) twice in one
process — once under the ``scalar`` reference build, once under the
``columnar`` default — and fails unless:

* the columnar build is at least ``--min-speedup`` (default 1.3×)
  faster than scalar on every stream cell, and
* neither run regresses past the history sentinel's rolling median
  for its *own* build (``--max-regression``, default 0.25).

On top of the build gate, the event-kernel gate checks the sharding
contract on every run:

* the multi-ring cell is bit-identical (``to_dict`` equality) between
  serial and sharded execution;
* on hosts with enough cores (>= the shard count), the sharded run of
  the multi-ring cell is at least ``--min-shard-speedup`` (default
  1.5×) faster than the serial reference.  On smaller hosts the
  measurement is skipped entirely (the report records why) — a 1-core
  container cannot physically show a parallel speedup, and a ratio
  taken there would only pollute the trajectory.

The lite-telemetry gate (``--max-lite-overhead``, default 0.03) times
the stream cells under ``observe=off`` and ``observe=lite`` and fails
if the lite tier costs more than the allowed fraction in aggregate —
the always-on contract.  ``--lite-only`` runs just this check (the CI
telemetry-smoke configuration).

Both harness runs are appended to the perf-history log (each line
carries its ``datapath`` build; the sentinel never compares across
builds or across quick/full runs), and a combined gate report is
written for the CI artifact upload::

    PYTHONPATH=src python benchmarks/perf_gate.py [--min-speedup 1.3]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(pathlib.Path(__file__).resolve().parent))

import perf_history  # noqa: E402
from perf_harness import (  # noqa: E402
    OBSERVE_CELLS,
    REPRESENTATIVE_CELLS,
    SHARDING_CELL,
    run_harness,
    time_observe_overhead,
    time_sharding,
)

from repro import datapath as repro_datapath  # noqa: E402
from repro.config import RunConfig  # noqa: E402
from repro.modes import Mode  # noqa: E402
from repro.sim.runner import run_with_config  # noqa: E402
from repro.sim.setups import setup_by_name  # noqa: E402

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "output" / "BENCH_gate.json"

#: Cells the cross-build speedup is asserted on: the paper's headline
#: stream benchmark under the most expensive protection regime, the
#: cheapest safe one, and no protection — the three cells whose inner
#: loops the columnar build specializes.
STREAM_CELLS: Tuple[Tuple[str, str, str], ...] = tuple(
    cell for cell in REPRESENTATIVE_CELLS if cell[1] == "stream"
)


def cell_seconds(
    report: Dict[str, object], cell: Tuple[str, str, str]
) -> Optional[float]:
    """Wall-clock seconds of ``cell`` in a harness report, if present."""
    for row in report["cells"]:
        if (row["setup"], row["benchmark"], row["mode"]) == cell:
            seconds = float(row["seconds"])
            return seconds if seconds > 0 else None
    return None


def check_engine_parity(shards: int = 4) -> Tuple[List[Dict[str, object]], List[str]]:
    """Bit-parity of the multi-ring cell: serial event heap vs sharded.

    Returns ``(rows, errors)``.
    """
    setup_name, benchmark, mode_label = SHARDING_CELL
    setup, mode = setup_by_name(setup_name), Mode(mode_label)
    key = perf_history.cell_key(setup_name, benchmark, mode_label)
    serial, sharded = (
        run_with_config(setup, mode, benchmark, RunConfig.from_env(fast=True, shards=n))
        for n in (1, shards)
    )
    row = {"cell": key, "serial_vs_sharded": serial.to_dict() == sharded.to_dict()}
    errors = []
    if not row["serial_vs_sharded"]:
        errors.append(f"{key}: {shards}-shard run diverges from the serial reference")
    return [row], errors


def shard_speedup_skip_reason(
    shards: int, cores: Optional[int] = None
) -> Optional[str]:
    """Why the shard-speedup gate cannot run here, or None if it can.

    A host with fewer cores than shards cannot physically show a
    parallel speedup; any ratio measured there is scheduler noise, so
    the gate must skip the measurement entirely rather than record a
    misleading number (``cores=None`` consults ``os.cpu_count()``).
    """
    if cores is None:
        cores = os.cpu_count() or 1
    if cores < shards:
        return (
            f"host has {cores} cores < {shards} shards; a parallel "
            f"speedup cannot be measured here"
        )
    return None


def check_shard_speedup(
    min_shard_speedup: float, shards: int = 4
) -> Tuple[Dict[str, object], List[str]]:
    """Wall-clock gate: sharded multi-ring run vs the serial reference.

    On hosts with fewer cores than shards the measurement is skipped
    outright (see :func:`shard_speedup_skip_reason`) — a ratio taken
    there would be meaningless and would pollute the recorded
    trajectory — and the gate reports the skip instead of a number.
    """
    errors: List[str] = []
    skip = shard_speedup_skip_reason(shards)
    if skip is not None:
        return (
            {
                "cell": "/".join(SHARDING_CELL),
                "shards": shards,
                "cpu_count": os.cpu_count(),
                "min_speedup": min_shard_speedup,
                "enforced": False,
                "skipped": True,
                "skip_reason": skip,
            },
            errors,
        )
    measurement = time_sharding(shards=shards, fast=False)
    measurement["min_speedup"] = min_shard_speedup
    measurement["enforced"] = True
    measurement["skipped"] = False
    if measurement["speedup_vs_serial"] < min_shard_speedup:
        errors.append(
            f"{measurement['cell']}: {shards}-shard speedup is only "
            f"{measurement['speedup_vs_serial']:.2f}x serial "
            f"(gate requires >= {min_shard_speedup:.2f}x)"
        )
    return measurement, errors


def check_lite_overhead(
    max_overhead: float,
    cells: Sequence[Tuple[str, str, str]] = OBSERVE_CELLS,
    repeats: int = 3,
) -> Tuple[Dict[str, object], List[str]]:
    """Wall-clock gate: ``observe=lite`` vs ``observe=off``.

    The lite tier's promise is "always-on telemetry": it reads counters
    at burst boundaries instead of streaming per-event records, so the
    observer-free columnar loops stay active and the cost stays within
    ``max_overhead`` (CI uses 3%) of an unobserved run.  Per-cell
    columns are recorded, but the gate compares the *aggregate* across
    the stream cells: the fastest cell is ~13ms at fast sizing, and a
    per-cell ratio at that scale gates scheduler jitter, not the tier.
    """
    errors: List[str] = []
    rows = time_observe_overhead(cells=cells, repeats=repeats)
    off_total = sum(row["off_seconds"] for row in rows)
    lite_total = sum(row["lite_seconds"] for row in rows)
    overhead = (lite_total / off_total - 1.0) if off_total > 0 else 0.0
    measurement: Dict[str, object] = {
        "cells": rows,
        "off_seconds": round(off_total, 4),
        "lite_seconds": round(lite_total, 4),
        "overhead_vs_off": round(overhead, 4),
        "max_overhead": max_overhead,
    }
    if overhead > max_overhead:
        errors.append(
            f"observe=lite costs {overhead:+.1%} over observe=off "
            f"across the stream cells (gate requires <= {max_overhead:.0%})"
        )
    return measurement, errors


def run_gate(
    min_speedup: float,
    max_regression: Optional[float],
    repeats: int = 3,
    history_path: Optional[pathlib.Path] = None,
    min_shard_speedup: float = 1.5,
    shards: int = 4,
    max_lite_overhead: Optional[float] = 0.03,
) -> Tuple[Dict[str, object], List[str]]:
    """Bench scalar + columnar, compare, sentinel-check; returns
    ``(gate_report, errors)`` — an empty error list means the gate is
    green."""
    errors: List[str] = []
    reports: Dict[str, Dict[str, object]] = {}
    for build in ("scalar", "columnar"):
        repro_datapath.set_datapath(build)
        # output=None: the gate's timings must not overwrite the
        # trajectory baseline the regular harness compares against.
        reports[build] = run_harness(repeats=repeats, output=None, quick=True)
    repro_datapath.set_datapath(repro_datapath.DEFAULT_BUILD)

    comparisons: List[Dict[str, object]] = []
    for cell in STREAM_CELLS:
        scalar_s = cell_seconds(reports["scalar"], cell)
        columnar_s = cell_seconds(reports["columnar"], cell)
        key = perf_history.cell_key(*cell)
        if scalar_s is None or columnar_s is None:
            errors.append(f"{key}: missing timing in one of the builds")
            continue
        ratio = scalar_s / columnar_s
        comparisons.append(
            {
                "cell": key,
                "scalar_seconds": round(scalar_s, 4),
                "columnar_seconds": round(columnar_s, 4),
                "speedup_vs_scalar": round(ratio, 3),
            }
        )
        if ratio < min_speedup:
            errors.append(
                f"{key}: columnar build is only {ratio:.2f}x scalar "
                f"(gate requires >= {min_speedup:.2f}x)"
            )

    if max_regression is not None and history_path is not None:
        history = perf_history.load_history(history_path)
        for build in ("scalar", "columnar"):
            error = perf_history.check_history_regression(
                reports[build], history, max_regression
            )
            if error is not None:
                errors.append(f"[{build}] {error}")
            perf_history.append_history(reports[build], history_path)

    # The event-kernel gate: serial vs sharded bit-parity on every run,
    # shard wall-clock speedup where the host has the cores to show one.
    parity_rows, parity_errors = check_engine_parity(shards=shards)
    errors.extend(parity_errors)
    shard_speedup, shard_errors = check_shard_speedup(min_shard_speedup, shards)
    errors.extend(shard_errors)

    # The lite-telemetry gate: observe="lite" must stay within a few
    # percent of observe="off" on the stream cells (the always-on
    # contract — lite never touches the trace bus).
    lite_overhead: Optional[Dict[str, object]] = None
    if max_lite_overhead is not None:
        lite_overhead, lite_errors = check_lite_overhead(max_lite_overhead)
        errors.extend(lite_errors)

    gate_report: Dict[str, object] = {
        "schema": "riommu-repro/bench-gate/v1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "min_speedup": min_speedup,
        "max_regression": max_regression,
        "max_lite_overhead": max_lite_overhead,
        "passed": not errors,
        "stream_cells": comparisons,
        "engine_parity": parity_rows,
        "shard_speedup": shard_speedup,
        "lite_overhead": lite_overhead,
        "errors": errors,
        "scalar": reports["scalar"],
        "columnar": reports["columnar"],
    }
    return gate_report, errors


def _print_lite_overhead(measurement: Dict[str, object]) -> None:
    for row in measurement["cells"]:
        print(
            f"{row['cell']}: observe=off {row['off_seconds']}s, "
            f"observe=lite {row['lite_seconds']}s "
            f"-> {row['overhead_vs_off']:+.1%} overhead"
        )
    print(
        f"lite overhead (aggregate over {len(measurement['cells'])} "
        f"stream cells): {measurement['overhead_vs_off']:+.1%} "
        f"(gate <= {measurement['max_overhead']:.0%})"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.3,
        metavar="RATIO",
        help="fail unless columnar is at least RATIO x faster than "
        "scalar on every stream cell (default 1.3)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="fail if either build's mlx/stream/strict exceeds its "
        "same-build rolling history median by more than FRACTION "
        "(default 0.25); use a negative value to skip",
    )
    parser.add_argument(
        "--min-shard-speedup",
        type=float,
        default=1.5,
        metavar="RATIO",
        help="fail unless the sharded multi-ring run is at least RATIO x "
        "faster than the serial event kernel (default 1.5); only "
        "enforced on hosts with at least --shards cores",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        metavar="N",
        help="shard count for the sharded parity + speedup checks "
        "(default 4)",
    )
    parser.add_argument(
        "--max-lite-overhead",
        type=float,
        default=0.03,
        metavar="FRACTION",
        help="fail if observe=lite costs more than FRACTION over "
        "observe=off on any stream cell (default 0.03); use a negative "
        "value to skip",
    )
    parser.add_argument(
        "--lite-only",
        action="store_true",
        help="run only the lite-overhead check (the CI telemetry-smoke "
        "configuration): no build/engine/shard gates, no history",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument(
        "-o", "--output", default=str(DEFAULT_OUTPUT), help="gate report path"
    )
    parser.add_argument(
        "--history",
        metavar="FILE",
        default=None,
        help="perf-history log (default: the tracked BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="skip the history sentinel: no rolling-median gate, no append",
    )
    args = parser.parse_args(argv)
    max_lite_overhead: Optional[float] = (
        args.max_lite_overhead if args.max_lite_overhead >= 0 else None
    )

    if args.lite_only:
        if max_lite_overhead is None:
            parser.error("--lite-only needs a non-negative --max-lite-overhead")
        lite_overhead, errors = check_lite_overhead(
            max_lite_overhead, repeats=args.repeats
        )
        lite_report = {
            "schema": "riommu-repro/bench-gate/v1",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "max_lite_overhead": max_lite_overhead,
            "passed": not errors,
            "lite_overhead": lite_overhead,
            "errors": errors,
        }
        output = pathlib.Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(lite_report, indent=2) + "\n")
        _print_lite_overhead(lite_overhead)
        print(f"gate report written to {output}", file=sys.stderr)
        if errors:
            for error in errors:
                print(f"PERF GATE: {error}", file=sys.stderr)
            return 1
        print(
            f"lite-overhead gate passed (<= {max_lite_overhead:.0%} "
            f"over observe=off)"
        )
        return 0

    history_path: Optional[pathlib.Path] = None
    max_regression: Optional[float] = None
    if not args.no_history and args.max_regression >= 0:
        history_path = (
            pathlib.Path(args.history) if args.history else perf_history.ROOT_HISTORY
        )
        max_regression = args.max_regression

    gate_report, errors = run_gate(
        min_speedup=args.min_speedup,
        max_regression=max_regression,
        repeats=args.repeats,
        history_path=history_path,
        min_shard_speedup=args.min_shard_speedup,
        shards=args.shards,
        max_lite_overhead=max_lite_overhead,
    )

    output = pathlib.Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(gate_report, indent=2) + "\n")

    for row in gate_report["stream_cells"]:
        print(
            f"{row['cell']}: scalar {row['scalar_seconds']}s, "
            f"columnar {row['columnar_seconds']}s "
            f"-> {row['speedup_vs_scalar']}x"
        )
    for row in gate_report["engine_parity"]:
        print(f"{row['cell']}: serial == sharded: {row['serial_vs_sharded']}")
    shard = gate_report["shard_speedup"]
    if shard.get("skipped"):
        print(
            f"shard speedup ({shard['cell']}, {shard['shards']} shards): "
            f"skipped — {shard['skip_reason']}"
        )
    else:
        print(
            f"shard speedup ({shard['cell']}, {shard['shards']} shards, enforced): "
            f"serial {shard['serial_seconds']}s, sharded {shard['sharded_seconds']}s "
            f"-> {shard['speedup_vs_serial']}x"
        )
    if gate_report.get("lite_overhead") is not None:
        _print_lite_overhead(gate_report["lite_overhead"])
    print(f"gate report written to {output}", file=sys.stderr)
    if errors:
        for error in errors:
            print(f"PERF GATE: {error}", file=sys.stderr)
        return 1
    print(f"perf gate passed (min speedup {args.min_speedup}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
