"""End-to-end benchmark of the simulator's host speed, set-up time and memory.

Usage (from the repository root)::

    python benchmarks/e2e/bench.py [--seed N] [--seconds S] [-o FILE]
    python benchmarks/e2e/bench.py --trace [--seed N] [-o FILE]
    python benchmarks/e2e/bench.py --workload tx-baseline --seed 3 --seconds 20 --trace 0
    python benchmarks/e2e/bench.py compare A_DIR B_DIR
    python benchmarks/e2e/bench.py golden

Without ``--workload`` all four workloads run, one child process each, in
an order shuffled by the seed.  With it, only that workload runs and the
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics with ``--trace 1``).

Each child runs whole rounds of its workload's cells until ``--seconds``
is spent (at least one round), each round in a seeded order, and keeps
each cell's best run time.  Host time is wall-clock time of this process;
modelled cycles are the simulator's output and are only ever checked
against pinned digests, never mixed into a host-time metric.  See
README.md beside this file.

Exit codes: 0 success; 1 a cell failed or a comparison found a
regression; 2 a guard refused the run (a ``REPRO_*`` variable that
changes the measured configuration, or a percentile with fewer than ten
samples beyond it); 3 the simulator could not be imported or run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDEN_JSON = HERE / "golden.json"

SCHEMA = "riommu-repro/e2e-bench/v1"
GOLDEN_SCHEMA = "riommu-repro/e2e-golden/v1"

#: Seeds whose ``tenants-mix`` digests ``golden`` pins by default.
GOLDEN_SEEDS = tuple(range(1, 11))

#: A child that runs longer than this is killed, so a run ends within the
#: three minutes a caller allows it.
CHILD_TIMEOUT_S = 170

#: Fewest samples a reported percentile must have beyond it.
MIN_TAIL_SAMPLES = 10

#: The two exact end-to-end metrics.  They are defined here and not in
#: BENCHMARK.json, whose end-to-end metrics are judged by their spread over
#: their median, so each must be a measured value, never 0, on every
#: workload's ``--workload`` JSON line.  ``fail_frac`` is
#: 0 on a good run (that line carries it as ``failed`` / ``attempted``), and
#: ``table2_mae`` is a fixed modelled number that exists only for fig12.
#: Both are printed, written to ``-o`` files and compared with bound 0:
#: any change is a change.
EXACT_END_TO_END = (
    {"name": "fail_frac", "unit": "fraction", "better": "lower", "bound": 0.0},
    {"name": "table2_mae", "unit": "ratio", "better": "lower", "bound": 0.0},
)


class GuardError(Exception):
    """The run was refused: its result would not measure what it claims."""


def load_spec() -> dict:
    """BENCHMARK.json: workloads, metric names, units, directions and bounds."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def load_workload_names(spec: dict) -> List[str]:
    return [workload["name"] for workload in spec["workloads"]]


def _import_simulator():
    """Put ``repro`` and this directory on the path; return the ``cells`` module."""
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import cells

    return cells


# -- statistics ---------------------------------------------------------------


def percentile(samples: Sequence[float], q: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[rank - 1], len(ordered) - rank


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- host-speed probe -----------------------------------------------------------

#: The probe's time on a quiet host of the kind the baseline was taken on
#: (2-vCPU Xeon VM at 2.0 GHz, CPython 3.11).  Host-time metrics are scaled
#: to this speed; the constant only sets the scale and never changes.
PROBE_REFERENCE_S = 0.0044

#: Probes per round, spread evenly before the round's cells, so a workload
#: with few cells still gets enough probe samples for a steady minimum.
PROBES_PER_ROUND = 12


class _Probe:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        self.a, self.b, self.c = a, b, c


def time_probe(items: int = 5000) -> float:
    """Time a fixed piece of pure-Python work shaped like the simulator's.

    Allocation, attribute reads, a heap, a dict and byte slices.  It runs
    before every cell, so its fastest time tracks how fast the host is
    running Python during the run.  Its code lives in the benchmark, but
    it runs in the simulator's process and shares its heap and collector;
    README.md gives the measured effect of a large simulator heap on it.
    """
    import heapq

    start = time.perf_counter()
    heap, table, buf, acc = [], {}, bytearray(4096), 0
    for i in range(items):
        item = _Probe(i, i * 7 & 0xFFFF, i * 13 % 257)
        heapq.heappush(heap, (item.b, i))
        table[item.b & 1023] = item
        buf[item.c] = i & 255
        acc += len(buf[item.c : item.c + 64]) + (item.a >> 3)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


# -- the child: one workload ----------------------------------------------------


def _run_cell(cell, sim_class, setup):
    """Run one cell untraced; (set-up s, whole-cell s, result, burst times)."""
    gc.collect()
    start = time.perf_counter()
    sim = sim_class(cell.make(), setup, cell.mode)
    built = last = time.perf_counter()
    bursts = []
    step = sim.step
    alive = True
    while alive:
        alive = step()
        now = time.perf_counter()
        bursts.append(now - last)
        last = now
    result = sim.result()
    return built - start, time.perf_counter() - start, result, bursts


def _trace_round(cell_list, setup, sim_class):
    """One round under cProfile: per-layer fold, traced time, machine counters."""
    import cProfile
    import pstats

    import cells
    import layers
    import repro

    profiler = cProfile.Profile()
    traced_s = 0.0
    counters: Dict[str, float] = {}
    results = {}
    for cell in cell_list:
        gc.collect()
        start = time.perf_counter()
        profiler.enable()
        sim = sim_class(cell.make(), setup, cell.mode)
        while sim.step():
            pass
        result = sim.result()
        profiler.disable()
        traced_s += time.perf_counter() - start
        results[cell.key] = result
        for name, value in cells.machine_counters(sim).items():
            counters[name] = counters.get(name, 0) + value
    layer_of = layers.package_layer_of(pathlib.Path(repro.__file__).parent, HERE)
    stats = pstats.Stats(profiler).stats
    return {
        "layers": layers.fold(stats, layer_of),
        "profiled_s": sum(entry[2] for entry in stats.values()),
        "traced_s": traced_s,
        "counters": counters,
        "results": results,
    }


def measure(
    workload: str,
    seed: int,
    *,
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
    trace: bool = False,
    sizes=None,
    pinned: Optional[Dict[str, str]] = None,
) -> dict:
    """Measure one workload in this process; returns its record.

    Runs whole rounds until ``seconds`` is spent (or exactly ``rounds``).
    ``pinned`` maps cell keys to expected digests; without it a cell must
    only repeat its own first digest.  With ``trace`` one more round runs
    under cProfile after the untraced rounds.
    """
    cells_mod = _import_simulator()
    from repro.api import EventSim, RunConfig

    config = RunConfig.from_env()
    if config != cells_mod.CONFIG:
        raise GuardError(f"resolved {config} is not the measured configuration")
    setup = cells_mod.SETUP
    sizes = sizes or cells_mod.FULL
    cell_list = cells_mod.cells(workload, seed, sizes)
    expected = dict(pinned or {})
    errors: List[str] = []
    attempted = failed = 0

    def check(key, result) -> bool:
        nonlocal failed
        got = cells_mod.digest(result)
        want = expected.setdefault(key, got)
        if got != want:
            failed += 1
            errors.append(f"{key}: digest {got} != {want}")
            return False
        return True

    reference = cells_mod.digest(cell_list[0].reference())

    rng = random.Random(seed)
    best: Dict[str, float] = {}
    setups: Dict[str, List[float]] = {cell.key: [] for cell in cell_list}
    results = {}
    bursts: List[float] = []
    probes: List[float] = []
    probes_per_cell = -(-PROBES_PER_ROUND // len(cell_list))
    started = time.perf_counter()
    done = 0
    while True:
        order = list(cell_list)
        rng.shuffle(order)
        for cell in order:
            attempted += 1
            probes.extend(time_probe() for _ in range(probes_per_cell))
            try:
                setup_s, run_s, result, times = _run_cell(cell, EventSim, setup)
            except Exception as exc:  # a failing cell is counted, not fatal
                failed += 1
                errors.append(f"{cell.key}: {exc!r}")
                traceback.print_exc()
                continue
            if not check(cell.key, result):
                continue
            results[cell.key] = result
            best[cell.key] = min(best.get(cell.key, math.inf), run_s)
            setups[cell.key].append(setup_s)
            bursts.extend(times)
        done += 1
        elapsed = time.perf_counter() - started
        if rounds is not None:
            if done >= rounds:
                break
        elif elapsed + elapsed / done > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = cell_list[0].key
    reference_ok = first in results and cells_mod.digest(results[first]) == reference
    if not reference_ok:
        errors.append(f"{first}: EventSim and run_with_config disagree")
    complete = len(results) == len(cell_list)
    packets = sum(result.packets for result in results.values())
    run_s = sum(best.values())
    record = {
        "workload": workload,
        "seed": seed,
        "rounds": done,
        "cells": len(cell_list),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "pinned": pinned is not None,
        "reference_ok": reference_ok,
        "config": asdict(config),
        "sizes": asdict(sizes),
        "packets": packets,
        "run_s": run_s,
        "setup_s": sum(statistics.median(v) for v in setups.values() if v),
        "probe_s": min(probes),
        "peak_rss_mb": peak_rss_mb,
        "bursts": bursts,
        "digests": {key: cells_mod.digest(result) for key, result in results.items()},
    }
    if cells_mod.seeded(workload):
        record["scenario"] = cells_mod.tenant_mix(seed, sizes.tenant_base_packets).to_dict()
    if workload == "fig12" and complete:
        record["table2_mae"] = cells_mod.table2_mae(results)
    if trace and complete:
        traced = _trace_round(cell_list, setup, EventSim)
        attempted += len(cell_list)
        for key, result in traced.pop("results").items():
            check(key, result)
        record.update(attempted=attempted, failed=failed, trace=traced)
    return record


# -- metrics ------------------------------------------------------------------


def end_to_end_metrics(record: dict) -> Dict[str, float]:
    """The workload's end-to-end metrics from its record.

    Host times are scaled to the probe's reference speed: a run on a host
    that the probe finds 5% slow has its times divided by 1.05.
    """
    slowdown = record["probe_s"] / PROBE_REFERENCE_S
    out = {
        "sim_pkts_per_s": _ratio(record["packets"] * slowdown, record["run_s"]),
        "setup_s": record["setup_s"] / slowdown,
        "peak_rss_mb": record["peak_rss_mb"],
        "fail_frac": record["failed"] / record["attempted"],
    }
    if "table2_mae" in record:
        out["table2_mae"] = record["table2_mae"]
    return out


def burst_metrics(record: dict) -> Dict[str, dict]:
    """Median and p99 host time per ``EventSim.step()``, with sample counts."""
    samples = record["bursts"]
    out = {}
    if not samples:  # every cell failed
        return out
    for name, q in (("sim.burst_p50_us", 50), ("sim.burst_p99_us", 99)):
        value, beyond = percentile(samples, q)
        out[name] = {"value": value * 1e6, "n": len(samples), "beyond": beyond}
    return out


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def per_layer_metrics(record: dict) -> Dict[str, float]:
    """Per-layer metrics from a traced record (see README.md for definitions)."""
    import layers

    trace = record["trace"]
    folded = trace["layers"]
    counters = trace["counters"]
    packets = record["packets"]
    total_s = sum(layer["self_s"] for layer in folded.values())
    out: Dict[str, float] = {}
    for name in layers.LAYERS:
        layer = folded[name]
        out[f"{name}.self_share"] = layer["self_s"] / total_s
        out[f"{name}.self_us_per_pkt"] = layer["self_s"] * 1e6 / packets
        out[f"{name}.calls_per_pkt"] = layer["calls"] / packets
        out[f"{name}.entries_per_pkt"] = layer["entries"] / packets
    out["all.calls_per_pkt"] = sum(layer["calls"] for layer in folded.values()) / packets
    out["iommu.host_ns_per_translation"] = _ratio(
        folded["iommu"]["self_s"] * 1e9, counters.get("iommu.translations", 0)
    )
    out["core.host_ns_per_translation"] = _ratio(
        folded["core"]["self_s"] * 1e9, counters.get("riotlb.translations", 0)
    )
    kib = (counters.get("dma_bus.bytes_read", 0) + counters.get("dma_bus.bytes_written", 0)) / 1024
    out["memory.host_ns_per_kib"] = _ratio(folded["memory"]["self_s"] * 1e9, kib)
    for unit in ("iotlb", "riotlb"):
        hits = counters.get(f"{unit}.hits", 0)
        out[f"{unit}.hit_rate"] = _ratio(hits, hits + counters.get(f"{unit}.misses", 0))
    out["trace.overhead_x"] = trace["traced_s"] / record["run_s"]
    for name, burst in burst_metrics(record).items():
        out[name] = burst["value"]
    return out


def workload_metrics(record: dict, spec: dict, trace: bool) -> Dict[str, dict]:
    """Every metric of one workload as ``{name: {"value", "unit"}}``."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + list(EXACT_END_TO_END)}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    values = end_to_end_metrics(record)
    if trace and "trace" in record:
        values.update(per_layer_metrics(record))
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def check_percentiles(record: dict) -> None:
    """Refuse a percentile with fewer than MIN_TAIL_SAMPLES samples beyond it."""
    for name, burst in burst_metrics(record).items():
        if burst["beyond"] < MIN_TAIL_SAMPLES:
            raise GuardError(
                f"{record['workload']}: {name} has {burst['beyond']} samples beyond it "
                f"(of {burst['n']}); need {MIN_TAIL_SAMPLES}. Give the run more --seconds."
            )


# -- the parent -----------------------------------------------------------------


def check_environment(environ=None) -> None:
    """Refuse to run when a REPRO_* variable would change the measured configuration."""
    environ = os.environ if environ is None else environ
    cells_mod = _import_simulator()
    from repro.api import RunConfig

    names = sorted(name for name in environ if name.startswith("REPRO_"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            config = RunConfig.from_env(environ)
    except ValueError as exc:
        raise GuardError(f"unparseable REPRO_* setting ({', '.join(names)}): {exc}")
    if config != cells_mod.CONFIG:
        raise GuardError(
            f"REPRO_* variables ({', '.join(names)}) change the measured configuration "
            f"to {config}; unset them"
        )


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload in a fresh process with every REPRO_* variable cleared."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [
        sys.executable, str(pathlib.Path(__file__).resolve()), "child", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True
    )
    if proc.returncode == 2:
        raise GuardError(f"{workload}: the child refused to run")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_workload(record: dict, metrics: Dict[str, dict]) -> None:
    status = "pinned" if record["pinned"] else "unpinned"
    reference = "ok" if record["reference_ok"] else "MISMATCH"
    print(
        f"[{record['workload']}] seed={record['seed']} R={record['rounds']} "
        f"cells={record['cells']} attempted={record['attempted']} failed={record['failed']} "
        f"digests={status} reference={reference}"
    )
    print(
        f"  unscaled: {_format(_ratio(record['packets'], record['run_s']))} pkt/s, "
        f"setup {_format(record['setup_s'])} s; probe {_format(record['probe_s'] * 1e3)} ms "
        f"(reference {PROBE_REFERENCE_S * 1e3:g} ms)"
    )
    bursts = burst_metrics(record)
    for name, metric in metrics.items():
        extra = ""
        if name in bursts:
            extra = f"  (n={bursts[name]['n']}, {bursts[name]['beyond']} beyond)"
        print(f"  {name:34s} {_format(metric['value']):>12s} {metric['unit']}{extra}")
    for error in record["errors"]:
        print(f"  error: {error}")


def measure_main(args, spec: dict) -> int:
    try:
        check_environment()
    except ImportError as exc:
        print(f"bench: cannot import the simulator from {SRC}: {exc}", file=sys.stderr)
        return 3
    except GuardError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import cells as cells_mod

    workloads = [args.workload] if args.workload else list(cells_mod.WORKLOADS)
    if not args.workload:
        random.Random(args.seed).shuffle(workloads)
    records = {}
    try:
        for workload in workloads:
            record = run_child(workload, args.seed, args.seconds, bool(args.trace))
            if args.trace:
                check_percentiles(record)
            records[workload] = record
    except GuardError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    report = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {},
    }
    correct = True
    for workload in cells_mod.WORKLOADS:
        if workload not in records:
            continue
        record = records[workload]
        metrics = workload_metrics(record, spec, bool(args.trace))
        print_workload(record, metrics)
        correct = correct and record["failed"] == 0 and record["reference_ok"]
        record = dict(record)
        del record["bursts"]
        record["metrics"] = metrics
        report["workloads"][workload] = record
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    if args.workload:
        record = report["workloads"][args.workload]
        level = "per_layer" if args.trace else "end_to_end"
        names = [metric["name"] for metric in spec[level] if metric["name"] in record["metrics"]]
        line = {
            "correct": correct,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: record["metrics"][name] for name in names},
        }
        print(json.dumps(line))
    return 0 if correct else 1


def child_main(args) -> int:
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    try:
        record = measure(
            args.workload,
            args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            pinned=pinned_digests(args.workload, args.seed),
        )
    except ImportError as exc:
        print(f"bench: cannot import the simulator: {exc}", file=sys.stderr)
        return 3
    except GuardError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


# -- golden digests -------------------------------------------------------------


def pinned_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """The pinned digests of the workload's cells at this seed, if any."""
    if not GOLDEN_JSON.exists():
        return None
    with open(GOLDEN_JSON) as handle:
        golden = json.load(handle)
    import cells as cells_mod

    if cells_mod.seeded(workload):
        return golden["seeded"].get(workload, {}).get(str(seed))
    return golden["cells"].get(workload)


def golden_main() -> int:
    try:
        check_environment()
    except GuardError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import cells as cells_mod
    from repro.api import EventSim

    def digests(workload: str, seed: int) -> Dict[str, str]:
        out = {}
        for cell in cells_mod.cells(workload, seed):
            sim = EventSim(cell.make(), cells_mod.SETUP, cell.mode)
            sim.run()
            out[cell.key] = cells_mod.digest(sim.result())
        return out

    golden = {"schema": GOLDEN_SCHEMA, "cells": {}, "seeded": {}}
    for workload in cells_mod.WORKLOADS:
        if cells_mod.seeded(workload):
            golden["seeded"][workload] = {str(s): digests(workload, s) for s in GOLDEN_SEEDS}
        else:
            golden["cells"][workload] = digests(workload, 0)
    with open(GOLDEN_JSON, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_JSON.relative_to(ROOT)}")
    return 0


# -- compare --------------------------------------------------------------------


def _load_reports(directory: pathlib.Path) -> List[dict]:
    reports = []
    for path in sorted(directory.glob("*.json")):
        with open(path) as handle:
            report = json.load(handle)
        if report.get("schema") == SCHEMA:
            reports.append(report)
    if not reports:
        raise SystemExit(f"bench: no {SCHEMA} reports in {directory}")
    return reports


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """better / worse / within bound / unresolved, for B against A."""
    sign = 1.0 if better == "higher" else -1.0
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    if bound == 0.0:
        # Deterministic metrics: any move counts, and for a lower-is-better
        # one (fail_frac) so does a worse single run.
        if sign * (med_b - med_a) < 0 or (sign < 0 and max(b) > max(a)):
            return "worse"
        return "better" if sign * (med_b - med_a) > 0 else "within bound"
    spread = max(q3 - q1 for q1, _, q3 in (quartiles(a), quartiles(b))) / med_a
    if spread > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better"
        return "unresolved"
    change = sign * (med_b - med_a) / med_a
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "within bound"


def compare_main(args, spec: dict) -> int:
    reports_a = _load_reports(pathlib.Path(args.a))
    reports_b = _load_reports(pathlib.Path(args.b))
    metrics = list(spec["end_to_end"]) + list(EXACT_END_TO_END)
    header = (
        f"{'workload':12s} {'metric':15s} {'n':>5s} {'A median':>11s} {'A q1..q3':>23s} "
        f"{'B median':>11s} {'B q1..q3':>23s} {'bound':>6s}  verdict"
    )
    print(f"A = {args.a}\nB = {args.b}\n{header}")
    failing = False
    for workload in load_workload_names(spec):
        for metric in metrics:
            name = metric["name"]
            a = [r["workloads"][workload]["metrics"][name]["value"] for r in reports_a
                 if name in r["workloads"].get(workload, {}).get("metrics", {})]
            b = [r["workloads"][workload]["metrics"][name]["value"] for r in reports_b
                 if name in r["workloads"].get(workload, {}).get("metrics", {})]
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            failing = failing or result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(
                f"{workload:12s} {name:15s} {len(a):>2d}/{len(b):<2d} {_format(qa[1]):>11s} "
                f"{_format(qa[0]) + '..' + _format(qa[2]):>23s} {_format(qb[1]):>11s} "
                f"{_format(qb[0]) + '..' + _format(qb[2]):>23s} {metric['bound']:>6.0%}  {result}"
            )
    print("verdict: " + ("REGRESSION" if failing else "no regression"))
    return 1 if failing else 0


# -- command line ---------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    spec = load_spec()
    command = argv[0] if argv and argv[0] in ("child", "compare", "golden") else None
    parser = argparse.ArgumentParser(prog="bench.py", description=__doc__.split("\n\n")[0])
    if command == "compare":
        parser.add_argument("a", metavar="A_DIR")
        parser.add_argument("b", metavar="B_DIR")
        return compare_main(parser.parse_args(argv[1:]), spec)
    if command == "golden":
        parser.parse_args(argv[1:])
        return golden_main()
    names = load_workload_names(spec)
    if command == "child":
        parser.add_argument("workload", choices=names)
    else:
        parser.add_argument("--workload", choices=names)
        parser.add_argument("-o", "--output", help="write the full report here (JSON)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args(argv[1:] if command else argv)
    if command == "child":
        return child_main(args)
    return measure_main(args, spec)


if __name__ == "__main__":
    sys.exit(main())
