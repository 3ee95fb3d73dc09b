"""The benchmark runner: every (setup, mode, benchmark) combination.

``run_benchmark`` runs one cell; ``run_mode_sweep`` produces one
benchmark's row of Figure 12 (all seven modes); ``run_figure12`` runs
the whole evaluation grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.config import RunConfig
from repro.modes import ALL_MODES, Mode
from repro.obs.profile import RunObserver
from repro.obs.tracer import TRACE
from repro.sim.parallel import resolve_jobs
from repro.sim.registry import BENCHMARKS, BenchmarkSpec, make_benchmark
from repro.sim.results import RunResult
from repro.sim.scheduler import run_events
from repro.sim.setups import ALL_SETUPS, Setup

#: Benchmarks in the paper's Figure 12 order (registry insertion order).
#: Simulator-scaling workloads registered with ``figure12=False`` (the
#: multi-ring ``mstream``) are excluded, so default grids and the golden
#: figure-12 JSON are unaffected by their existence.
BENCHMARK_NAMES = tuple(
    name for name, spec in BENCHMARKS.items() if spec.figure12
)


def run_benchmark(
    setup: Setup,
    mode: Mode,
    benchmark: str,
    *,
    config: Optional[RunConfig] = None,
) -> RunResult:
    """Run one benchmark under one mode on one setup.

    All run-shaping knobs travel in ``config`` — one frozen
    :class:`~repro.config.RunConfig` record (datapath build, shard
    count, observation, timeline window, tenancy scenario, sizing).
    ``config=None`` resolves the environment (``RunConfig.from_env()``),
    which is what grid worker processes see after the parent exports
    its config.

    ``config.observe="full"`` attaches a
    :class:`~repro.obs.profile.RunObserver` for the duration of the run
    and stores its summary (cycle attribution, protection audit,
    latency percentiles) on ``result.obs``; ``observe="lite"`` runs the
    counters-first telemetry tier (:mod:`repro.obs.lite`) instead,
    storing its summary on ``result.telemetry`` while keeping the
    columnar datapath and sharded execution active.  Observation is
    strictly observational: every modelled number is bit-identical
    with it on or off.  Shard choice is equally bit-invisible (see
    :mod:`repro.sim.scheduler`; the parity tests pin this).
    """
    if config is None:
        config = RunConfig.from_env()
    return run_with_config(setup, mode, benchmark, config)


def run_with_config(
    setup: Setup, mode: Mode, benchmark: str, config: RunConfig
) -> RunResult:
    """Run one cell from an already-resolved :class:`RunConfig`.

    The shim-free core of :func:`run_benchmark` — internal callers that
    already hold a config (the grid worker, the sweep, the harness) go
    straight here.
    """
    bench = make_benchmark(benchmark, config.fast, tenancy=config.tenancy)
    return run_prepared(bench, setup, mode, config)


def run_prepared(bench, setup: Setup, mode: Mode, config: RunConfig) -> RunResult:
    """Run an already-instantiated workload under ``config``.

    The observe-tier wrapping of :func:`run_with_config` without the
    registry lookup: callers that perturb a workload's knobs before the
    run (the ablation engine replaces ``machine_kwargs``/
    ``driver_kwargs`` on a registry-made instance) come through here so
    every tier — off, lite, full — behaves exactly as in a plain run.
    """
    if config.observe == "off":
        return _execute(bench, setup, mode, config)
    if config.observe == "lite":
        # The counters-first tier: no trace bus, so the columnar
        # datapath, intra-run sharding and grid parallelism all stay
        # active (pinned by test).
        from repro.obs.lite import LITE

        LITE.start(clock_hz=setup.clock_hz)
        try:
            result = _execute(bench, setup, mode, config)
            result.telemetry = LITE.summary(result)
        finally:
            LITE.stop()
        return result
    with RunObserver(
        clock_hz=setup.clock_hz, timeline_window=config.timeline_window
    ) as observer:
        result = _execute(bench, setup, mode, config)
    result.obs = observer.summary(result)
    return result


def _execute(bench, setup: Setup, mode: Mode, config: RunConfig) -> RunResult:
    """Run one instantiated workload on the event kernel."""
    return run_events(bench, setup, mode, config.shards)


def run_mode_sweep(
    setup: Setup,
    benchmark: str,
    modes: Iterable[Mode] = ALL_MODES,
    *,
    config: Optional[RunConfig] = None,
) -> Dict[Mode, RunResult]:
    """One benchmark across the given modes (one Figure 12 panel).

    Each mode gets a freshly-instantiated workload.  Workloads are
    parameter holders whose actors build a new machine every run (two
    consecutive runs of one instance give identical results — tested),
    but per-mode instantiation makes each cell structurally identical
    to the parallel runner's, and keeps any future stateful workload
    from bleeding counters between modes.

    Knobs ride in ``config`` (see :func:`run_benchmark`).
    """
    if config is None:
        config = RunConfig.from_env()
    return {
        mode: run_with_config(setup, mode, benchmark, config) for mode in modes
    }


@dataclass
class EvaluationGrid:
    """Results for the full Figure 12 grid, indexed [setup][benchmark][mode]."""

    results: Dict[str, Dict[str, Dict[Mode, RunResult]]] = field(default_factory=dict)

    def get(self, setup_name: str, benchmark: str, mode: Mode) -> RunResult:
        """One cell of the grid."""
        return self.results[setup_name][benchmark][mode]

    def panel(self, setup_name: str, benchmark: str) -> Dict[Mode, RunResult]:
        """One benchmark's results across all modes."""
        return self.results[setup_name][benchmark]

    def to_dict(self) -> Dict[str, Dict[str, Dict[str, dict]]]:
        """JSON-friendly nested dict of every cell."""
        return {
            setup: {
                benchmark: {mode.label: result.to_dict() for mode, result in panel.items()}
                for benchmark, panel in benchmarks.items()
            }
            for setup, benchmarks in self.results.items()
        }

    def save_json(self, path) -> None:
        """Write the whole grid to a JSON file."""
        import json

        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    def metrics_summary(self) -> Dict[str, float]:
        """All cells' metrics snapshots merged into one flat dict.

        Cells are folded in the grid's (serial) iteration order via
        :meth:`MetricsRegistry.merge`, so the summary is bit-identical
        regardless of how many workers produced the cells.
        """
        from repro.obs.metrics import MetricsRegistry

        snapshots = [
            result.metrics
            for benchmarks in self.results.values()
            for panel in benchmarks.values()
            for result in panel.values()
            if result.metrics is not None
        ]
        return MetricsRegistry.merge(snapshots)


def run_figure12(
    setups: Iterable[Setup] = ALL_SETUPS,
    benchmarks: Iterable[str] = BENCHMARK_NAMES,
    modes: Iterable[Mode] = ALL_MODES,
    *,
    jobs: Optional[int] = None,
    config: Optional[RunConfig] = None,
) -> EvaluationGrid:
    """Run the complete evaluation grid of the paper's Figure 12.

    ``jobs`` fans independent cells out over worker processes (``None``
    or 1 = serial, 0 = one per CPU); results are identical for any
    value — see :mod:`repro.sim.parallel`.  It stays a direct argument
    because it shapes this call's fan-out, not a run's semantics.

    Every other knob rides in ``config``: for the duration of the grid
    the config is exported to the environment
    (:meth:`RunConfig.exported`), so worker processes reconstruct it
    bit-identically via ``RunConfig.from_env()`` — observation,
    shards and the datapath build all reach every cell.  ``config=None``
    resolves the environment.

    When the process-local tracer is recording the grid runs serially
    regardless of ``jobs``: events emitted inside worker processes
    would never reach this process's trace buffer.  Results are
    identical either way (the parity tests pin this).
    """
    if config is None:
        config = RunConfig.from_env()
    with config.exported():
        return _run_grid(setups, benchmarks, modes, config, jobs)


def _run_grid(
    setups: Iterable[Setup],
    benchmarks: Iterable[str],
    modes: Iterable[Mode],
    config: RunConfig,
    jobs: Optional[int],
) -> EvaluationGrid:
    if resolve_jobs(jobs) > 1 and not TRACE.active:
        from repro.sim.parallel import run_grid

        return run_grid(setups, benchmarks, modes, config.fast, jobs)
    grid = EvaluationGrid()
    for setup in setups:
        per_setup: Dict[str, Dict[Mode, RunResult]] = {}
        for benchmark in benchmarks:
            per_setup[benchmark] = {
                mode: run_with_config(setup, mode, benchmark, config)
                for mode in modes
            }
        grid.results[setup.name] = per_setup
    return grid
