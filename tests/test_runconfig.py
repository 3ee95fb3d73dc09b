"""The unified RunConfig surface: round trips, the runner, worker parity.

The contract: every run-shaping knob lives in one frozen ``RunConfig``;
the environment is just its wire format (``from_env(to_env()) ==
config``); the runner facade takes knobs only as ``config=``; and grid
worker processes reconstruct the parent's config bit-identically from
the exported environment.
"""

import os
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.config import (
    DATAPATH_ENV,
    DEFAULT_BUILD,
    ENV_VARS,
    OBSERVE_ENV,
    SHARDS_ENV,
    TENANCY_ENV,
    TIMELINE_WINDOW_ENV,
    RunConfig,
)
from repro.modes import Mode
from repro.sim import runner
from repro.sim.setups import MLX_SETUP
from repro.sim.tenancy import preset_scenario


@pytest.fixture(autouse=True)
def _clean_knob_env(monkeypatch):
    """Every test sees a pristine knob environment."""
    for name in ENV_VARS:
        monkeypatch.delenv(name, raising=False)


# -- the record itself ---------------------------------------------------


def test_defaults_match_the_documented_knob_defaults():
    config = RunConfig()
    assert config.fast is False
    assert config.datapath == DEFAULT_BUILD
    assert config.shards == 1
    assert config.observe == "off"
    assert config.timeline_window is None
    assert config.tenancy is None


def test_config_is_frozen():
    config = RunConfig()
    with pytest.raises(FrozenInstanceError):
        config.datapath = "scalar"


def test_bad_build_and_engine_fail_loudly():
    with pytest.raises(ValueError, match="unknown datapath build"):
        RunConfig(datapath="vectorized")
    with pytest.raises(ValueError, match="unknown datapath build"):
        RunConfig.from_env({DATAPATH_ENV: "batched"})
    with pytest.raises(TypeError):
        RunConfig(engine="events")


def test_observe_accepts_levels_and_legacy_bools():
    assert RunConfig(observe="lite").observe == "lite"
    assert RunConfig(observe="full").observe == "full"
    assert RunConfig(observe=True).observe == "full"
    assert RunConfig(observe=False).observe == "off"
    with pytest.raises(ValueError, match="unknown observe level"):
        RunConfig(observe="verbose")


def test_observe_env_round_trips_every_level():
    for level in ("off", "lite", "full"):
        config = RunConfig(observe=level)
        assert config.to_env()[OBSERVE_ENV] == level
        assert RunConfig.from_env(config.to_env()).observe == level
    # The historical boolean wire values still parse.
    assert RunConfig.from_env({OBSERVE_ENV: "1"}).observe == "full"
    assert RunConfig.from_env({OBSERVE_ENV: "0"}).observe == "off"
    with pytest.raises(ValueError, match="REPRO_OBSERVE"):
        RunConfig.from_env({OBSERVE_ENV: "verbose"})


def test_shards_normalize_at_construction():
    assert RunConfig(shards=4).shards == 4
    per_cpu = RunConfig(shards=0).shards
    assert per_cpu == (os.cpu_count() or 1)
    assert RunConfig(shards=-3).shards == per_cpu


# -- env round trip ------------------------------------------------------


def test_to_env_from_env_round_trips_every_field():
    config = RunConfig(
        fast=True,
        datapath="scalar",
        shards=4,
        observe=True,
        timeline_window=5000.0,
        tenancy=preset_scenario("critical"),
    )
    rebuilt = RunConfig.from_env(config.to_env())
    # fast rides in the work item, never the environment.
    assert rebuilt == replace(config, fast=False)
    assert rebuilt.tenancy == config.tenancy
    assert rebuilt.tenancy.slo_gated


def test_to_env_omits_unset_optionals():
    exported = RunConfig().to_env()
    assert TIMELINE_WINDOW_ENV not in exported
    assert TENANCY_ENV not in exported
    assert exported[DATAPATH_ENV] == DEFAULT_BUILD
    assert exported[SHARDS_ENV] == "1"
    assert exported[OBSERVE_ENV] == "off"


def test_from_env_reads_the_documented_variables():
    env = {
        DATAPATH_ENV: "scalar",
        SHARDS_ENV: "3",
        OBSERVE_ENV: "1",
        TIMELINE_WINDOW_ENV: "250000.0",
    }
    config = RunConfig.from_env(env)
    assert config.datapath == "scalar"
    assert config.shards == 3
    assert config.observe == "full"
    assert config.timeline_window == 250000.0


def test_exported_sets_then_restores_the_environment():
    os.environ[DATAPATH_ENV] = "scalar"
    os.environ.pop(SHARDS_ENV, None)
    config = RunConfig(
        datapath="columnar", shards=2, tenancy=preset_scenario("balanced")
    )
    with config.exported():
        assert os.environ[DATAPATH_ENV] == "columnar"
        assert os.environ[SHARDS_ENV] == "2"
        assert TENANCY_ENV in os.environ
        assert RunConfig.from_env() == replace(config, fast=False)
    assert os.environ[DATAPATH_ENV] == "scalar"
    assert SHARDS_ENV not in os.environ
    assert TENANCY_ENV not in os.environ


def test_foreign_repro_variables_are_ignored():
    # Removed knobs (the engine selector, the datapath vetoes) are now
    # foreign variables like any other REPRO_* name.
    env = {"REPRO_ENGINE": "loop", "REPRO_DISABLE_FASTPATH": "1"}
    assert RunConfig.from_env(env) == RunConfig()


# -- the runner takes knobs only as config= ------------------------------


def test_config_argument_passes_through_unchanged(monkeypatch):
    seen = []
    monkeypatch.setattr(
        runner, "run_with_config", lambda *args: seen.append(args[-1])
    )
    config = RunConfig(fast=True, shards=2)
    runner.run_benchmark(MLX_SETUP, Mode.STRICT, "rr", config=config)
    runner.run_mode_sweep(MLX_SETUP, "rr", modes=(Mode.NONE,), config=config)
    assert seen == [config, config]
    assert all(passed is config for passed in seen)


def test_default_config_is_read_from_the_environment(monkeypatch):
    seen = []
    monkeypatch.setattr(
        runner, "run_with_config", lambda *args: seen.append(args[-1])
    )
    monkeypatch.setenv(SHARDS_ENV, "3")
    monkeypatch.setenv(OBSERVE_ENV, "lite")
    runner.run_benchmark(MLX_SETUP, Mode.STRICT, "rr")
    assert seen == [RunConfig(shards=3, observe="lite")]


def test_legacy_run_kwargs_are_gone():
    with pytest.raises(TypeError):
        runner.run_benchmark(MLX_SETUP, Mode.STRICT, "rr", fast=True)
    with pytest.raises(TypeError):
        runner.run_mode_sweep(MLX_SETUP, "rr", observe=True)
    with pytest.raises(TypeError):
        runner.run_figure12(engine="events")


def test_worker_pool_reconstructs_an_identical_config():
    """Every pool worker's from_env() equals the parent's exported config."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.sim.parallel import worker_config_probe

    config = RunConfig(
        datapath="scalar",
        shards=2,
        observe=True,
        tenancy=preset_scenario("aggressor"),
    )
    with config.exported():
        try:
            with ProcessPoolExecutor(max_workers=2) as pool:
                probes = list(pool.map(worker_config_probe, range(4)))
        except OSError:
            pytest.skip("process pools unavailable on this host")
    expected = replace(config, fast=False)
    assert all(probe == expected for probe in probes)
