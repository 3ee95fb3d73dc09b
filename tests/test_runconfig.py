"""The unified RunConfig surface: parsing, the runner, worker parity.

The contract: every run-shaping knob lives in one frozen ``RunConfig``;
``from_env`` is the one reader of the ``REPRO_*`` variables; the runner
facade takes knobs only as ``config=``; and grid worker processes get
the parent's config bit-identically inside their task, never from the
environment.
"""

import pickle
from dataclasses import FrozenInstanceError, fields

import pytest

from repro.config import (
    DATAPATH_ENV,
    DEFAULT_BUILD,
    ENV_VARS,
    OBSERVE_ENV,
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
    assert config.observe == "off"
    assert config.timeline_window is None
    assert config.tenancy is None


def test_config_has_exactly_the_documented_fields():
    names = [field.name for field in fields(RunConfig)]
    assert names == ["fast", "datapath", "observe", "timeline_window", "tenancy"]


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
        assert RunConfig.from_env({OBSERVE_ENV: level}) == RunConfig(observe=level)
    # The historical boolean wire values still parse.
    assert RunConfig.from_env({OBSERVE_ENV: "1"}).observe == "full"
    assert RunConfig.from_env({OBSERVE_ENV: "0"}).observe == "off"
    with pytest.raises(ValueError, match="REPRO_OBSERVE"):
        RunConfig.from_env({OBSERVE_ENV: "verbose"})


# -- the environment and the task ----------------------------------------


def test_config_pickles_with_every_field():
    """The record a grid worker receives in its task is the parent's."""
    config = RunConfig(
        fast=True,
        datapath="scalar",
        observe=True,
        timeline_window=5000.0,
        tenancy=preset_scenario("critical"),
    )
    rebuilt = pickle.loads(pickle.dumps(config))
    assert rebuilt == config
    assert rebuilt.tenancy.slo_gated


def test_from_env_reads_the_documented_variables():
    env = {
        DATAPATH_ENV: "scalar",
        OBSERVE_ENV: "1",
        TIMELINE_WINDOW_ENV: "250000.0",
    }
    config = RunConfig.from_env(env)
    assert config.datapath == "scalar"
    assert config.observe == "full"
    assert config.timeline_window == 250000.0


def test_foreign_repro_variables_are_ignored():
    # Removed knobs (the engine selector, the datapath vetoes) are now
    # foreign variables like any other REPRO_* name.
    env = {"REPRO_ENGINE": "loop", "REPRO_DISABLE_FASTPATH": "1"}
    assert RunConfig.from_env(env) == RunConfig()


@pytest.mark.parametrize("value", ["2", "1", ""])
def test_retired_shards_variable_is_refused(value):
    # Intra-run sharding is gone; a run that asks for it must not
    # silently run serially.
    with pytest.raises(ValueError, match="REPRO_SHARDS"):
        RunConfig.from_env({"REPRO_SHARDS": value})
    with pytest.raises(TypeError):
        RunConfig(shards=2)


# -- the runner takes knobs only as config= ------------------------------


def test_config_argument_passes_through_unchanged(monkeypatch):
    seen = []
    monkeypatch.setattr(
        runner, "run_with_config", lambda *args: seen.append(args[-1])
    )
    config = RunConfig(fast=True, datapath="scalar")
    runner.run_benchmark(MLX_SETUP, Mode.STRICT, "rr", config=config)
    runner.run_mode_sweep(MLX_SETUP, "rr", modes=(Mode.NONE,), config=config)
    assert seen == [config, config]
    assert all(passed is config for passed in seen)


def test_default_config_is_read_from_the_environment(monkeypatch):
    seen = []
    monkeypatch.setattr(
        runner, "run_with_config", lambda *args: seen.append(args[-1])
    )
    monkeypatch.setenv(DATAPATH_ENV, "scalar")
    monkeypatch.setenv(OBSERVE_ENV, "lite")
    runner.run_benchmark(MLX_SETUP, Mode.STRICT, "rr")
    assert seen == [RunConfig(datapath="scalar", observe="lite")]


def test_legacy_run_kwargs_are_gone():
    with pytest.raises(TypeError):
        runner.run_benchmark(MLX_SETUP, Mode.STRICT, "rr", fast=True)
    with pytest.raises(TypeError):
        runner.run_mode_sweep(MLX_SETUP, "rr", observe=True)
    with pytest.raises(TypeError):
        runner.run_figure12(engine="events")


def _echo(config):
    return config


def test_worker_pool_reconstructs_an_identical_config():
    """Every pool worker receives a config equal to the parent's."""
    from concurrent.futures import ProcessPoolExecutor

    config = RunConfig(
        datapath="scalar",
        observe=True,
        tenancy=preset_scenario("aggressor"),
    )
    try:
        with ProcessPoolExecutor(max_workers=2) as pool:
            received = list(pool.map(_echo, [config] * 4))
    except OSError:
        pytest.skip("process pools unavailable on this host")
    assert all(copy == config for copy in received)
