"""Unified run configuration: one frozen record for every knob.

This module is the single source of truth for how a run is configured:

* :class:`RunConfig` — a frozen, keyword-only record of every knob:
  datapath build, per-run observation, timeline window width,
  benchmark sizing (``fast``) and the multi-tenant scenario
  (:mod:`repro.sim.tenancy`).
* :meth:`RunConfig.from_env` — the one environment reader.  Every
  ``REPRO_*`` variable is parsed by the helpers defined here, so a
  knob's spelling and semantics live in exactly one place.

Knobs travel by argument, never by process state: the runner facade
(:func:`repro.sim.runner.run_benchmark` and friends) takes them as
``config=RunConfig(...)``, each :class:`~repro.kernel.machine.Machine`
takes its datapath build at construction, and grid worker processes
receive the config inside their task.  No library module writes
``os.environ``; only ``repro.cli.main`` exports its own flags, once,
before it runs anything.

This module sits below the rest of the package: it imports nothing
from ``repro`` at module level (the tenancy parser imports lazily), so
``repro.sim.scheduler`` and the observability modules can re-export
their historical constants from it without cycles.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Tuple

# -- canonical knob constants (single source of truth) ----------------------

#: The recognised datapath builds: the reference oracle, then the product.
BUILDS: Tuple[str, ...] = ("scalar", "columnar")

#: Datapath build used when ``REPRO_DATAPATH`` is unset.
DEFAULT_BUILD = "columnar"

#: The one documented datapath selection knob.
DATAPATH_ENV = "REPRO_DATAPATH"

#: Per-run observation knob.
OBSERVE_ENV = "REPRO_OBSERVE"

#: The recognised observation levels: nothing, the counters-first lite
#: telemetry tier (keeps the columnar build), and the full
#: per-event trace-bus observer.
OBSERVE_LEVELS: Tuple[str, ...] = ("off", "lite", "full")

#: Timeline sampling window override, in modelled cycles.
TIMELINE_WINDOW_ENV = "REPRO_TIMELINE_WINDOW"

#: Multi-tenant scenario spec, JSON-serialised.
TENANCY_ENV = "REPRO_TENANCY"

#: Every canonical environment variable, in presentation order.
ENV_VARS: Tuple[str, ...] = (
    DATAPATH_ENV,
    OBSERVE_ENV,
    TIMELINE_WINDOW_ENV,
    TENANCY_ENV,
)


# -- knob parsing helpers (the collapsed resolve_* readers) -----------------


def check_build(build: str) -> str:
    """Return ``build`` if it names a datapath build, else raise."""
    if build not in BUILDS:
        raise ValueError(
            f"unknown datapath build {build!r}: expected one of {', '.join(BUILDS)}"
        )
    return build


def datapath_from_env(env: Optional[Mapping[str, str]] = None) -> str:
    """The datapath build ``REPRO_DATAPATH`` selects (``ValueError`` if bad)."""
    if env is None:
        env = os.environ
    return check_build(env.get(DATAPATH_ENV, DEFAULT_BUILD))


def normalize_observe(observe) -> str:
    """Normalise an observation request to ``off``/``lite``/``full``.

    Booleans keep their historical meaning (``True`` is the full
    trace-bus observer, ``False`` is off); the string levels pass
    through; anything else raises listing the valid levels.
    """
    if observe is True:
        return "full"
    if observe is False:
        return "off"
    if observe in OBSERVE_LEVELS:
        return observe
    raise ValueError(
        f"unknown observe level {observe!r}: "
        f"expected one of {', '.join(OBSERVE_LEVELS)} (or a bool)"
    )


def observe_from_env(env: Optional[Mapping[str, str]] = None) -> str:
    """The observation level ``REPRO_OBSERVE`` selects.

    ``""``/``"0"`` mean off and ``"1"`` means full (the historical
    boolean spellings); the literal levels pass through; anything else
    raises like the datapath parser does.
    """
    if env is None:
        env = os.environ
    raw = env.get(OBSERVE_ENV, "")
    if raw in ("", "0"):
        return "off"
    if raw == "1":
        return "full"
    if raw in OBSERVE_LEVELS:
        return raw
    raise ValueError(
        f"unknown observe level {raw!r} in {OBSERVE_ENV}: "
        f"expected one of {', '.join(OBSERVE_LEVELS)} (or 0/1)"
    )


def timeline_window_from_env(
    env: Optional[Mapping[str, str]] = None,
) -> Optional[float]:
    """The ``REPRO_TIMELINE_WINDOW`` override, or None for the default."""
    if env is None:
        env = os.environ
    raw = env.get(TIMELINE_WINDOW_ENV, "")
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return None


def tenancy_from_env(env: Optional[Mapping[str, str]] = None):
    """The ``REPRO_TENANCY`` scenario spec, or None when unset."""
    if env is None:
        env = os.environ
    raw = env.get(TENANCY_ENV, "")
    if not raw:
        return None
    from repro.sim.tenancy import ScenarioSpec

    try:
        return ScenarioSpec.from_dict(json.loads(raw))
    except ValueError as exc:
        raise ValueError(f"{TENANCY_ENV}: {exc}") from None


# -- the configuration record -----------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Every run-shaping knob as one frozen, keyword-only record.

    ``fast`` shrinks benchmark sizes.  ``datapath`` is the build every
    :class:`~repro.kernel.machine.Machine` of the run is constructed
    with; ``observe``/``timeline_window`` shape observation.  Those
    three also have a ``REPRO_*`` environment spelling, read only by
    :meth:`from_env`.  ``tenancy`` carries an optional
    :class:`~repro.sim.tenancy.ScenarioSpec` for the multi-tenant
    benchmark.  The whole record rides inside each grid
    worker's task (:data:`~repro.sim.parallel.GridCell`).  All fields
    validate at construction, so a config built from a bad environment
    fails loudly at ``from_env`` time.
    """

    fast: bool = False
    datapath: str = DEFAULT_BUILD
    observe: str = "off"
    timeline_window: Optional[float] = None
    tenancy: Optional[object] = None

    def __post_init__(self) -> None:
        # Booleans normalise to their historical levels, so
        # ``RunConfig(observe=True)`` keeps meaning the full observer.
        object.__setattr__(self, "observe", normalize_observe(self.observe))
        check_build(self.datapath)
        if self.timeline_window is not None and self.timeline_window <= 0:
            raise ValueError("timeline_window must be positive (or None)")

    # -- construction ----------------------------------------------------

    @classmethod
    def from_env(
        cls, env: Optional[Mapping[str, str]] = None, **overrides
    ) -> "RunConfig":
        """Build a config from an environment mapping (default: ``os.environ``).

        The single resolve path every knob reader funnels through;
        keyword ``overrides`` replace individual fields after the
        environment is read.  ``REPRO_SHARDS`` names a removed feature
        (intra-run sharding), so a mapping that sets it is refused
        rather than run serially without a word.
        """
        if env is None:
            env = os.environ
        if "REPRO_SHARDS" in env:
            raise ValueError(
                "REPRO_SHARDS is retired: intra-run sharding was removed and "
                "every run is one event heap in one process; unset it"
            )
        config = cls(
            datapath=datapath_from_env(env),
            observe=observe_from_env(env),
            timeline_window=timeline_window_from_env(env),
            tenancy=tenancy_from_env(env),
        )
        return replace(config, **overrides) if overrides else config
