"""Fold a cProfile run into per-layer host time and call counts.

A layer is a ``repro`` package (``repro.iommu``, ``repro.core``, ...);
``top`` holds the modules directly under ``repro/`` (``dma.py``,
``config.py``, ...) and ``other`` holds the benchmark's own driving loop
and any package not named in :data:`LAYERS`.

Functions outside ``repro`` and outside the benchmark -- built-ins (pstats
``~`` entries), the standard library, dataclass-generated code -- belong to
no layer: their time and calls are charged to the layers that called them,
using pstats' per-caller edges.  A chain of such functions is followed
back until it reaches a layer.  Time is split by the edges' self time at
the first step and by cumulative time further up; calls and entries are
split by call counts only, so they repeat exactly run to run.  Every sum
runs in sorted function order: cProfile lists functions in an order that
depends on memory addresses, and float sums depend on their order.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

#: The layers the trace reports, in presentation order.
LAYERS: Tuple[str, ...] = (
    "iova",
    "iommu",
    "core",
    "kernel",
    "devices",
    "memory",
    "perf",
    "sim",
    "obs",
    "top",
    "other",
)
OTHER = "other"

Func = Tuple[str, int, str]
#: pstats layout: func -> (primitive calls, calls, self time, cumulative
#: time, {caller: (calls, primitive calls, self time, cumulative time)})
Stats = Dict[Func, tuple]

_CALLS, _SELF, _CUM = 0, 2, 3


def package_layer_of(package_dir: str, harness_dir: str) -> Callable[[Func], Optional[str]]:
    """Map a pstats function to its layer, or None for code outside both trees."""
    package_dir = os.path.abspath(package_dir) + os.sep
    harness_dir = os.path.abspath(harness_dir) + os.sep
    cache: Dict[str, Optional[str]] = {}

    def layer_of(func: Func) -> Optional[str]:
        filename = func[0]
        if filename not in cache:
            path = os.path.abspath(filename)
            if path.startswith(package_dir):
                parts = path[len(package_dir):].split(os.sep)
                layer = "top" if len(parts) == 1 else parts[0]
                cache[filename] = layer if layer in LAYERS else OTHER
            elif path.startswith(harness_dir):
                cache[filename] = OTHER
            else:
                cache[filename] = None
        return cache[filename]

    return layer_of


class _Owners:
    """Which layers a function's callers belong to, weighted by one edge field."""

    def __init__(self, stats: Stats, layer_of, weight: int) -> None:
        self.stats = stats
        self.layer_of = layer_of
        self.weight = weight
        self.memo: Dict[Func, Dict[str, float]] = {}
        self.active = set()

    def __call__(self, func: Func) -> Dict[str, float]:
        layer = self.layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in self.memo:
            return self.memo[func]
        if func in self.active or func not in self.stats:
            return {OTHER: 1.0}
        self.active.add(func)
        callers = self.stats[func][4]
        total = sum(edge[self.weight] for _, edge in sorted(callers.items()))
        owners: Dict[str, float] = {}
        if total > 0:
            for caller, edge in sorted(callers.items()):
                share = edge[self.weight] / total
                for layer, part in self(caller).items():
                    owners[layer] = owners.get(layer, 0.0) + share * part
        else:
            owners = {OTHER: 1.0}
        self.active.discard(func)
        self.memo[func] = owners
        return owners


def _charge(stats: Stats, layer_of, amount: int, owners: _Owners) -> Dict[str, float]:
    """Charge each function's ``amount`` field to layers.

    A layer's own functions charge themselves.  Any other function charges
    each caller edge's share to the layers that own that caller; what no
    edge accounts for (a root function) goes to ``other``.
    """
    totals = {layer: 0.0 for layer in LAYERS}
    for func, (_, calls, self_time, _, callers) in sorted(stats.items()):
        value = calls if amount == _CALLS else self_time
        layer = layer_of(func)
        if layer is not None:
            totals[layer] += value
            continue
        charged = 0.0
        for caller, edge in sorted(callers.items()):
            charged += edge[amount]
            for owner, part in owners(caller).items():
                totals[owner] += edge[amount] * part
        totals[OTHER] += value - charged
    return totals


def fold(stats: Stats, layer_of) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s``, ``calls`` and ``entries`` from pstats-style stats.

    ``entries`` counts calls into a layer's functions from another layer:
    the layer's boundary traffic.
    """
    by_calls = _Owners(stats, layer_of, _CALLS)
    self_s = _charge(stats, layer_of, _SELF, _Owners(stats, layer_of, _CUM))
    calls = _charge(stats, layer_of, _CALLS, by_calls)
    entries = {layer: 0.0 for layer in LAYERS}
    for func, (_, _, _, _, callers) in sorted(stats.items()):
        layer = layer_of(func)
        if layer is None:
            continue
        for caller, edge in sorted(callers.items()):
            entries[layer] += edge[_CALLS] * (1.0 - by_calls(caller).get(layer, 0.0))
    return {
        layer: {"self_s": self_s[layer], "calls": calls[layer], "entries": entries[layer]}
        for layer in LAYERS
    }
