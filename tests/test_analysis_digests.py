"""Exact digests of the analysis entry points' results.

``test_analysis*.py`` check these experiments against the paper with
tolerances; this file pins every cell bit-for-bit, at the same sizes,
so a change to how the experiments drive their workloads (which engine,
which build) cannot move a number unnoticed.  Each digest is the
SHA-256 of a canonical JSON rendering of the result: floats by
``repr``, enums by name, dict entries sorted, every ``RunResult`` by
its ``to_dict()`` plus its metrics snapshot.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import pytest

from repro.analysis import (
    run_figure7,
    run_figure8,
    run_micro_validation,
    run_table1,
    run_table3,
    sweep_alloc_pathology,
)
from repro.sim.results import RunResult


def _canon(value):
    if isinstance(value, RunResult):
        return {"to_dict": _canon(value.to_dict()), "metrics": _canon(value.metrics)}
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value):
        return {
            f.name: _canon(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        items = [(json.dumps(_canon(k)), _canon(v)) for k, v in value.items()]
        return sorted(items, key=lambda item: item[0])
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    if isinstance(value, float):
        return repr(value)
    return value


def _digest(result) -> str:
    text = json.dumps(_canon(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


CASES = {
    "table1": lambda: run_table1(packets=200, warmup=50),
    "figure7": lambda: run_figure7(packets=200, warmup=50),
    "figure8": lambda: run_figure8(
        busywait_sweep=(0, 2000, 8000), curve_points=10, packets=120, warmup=30
    ),
    "table3": lambda: run_table3(transactions=60, warmup=10),
    "micro": lambda: run_micro_validation(packets=120, warmup=30),
    "alloc_pathology": lambda: sweep_alloc_pathology(scales=(1.0, 4.0), requests=40),
}

#: Recorded while these entry points still drove each workload through
#: its own ``run()`` loop; the event kernel must reproduce them exactly.
DIGESTS = {
    "alloc_pathology": "ed1a35077ed3f716b21c9a8405fa585269298afeb6e1a0d69f6b5d18da59d901",
    "figure7": "54b1f8e977941dc7eb55f065378c6ceb517f9c336841b18df2c928442605648b",
    "figure8": "60d396c17835b7d9fbbbdc6d6fa7c8cca3e3e1f7f8753e82b0c5f483693c490b",
    "micro": "6d7f5b2b9f612e5542851f676b98df7975bde83d2efd2be29ab84a75a75700bb",
    "table1": "f977a6d3d35b7f973a1d6d01f941c0a235bd877894ceba922f26e725aab8240c",
    "table3": "b1a800afdb9dd2f0b2d1c61d04fabf22961f1772f0dcea85300928cff6e8426e",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_analysis_result_digest(name):
    assert _digest(CASES[name]()) == DIGESTS[name]
