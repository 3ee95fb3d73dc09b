"""Shared infrastructure for the reproduction benchmarks.

Each benchmark module regenerates one table/figure of the paper.  The
rendered output is printed (visible with ``pytest -s``) and saved under
``benchmarks/output/`` so the artefacts survive the run.
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

# Import the simulator from this checkout, installed or not.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))


def pytest_collection_modifyitems(config, items):
    """Make ``@pytest.mark.perf`` timing tests opt-in.

    They run only when explicitly selected (``-m perf`` / ``-m "perf
    ..."``) or with ``REPRO_RUN_PERF=1``; otherwise they are skipped so
    ordinary benchmark runs stay load-insensitive.
    """
    if os.environ.get("REPRO_RUN_PERF") == "1":
        return
    if "perf" in (config.getoption("-m") or ""):
        return
    skip = pytest.mark.skip(reason="perf test: opt in with -m perf or REPRO_RUN_PERF=1")
    for item in items:
        if "perf" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def output_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def save_artifact(output_dir):
    """Write a rendered table/figure to benchmarks/output/<name>.txt."""

    def _save(name: str, text: str) -> None:
        path = output_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save
