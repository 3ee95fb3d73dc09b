"""Tests for the ``python -m repro`` command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import EXPERIMENTS, build_parser, main

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["no-such-thing"])


def test_parser_offers_exactly_the_two_builds_and_no_engine():
    parser = build_parser()
    for build in ("scalar", "columnar"):
        assert parser.parse_args(["table1", "--datapath", build]).datapath == build
    for argv in (["table1", "--datapath", "batched"], ["table1", "--engine", "loop"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_retired_shards_flag_is_an_unknown_argument():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "tenants", "--fast", "--shards", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 2
    assert "--shards" in proc.stderr


def test_run_single_experiment(capsys):
    assert main(["miss-penalty", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "miss penalty" in out
    assert "paper" in out


def test_run_sata(capsys):
    assert main(["sata", "--fast"]) == 0
    assert "slowdown" in capsys.readouterr().out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "artifact.txt"
    assert main(["miss-penalty", "--fast", "-o", str(target)]) == 0
    assert "miss penalty" in target.read_text()


def test_experiment_descriptions_mention_paper_artifacts():
    joined = " ".join(EXPERIMENTS.values())
    for artefact in ("Table 1", "Figure 7", "Figure 8", "Figure 12", "Table 2", "Table 3"):
        assert artefact in joined
