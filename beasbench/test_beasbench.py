"""Tests of the benchmark itself, at toy sizes.

Run from the repository root: ``python3 -m pytest beasbench``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import adhoc_airca
import serve_tpch
from layers import LAYER_UNITS

HERE = Path(__file__).resolve().parent

SMALL = {
    adhoc_airca: adhoc_airca.AdhocConfig(flights=1200, airports=30, mix_size=12, setup_repeats=1),
    serve_tpch: serve_tpch.ServeConfig(
        scale=1, pool_size=6, block_size=200, write_every=50, setup_repeats=1, exact_repeats=1
    ),
}


def _counts(report):
    layer_counts = {name: report.layers[name] for name, unit in LAYER_UNITS.items() if unit == "count"}
    return report.ops, report.counts, layer_counts, report.ledger.counts(), report.ledger.correct


@pytest.mark.parametrize("module", list(SMALL), ids=lambda module: module.WORKLOAD)
def test_one_seed_repeats_operations_and_counts(module):
    first = module.run(seed=7, seconds=0.0, trace=True, config=SMALL[module])
    second = module.run(seed=7, seconds=0.0, trace=True, config=SMALL[module])
    assert _counts(first) == _counts(second)
    assert first.ledger.correct
    assert set(first.layers) == set(LAYER_UNITS)


@pytest.mark.parametrize("module", list(SMALL), ids=lambda module: module.WORKLOAD)
def test_seed_drives_the_operation_order(module):
    first = module.run(seed=1, seconds=0.0, trace=False, config=SMALL[module])
    second = module.run(seed=2, seconds=0.0, trace=False, config=SMALL[module])
    assert first.ops != second.ops


def test_epoch_quota_sends_every_key_and_follows_zipf():
    quota = serve_tpch.epoch_quota(64, 1.1, 199)
    assert sum(quota) == 199
    assert min(quota) == 1
    assert quota == sorted(quota, reverse=True)


def _run(cwd: Path, env=None):
    command = [sys.executable, "beasbench/run.py", "--workload", "adhoc-airca", "--seed", "1", "--seconds", "1"]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def test_refuses_a_repro_knob():
    completed = _run(HERE.parent, env={**os.environ, "REPRO_FAULT_PLAN": "x"})
    assert completed.returncode != 0
    assert completed.stdout == ""
    assert "REPRO_FAULT_PLAN" in completed.stderr


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "beasbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = _run(tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
