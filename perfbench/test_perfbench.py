"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Not part of the package's test suite (pytest's testpaths is tests/).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from hlp_sharp import cli  # noqa: E402
from hlp_sharp.params import validate  # noqa: E402


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _tiny_invocations(seed):
    """Two oracle draws plus a 1000-sample group-check (plain Monte Carlo)."""
    return workloads.oracle_sweep(seed, per_combo=1)[:2] + [
        workloads.Invocation(("--command", "group-check", "--samples", "1000", "--seed", str(seed)))
    ]


def test_sweep_draws_are_admissible_and_hit_their_band():
    for band, (lo, hi) in workloads.MARGIN_BANDS.items():
        for inv in workloads.band_draws(5, band, per_combo=1):
            p = cli.config_from_args(list(inv.argv)).params
            assert validate(p).ok
            assert lo <= workloads._margin(p) <= hi
    assert workloads.oracle_sweep(5, 1) == workloads.oracle_sweep(5, 1)
    assert workloads.oracle_sweep(5, 1) != workloads.oracle_sweep(6, 1)


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    errors, attempted, failed, metrics = run.timed_run(
        "oracle_sweep", 3, 0.0, tmp_path, invs=_tiny_invocations(3))
    assert errors == [] and failed == 0
    assert attempted == 3 * run.MIN_PASSES
    assert {k: unit for k, (_, unit, _) in metrics.items()} == _declared("end_to_end")
    assert all(value > 0 for value, _, _ in metrics.values())


def test_trace_run_matches_untraced_and_reports_every_layer_metric(tmp_path):
    errors, _, failed, metrics = run.trace_run(
        "oracle_sweep", 3, tmp_path, quick=True, invs=_tiny_invocations(3))
    assert errors == [] and failed == 0
    assert {k: unit for k, (_, unit, _) in metrics.items()} == _declared("per_layer")
    assert metrics["quad.mc.plain.calls"][0] == 3
    assert metrics["quad.mc.polar.calls"][0] == 0
    assert 0.0 < metrics["quad.mc.share"][0] < 1.0


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workloads_build_from_seed(workload):
    assert workloads.invocations(workload, 7) == workloads.invocations(workload, 7)
