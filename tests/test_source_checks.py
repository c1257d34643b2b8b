"""Checks on the source tree itself rather than on the mathematics."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so checks with mathematical
    # weight must raise library exceptions instead
    found = []
    for path in sorted((ROOT / "src" / "bfgeo").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_benchmark_selftest_passes():
    # the benchmark binds library names (is_graph_hom in two modules, the
    # rigidity sweeps, MatrixSpace methods); a rename must fail here
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_workload_setups_run(monkeypatch):
    # the selftest never warms a workload's spaces, so a renamed or deleted
    # MatrixSpace attribute that a set-up reads must fail here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        assert isinstance(workload.setup(), dict), name


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    # no other test runs the demos, which call the public API end to end
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
