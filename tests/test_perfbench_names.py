"""The names the benchmark reads from `ecat` still exist.

`perfbench` reaches into `ecat` in three ways: its tracer wraps targets
named as strings, its workloads are built from fixtures at set-up, and its
stages call `ecat` functions by attribute inside lambdas, which only run in
a timed pass. A removed or renamed name breaks the benchmark outside its
stages, where a failure is not reported as a failed stage, so these tests
resolve every one of them without running a pass.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run, tracer, workloads  # noqa: E402  (needs ROOT on sys.path)

TARGETS = (*tracer.SPANNED, *tracer.COUNTED, tracer.BUDGET, *tracer.BUDGETED)


@pytest.mark.parametrize("target", TARGETS)
def test_tracer_target_resolves(target):
    owner, attr, original = tracer._resolve(target)
    assert callable(original) and getattr(owner, attr) is original


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_builds(workload):
    assert workloads.build(workload, 1)


@pytest.mark.parametrize("name", ["fixtures.py", "workloads.py"])
def test_ecat_attributes_read_by_the_benchmark_exist(name):
    tree = ast.parse((ROOT / "perfbench" / name).read_text())
    modules = {
        alias.asname or alias.name: sys.modules[f"ecat.{alias.name}"]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "ecat"
        for alias in node.names
    }
    assert modules
    missing = sorted(
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and not hasattr(modules[node.value.id], node.attr)
    )
    assert missing == []
