"""One op of each benchmark workload, checked by the benchmark's own output check.

A kernel change that breaks a benchmark output check fails here, not only in
a benchmark run.  The workloads are imported from ``perfbench/workloads.py``
by path; nothing under ``perfbench/`` is modified.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_op_passes_its_check(name):
    workload = workloads.WORKLOADS[name](1)
    out = workload.op(0)
    workload.check(0, out)
