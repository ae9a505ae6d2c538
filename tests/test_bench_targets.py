"""Every library function the benchmark's tracer wraps still exists under
the name and module it is wrapped at, and every workload's operations,
shapes and checks run on the library as it is."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_tracing_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    targets = importlib.import_module("tracing").TARGETS
    assert targets
    for name, module, attr in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module}.{attr} is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"{name}: {module}.{attr} is not callable"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["npa-deep", "complex-ladder", "hierarchy-pool",
                                  "symmetry-reduce"])
def test_first_operation_of_each_workload(workloads, name):
    """One operation per workload at the benchmark's seed, with the reads
    of its shape and correctness check: the row form, blocks_from_moments
    and the reduced model."""
    load = workloads.WORKLOADS[name](404)
    _, op = load.ops()[0]
    out = op()
    assert load.status(out) == workloads.OPTIMAL
    shape = load.shape(out)
    assert shape["nnz"] > 0 and shape["iterations"] > 0
    if name == "hierarchy-pool":
        relax, res = out
        _, reals = load.pool[0]
        assert reals
        for real in reals:
            why, _ = workloads.realization_failure(relax, real, res.bound, -1)
            assert why is None
        return
    if name == "symmetry-reduce":
        load.solve_references()
    assert load.check([out]) == [None]


def test_symmetry_workload_groups_are_real(workloads):
    """The permutation groups of symmetry-reduce hold float64 elements, so
    their actions on the workload's real data run in real arithmetic."""
    for label, make in workloads.SymmetryReduce.groups:
        assert make().elements.dtype.name == "float64", label
