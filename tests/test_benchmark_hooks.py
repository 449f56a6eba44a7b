"""The benchmark's tracing hooks name code that exists, and its
workloads' expected values hold.

perfbench/spans.py attaches to dxext by public name and reports a name
it cannot find as absent instead of failing, so a rename would silently
stop a per-layer metric.  Deleting or renaming a hooked name must
update EXPECTED_ABSENT in the same change.  perfbench/workloads.py
pairs every op with the value it must return; a wrong pair would only
show as a failed op in a benchmark run, so every op is run here once.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import dxext

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# hooked names whose targets were deleted (ROADMAP item 1)
EXPECTED_ABSENT = {
    ("grading", "GradedMonomialIndex.vector"),
    ("linalg", "solve"),
    ("hyperext", "SelfExtEngine.widen_to"),
}


def _resolves(short, path):
    owner = importlib.import_module(f"dxext.{short}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    # the tracer patches a method on the class that defines it
    target = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return callable(target)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooked_names_resolve():
    spans = _load("spans")
    hooked = {entry for entries in spans.HOOKS.values() for entry in entries if entry[1] != "*"}
    assert EXPECTED_ABSENT <= hooked
    absent = {entry for entry in hooked if not _resolves(*entry)}
    assert absent == EXPECTED_ABSENT


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_ops_return_expected(name):
    for op in WORKLOADS[name](dxext, 1):
        observed, expected = op.check(op.call())
        assert observed == expected, op.label
