"""The benchmark's tracing hooks name code that exists.

perfbench/spans.py attaches to dxext by public name and reports a name
it cannot find as absent instead of failing, so a rename would silently
stop a per-layer metric.  Deleting or renaming a hooked name must
update EXPECTED_ABSENT in the same change.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

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


def test_hooked_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooked = {entry for entries in spans.HOOKS.values() for entry in entries if entry[1] != "*"}
    assert EXPECTED_ABSENT <= hooked
    absent = {entry for entry in hooked if not _resolves(*entry)}
    assert absent == EXPECTED_ABSENT
