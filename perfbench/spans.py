"""Span tracing for the benchmark, attached to dxext by public name.

Hooks replace a public function or method of a dxext module with a
wrapper that records a span: name, start, end and the span that was
open when it began.  Every reference to the same function object in
the dxext modules is replaced too, because modules import each other's
functions by name (``from .linalg import solve``).  A name the code
under test lacks is reported as absent, so the same benchmark runs on
a commit that deleted it.

A span's self time is its duration minus the time covered by the spans
it opened.  Calls and times are aggregated per metric name for every
span; the spans themselves are kept in memory up to SPAN_CAP and
written out when the benchmark ends.
"""

import functools
import json
import sys
from time import perf_counter

PACKAGE = "dxext"
SPAN_CAP = 100_000

# metric name -> (module, dotted attribute) pairs that record into it.
HOOKS = {
    "weyl.mul": [("weyl", "WeylElement.__mul__")],
    "grading.vector": [("grading", "GradedMonomialIndex.vector")],
    "linalg.add": [("linalg", "SparseEchelon.add")],
    "linalg.reduce": [("linalg", "SparseEchelon.reduce_fractions")],
    "linalg.solve": [("linalg", "solve")],
    "hyperext.widen": [("hyperext", "SelfExtEngine.widen_to")],
    "hyperext.module_index": [
        ("hyperext", f"ModuleIndex.{name}")
        for name in ("extend_to", "prefix_size", "labels_of_degree", "vector", "combination")
    ],
    "hyperext.twist": [("hyperext", "solve_twist")],
    "models.act_word": [("models", "act_word")],
    "models.dxq_reduce": [("models", "DXQuotientModule.reduce_element")],
    "rewrite.confluence": [("rewrite", "confluence_check")],
    "rewrite.system_build": [("rewrite", "node_system")],
    "rewrite.nf": [("rewrite", "RewriteSystem.normal_form")],
    "parser.parse": [("parser", "parse")],
    # every public function of the module, resolved at attach time
    "quotients": [("quotients", "*")],
}

# Calls whose truthy results are counted (SparseEchelon.add returns
# True when the row enlarged the span).
COUNT_TRUE = {"linalg.add"}

ECHELON = ("linalg", "SparseEchelon")


class Tracer:
    """Installs hooks into one imported copy of dxext and aggregates spans."""

    def __init__(self):
        self.absent = []
        self.stats = {}  # metric -> [calls, total_s, self_s, true_count]
        self.spans = []  # (id, parent_id, name, start, end)
        self.dropped = 0
        self.echelons = []  # SparseEchelon instances created while traced
        self._stack = [[None, 0.0]]  # [span id, child seconds]; base frame
        self._next_id = 1
        self._patches = []  # (owner, attribute, original, hooked)

    # -- attaching ------------------------------------------------------

    def _module(self, short):
        return sys.modules.get(f"{PACKAGE}.{short}")

    def _resolve(self, short, path):
        """(owner, attribute, original) for module.path, or None."""
        mod = self._module(short)
        if mod is None:
            return None
        owner = mod
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        # a method must be defined on the class itself to be patched there
        if isinstance(owner, type):
            fn = owner.__dict__.get(parts[-1])
        else:
            fn = getattr(owner, parts[-1], None)
        if fn is None or not callable(fn):
            return None
        return owner, parts[-1], fn

    def _targets(self):
        for metric, entries in HOOKS.items():
            for short, path in entries:
                if path != "*":
                    yield metric, short, path
                    continue
                mod = self._module(short)
                names = getattr(mod, "__all__", ()) if mod is not None else ()
                if not names:
                    self.absent.append(f"{short}.__all__")
                for name in names:
                    obj = getattr(mod, name, None)
                    if callable(obj) and not isinstance(obj, type):
                        yield metric, short, name

    def attach(self):
        """Resolve every hook in the imported package, once per Tracer."""
        for metric, short, path in self._targets():
            found = self._resolve(short, path)
            if found is None:
                self.absent.append(f"{short}.{path}")
                continue
            owner, attr, original = found
            hooked = self._wrap(metric, original)
            self._patches.append((owner, attr, original, hooked))
            if not isinstance(owner, type):
                # rebind the same function wherever a module imported it
                for name, mod in list(sys.modules.items()):
                    if mod is owner or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patches.append((mod, key, original, hooked))
        found = self._resolve(ECHELON[0], ECHELON[1] + ".__init__")
        if found is None:
            self.absent.append(".".join(ECHELON) + ".__init__")
        else:
            cls, _, init = found
            self._patches.append((cls, "__init__", init, self._register(init)))

    def install(self):
        for owner, attr, _, hooked in self._patches:
            setattr(owner, attr, hooked)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- recording ------------------------------------------------------

    def _wrap(self, metric, fn):
        stats = self.stats.setdefault(metric, [0, 0.0, 0.0, 0])
        count_true = metric in COUNT_TRUE
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                parent[1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent[0], metric, start, end))
                else:
                    self.dropped += 1
            if count_true and out:
                stats[3] += 1
            return out

        return hooked

    def _register(self, init):
        echelons = self.echelons

        @functools.wraps(init)
        def hooked(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            echelons.append(obj)

        return hooked

    def begin_op(self):
        """Open a root span for one benchmark op; returns its frame."""
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end_op(self, frame, label, start, end):
        self._stack.pop()
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], None, f"op:{label}", start, end))
        else:
            self.dropped += 1

    def reset_stats(self):
        for row in self.stats.values():
            row[:] = [0, 0.0, 0.0, 0]

    def snapshot(self):
        return {name: list(row) for name, row in self.stats.items()}

    def take_echelon_sizes(self):
        """Rank, nonzeros and largest coefficient bits over the echelons
        created since the last call, read from their public rows."""
        rank = nnz = bits = 0
        for ech in self.echelons:
            rows = ech.rows
            rank += len(rows)
            for row in rows.values():
                nnz += len(row)
                for v in row.values():
                    b = abs(v).bit_length()
                    if b > bits:
                        bits = b
        self.echelons.clear()
        return rank, nnz, bits

    def write_spans(self, path):
        with open(path, "w") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                      "start": start, "end": end}) + "\n")
