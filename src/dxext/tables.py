"""Truncation tables: per-level dimensions with certification status.

Every level records the dimension of a filtered piece together with how
trustworthy the number is:

  exact-zero               containment proof; the level vanishes exactly
  exact-graded             computed from a provably sufficient generator
                           degree, so the value is exact
  stabilized-upper-bound   value unchanged while the generator degree
                           widened over a window; an upper bound only
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "EXACT_ZERO",
    "EXACT_GRADED",
    "STABILIZED",
    "TruncationLevel",
    "TruncationTable",
]

EXACT_ZERO = "exact-zero"
EXACT_GRADED = "exact-graded"
STABILIZED = "stabilized-upper-bound"


@dataclass
class TruncationLevel:
    m: int
    dim: int
    status: str

    def status_text(self, window=None):
        if self.status == STABILIZED and window is not None:
            return f"{STABILIZED}(window={window})"
        return self.status


@dataclass
class TruncationTable:
    """Levels m = 0..maxDeg of a filtered dimension computation."""

    f_text: str
    kind: str
    levels: list
    window: int | None = None
    notes: dict = field(default_factory=dict)

    def dims(self):
        return [lv.dim for lv in self.levels]

    def to_json_dict(self):
        return {
            "f": self.f_text,
            "kind": self.kind,
            "levels": [
                {"m": lv.m, "dim": lv.dim, "status": lv.status_text(self.window)}
                for lv in self.levels
            ],
        }

    def to_csv(self):
        lines = ["degree,dim,status"]
        for lv in self.levels:
            lines.append(f"{lv.m},{lv.dim},{lv.status_text(self.window)}")
        return "\n".join(lines)

    def to_text(self):
        head = f"f = {self.f_text}   [{self.kind}]"
        width = max(len("status"), *(len(lv.status_text(self.window)) for lv in self.levels))
        lines = [head, f"{'m':>4} {'dim':>6}  {'status':<{width}}"]
        for lv in self.levels:
            lines.append(f"{lv.m:>4} {lv.dim:>6}  {lv.status_text(self.window):<{width}}")
        return "\n".join(lines)
