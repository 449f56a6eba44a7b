"""Vanishing predictions for holonomic modules on singular curves.

A curve is described combinatorially by its singular points: cuspidal
points (the normalisation map is a bijection there) and multicross
points where n >= 2 smooth branches meet pairwise transversally.  A
holonomic module is described by the monodromy eigenvalues of its
underlying local system along each normalisation-preimage branch, as
symbolic tags: only the predicate "equals 1" matters, so eigenvalues
are never represented numerically.

The predictor returns one of three verdicts for Ext^1 of the canonical
module against the given module:

* ``Vanishes`` when the module is supported at points, when every
  singular point is cuspidal, or when no eigenvalue along any
  multicross branch is unity (completely non-trivial monodromy);
* ``NotVanishes`` when the module is simple and some multicross branch
  carries all-unity monodromy; multicross points are interpreted via
  their planar model, where nonvanishing is an equivalence;
* ``Undetermined`` otherwise, rather than extrapolating.

``cross_check`` closes the loop: it builds the planar n-lines
polynomial, runs the module-route Ext computation on a concrete model
(trivial intersection-cohomology, Kummer, or delta), and compares the
computed table against the prediction.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .hyperext import ext_module_dims
from .models import DeltaModule, KummerICModule, LineICModule
from .parser import parse
from .tables import TruncationTable

__all__ = [
    "VANISHES",
    "NOT_VANISHES",
    "UNDETERMINED",
    "Eigenvalue",
    "CurvePoint",
    "LocalSystemSpec",
    "Prediction",
    "CurveSpec",
    "completely_nontrivial",
    "predict",
    "planar_model",
    "CrossCheckReport",
    "cross_check",
    "crosscheck_model",
]

VANISHES = "Vanishes"
NOT_VANISHES = "NotVanishes"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Eigenvalue:
    """A monodromy eigenvalue, reduced to the tag that matters: unity or not."""

    is_unity: bool

    @classmethod
    def unity(cls):
        return cls(True)

    @classmethod
    def non_unity(cls):
        return cls(False)

    def to_json_value(self):
        return "unity" if self.is_unity else "nonunity"

    @classmethod
    def from_json_value(cls, value):
        if value == "unity":
            return cls.unity()
        if value == "nonunity":
            return cls.non_unity()
        raise ValueError(f"unknown eigenvalue tag {value!r}")


CUSP = "cusp"
MULTICROSS = "multicross"


@dataclass(frozen=True)
class CurvePoint:
    """A singular point of a curve: a cusp or an n-branch multicross."""

    kind: str
    branches: int = 1
    # Annotation only: never serialized, never part of equality.
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.kind not in (CUSP, MULTICROSS):
            raise ValueError(f"unknown curve point kind {self.kind!r}")
        if self.kind == MULTICROSS and self.branches < 2:
            raise ValueError("a multicross point needs at least 2 branches")
        if self.kind == CUSP and self.branches != 1:
            raise ValueError("a cuspidal point has a single preimage branch")

    @classmethod
    def cusp(cls, label=""):
        return cls(CUSP, 1, label)

    @classmethod
    def multicross(cls, branches, label=""):
        return cls(MULTICROSS, branches, label)


@dataclass(frozen=True)
class LocalSystemSpec:
    """Monodromy data of a holonomic module along normalisation branches.

    ``per_branch_eigenvalues[p][b]`` is the eigenvalue list of the
    monodromy along branch ``b`` over curve point ``p``.  A
    point-supported module carries no branch data; otherwise every
    listed branch must have at least one eigenvalue.
    """

    per_branch_eigenvalues: tuple = ()
    point_supported: bool = False

    def __post_init__(self):
        frozen = tuple(
            tuple(tuple(branch) for branch in point)
            for point in self.per_branch_eigenvalues
        )
        object.__setattr__(self, "per_branch_eigenvalues", frozen)
        if not self.point_supported:
            if not self.per_branch_eigenvalues:
                raise ValueError(
                    "a module not supported at points needs branch eigenvalue data"
                )
            for point in self.per_branch_eigenvalues:
                for branch in point:
                    if not branch:
                        raise ValueError(
                            "every branch needs at least one eigenvalue"
                        )


@dataclass(frozen=True)
class Prediction:
    verdict: str
    justification: str


def completely_nontrivial(spec):
    """True when no listed eigenvalue is unity.

    A point-supported module is vacuously completely non-trivial.  The
    caller is responsible for restricting the data to the branches that
    matter (``predict`` drops cuspidal points before calling this).
    """
    if spec.point_supported:
        return True
    return all(
        not ev.is_unity
        for point in spec.per_branch_eigenvalues
        for branch in point
        for ev in branch
    )


def _validate_pairing(curve, spec):
    if spec.point_supported and not spec.per_branch_eigenvalues:
        return
    if len(spec.per_branch_eigenvalues) != len(curve):
        raise ValueError(
            f"spec lists {len(spec.per_branch_eigenvalues)} points, "
            f"curve has {len(curve)}"
        )
    for point, branches in zip(curve, spec.per_branch_eigenvalues):
        if len(branches) != point.branches:
            raise ValueError(
                f"point {point.label or point.kind!r} has {point.branches} "
                f"branches, spec lists {len(branches)}"
            )


def predict(curve, spec, simple=False):
    """Predict whether first Ext against the canonical module vanishes.

    ``curve`` is a list of CurvePoint, ``spec`` the matching
    LocalSystemSpec, ``simple`` whether the module is known simple.
    Multicross points are read via their planar model, where the
    nonvanishing direction is an equivalence for simple modules.
    """
    curve = list(curve)
    _validate_pairing(curve, spec)
    if spec.point_supported:
        return Prediction(
            VANISHES,
            "the module is supported at points, where the two-term "
            "resolution has no higher cohomology",
        )
    multicross = [
        (point, spec.per_branch_eigenvalues[i])
        for i, point in enumerate(curve)
        if point.kind == MULTICROSS
    ]
    if not multicross:
        return Prediction(
            VANISHES,
            "every singular point is cuspidal and cuspidal points "
            "contribute no higher Ext",
        )
    restricted = LocalSystemSpec(
        tuple(branches for _, branches in multicross), False
    )
    if completely_nontrivial(restricted):
        return Prediction(
            VANISHES,
            "no monodromy eigenvalue along any multicross branch is unity",
        )
    if simple and any(
        all(ev.is_unity for ev in branch)
        for _, branches in multicross
        for branch in branches
    ):
        return Prediction(
            NOT_VANISHES,
            "a simple module with all-unity monodromy along a branch of "
            "a planar multicross point has nonvanishing first Ext",
        )
    if not simple:
        return Prediction(
            UNDETERMINED,
            "the module is not known to be simple, so the nonvanishing "
            "criterion does not apply",
        )
    return Prediction(
        UNDETERMINED,
        "every multicross branch mixes unity and non-unity eigenvalues, "
        "which neither criterion covers",
    )


@dataclass(frozen=True)
class CurveSpec:
    """JSON-facing bundle of a curve and a local-system description."""

    points: tuple
    local_system: LocalSystemSpec

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        _validate_pairing(self.points, self.local_system)

    def to_json_dict(self):
        points = []
        for p in self.points:
            entry = {"kind": p.kind}
            if p.kind == MULTICROSS:
                entry["branches"] = p.branches
            points.append(entry)
        return {
            "points": points,
            "localSystem": {
                "pointSupported": self.local_system.point_supported,
                "eigenvalues": [
                    [[ev.to_json_value() for ev in branch] for branch in point]
                    for point in self.local_system.per_branch_eigenvalues
                ],
            },
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, data):
        """Build a spec from JSON text or its decoded dict.

        Data of the wrong shape is a ValueError naming the field.
        """
        if isinstance(data, str):
            data = json.loads(data)
        try:
            raw_points = data["points"]
            local = data["localSystem"]
            point_supported = local["pointSupported"]
            raw_eigen = local.get("eigenvalues", [])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed curve description: {exc}") from exc
        if not isinstance(point_supported, bool):
            raise ValueError("localSystem.pointSupported must be true or false")
        points = []
        for i, entry in enumerate(_json_list(raw_points, "points")):
            if not isinstance(entry, dict):
                raise ValueError(f"points[{i}] must be an object")
            kind = entry.get("kind")
            if kind == CUSP:
                points.append(CurvePoint.cusp(entry.get("label", "")))
            elif kind == MULTICROSS:
                branches = entry.get("branches")
                if type(branches) is not int:
                    raise ValueError(f"points[{i}].branches must be an integer")
                points.append(CurvePoint.multicross(branches, entry.get("label", "")))
            else:
                raise ValueError(f"unknown curve point kind {kind!r}")
        where = "localSystem.eigenvalues"
        eigen = tuple(
            tuple(
                tuple(
                    Eigenvalue.from_json_value(v)
                    for v in _json_list(branch, f"{where}[{p}][{b}]")
                )
                for b, branch in enumerate(_json_list(point, f"{where}[{p}]"))
            )
            for p, point in enumerate(_json_list(raw_eigen, where))
        )
        return cls(tuple(points), LocalSystemSpec(eigen, point_supported))


def _json_list(value, where):
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {type(value).__name__}")
    return value


def planar_model(n):
    """The planar n-lines polynomial y*(x+y)*(x+2y)*...*(x+(n-1)y).

    The factors are pairwise non-proportional linear forms, so the zero
    set is n distinct lines through the origin.
    """
    if n < 1:
        raise ValueError("need at least one line")
    # factor i is a_i*x + b_i*y; proportionality is a cross-determinant test
    coeffs = [(0, 1)] + [(1, i) for i in range(1, n)]
    for i in range(len(coeffs)):
        for j in range(i + 1, len(coeffs)):
            (a1, b1), (a2, b2) = coeffs[i], coeffs[j]
            if a1 * b2 - a2 * b1 == 0:
                raise ValueError("line factors must be pairwise distinct")
    f = parse("y", 2)
    for i in range(1, n):
        f = f * parse(f"x + {i}*y", 2)
    return f


def crosscheck_model(model_id):
    """The canonical form of a cross-check model id.

    That is "trivial" (also spelled "nlines-ic"), "delta", or
    "kummer:<lam>" with lam a non-integer rational, as KummerICModule
    requires.  Any other id is a ValueError.
    """
    if model_id in ("trivial", "nlines-ic", "delta"):
        return "delta" if model_id == "delta" else "trivial"
    kind, _, text = model_id.partition(":")
    if kind != "kummer" or not text:
        raise ValueError(f"unknown model {model_id!r}; use trivial, delta or kummer:<lam>")
    try:
        return f"kummer:{KummerICModule(Fraction(text)).lam}"
    except ZeroDivisionError:
        raise ValueError(f"kummer exponent {text!r} has a zero denominator") from None


def _model_setup(n, model):
    """Module instance plus matching local-system data for a canonical model id."""
    if model == "delta":
        return DeltaModule(2), LocalSystemSpec((), True)
    if model == "trivial":
        module, eigenvalue = LineICModule(n), Eigenvalue.unity()
    else:
        lam = Fraction(model.partition(":")[2])
        module, eigenvalue = KummerICModule(lam, n), Eigenvalue.non_unity()
    branches = tuple((eigenvalue,) for _ in range(n))
    return module, LocalSystemSpec((branches,), False)


@dataclass(frozen=True)
class CrossCheckReport:
    """Outcome of comparing the predictor against a direct computation."""

    n: int
    model: str
    f_text: str
    verdict: str
    justification: str
    ext1: TruncationTable
    computed_nonzero: bool
    agree: bool

    def to_json_dict(self):
        return {
            "n": self.n,
            "model": self.model,
            "f": self.f_text,
            "predicted": self.verdict,
            "justification": self.justification,
            "ext1": self.ext1.to_json_dict(),
            "computedNonzero": self.computed_nonzero,
            "agree": self.agree,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self):
        lines = [
            f"n = {self.n}  model = {self.model}  f = {self.f_text}",
            f"predicted: {self.verdict} ({self.justification})",
            f"computed ext1 dims: {self.ext1.dims()}",
            f"agree: {self.agree}",
        ]
        return "\n".join(lines)


def cross_check(n, model_id, max_deg=6):
    """Run the Ext computation on the planar n-lines model and compare.

    The prediction uses a single n-branch multicross point carrying the
    local system the model realizes.  Agreement means the predicted
    verdict matches whether the computed table is nonzero; an
    Undetermined prediction never agrees.
    """
    if n < 2:
        raise ValueError("cross-check needs a multicross point, so n >= 2")
    f = planar_model(n)
    model = crosscheck_model(model_id)
    module, spec = _model_setup(n, model)
    prediction = predict([CurvePoint.multicross(n)], spec, simple=True)
    _, ext1 = ext_module_dims(module, f, max_deg)
    nonzero = any(ext1.dims())
    agree = (prediction.verdict == NOT_VANISHES and nonzero) or (
        prediction.verdict == VANISHES and not nonzero
    )
    return CrossCheckReport(
        n=n,
        model=model,
        f_text=str(f),
        verdict=prediction.verdict,
        justification=prediction.justification,
        ext1=ext1,
        computed_nonzero=nonzero,
        agree=agree,
    )
