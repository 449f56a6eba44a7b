"""Vanishing predictor for curve singularities with local systems."""

import json
import random

import pytest

from dxext.curves import (
    NOT_VANISHES,
    UNDETERMINED,
    VANISHES,
    CurvePoint,
    CurveSpec,
    Eigenvalue,
    LocalSystemSpec,
    completely_nontrivial,
    cross_check,
    planar_model,
    predict,
)
from dxext.parser import parse

U = Eigenvalue.unity
NU = Eigenvalue.non_unity


def spec_for(points, eigenvalues, point_supported=False):
    return LocalSystemSpec(per_branch_eigenvalues=eigenvalues, point_supported=point_supported)


def test_point_supported_always_vanishes():
    curve = [CurvePoint.multicross(3)]
    spec = spec_for(curve, ((tuple(), tuple(), tuple()),), point_supported=True)
    assert predict(curve, spec).verdict == VANISHES
    assert predict(curve, spec, simple=True).verdict == VANISHES


def test_only_cusps_vanishes():
    curve = [CurvePoint.cusp(), CurvePoint.cusp("second")]
    spec = spec_for(curve, (((U(),),), ((NU(),),)))
    assert predict(curve, spec).verdict == VANISHES


def test_completely_nontrivial_vanishes():
    curve = [CurvePoint.multicross(2)]
    spec = spec_for(curve, (((NU(),), (NU(),)),))
    assert completely_nontrivial(spec)
    assert predict(curve, spec).verdict == VANISHES


def test_unity_branch_needs_simplicity():
    curve = [CurvePoint.multicross(2)]
    spec = spec_for(curve, (((U(),), (U(),)),))
    assert predict(curve, spec).verdict == UNDETERMINED
    assert predict(curve, spec, simple=True).verdict == NOT_VANISHES


def test_mixed_branches_undetermined_even_if_simple():
    # One branch all-unity would force nonvanishing, a non-unity tag on
    # another branch does not block that; mixed tags on a single branch
    # leave the sufficient conditions silent.
    curve = [CurvePoint.multicross(2)]
    spec = spec_for(curve, (((U(), NU()), (NU(),)),))
    assert predict(curve, spec).verdict == UNDETERMINED
    assert predict(curve, spec, simple=True).verdict == UNDETERMINED


def test_prediction_has_justification():
    curve = [CurvePoint.cusp()]
    spec = spec_for(curve, (((U(),),),))
    pred = predict(curve, spec)
    assert pred.verdict == VANISHES
    assert isinstance(pred.justification, str) and pred.justification


def test_verdicts_exhaustive_and_monotone():
    # Flipping a unity tag to non-unity never moves the verdict from
    # Vanishes toward NotVanishes.
    strength = {NOT_VANISHES: 0, UNDETERMINED: 1, VANISHES: 2}
    rng = random.Random(77001)
    for _ in range(80):
        npts = rng.randrange(1, 4)
        points, eigs = [], []
        for _ in range(npts):
            if rng.random() < 0.4:
                points.append(CurvePoint.cusp())
                eigs.append(((U() if rng.random() < 0.5 else NU(),),))
            else:
                branches = rng.randrange(2, 5)
                points.append(CurvePoint.multicross(branches))
                eigs.append(tuple(
                    tuple(U() if rng.random() < 0.5 else NU() for _ in range(rng.randrange(1, 3)))
                    for _ in range(branches)
                ))
        simple = rng.random() < 0.5
        spec = spec_for(points, tuple(eigs))
        before = predict(points, spec, simple=simple).verdict
        # Flip one unity tag somewhere, if any.
        flips = [
            (pi, bi, ti)
            for pi, per_point in enumerate(eigs)
            for bi, branch in enumerate(per_point)
            for ti, tag in enumerate(branch)
            if tag.is_unity
        ]
        if not flips:
            continue
        pi, bi, ti = rng.choice(flips)
        new_eigs = list(eigs)
        per_point = list(new_eigs[pi])
        branch = list(per_point[bi])
        branch[ti] = NU()
        per_point[bi] = tuple(branch)
        new_eigs[pi] = tuple(per_point)
        after = predict(points, spec_for(points, tuple(new_eigs)), simple=simple).verdict
        assert strength[after] >= strength[before]


def test_pairing_validation():
    curve = [CurvePoint.multicross(2)]
    with pytest.raises(ValueError):
        predict(curve, spec_for(curve, (((U(),),),)))  # one branch for two
    with pytest.raises(ValueError):
        predict(curve, spec_for(curve, ()))  # no points at all
    with pytest.raises(ValueError):
        CurvePoint.multicross(1)
    with pytest.raises(ValueError):
        CurvePoint(kind="cusp", branches=2)


def test_curve_spec_json_roundtrip():
    spec = CurveSpec(
        points=(CurvePoint.cusp("origin"), CurvePoint.multicross(3)),
        local_system=LocalSystemSpec(
            per_branch_eigenvalues=(((U(),),), ((NU(),), (U(),), (NU(),))),
            point_supported=False,
        ),
    )
    text = spec.to_json()
    again = CurveSpec.from_json(json.loads(text))
    assert again == spec
    # Description strings never affect equality.
    other = CurveSpec.from_json(json.loads(text.replace("zeta", "omega")))
    assert other == spec


def test_curve_spec_malformed_inputs():
    with pytest.raises(ValueError):
        CurveSpec.from_json({"points": "nope"})
    with pytest.raises(ValueError):
        CurveSpec.from_json({})
    with pytest.raises(ValueError):
        CurveSpec.from_json({"points": [{"kind": "volcano", "branches": 1}], "localSystem": {}})


def test_planar_model_products():
    # n pairwise distinct lines through the origin, one of them y = 0.
    assert planar_model(1) == parse("y", 2)
    assert planar_model(2) == parse("x y + y^2", 2)
    f3 = planar_model(3)
    assert f3.is_polynomial and f3.degree() == 3
    with pytest.raises(ValueError):
        planar_model(0)


def test_planar_model_lines_distinct():
    # The factors must be pairwise non-proportional, otherwise the model
    # would not have n distinct branches.
    for n in (2, 3, 4, 5):
        f = planar_model(n)
        assert f.degree() == n


def test_cross_check_agreement_small():
    for model in ("trivial", "kummer:1/2", "delta"):
        report = cross_check(2, model, max_deg=4)
        assert report.agree, (model, report.verdict, report.computed_nonzero)
        if model == "trivial":
            assert report.verdict == NOT_VANISHES and report.computed_nonzero
        else:
            assert report.verdict == VANISHES and not report.computed_nonzero


def test_cross_check_rejects_single_branch():
    with pytest.raises(ValueError):
        cross_check(1, "trivial")
    # malformed model ids, each rejected before any computation
    for model in ("nope", "kummer", "kummer:x", "kummer:1/0", "kummer:1", "kummerx:1/2"):
        with pytest.raises(ValueError):
            cross_check(2, model)


def test_cross_check_report_serialization():
    report = cross_check(2, "delta", max_deg=3)
    data = report.to_json_dict()
    assert data["predicted"] == VANISHES
    assert data["agree"] is True
    assert data["computedNonzero"] is False
    assert data["model"] == "delta"
    assert report.to_text()
    assert json.loads(report.to_json()) == data
