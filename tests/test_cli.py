"""Command-line interface: exit codes, formats, determinism."""

import argparse
import inspect
import json
import time

import pytest

from dxext.cli import build_parser, main
from dxext.grading import MAX_EXPONENT, MAX_VARIABLES
from dxext.parser import BUDGET, parse
from dxext.quotients import MAX_ORDER
from dxext.rewrite import MAX_NF_DEGREE
from dxext.verify import CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_of(out):
    """Unwrap the command/input/result JSON envelope."""
    data = json.loads(out)
    assert set(data) >= {"command", "input", "result"}
    return data["result"]


def test_ext_self_json(capsys):
    code, out, err = run(capsys, "ext-self", "--f", "x*y", "--max-deg", "5", "--format", "json")
    assert code == 0
    data = result_of(out)
    assert [lvl["dim"] for lvl in data["levels"]] == [1, 3, 7, 13, 21, 31]
    assert data["f"] == "x*y"
    # Timing goes to stderr only, keeping stdout deterministic.
    assert "wall" in err


def test_ext_self_csv_header(capsys):
    code, out, _ = run(capsys, "ext-self", "--f", "x*y", "--max-deg", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dim,status"
    assert lines[1].startswith("0,1,")


def test_ext_self_text_default(capsys):
    code, out, _ = run(capsys, "ext-self", "--f", "x", "--max-deg", "2")
    assert code == 0
    assert "exact-zero" in out


def test_ext_module_json(capsys):
    code, out, _ = run(
        capsys, "ext-module", "--f", "x*y", "--model", "nlines-ic:2",
        "--max-deg", "4", "--format", "json",
    )
    assert code == 0
    data = result_of(out)
    assert [lvl["dim"] for lvl in data["ext1"]["levels"]] == [1, 2, 3, 4, 5]
    assert [lvl["dim"] for lvl in data["ext0"]["levels"]] == [1, 2, 3, 4, 5]


def test_ext_module_csv_is_ext1(capsys):
    code, out, _ = run(
        capsys, "ext-module", "--f", "x*y", "--model", "delta:2",
        "--max-deg", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dim,status"
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "0", "0", "0"]


def test_twist_solution(capsys):
    code, out, _ = run(capsys, "twist", "--f", "x*y", "--alpha", "x dx^2", "--format", "json")
    assert code == 0
    data = result_of(out)
    assert data["beta"] == "x*dx^2 + 2*dx"
    assert data["identityChecked"] is True


def test_twist_no_solution_exit_code(capsys):
    code, out, err = run(capsys, "twist", "--f", "x*y", "--alpha", "dx")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("ext-module", "--model", "free:1", "--f", "x", "--max-deg", "65536"),
    ("ext-self", "--f", "y^2 - x^3", "--max-deg", "65536"),
    ("ext-module", "--model", "delta:2", "--f", "x*y", "--max-deg", "70000"),
    ("ext-module", "--model", "kummer:2:1/2", "--f", "x*y", "--max-deg", "70000"),
    ("ext-module", "--model", "nlines-ic:2", "--f", "x*y", "--max-deg", "70000"),
    ("curve-crosscheck", "--n", "2", "--model", "trivial", "--max-deg", "70000"),
], ids=["module", "self", "delta", "kummer", "nlines", "crosscheck"])
def test_level_past_packed_columns_fails_cleanly(capsys, argv):
    # a level above MAX_EXPONENT does not fit a packed column, and every
    # model's index refuses it: the run fails at once with one message,
    # not a traceback, before it lists a label
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert f"above {MAX_EXPONENT}" in err and "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1


def test_usage_error_nonpolynomial_f(capsys):
    code, _, err = run(capsys, "ext-self", "--f", "x + dx", "--max-deg", "2")
    assert code == 2
    code, _, _ = run(capsys, "ext-self", "--f", "x +", "--max-deg", "2")
    assert code == 2


def test_end_member_true_and_false(capsys):
    code, out, _ = run(capsys, "end-member", "--f", "x*y", "--h", "x dx", "--format", "json")
    assert code == 0
    assert result_of(out)["member"] is True
    code, out, _ = run(capsys, "end-member", "--f", "x*y", "--h", "dx", "--format", "json")
    assert code == 0
    assert result_of(out)["member"] is False


def test_act_requires_exactly_one_mode(capsys):
    code, _, _ = run(capsys, "act", "--f", "x*y", "--element", "1")
    assert code == 2
    code, _, _ = run(
        capsys, "act", "--f", "x*y", "--element", "1",
        "--alpha", "x dx", "--by", "dy",
    )
    assert code == 2


def test_act_self_ext1(capsys):
    code, out, _ = run(
        capsys, "act", "--f", "x*y", "--element", "1", "--alpha", "x dx",
        "--format", "json",
    )
    assert code == 0
    assert result_of(out)["class"] == "-y*dy"


def test_act_by_ext1_class(capsys):
    code, out, _ = run(
        capsys, "act", "--f", "x*y", "--element", "dx", "--by", "dy",
        "--format", "json",
    )
    assert code == 0
    assert result_of(out)["class"] == "dx*dy"


def test_act_ext0_needs_model(capsys):
    code, _, _ = run(
        capsys, "act", "--f", "x*y", "--element", "0,0=1", "--alpha", "x dx",
        "--on", "ext0",
    )
    assert code == 2


def test_act_ext0_on_delta(capsys):
    code, out, _ = run(
        capsys, "act", "--f", "x*y", "--element", "0,0=1", "--alpha", "x dx",
        "--on", "ext0", "--model", "delta:2", "--format", "json",
    )
    assert code == 0
    assert result_of(out)["terms"] == []


def test_rewrite_normal_form(capsys):
    code, out, _ = run(
        capsys, "rewrite", "--preset", "node-xy", "--element", "x dx^2",
        "--format", "json",
    )
    assert code == 0
    data = result_of(out)
    assert data["normalForm"] == "-2*y*dx*dy - 2*dx"
    assert data["inputIrreducible"] is False


@pytest.mark.parametrize("argv, code", [
    (("rewrite", "--preset", "node-xy", "--element", "x^1500 dx^1500"), 0),
    (("act", "--f", "x*y", "--alpha", "x*dx", "--element", "y^3000 dy^3000"), 1),
], ids=["rewrite", "act"])
def test_high_degree_node_normal_form_ends_cleanly(capsys, argv, code):
    # one rewrite step is one stack entry, not one Python frame; an
    # element above MAX_NF_DEGREE (here of degree 6,002) is refused at once
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert got == code and "Traceback" not in err
    if code:
        assert f"above MAX_NF_DEGREE = {MAX_NF_DEGREE}" in err and not out
    else:
        assert "normal form: " in out


def test_rewrite_unknown_preset(capsys):
    code, _, _ = run(capsys, "rewrite", "--preset", "nope", "--element", "x")
    assert code == 2


def test_confluence(capsys):
    code, out, _ = run(capsys, "confluence", "--preset", "node-xy", "--max-deg", "5", "--format", "json")
    assert code == 0
    data = result_of(out)
    assert data["confluent"] is True
    assert data["violations"] == 0


def test_irreducible_dims(capsys):
    code, out, _ = run(
        capsys, "irreducible-dims", "--preset", "node-xy", "--max-deg", "5",
        "--format", "json",
    )
    assert code == 0
    assert [lvl["dim"] for lvl in result_of(out)["levels"]] == [1, 3, 7, 13, 21, 31]


CURVE_JSON = json.dumps({
    "points": [{"kind": "multicross", "branches": 2}],
    "localSystem": {
        "pointSupported": False,
        "eigenvalues": [[["unity"], ["unity"]]],
    },
})


def test_curve_predict_inline_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "curve-predict", "--curve", CURVE_JSON, "--simple", "--format", "json")
    assert code == 0
    assert result_of(out)["verdict"] == "NotVanishes"
    path = tmp_path / "curve.json"
    path.write_text(CURVE_JSON)
    code, out2, _ = run(capsys, "curve-predict", "--curve", f"@{path}", "--simple", "--format", "json")
    assert code == 0
    assert json.loads(out2) == json.loads(out)


def test_curve_predict_bad_json(capsys):
    code, _, _ = run(capsys, "curve-predict", "--curve", "{not json")
    assert code == 2


def test_curve_predict_missing_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "curve-predict", "--curve", f"@{missing}")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    usage = [line for line in err.splitlines() if line.startswith("usage error")]
    assert len(usage) == 1 and str(missing) in usage[0]


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("usage error")]) == 1


@pytest.mark.parametrize("argv", [
    ("ext-module", "--f", "x", "--model", "delta:0", "--max-deg", "2"),
    ("ext-module", "--f", "x", "--model", "free:0", "--max-deg", "2"),
    ("quotient-isotypic", "--group", "cyclic:3:1,2", "--character", "chi:0,0,0", "--max-deg", "2"),
    ("ext-module", "--f", "x*y", "--model", "nlines-ic:-1", "--max-deg", "2"),
    ("ext-module", "--f", "x*y", "--model", "nlines-ic:0", "--max-deg", "2"),
    ("ext-module", "--f", "x*y", "--model", "kummer:0:1/2", "--max-deg", "2"),
    ("act", "--f", "x*y", "--alpha", "x*dx", "--model", "delta:2", "--element", "1,0=1/0"),
    ("ext-self", "--f", "(" * 3000 + "x" + ")" * 3000, "--max-deg", "1"),
    ("curve-predict", "--curve", "[" * 100000),
    ("curve-crosscheck", "--n", "2", "--model", "nope"),
    ("curve-crosscheck", "--n", "2", "--model", "kummer:x"),
    ("curve-crosscheck", "--n", "2", "--model", "kummer:1/0"),
    ("curve-crosscheck", "--n", "2", "--model", "kummer:1"),
], ids=["delta-0", "free-0", "character-length", "nlines-minus-1", "nlines-0", "kummer-0",
        "element-zero-denominator", "f-nested-too-deep", "curve-nested-too-deep",
        "crosscheck-unknown-model", "crosscheck-kummer-not-a-number",
        "crosscheck-kummer-zero-denominator", "crosscheck-kummer-integer"])
def test_bad_model_or_character_is_usage_error(capsys, argv):
    assert_usage_error(*run(capsys, *argv))


@pytest.mark.parametrize("argv", [
    ("twist", "--f", "x*y", "--alpha", "(x + dx)^100000"),
    ("act", "--f", "x*y", "--element", "1", "--alpha", "(x dx)^99999999999999999999"),
    ("ext-self", "--f", "(x + y)^99999999999999999999", "--max-deg", "1"),
], ids=["alpha-sum", "alpha-mixed-term", "f-sum"])
def test_power_above_max_exponent_is_usage_error(capsys, argv):
    # these bases have no closed-form power; parsing them unbounded
    # would not end, so they are refused once they spend the budget
    code, out, err = run(capsys, *argv)
    assert_usage_error(code, out, err)
    assert f"budget of {BUDGET} terms" in err


def _assert_refused_at_once(capsys, alpha, f="x*y"):
    start = time.perf_counter()
    code, out, err = run(capsys, "twist", "--f", f, "--alpha", alpha)
    assert time.perf_counter() - start < 1
    assert_usage_error(code, out, err)
    assert f"budget of {BUDGET} terms" in err


@pytest.mark.parametrize("alpha", [
    "(x + dx)^64 (x + dx)^64", "((x + dx)^16)^8",
], ids=["product-of-powers", "nested-power"])
def test_product_above_max_degree_is_usage_error_at_once(capsys, alpha):
    # the product or nested power is metered as it is taken, and
    # refused once it has spent the budget
    _assert_refused_at_once(capsys, alpha)


def test_power_above_max_terms_is_usage_error_at_once(capsys):
    # in four generators the power grows too many terms to fit the budget
    _assert_refused_at_once(capsys, "(x + y + dx + dy)^64")


@pytest.mark.parametrize("alpha", [
    "(x + dx)^32 (x + dx)^32", "(x + dx)^32 * (x + dx)^16 * (x + dx)^16",
    "dx^100000 x^100000", "dx^20000 x^99999999999999999999",
], ids=["two-factors", "three-factors", "leibniz-factorial", "leibniz-falling-power"])
def test_product_above_max_work_is_usage_error_at_once(capsys, alpha):
    # each power fits the budget, but not the term products of both; a
    # pair whose Leibniz coefficients run past a million bits is refused
    # before it is expanded
    _assert_refused_at_once(capsys, alpha)


def test_long_sum_is_usage_error_at_once(capsys):
    # the budget covers the whole parse: twenty copies of a power that
    # parses alone are refused, not parsed one by one
    _assert_refused_at_once(capsys, " + ".join(["(x + dx)^64"] * 20), f="x")


@pytest.mark.parametrize("f, alpha", [
    ("x*y*z", "(x + y + z)^30"), ("z", "(x + dx)^64"), ("z", "(x + y + dx + dy)^15"),
], ids=["three-generators", "one-pair", "two-pairs"])
def test_inputs_within_the_budget_parse(capsys, f, alpha):
    # alpha commutes with f, so the twist is alpha itself
    code, out, _ = run(capsys, "twist", "--f", f, "--alpha", alpha, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["beta"] == data["input"]["alpha"]
    assert parse(data["result"]["beta"], 3) == parse(alpha, 3)


@pytest.mark.parametrize("alpha", [
    "(2*x)^100000000000000000000", "(1/3)^100000000",
], ids=["integer-coefficient", "fraction-coefficient"])
def test_closed_form_power_of_unprintable_coefficient_is_usage_error_at_once(capsys, alpha):
    # a one-term power costs no product, but its coefficient c^k is
    # charged k*floor(log2) bits of c's numerator and denominator before
    # it is taken, and refused past what an int prints
    start = time.perf_counter()
    code, out, err = run(capsys, "twist", "--f", "x", "--alpha", alpha)
    assert time.perf_counter() - start < 1
    assert_usage_error(code, out, err)
    assert "digits" in err


def test_closed_form_power_still_parses(capsys):
    code, out, _ = run(capsys, "twist", "--f", "x*y", "--alpha", "x^99999999999999999999",
                       "--format", "json")
    assert code == 0
    assert result_of(out)["beta"] == "x^99999999999999999999"


@pytest.mark.parametrize("argv", [
    ("ext-self", "--f", "x1 + x2000", "--max-deg", "1"),
    ("ext-self", "--f", "x1 + x20000", "--max-deg", "1"),
    ("ext-module", "--model", "free:2000", "--f", "x1 + x2000", "--max-deg", "1"),
    ("ext-module", "--model", "free:20000", "--f", "x1 + x20000", "--max-deg", "1"),
    ("ext-module", "--model", "delta:2000", "--f", "x1 + x2000", "--max-deg", "1"),
    ("act", "--f", "x1 + x2000", "--alpha", "1", "--element", "x1"),
], ids=["self", "self-20000", "free", "free-20000", "delta", "act"])
def test_variables_above_the_cap_fail_cleanly(capsys, argv):
    # the parser takes thousands of variables, but no model or engine
    # work starts in more than MAX_VARIABLES: one error line, at once
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    n = argv[argv.index("--f") + 1].split("x")[-1]
    assert f"error: {n} variables is above MAX_VARIABLES = {MAX_VARIABLES}" in err
    assert "Traceback" not in err


def test_group_in_too_many_coordinates_is_usage_error(capsys):
    group = "cyclic:2:" + ",".join(["1"] * 2000)
    start = time.perf_counter()
    code, out, err = run(capsys, "quotient-cech", "--group", group, "--character", "chi:1",
                         "--max-deg", "2")
    assert time.perf_counter() - start < 1
    assert_usage_error(code, out, err)
    assert f"2000 variables is above MAX_VARIABLES = {MAX_VARIABLES}" in err


@pytest.mark.parametrize("group", [
    '{"order":2,"generators":[1]}',
    '{"order":null,"generators":[[1]]}',
    '{"order":2,"generators":5}',
    '{"order":2,"generators":[[null]]}',
    '{"order":2.5,"generators":[[1]]}',
    '{"order":true,"generators":[[1]]}',
], ids=["flat-generators", "null-order", "scalar-generators", "null-entry",
        "float-order", "bool-order"])
def test_malformed_group_json_is_usage_error(capsys, group):
    assert_usage_error(*run(
        capsys, "quotient-isotypic", "--group", group, "--character", "chi:1",
        "--max-deg", "2",
    ))


def test_group_order_above_max_order_is_usage_error_at_once(capsys):
    # the order is refused before any group element is enumerated
    start = time.perf_counter()
    code, out, err = run(capsys, "quotient-rend", "--group", "cyclic:1000000000:1,1",
                         "--max-deg", "2")
    assert time.perf_counter() - start < 1
    assert_usage_error(code, out, err)
    assert f"group order 1000000000 is above MAX_ORDER = {MAX_ORDER}" in err


def test_generated_subgroup_above_max_order_is_usage_error(capsys):
    # N = 200 is within the cap, but the two generators generate all of
    # (Z/200)^2; enumeration stops at the cap
    start = time.perf_counter()
    code, out, err = run(capsys, "quotient-isotypic", "--group",
                         '{"order":200,"generators":[[1,0],[0,1]]}', "--character", "chi:1,0",
                         "--max-deg", "2")
    assert time.perf_counter() - start < 1
    assert_usage_error(code, out, err)
    assert f"generated subgroup exceeds MAX_ORDER = {MAX_ORDER}" in err


def curve_json(points, local):
    return json.dumps({"points": points, "localSystem": local})


SUPPORTED = {"pointSupported": True}


@pytest.mark.parametrize("curve,field", [
    (curve_json([5], SUPPORTED), "points[0]"),
    (curve_json(5, SUPPORTED), "points"),
    (curve_json([{"kind": "cusp"}], {"pointSupported": False, "eigenvalues": 5}),
     "localSystem.eigenvalues"),
    (curve_json([{"kind": "cusp"}], {"pointSupported": False, "eigenvalues": [[5]]}),
     "localSystem.eigenvalues[0][0]"),
    (curve_json([{"kind": "multicross", "branches": None}], SUPPORTED),
     "points[0].branches"),
    (curve_json([{"kind": "multicross"}], SUPPORTED), "points[0].branches"),
    (curve_json([{"kind": "cusp"}], {"pointSupported": "false"}),
     "localSystem.pointSupported"),
], ids=["point-not-object", "points-not-list", "eigenvalues-not-list",
        "branch-not-list", "null-branches", "missing-branches", "string-flag"])
def test_malformed_curve_json_is_usage_error(capsys, curve, field):
    code, out, err = run(capsys, "curve-predict", "--curve", curve)
    assert_usage_error(code, out, err)
    assert f": {field} must be" in err


@pytest.mark.parametrize("on", ["ext0", "ext1"])
@pytest.mark.parametrize("model,f,element,label", [
    ("dx:x*y", "x*y", "1,1,0,0=1", "1,1,0,0"),  # x*y is not standard
    ("dx:x + dx", "x", "1,0=3", "1,0"),  # lm(x + dx) = x
    ("dx:x*y", "x*y", "-1,0,0,0=1", "-1,0,0,0"),
], ids=["lm-multiple", "d-part-divisor", "negative-exponent"])
def test_act_label_outside_basis_is_usage_error(capsys, model, f, element, label, on):
    code, out, err = run(
        capsys, "act", "--model", model, "--f", f, "--alpha", "x*dx",
        f"--element={element}", "--on", on,
    )
    assert code == 2
    assert out == ""
    usage = [line for line in err.splitlines() if line.startswith("usage error")]
    assert len(usage) == 1 and f"label {label!r}" in usage[0]


def test_act_self_cusp_class_is_certified_zero(capsys):
    # dx * (alpha + 6) has degree 3, and level 3 of the cusp is an
    # exact-zero level, so the class is 0.
    code, out, _ = run(
        capsys, "act", "--f", "y^2 - x^3", "--element", "dx",
        "--alpha", "2*x*dx + 3*y*dy",
    )
    assert code == 0
    assert out.splitlines()[-1].endswith("= [0]")


def test_curve_crosscheck(capsys):
    code, out, _ = run(
        capsys, "curve-crosscheck", "--n", "2", "--model", "delta",
        "--max-deg", "3", "--format", "json",
    )
    assert code == 0
    data = result_of(out)
    assert data["agree"] is True and data["predicted"] == "Vanishes"


def test_quotient_isotypic_with_molien(capsys):
    code, out, _ = run(
        capsys, "quotient-isotypic", "--group", "cyclic:2:1,1",
        "--character", "chi:1,0", "--max-deg", "6", "--molien-check",
        "--format", "json",
    )
    assert code == 0
    data = result_of(out)
    assert data["dims"] == [0, 2, 0, 4, 0, 6, 0]
    assert data["molienAgrees"] is True


def test_quotient_isotypic_ic_flag(capsys):
    code, out, _ = run(
        capsys, "quotient-isotypic", "--group", "cyclic:2:1,1",
        "--character", "chi:1,0", "--max-deg", "4", "--ic", "--format", "json",
    )
    assert code == 0
    data = result_of(out)
    assert data["icCohomologicalDegree"] == 1
    assert data["icDims"] == [0, 2, 0, 4, 0]


def test_quotient_isotypic_precondition_failure(capsys):
    # A pseudo-reflection makes the IC route refuse to answer.
    code, _, _ = run(
        capsys, "quotient-isotypic", "--group", "cyclic:2:1,0",
        "--character", "chi:1,0", "--ic",
    )
    assert code == 1


def test_quotient_rend(capsys):
    code, out, _ = run(
        capsys, "quotient-rend", "--group", "cyclic:2:1,1", "--max-deg", "4",
        "--format", "json",
    )
    assert code == 0
    data = result_of(out)
    assert data["dims"][2] == 4 and data["dims"][4] == 16


def test_quotient_cech(capsys):
    code, out, _ = run(
        capsys, "quotient-cech", "--group", "cyclic:2:1,1",
        "--character", "chi:0,0", "--max-deg", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dim"
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "0", "3", "0", "5"]


def test_verify_node_suite(capsys):
    code, out, err = run(capsys, "verify", "node")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_failure_exits_1(capsys, monkeypatch):
    failing = [CheckResult("always fails", False, "forced", 0.0)]
    monkeypatch.setattr("dxext.cli.run_suite", lambda name: failing)
    code, out, _ = run(capsys, "verify", "node")
    assert code == 1
    assert out == "FAIL  always fails: forced\nFAILURES PRESENT\n"


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "nope"])
    assert info.value.code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(
        capsys, "ext-self", "--f", "x*y", "--max-deg", "3", "--format", "json",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())["result"]
    assert [lvl["dim"] for lvl in data["levels"]] == [1, 3, 7, 13]


def test_output_to_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.json"
    code, out, err = run(capsys, "ext-self", "--f", "x*y", "--output", str(target))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("usage error")]) == 1


def test_stdout_deterministic(capsys):
    _, first, _ = run(capsys, "ext-self", "--f", "x*y", "--max-deg", "4", "--format", "json")
    _, second, _ = run(capsys, "ext-self", "--f", "x*y", "--max-deg", "4", "--format", "json")
    assert first == second


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("name", sorted(subcommands()))
def test_every_option_is_read(name):
    # An option its handler never reads is accepted and silently ignored.
    sub = subcommands()[name]
    source = inspect.getsource(sub.get_default("handler"))
    unread = [
        action.dest for action in sub._actions
        if action.dest not in ("help", "format", "output")
        and f"args.{action.dest}" not in source
    ]
    assert unread == []


@pytest.mark.parametrize("argv", [
    ["confluence", "--preset", "node-xy"],
    ["irreducible-dims", "--preset", "node-xy"],
    ["curve-crosscheck", "--n", "2", "--model", "trivial"],
    ["quotient-isotypic", "--group", "cyclic:2:1,1", "--character", "chi:0,0"],
    ["quotient-cech", "--group", "cyclic:2:1,1", "--character", "chi:0,0"],
], ids=lambda argv: argv[0])
def test_stab_window_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--max-deg", "2", "--stab-window", "2"])
    assert info.value.code == 2
    code, out, _ = run(capsys, *argv, "--max-deg", "2")
    assert code == 0 and out
