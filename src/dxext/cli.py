"""Batch command-line front end.

One computation per invocation: parse the inputs, run the engine, and
emit a report on stdout as JSON, CSV, or a human-readable text table.
Every report embeds its inputs after normalization (parsed and printed
back), so a result can be reproduced from the report alone.  Wall time
goes to stderr, keeping stdout byte-identical across repeated runs.

Exit codes: 0 on success, 1 when a well-formed computation fails
(no twist solution, violated precondition), 2 on usage errors.  Every
piece of outside input is read through `_read`, so input that does not
parse is always a usage error, and every report is one `Rendered`
envelope.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from .curves import CurveSpec, cross_check, crosscheck_model, predict
from .hyperext import (
    DEFAULT_WINDOW,
    NoTwistSolution,
    action_ext0,
    action_ext1,
    action_ext1_on_ext1,
    end_membership,
    ext1_self_dims,
    ext_module_dims,
    solve_twist,
)
from .models import label_ints, parse_model
from .parser import parse
from .quotients import (
    hypersurface_cech_dims,
    ic_local_system_ext_dims,
    isotypic_dims,
    molien_isotypic_dims,
    parse_character,
    parse_group,
    rend_cohomology_dims,
)
from .rewrite import PRESETS, confluence_check, irreducible_dims
from .verify import SUITE_NAMES, run_suite

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


def _read(what, text, convert, *args):
    """Return convert(text, *args) as a usage error naming the input on failure.

    A failure is a ValueError (ParseError and JSONDecodeError are ones),
    or a RecursionError from text nested too deeply to parse.
    """
    try:
        return convert(text, *args)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"cannot parse {what} {text!r}: {exc}") from exc


def _parse_poly(text, n=None, what="f"):
    elem = _read(what, text, parse, n)
    if elem.is_zero or not elem.is_polynomial:
        raise UsageError(
            f"{what} must be a nonzero polynomial in the coordinates, "
            f"got {text!r}"
        )
    return elem


def _get_preset(name):
    if name not in PRESETS:
        raise UsageError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        )
    return PRESETS[name]()


def _get_character(text, group):
    chi = _read("character", text, parse_character)
    if len(chi.exponents) != group.n:
        raise UsageError(
            f"character {text!r} has {len(chi.exponents)} entries, "
            f"the group acts on {group.n} coordinates"
        )
    return chi


def _combination_from_text(text, module):
    """Parse `l1,l2=coeff; ...` into a module combination.

    Labels are comma-separated integers, read by the model's label():
    the flat label for the delta, n-lines, and Kummer models;
    x-exponents then d-exponents for the free and quotient models.  A
    label outside the model's basis, or a coefficient with a zero
    denominator, is a ValueError naming it.
    """
    comb = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" in chunk:
            label_text, coeff_text = chunk.rsplit("=", 1)
            try:
                coeff = Fraction(coeff_text.strip())
            except ZeroDivisionError:
                raise ValueError(
                    f"coefficient {coeff_text.strip()!r} has a zero denominator"
                ) from None
        else:
            label_text, coeff = chunk, Fraction(1)
        label = module.label(tuple(int(v) for v in label_text.split(",")))
        if label is None:
            raise ValueError(f"label {label_text.strip()!r} is not in the basis of {module.name}")
        comb[label] = comb.get(label, Fraction(0)) + coeff
    return {k: v for k, v in comb.items() if v}


def _combination_to_jsonable(comb):
    return [
        {"label": label_ints(label), "coeff": str(coeff)}
        for label, coeff in sorted(comb.items(), key=lambda kv: repr(kv[0]))
    ]


def _combination_to_text(comb):
    if not comb:
        return "0"
    chunks = []
    for term in _combination_to_jsonable(comb):
        label = ",".join(str(v) for v in term["label"])
        chunks.append(f"{label}={term['coeff']}")
    return "; ".join(chunks)


def _certification(table):
    statuses = sorted({lv.status_text(table.window) for lv in table.levels})
    return {"statuses": statuses, "notes": dict(table.notes)}


class Rendered:
    """One report in all three output formats, and the exit code it ends with.

    The JSON is the envelope {"command", "input", "result"}, plus
    "certification" on table reports.  The text is the header
    "<command> (k=v, ...)" over the inputs named in `shown` (all of them
    by default), then `body`; with `shown=()` it is `body` alone.  The
    CSV is `csv`, or else the flattened JSON as key,value rows.
    """

    def __init__(self, command, inputs, result, body, shown=None, csv=None,
                 certification=None, exit_code=0):
        self.json_dict = {"command": command, "input": inputs, "result": result}
        if certification is not None:
            self.json_dict["certification"] = certification
        keys = inputs if shown is None else shown
        header = ", ".join(f"{k}={inputs[k]}" for k in keys)
        self.text = f"{command} ({header})\n{body}" if keys else body
        self.csv = csv
        self.exit_code = exit_code

    def emit(self, fmt):
        if fmt == "json":
            return json.dumps(self.json_dict, indent=2, sort_keys=True)
        if fmt == "csv":
            if self.csv is None:
                pairs = _flatten(self.json_dict)
                return "\n".join(["key,value"] + [f"{k},{v}" for k, v in pairs])
            return self.csv
        return self.text


def _flatten(data, prefix=""):
    pairs = []
    if isinstance(data, dict):
        for key in sorted(data):
            pairs.extend(_flatten(data[key], f"{prefix}{key}."))
    elif isinstance(data, list):
        pairs.append((prefix[:-1], json.dumps(data)))
    else:
        pairs.append((prefix[:-1], data))
    return pairs


def _table_report(command, inputs, table):
    return Rendered(
        command, inputs, table.to_json_dict(), table.to_text(),
        csv=table.to_csv(), certification=_certification(table),
    )


def _dims_report(command, inputs, dims, extra=None, text_extra=""):
    gf = dims.gf_string()
    return Rendered(
        command, inputs,
        {**dims.to_json_dict(), "generatingFunction": gf, **(extra or {})},
        f"{dims.to_text()}\ngenerating function: {gf}{text_extra}",
        csv=dims.to_csv(),
    )


def cmd_ext_self(args):
    f = _parse_poly(args.f)
    table = ext1_self_dims(f, args.max_deg, args.stab_window)
    inputs = {
        "f": str(f),
        "maxDeg": args.max_deg,
        "stabWindow": args.stab_window,
    }
    return _table_report("ext-self", inputs, table)


def cmd_ext_module(args):
    module = _read("model", args.model, parse_model)
    f = _parse_poly(args.f, module.n)
    ext0, ext1 = ext_module_dims(module, f, args.max_deg, args.stab_window)
    inputs = {
        "f": str(f),
        "model": module.name,
        "maxDeg": args.max_deg,
        "stabWindow": args.stab_window,
    }
    return Rendered(
        "ext-module", inputs,
        {"ext0": ext0.to_json_dict(), "ext1": ext1.to_json_dict()},
        f"kernel of right multiplication by f:\n{ext0.to_text()}\n"
        f"cokernel of right multiplication by f:\n{ext1.to_text()}",
        csv=ext1.to_csv(),
        certification={"ext0": _certification(ext0), "ext1": _certification(ext1)},
    )


def cmd_twist(args):
    f = _parse_poly(args.f)
    alpha = _read("alpha", args.alpha, parse, f.n)
    element = solve_twist(f, alpha)
    checked = element.verify(f)
    return Rendered(
        "twist", {"f": str(f), "alpha": str(element.alpha)},
        {"beta": str(element.beta), "identityChecked": checked},
        f"alpha = {element.alpha}\nbeta  = {element.beta}\n"
        f"identity alpha*f == f*beta checked: {checked}",
        shown=("f",),
    )


def cmd_end_member(args):
    f = _parse_poly(args.f)
    h = _read("h", args.h, parse, f.n)
    element = end_membership(f, h)
    result = {"member": element is not None}
    if element is None:
        body = f"{h} does not normalize f: no twist exists"
    else:
        result["beta"] = str(element.beta)
        body = f"{h} is an endomorphism; beta = {element.beta}"
    return Rendered("end-member", {"f": str(f), "h": str(h)}, result, body, shown=("f",))


def cmd_act(args):
    f = _parse_poly(args.f)
    if (args.alpha is None) == (args.by is None):
        raise UsageError("give exactly one of --alpha or --by")
    if args.by is not None:
        if args.model is not None or args.on == "ext0":
            raise UsageError(
                "--by acts on the self Ext group; drop --model/--on"
            )
        e = _read("element", args.element, parse, f.n)
        d = _read("by", args.by, parse, f.n)
        result = action_ext1_on_ext1(f, e, d)
        return Rendered(
            "act", {"f": str(f), "element": str(e), "by": str(d)},
            {"class": str(result)}, f"[{e}] * [{d}] = [{result}]", shown=("f",),
        )
    alpha = _read("alpha", args.alpha, parse, f.n)
    end_el = solve_twist(f, alpha)
    if args.model is None:
        if args.on == "ext0":
            raise UsageError("--on ext0 needs --model")
        m = _read("element", args.element, parse, f.n)
        result = action_ext1(f, end_el, m)
        return Rendered(
            "act", {"f": str(f), "alpha": str(alpha), "element": str(m)},
            {"class": str(result)}, f"alpha = {alpha} acting on [{m}] = [{result}]",
            shown=("f",),
        )
    module = _read("model", args.model, parse_model)
    comb = _read("element", args.element, _combination_from_text, module)
    action = action_ext0 if args.on == "ext0" else action_ext1
    result = action(f, end_el, comb, module)
    inputs = {
        "f": str(f),
        "alpha": str(alpha),
        "model": module.name,
        "element": _combination_to_text(comb),
        "on": args.on,
    }
    return Rendered(
        "act", inputs, {"terms": _combination_to_jsonable(result)},
        f"alpha = {alpha}\nresult: {_combination_to_text(result)}",
        shown=("f", "model", "on"),
    )


def cmd_rewrite(args):
    system = _get_preset(args.preset)
    elem = _read("element", args.element, parse, system.n)
    nf = system.normal_form(elem)
    irreducible = all(system.is_irreducible(m) for m in elem.terms)
    return Rendered(
        "rewrite", {"preset": args.preset, "element": str(elem)},
        {"normalForm": str(nf), "inputIrreducible": irreducible},
        f"input: {elem}\nnormal form: {nf}\ninput already irreducible: {irreducible}",
        shown=("preset",),
    )


def cmd_confluence(args):
    system = _get_preset(args.preset)
    report = confluence_check(system, args.max_deg)
    result = {
        "confluent": report.confluent,
        "violations": len(report.violations),
        "examples": [list(m) for m, _ in report.violations[:5]],
    }
    return Rendered(
        "confluence", {"preset": args.preset, "maxDeg": args.max_deg}, result,
        f"violations: {len(report.violations)}\n"
        f"confluent through degree {args.max_deg}: {report.confluent}",
    )


def cmd_irreducible_dims(args):
    system = _get_preset(args.preset)
    table = irreducible_dims(system, args.max_deg)
    inputs = {"preset": args.preset, "maxDeg": args.max_deg}
    return _table_report("irreducible-dims", inputs, table)


def _read_curve(text):
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read curve file: {exc}") from exc
    return CurveSpec.from_json(text)


def cmd_curve_predict(args):
    spec = _read("curve", args.curve, _read_curve)
    prediction = predict(spec.points, spec.local_system, simple=args.simple)
    return Rendered(
        "curve-predict", {"curve": spec.to_json_dict(), "simple": args.simple},
        {"verdict": prediction.verdict, "justification": prediction.justification},
        f"verdict: {prediction.verdict}\nwhy: {prediction.justification}",
        shown=("simple",),
    )


def cmd_curve_crosscheck(args):
    model = _read("model", args.model, crosscheck_model)
    report = cross_check(args.n, model, args.max_deg)
    return Rendered(
        "curve-crosscheck", {"n": args.n, "model": report.model, "maxDeg": args.max_deg},
        report.to_json_dict(), report.to_text(), shown=(), csv=report.ext1.to_csv(),
    )


def cmd_quotient_isotypic(args):
    group = _read("group", args.group, parse_group)
    chi = _get_character(args.character, group)
    dims = isotypic_dims(group, chi, args.max_deg)
    extra = {}
    if args.molien_check:
        oracle = molien_isotypic_dims(group, chi, args.max_deg)
        extra["molienAgrees"] = oracle.dims == dims.dims
    if args.ic:
        degree, ic_dims = ic_local_system_ext_dims(group, chi, args.max_deg)
        extra["icCohomologicalDegree"] = degree
        extra["icDims"] = list(ic_dims.dims)
    inputs = {
        "group": args.group.strip(),
        "character": args.character.strip(),
        "maxDeg": args.max_deg,
    }
    return _dims_report("quotient-isotypic", inputs, dims, extra)


def cmd_quotient_rend(args):
    group = _read("group", args.group, parse_group)
    dims = rend_cohomology_dims(group, args.max_deg)
    inputs = {"group": args.group.strip(), "maxDeg": args.max_deg}
    if not args.compare_f:
        return _dims_report("quotient-rend", inputs, dims)
    f = _parse_poly(args.compare_f, what="compare-f")
    table = ext1_self_dims(f, args.max_deg, args.stab_window)
    return _dims_report(
        "quotient-rend", inputs, dims, {"hypersurfaceExt1": table.to_json_dict()},
        f"\nhypersurface route for f = {f} (different grading, "
        f"exploratory comparison only):\n{table.to_text()}",
    )


def cmd_quotient_cech(args):
    group = _read("group", args.group, parse_group)
    chi = _get_character(args.character, group)
    dims = hypersurface_cech_dims(group, chi, args.max_deg)
    inputs = {
        "group": args.group.strip(),
        "character": args.character.strip(),
        "maxDeg": args.max_deg,
    }
    return _dims_report("quotient-cech", inputs, dims)


def cmd_verify(args):
    results = run_suite(args.suite)
    for r in results:
        print(f"{r.label}: {r.seconds:.2f}s", file=sys.stderr)
    all_passed = all(r.passed for r in results)
    result = {
        "checks": [
            {"label": r.label, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "allPassed": all_passed,
    }
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.label}: {r.detail}" for r in results]
    lines.append("all checks passed" if all_passed else "FAILURES PRESENT")
    return Rendered(
        "verify", {"suite": args.suite}, result, "\n".join(lines),
        shown=(), exit_code=0 if all_passed else 1,
    )


def _nonnegative(value):
    ivalue = int(value)
    if ivalue < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return ivalue


def _positive(value):
    ivalue = int(value)
    if ivalue < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return ivalue


def _add_common(sub, table=True, window=False):
    if table:
        sub.add_argument(
            "--max-deg", type=_nonnegative, default=6,
            help="largest filtration degree to report (default 6)",
        )
    if window:
        sub.add_argument(
            "--stab-window", type=_positive, default=DEFAULT_WINDOW,
            help="consecutive stable widenings before accepting a bound "
            f"(default {DEFAULT_WINDOW})",
        )
    sub.add_argument(
        "--format", choices=("json", "csv", "text"), default="text",
        help="output format (default text)",
    )
    sub.add_argument(
        "--output", default=None, help="write the report to this path"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dxext",
        description="Exact Ext computations for hypersurface singularities "
        "in the Weyl algebra.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("ext-self", help="Ext^1 table for D/(Df+fD)")
    s.add_argument("--f", required=True, help="polynomial, e.g. \"x*y\"")
    _add_common(s, window=True)
    s.set_defaults(handler=cmd_ext_self)

    s = subs.add_parser("ext-module", help="Ext tables against a module")
    s.add_argument("--f", required=True)
    s.add_argument(
        "--model", required=True,
        help="dx:<poly> | delta:<n> | nlines-ic:<n> | kummer:<n>:<p/q> "
        "| free:<n>",
    )
    _add_common(s, window=True)
    s.set_defaults(handler=cmd_ext_module)

    s = subs.add_parser("twist", help="solve alpha*f == f*beta for beta")
    s.add_argument("--f", required=True)
    s.add_argument("--alpha", required=True)
    _add_common(s, table=False)
    s.set_defaults(handler=cmd_twist)

    s = subs.add_parser("act", help="apply an endomorphism or Ext class")
    s.add_argument("--f", required=True)
    s.add_argument("--alpha", help="endomorphism representative")
    s.add_argument("--by", help="Ext^1 class acting on --element")
    s.add_argument("--element", required=True)
    s.add_argument("--model", help="target module (omit for the self case)")
    s.add_argument("--on", choices=("ext0", "ext1"), default="ext1")
    _add_common(s, table=False)
    s.set_defaults(handler=cmd_act)

    s = subs.add_parser("end-member", help="test membership in End")
    s.add_argument("--f", required=True)
    s.add_argument("--h", required=True)
    _add_common(s, table=False)
    s.set_defaults(handler=cmd_end_member)

    s = subs.add_parser("rewrite", help="normal form under a preset system")
    s.add_argument("--preset", required=True)
    s.add_argument("--element", required=True)
    _add_common(s, table=False)
    s.set_defaults(handler=cmd_rewrite)

    s = subs.add_parser("confluence", help="check local confluence")
    s.add_argument("--preset", required=True)
    _add_common(s)
    s.set_defaults(handler=cmd_confluence)

    s = subs.add_parser(
        "irreducible-dims", help="cumulative irreducible-monomial counts"
    )
    s.add_argument("--preset", required=True)
    _add_common(s)
    s.set_defaults(handler=cmd_irreducible_dims)

    s = subs.add_parser("curve-predict", help="vanishing prediction")
    s.add_argument(
        "--curve", required=True,
        help="JSON curve description, or @path to a JSON file",
    )
    s.add_argument("--simple", action="store_true")
    _add_common(s, table=False)
    s.set_defaults(handler=cmd_curve_predict)

    s = subs.add_parser(
        "curve-crosscheck", help="prediction vs computation on n lines"
    )
    s.add_argument("--n", type=_positive, required=True)
    s.add_argument(
        "--model", required=True, help="trivial | kummer:<p/q> | delta"
    )
    _add_common(s)
    s.set_defaults(handler=cmd_curve_crosscheck)

    s = subs.add_parser(
        "quotient-isotypic", help="isotypic dimensions of the delta module"
    )
    s.add_argument("--group", required=True, help="cyclic:N:v1,...,vn or JSON")
    s.add_argument("--character", required=True, help="chi:c1,...,cn")
    s.add_argument(
        "--molien-check", action="store_true",
        help="also run the Molien-series oracle and report agreement",
    )
    s.add_argument(
        "--ic", action="store_true",
        help="also report the local-system Ext dimensions",
    )
    _add_common(s)
    s.set_defaults(handler=cmd_quotient_isotypic)

    s = subs.add_parser(
        "quotient-rend", help="correction-term dimensions by total degree"
    )
    s.add_argument("--group", required=True)
    s.add_argument(
        "--compare-f",
        help="also run ext-self on this polynomial (exploratory; the "
        "gradings are not aligned)",
    )
    _add_common(s, window=True)
    s.set_defaults(handler=cmd_quotient_rend)

    s = subs.add_parser(
        "quotient-cech", help="inverse-monomial counts matching a character"
    )
    s.add_argument("--group", required=True)
    s.add_argument("--character", required=True)
    _add_common(s)
    s.set_defaults(handler=cmd_quotient_cech)

    s = subs.add_parser("verify", help="run a shipped verification suite")
    s.add_argument("suite", choices=SUITE_NAMES)
    _add_common(s, table=False)
    s.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        rendered = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NoTwistSolution, ValueError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        elapsed = time.perf_counter() - start
        print(f"wall time: {elapsed:.3f}s", file=sys.stderr)
    output = rendered.emit(args.format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(output + "\n")
        except OSError as exc:
            print(f"usage error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        print(output)
    return rendered.exit_code


if __name__ == "__main__":
    sys.exit(main())
