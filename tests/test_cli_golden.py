"""Golden CLI output: the exit code and exact stdout of every subcommand.

`tests/cli_golden.json` holds, for every argument list in CASES and
every output format, the exit code and the stdout of one run.  The
tests replay each run in process and compare byte for byte, so a change
to how reports are built cannot move a report unnoticed.  Re-record the
file only when a report is meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from dxext.cli import build_parser, main

GOLDEN_PATH = pathlib.Path(__file__).with_name("cli_golden.json")
FORMATS = ("text", "json", "csv")

CURVE = json.dumps({
    "points": [
        {"kind": "multicross", "branches": 2},
        {"kind": "cusp", "label": "origin"},
    ],
    "localSystem": {
        "pointSupported": False,
        "eigenvalues": [
            [["unity"], ["nonunity", "unity"]],
            [["nonunity"]],
        ],
    },
})
CURVE_POINT_SUPPORTED = json.dumps({
    "points": [{"kind": "cusp"}],
    "localSystem": {"pointSupported": True},
})

CASES = [
    ["ext-self", "--f", "x*y", "--max-deg", "4"],
    ["ext-self", "--f", "y^2 - x^3", "--max-deg", "3"],
    ["ext-self", "--f", "x", "--max-deg", "2", "--stab-window", "2"],
    ["ext-self", "--f", "x + dx", "--max-deg", "2"],  # usage error
    ["ext-module", "--f", "x*y", "--model", "nlines-ic:2", "--max-deg", "3"],
    ["ext-module", "--f", "x*y", "--model", "delta:2", "--max-deg", "3"],
    ["ext-module", "--f", "x", "--model", "dx:x + dx", "--max-deg", "3"],
    ["ext-module", "--f", "x*y", "--model", "kummer:2:1/2", "--max-deg", "2"],
    ["ext-module", "--f", "x", "--model", "free:1", "--max-deg", "2"],
    ["ext-module", "--f", "x*y", "--model", "nlines-ic:0", "--max-deg", "2"],  # usage error
    ["twist", "--f", "x*y", "--alpha", "x dx^2"],
    ["twist", "--f", "x*y", "--alpha", "dx"],  # no twist: exit 1
    ["act", "--f", "x*y", "--element", "1", "--alpha", "x dx"],
    ["act", "--f", "x*y", "--element", "dx", "--by", "dy"],
    ["act", "--f", "y^2 - x^3", "--element", "dx", "--alpha", "2*x*dx + 3*y*dy"],
    ["act", "--f", "x*y", "--element", "0,0=1", "--alpha", "x dx", "--on", "ext0",
     "--model", "delta:2"],
    ["act", "--f", "x*y", "--element", "0,1,0,0=1; 1,0,0,0=-2", "--alpha", "x dx",
     "--model", "free:2"],
    ["act", "--f", "x*y", "--element", "0,0,1,0=1", "--alpha", "x dx",
     "--model", "dx:x*y"],
    ["act", "--f", "x*y", "--element", "1,1,0,0=1", "--alpha", "x*dx",
     "--model", "dx:x*y"],  # label outside the basis: usage error
    ["act", "--f", "x*y", "--element", "1"],  # neither --alpha nor --by
    ["end-member", "--f", "x*y", "--h", "x dx"],
    ["end-member", "--f", "x*y", "--h", "dx"],
    ["rewrite", "--preset", "node-xy", "--element", "x dx^2"],
    ["rewrite", "--preset", "nope", "--element", "x"],  # usage error
    ["confluence", "--preset", "node-xy", "--max-deg", "4"],
    ["irreducible-dims", "--preset", "node-xy", "--max-deg", "4"],
    ["curve-predict", "--curve", CURVE],
    ["curve-predict", "--curve", CURVE, "--simple"],
    ["curve-predict", "--curve", CURVE_POINT_SUPPORTED],
    ["curve-predict", "--curve", "{not json"],  # usage error
    ["curve-crosscheck", "--n", "2", "--model", "delta", "--max-deg", "3"],
    ["curve-crosscheck", "--n", "2", "--model", "kummer:1/2", "--max-deg", "2"],
    ["quotient-isotypic", "--group", "cyclic:2:1,1", "--character", "chi:1,0",
     "--max-deg", "4", "--molien-check"],
    ["quotient-isotypic", "--group", "cyclic:2:1,1", "--character", "chi:1,0",
     "--max-deg", "4", "--ic"],
    ["quotient-isotypic", "--group", '{"order":3,"generators":[[1,2]]}',
     "--character", "chi:0,0", "--max-deg", "3"],
    ["quotient-isotypic", "--group", "cyclic:2:1,0", "--character", "chi:1,0",
     "--ic"],  # failed precondition: exit 1
    ["quotient-rend", "--group", "cyclic:2:1,1", "--max-deg", "4"],
    ["quotient-rend", "--group", "cyclic:2:1,1", "--max-deg", "3", "--compare-f", "x*y",
     "--stab-window", "2"],
    ["quotient-cech", "--group", "cyclic:2:1,1", "--character", "chi:0,0", "--max-deg", "4"],
    ["quotient-cech", "--group", "cyclic:3", "--character", "chi:0"],  # usage error
    ["verify", "node"],
    # usage errors: malformed crosscheck model ids, a label of the wrong length
    ["curve-crosscheck", "--n", "2", "--model", "nope"],
    ["curve-crosscheck", "--n", "2", "--model", "kummer:x"],
    ["curve-crosscheck", "--n", "2", "--model", "kummer:1/0"],
    ["curve-crosscheck", "--n", "2", "--model", "kummer:1"],
    ["act", "--f", "x*y", "--alpha", "x dx", "--model", "dx:x*y", "--element", "1,2=1"],
    # powers: closed form at any exponent, other bases bounded (usage error)
    ["twist", "--f", "x*y", "--alpha", "x^99999999999999999999"],
    ["twist", "--f", "x*y", "--alpha", "(x + dx)^100000"],
    # products and nested powers bounded by their degree (usage error)
    ["twist", "--f", "x*y", "--alpha", "(x + dx)^64 (x + dx)^64"],
    ["twist", "--f", "x*y", "--alpha", "((x + dx)^16)^8"],
    # products bounded by their terms in several variables (usage error)
    ["twist", "--f", "x*y", "--alpha", "(x + y + dx + dy)^64"],
    ["twist", "--f", "x*y", "--alpha", "(x + y + dx + dy)^8 (x + y + dx + dy)^8"],
    # rational input with integral values reads and prints as integers
    ["twist", "--f", "x*y", "--alpha", "(4/2 x*dx + 1/2 y*dy)^2"],
    # groups bounded by MAX_ORDER, in N and in the generated subgroup (usage error)
    ["quotient-rend", "--group", "cyclic:1000000000:1,1", "--max-deg", "2"],
    ["quotient-cech", "--group", '{"order":20,"generators":[[1,0],[0,1]]}',
     "--character", "chi:0,0", "--max-deg", "2"],
]


def run(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def all_argvs():
    return [argv + ["--format", fmt] for argv in CASES for fmt in FORMATS]


GOLDEN = (
    json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if GOLDEN_PATH.exists() else []
)


def test_golden_covers_every_case():
    assert [entry["argv"] for entry in GOLDEN] == all_argvs()


def test_every_subcommand_has_a_case():
    parser = build_parser()
    names = next(
        a for a in parser._actions if a.dest == "command"
    ).choices
    assert set(names) <= {argv[0] for argv in CASES}


@pytest.mark.parametrize("entry", GOLDEN, ids=[
    f"{i:03d}-{e['argv'][0]}-{e['argv'][-1]}" for i, e in enumerate(GOLDEN)
])
def test_golden_output(entry):
    code, out, err = run(entry["argv"])
    assert (code, out) == (entry["exit"], entry["stdout"])
    assert "Traceback" not in err
    usage = [line for line in err.splitlines() if line.startswith("usage error")]
    assert len(usage) == (code == 2)


if __name__ == "__main__":
    records = []
    for argv in all_argvs():
        code, out, _ = run(argv)
        records.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN_PATH.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} runs in {GOLDEN_PATH}")
