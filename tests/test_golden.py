"""Byte-exact CLI output against recorded golden files.

Each case runs tml.cli.main in-process and compares its stdout and exit
code with tests/golden/<case>.out and the "exit" entry of
tests/golden/exits.json.  The cases cover the two packaged manifests and
the small manifests in tests/golden/manifests over F_3, F_9, F_4 with
U^2 = T, F_5 with V^2 = T and F_343, graph subgroups over F_3 and two
nonabelian modules over F_3.  After a deliberate output change, rewrite
the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

from tml.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
MANIFESTS = os.path.join(os.path.dirname(GOLDEN), os.pardir, "src", "tml",
                         "manifests")
CROSS_MANIFESTS = os.path.join(GOLDEN, "manifests")

# per manifest: module, subgroup, poly and point names
_OBJECTS = {
    "prop3": ("Cten2", "Axis", "tsq", "origin"),
    "root_twist": ("RootPair", "Squares", "t", "Seed"),
}



def _stability(subgroup, poly):
    return ["stability", "--subgroup", subgroup, "--poly", poly]


# per cross-field manifest: one stability case per verdict kind (a
# tangent vector escapes, a kernel axis escapes, no witness, stable), plus
# act, minimal-j, exp and an exhaustive torsion search.  Over F_343 the
# exponential stops at order 1, since order 2 twists T to T^(343^2).
_CROSS = {
    "f3": {
        "act": ["act", "--module", "Cten2", "--poly", "tt"],
        "stability-tangent": _stability("Axis", "t"),
        "stability-axis": _stability("Axis", "t3"),
        "stability-inconclusive": _stability("Twist", "t"),
        "stability-stable": _stability("Diag", "tt"),
        "minimal-j": ["minimal-j", "--subgroup", "Axis"],
        "exp": ["exp", "--module", "Cten2", "--order", "2"],
        "torsion": ["torsion", "--point", "Q", "--bound", "3"],
    },
    "f9": {
        "act": ["act", "--module", "C1", "--poly", "tg"],
        "stability-tangent": _stability("Axis", "t"),
        "stability-axis": _stability("Second", "t"),
        "stability-inconclusive": _stability("Diag", "t"),
        "stability-stable": _stability("PairAxis", "tg"),
        "minimal-j": ["minimal-j", "--subgroup", "Axis"],
        "exp": ["exp", "--module", "C1", "--order", "2"],
        "torsion": ["torsion", "--point", "P", "--bound", "3"],
    },
    "f4u": {
        "act": ["act", "--module", "RootPair", "--poly", "t2"],
        "stability-tangent": _stability("Axis", "t"),
        "stability-axis": _stability("Column", "t"),
        "stability-inconclusive": _stability("Squares", "t"),
        "stability-stable": _stability("Second", "t2"),
        "minimal-j": ["minimal-j", "--subgroup", "Axis"],
        "exp": ["exp", "--module", "RootPair", "--order", "2"],
        "torsion": ["torsion", "--point", "Seed", "--bound", "3"],
    },
    "f5v": {
        "act": ["act", "--module", "Pair", "--poly", "t5"],
        "stability-tangent": _stability("Axis", "t"),
        "stability-axis": _stability("Axis", "t5"),
        "stability-inconclusive": _stability("Graph", "t"),
        "stability-stable": _stability("Second", "t5"),
        "minimal-j": ["minimal-j", "--subgroup", "Axis"],
        "exp": ["exp", "--module", "Cten2", "--order", "2"],
        "torsion": ["torsion", "--point", "Seed", "--bound", "3"],
    },
    "f343": {
        "act": ["act", "--module", "Cten2", "--poly", "t"],
        "stability-tangent": _stability("Axis", "t"),
        "stability-axis": _stability("Second", "t"),
        "stability-inconclusive": _stability("Diag", "t"),
        "stability-stable": _stability("PairAxis", "t"),
        "minimal-j": ["minimal-j", "--subgroup", "PairAxis"],
        "exp": ["exp", "--module", "C1", "--order", "1"],
        "torsion": ["torsion", "--point", "P", "--bound", "2"],
    },
}

# graph subgroups over F_3, decided by one right division: C = 2, C = T
# and the 2x2 block [[T, 1], [1, 2]], beside a twisted column or alone
_GRAPHS = ("Two", "Tee", "Block", "BlockPair")
_CROSS["f3g"] = {
    **{f"stability-{name.lower()}-{poly}": _stability(name, poly)
       for name in _GRAPHS for poly in ("t", "t2", "t3")},
    **{f"minimal-j-{name.lower()}": ["minimal-j", "--subgroup", name]
       for name in _GRAPHS},
}

# two nonabelian modules over F_3, whose abelian scan prints the closed
# support pattern: the corner module and a 3x3 chain of degree bound 2
_CROSS["nonab"] = {
    f"{cmd}-{name.lower()}": [cmd, "--module", name]
    for cmd in ("abelian-scan", "rank") for name in ("Corner", "Chain")
}


def _cases():
    cases = {"paper-corpus": ["paper-corpus"]}
    for stem, (module, subgroup, poly, point) in _OBJECTS.items():
        commands = {
            "act": ["act", "--module", module, "--poly", poly],
            "stability": ["stability", "--subgroup", subgroup,
                          "--poly", poly],
            "minimal-j": ["minimal-j", "--subgroup", subgroup],
            "exp": ["exp", "--module", module, "--order", "3"],
            "rank": ["rank", "--module", module],
            "abelian-scan": ["abelian-scan", "--module", module],
            "torsion": ["torsion", "--point", point, "--bound", "4"],
        }
        for name, argv in commands.items():
            path = os.path.join(MANIFESTS, stem + ".tml")
            cases[f"{name}-{stem}"] = argv + ["--manifest", path]
    for stem, commands in _CROSS.items():
        for name, argv in commands.items():
            path = os.path.join(CROSS_MANIFESTS, stem + ".tml")
            cases[f"{name}-{stem}"] = argv + ["--manifest", path]
    for name, argv in list(cases.items()):
        cases[name + "-json"] = argv + ["--format", "json"]
    return cases


CASES = _cases()


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, monkeypatch):
    monkeypatch.delenv("TML_COLOR", raising=False)
    with open(os.path.join(GOLDEN, "exits.json")) as fh:
        exits = json.load(fh)
    with open(os.path.join(GOLDEN, name + ".out"), "rb") as fh:
        expected = fh.read()
    code, out = _run(CASES[name])
    assert out.encode() == expected
    assert code == exits[name]


if __name__ == "__main__":
    os.environ.pop("TML_COLOR", None)
    os.makedirs(GOLDEN, exist_ok=True)
    exits = {}
    for name, argv in sorted(CASES.items()):
        exits[name], out = _run(argv)
        with open(os.path.join(GOLDEN, name + ".out"), "wb") as fh:
            fh.write(out.encode())
    with open(os.path.join(GOLDEN, "exits.json"), "w") as fh:
        json.dump(exits, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
