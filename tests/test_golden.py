"""Byte-exact CLI output against recorded golden files.

Each case runs tml.cli.main in-process and compares its stdout and exit
code with tests/golden/<case>.out and the "exit" entry of
tests/golden/exits.json.  After a deliberate output change, rewrite the
files with

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

# per manifest: module, subgroup, poly and point names
_OBJECTS = {
    "prop3": ("Cten2", "Axis", "tsq", "origin"),
    "root_twist": ("RootPair", "Squares", "t", "Seed"),
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
