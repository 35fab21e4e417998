"""Seeded structural fuzz of the manifest reader.

The INI manifests in tests/golden/manifests/ and the packaged ones, plus
one JSON manifest written here, have characters that carry structure
deleted, duplicated or inserted, and some values nested 2,000 deep.
However malformed, a manifest is either read or refused with a TmlError,
and `tml validate` on it exits 0, 1 or 2.  Mutations touch structure,
not the digits of exponents, so every case stays cheap.
"""

import glob
import json
import os
import random
import re

import pytest

from tml.cli import main
from tml.errors import TmlError
from tml.manifest import parse_manifest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INI = sorted(glob.glob(os.path.join(REPO, "tests", "golden", "manifests",
                                    "*.tml"))
             + glob.glob(os.path.join(REPO, "src", "tml", "manifests",
                                      "*.tml")))

JSON_MANIFEST = json.dumps({
    "field": {"p": 3},
    "tower": [["V", "0 - T, 0, 1"]],
    "modules": {"Pair": {"m": "2", "a0": "T, 0, 0, T", "a1": "1, 0, 0, V"}},
    "subgroups": {"Line": {"module": "Pair", "rows": ["[1], [V]"]}},
    "points": {"Seed": {"module": "Pair", "coords": "V, 1"}},
    "polys": {"t2": "(T + 1)^2"},
})

# '²' is a digit to str.isdigit that int() refuses; U+00A0 is a space to
# str.isspace but not to the INI reader's " \t"
STRUCTURE = list("()[]{},=^#") + ["²", "\u00a0"]
DEEP = 2000
CASES = 40


def _mutate(rng, text):
    """One to four deletions, duplications or insertions of a character
    from STRUCTURE."""
    for _ in range(rng.randint(1, 4)):
        spots = [i for i, ch in enumerate(text) if ch in STRUCTURE]
        op = rng.randrange(3)
        if op < 2 and spots:
            i = rng.choice(spots)
            text = text[:i] + text[i + 1:] if op == 0 else (
                text[:i] + text[i] + text[i:])
        else:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(STRUCTURE) + text[i:]
    return text


def _nested(text, opening, rng):
    """text with one value nested DEEP levels deep in opening's kind of
    bracket: an expression or a list, or the JSON field as an array or
    an object."""
    if text.startswith("{"):
        if opening == "(":
            deep = '"' + "(" * DEEP + "T + 1" + ")" * DEEP + '"'
            return text.replace('"(T + 1)^2"', deep)
        if opening == "{":
            deep = '{"a": ' * DEEP + "1" + "}" * DEEP
        else:
            deep = "[" * DEEP + "]" * DEEP
        return text.replace('{"p": 3}', deep)
    closing = {"(": ")", "[": "]", "{": "}"}[opening]
    i = rng.choice([m.end() for m in re.finditer("= ", text)])
    j = text.index("\n", i)
    return text[:i] + opening * DEEP + text[i:j] + closing * DEEP + text[j:]


def _cases():
    for path in INI + ["json"]:
        if path == "json":
            text = JSON_MANIFEST
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        rng = random.Random(f"fuzz-{os.path.basename(path)}")
        module = (re.search(r"\[module (\w+)\]", text)
                  or re.search(r'"modules": \{"(\w+)"', text)).group(1)
        for k in range(CASES):
            if k % 8:
                mutated = _mutate(rng, text)
            else:
                mutated = _nested(text, "([{"[k // 8 % 3], rng)
            yield os.path.basename(path), module, mutated


CASE_LIST = list(_cases())


def test_mutated_manifests_raise_only_tml_errors():
    kinds = set()
    for name, _, text in CASE_LIST:
        try:
            parse_manifest(text)
            kinds.add("read")
        except TmlError:
            kinds.add("refused")
    assert kinds == {"read", "refused"}


@pytest.mark.parametrize("name", sorted({name for name, _, _ in CASE_LIST}))
def test_validate_on_mutated_manifests_keeps_the_exit_contract(
        capsys, tmp_path, name):
    path = tmp_path / "m.tml"
    for case_name, module, text in CASE_LIST:
        if case_name != name:
            continue
        path.write_text(text, encoding="utf-8")
        code = main(["validate", "--manifest", str(path), "--module", module])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), text
        if code == 2:
            assert out == "" and err.count("\n") == 1, err
