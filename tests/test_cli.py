import contextlib
import errno
import io
import json
import os
import random
import shlex
import subprocess
import sys

import pytest

from tml.cli import build_parser, main

ROOT_TWIST = "src/tml/manifests/root_twist.tml"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits on --help and usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_default_manifest(capsys):
    code, out, err = _run(capsys, "validate", "--module", "Cten2")
    assert code == 0
    assert "valid" in out
    assert err == ""


def test_act_prints_coefficients(capsys):
    code, out, _ = _run(capsys, "act", "--module", "Cten2",
                        "--poly", "T^2")
    assert code == 0
    assert "tau^0: [T^2, 0; 0, T^2]" in out
    assert "tau^1: [1, 0; T^2+T, 1]" in out


def test_act_accepts_poly_section_name(capsys):
    code_name, out_name, _ = _run(capsys, "act", "--module", "Cten2",
                                  "--poly", "tsq")
    code_expr, out_expr, _ = _run(capsys, "act", "--module", "Cten2",
                                  "--poly", "T^2")
    assert code_name == code_expr == 0
    assert out_name == out_expr


def test_stability_exit_codes(capsys):
    code, out, _ = _run(capsys, "stability", "--subgroup", "Axis",
                        "--poly", "T^2")
    assert code == 0
    assert "stable" in out
    code, out, _ = _run(capsys, "stability", "--subgroup", "Axis",
                        "--poly", "T")
    assert code == 1
    assert "unstable" in out
    assert "tangent-escape" in out


def test_stability_inconclusive_is_not_reported_unstable(capsys):
    code, out, _ = _run(capsys, "stability", "--manifest", ROOT_TWIST,
                        "--subgroup", "Squares", "--poly", "T")
    assert code == 1
    assert "inconclusive" in out
    assert "unstable" not in out


def test_minimal_j_found(capsys):
    code, out, _ = _run(capsys, "minimal-j", "--subgroup", "Axis")
    assert code == 0
    assert "least stabilizing exponent: 2" in out


def test_minimal_j_not_found(capsys):
    code, out, _ = _run(capsys, "minimal-j", "--manifest", ROOT_TWIST,
                        "--subgroup", "Squares", "--max-j", "2")
    assert code == 1
    assert "no stabilizing exponent found" in out


def test_j_bound_reports_both_bounds(capsys):
    code, out, _ = _run(capsys, "j-bound", "--module", "Cten2")
    assert code == 0
    assert "power bound: 2" in out
    assert "cruder bound 4" in out


def test_abelian_scan_and_rank(capsys):
    code, out, _ = _run(capsys, "abelian-scan", "--module", "Cten2")
    assert code == 0
    assert "abelian" in out and "2 generators" in out
    code, out, _ = _run(capsys, "rank", "--module", "Cten2")
    assert code == 0
    assert "2 generators" in out


def test_exp_with_restriction(capsys):
    code, out, _ = _run(capsys, "exp", "--module", "Cten2",
                        "--order", "2", "--subgroup", "Axis")
    assert code == 0
    assert "functional equation: holds" in out
    assert "restriction to Axis: holds" in out


def test_torsion_verify_and_search(capsys):
    code, out, _ = _run(capsys, "torsion", "--manifest", ROOT_TWIST,
                        "--point", "Seed", "--poly", "T")
    assert code == 0
    assert "annihilated" in out
    code, out, _ = _run(capsys, "torsion", "--manifest", ROOT_TWIST,
                        "--point", "Seed", "--bound", "2")
    assert code == 0
    assert "minimal annihilator T" in out


def test_torsion_flag_validation(capsys):
    code, _, err = _run(capsys, "torsion", "--point", "origin")
    assert code == 2
    assert "exactly one" in err


EDGE = os.path.join(REPO, "tests", "golden", "manifests", "edge.tml")


@pytest.mark.parametrize("argv, message", [
    (["--point", "Bound", "--module", "C2"],
     "point 'Bound' is declared on module 'C1'"),
    (["--point", "Loose"], "point is not bound to a module; pass --module"),
])
def test_torsion_point_module_errors(capsys, argv, message):
    code, out, err = _run(capsys, "torsion", "--manifest", EDGE, *argv,
                          "--poly", "T")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unknown_module_is_usage_error(capsys):
    code, _, err = _run(capsys, "act", "--module", "Missing", "--poly", "T")
    assert code == 2
    assert "unknown module" in err


def test_bad_expression_is_parse_error(capsys):
    code, _, err = _run(capsys, "act", "--module", "Cten2", "--poly", "T^")
    assert code == 2
    assert "parse error" in err


def test_poly_dividing_by_zero_is_parse_error_at_the_slash(capsys):
    code, out, err = _run(capsys, "act", "--module", "Cten2", "--poly", "1/0")
    assert (code, out) == (2, "")
    assert err == "parse error: inverse of zero rational function (col 2)\n"


def test_missing_manifest_file(capsys):
    code, _, err = _run(capsys, "validate", "--manifest", "no/such.tml",
                        "--module", "X")
    assert code == 2
    assert "cannot read manifest" in err


def test_non_utf8_manifest_is_input_error(capsys, tmp_path):
    path = tmp_path / "noise.tml"
    path.write_bytes(bytes(random.Random(7).randrange(256) for _ in range(300)))
    code, out, err = _run(capsys, "validate", "--manifest", str(path),
                          "--module", "X")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read manifest: 'utf-8' codec")
    assert err.count("\n") == 1


def test_json_format(capsys):
    code, out, _ = _run(capsys, "j-bound", "--module", "Cten2",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 2
    assert doc["formula_bound"] == 4
    assert doc["exit"] == 0


def test_color_gated_by_environment(capsys, monkeypatch):
    monkeypatch.delenv("TML_COLOR", raising=False)
    _, plain, _ = _run(capsys, "validate", "--module", "Cten2")
    assert "\x1b[" not in plain
    monkeypatch.setenv("TML_COLOR", "1")
    _, colored, _ = _run(capsys, "validate", "--module", "Cten2")
    assert "\x1b[32m" in colored
    monkeypatch.setenv("TML_COLOR", "0")
    _, off, _ = _run(capsys, "validate", "--module", "Cten2")
    assert off == plain


def test_paper_corpus_passes(capsys):
    code, out, _ = _run(capsys, "paper-corpus")
    assert code == 0
    assert "12 of 12 checks passed" in out
    assert out.count("PASS") == 12


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "tml.cli", "rank", "--module", "Cten2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "2 generators" in proc.stdout


@pytest.mark.parametrize("argv, message", [
    (("torsion", "--manifest", ROOT_TWIST, "--point", "Seed",
      "--bound", "-1"), "search degree must be nonnegative"),
    (("abelian-scan", "--module", "Cten2", "--max-i", "-3"),
     "largest action power must be at least 1"),
    (("rank", "--module", "Cten2", "--max-i", "0"),
     "largest action power must be at least 1"),
    (("minimal-j", "--subgroup", "Axis", "--max-j", "-5"),
     "largest exponent must be at least 1"),
    (("abelian-scan", "--module", "Cten2", "--degree-cap", "-1"),
     "degree cap must be nonnegative"),
    (("exp", "--module", "Cten2", "--order", "-1"),
     "truncation order must be nonnegative"),
    # --poly T is refuted by the tangent check before any witness search
    (("stability", "--subgroup", "Axis", "--poly", "T", "--bound", "-1"),
     "witness degree bound must be nonnegative"),
    (("stability", "--subgroup", "Axis", "--poly", "T^2", "--bound", "-1"),
     "witness degree bound must be nonnegative"),
], ids=["torsion-bound", "abelian-scan-max-i", "rank-max-i",
        "minimal-j-max-j", "abelian-scan-degree-cap", "exp-order",
        "stability-bound-refuted", "stability-bound"])
def test_out_of_range_parameters_are_usage_errors(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}, got {argv[-1]}\n"


def test_malformed_json_section_is_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"modules": 5}\n', encoding="utf-8")
    code, out, err = _run(capsys, "validate", "--manifest", str(path),
                          "--module", "C1")
    assert code == 2
    assert out == ""
    assert err == "parse error: JSON section 'modules' must be an object\n"


NOT_NILPOTENT = """\
[field]
p = 2

[module Bad]
m = 2
a0 = 1, 0, 0, T
a1 = 1, 0, 0, 1
"""


@pytest.mark.parametrize("command", ["j-bound", "abelian-scan", "rank"])
def test_invalid_module_is_refused_before_scans(capsys, tmp_path, command):
    path = tmp_path / "bad.tml"
    path.write_text(NOT_NILPOTENT, encoding="utf-8")
    code, out, err = _run(capsys, command, "--manifest", str(path),
                          "--module", "Bad")
    assert code == 2
    assert out == ""
    assert err == "error: constant coefficient is not T*I plus nilpotent\n"


TWO_MODULES = """\
[field]
p = 2

[module C1]
m = 1
a0 = T
a1 = 1

[module C2]
m = 2
a0 = T, 0, 0, T
a1 = 1, 0, 0, 1

[subgroup S]
module = C2
row = [1], [0]

[point P]
coords = T, 1
"""


def test_torsion_poly_on_point_of_wrong_length(capsys, tmp_path):
    path = tmp_path / "two.tml"
    path.write_text(TWO_MODULES, encoding="utf-8")
    code, out, err = _run(capsys, "torsion", "--manifest", str(path),
                          "--point", "P", "--module", "C1", "--poly", "T")
    assert code == 2
    assert out == ""
    assert err == "error: point has wrong number of coordinates\n"


def test_exp_subgroup_of_another_module_is_usage_error(capsys, tmp_path):
    path = tmp_path / "two.tml"
    path.write_text(TWO_MODULES, encoding="utf-8")
    code, out, err = _run(capsys, "exp", "--manifest", str(path),
                          "--module", "C1", "--order", "1",
                          "--subgroup", "S")
    assert code == 2
    assert out == ""
    assert err.endswith("subgroup 'S' is declared on module 'C2'\n")
    assert err.count("\n") == 1


def test_field_beyond_the_size_caps_is_parse_error(capsys, tmp_path):
    path = tmp_path / "big.tml"
    path.write_text("[field]\np = 17\n\n[module C]\nm = 1\na0 = T\n",
                    encoding="utf-8")
    code, out, err = _run(capsys, "validate", "--manifest", str(path),
                          "--module", "C")
    assert code == 2
    assert out == ""
    assert err == ("parse error: field size out of range: p=17, e=1 "
                   "(p <= 13, e <= 4) (line 1, col 1)\n")


@pytest.mark.parametrize("argv", [("stability", "--poly", "T^2"),
                                  ("minimal-j",)],
                         ids=["stability", "minimal-j"])
def test_subgroup_commands_refuse_module_flag(capsys, argv):
    # the subgroup names its own module, so these commands take no --module
    code, out, err = _run(capsys, *argv, "--subgroup", "Axis",
                          "--module", "Nope")
    assert code == 2
    assert out == ""
    assert err.endswith("error: unrecognized arguments: --module Nope\n")


@pytest.mark.parametrize("argv", [("validate",), ("j-bound",),
                                  ("exp", "--order", "2")],
                         ids=["validate", "j-bound", "exp"])
def test_nonpositive_dimension_is_parse_error(capsys, tmp_path, argv):
    # m = -1 used to build a 0-dimensional module: validate said invalid,
    # j-bound printed floor(log_2(0)) and exp printed empty matrices
    path = tmp_path / "zero.tml"
    path.write_text("[field]\np = 2\n\n[module C]\nm = -1\na0 = T\n",
                    encoding="utf-8")
    code, out, err = _run(capsys, argv[0], "--manifest", str(path),
                          "--module", "C", *argv[1:])
    assert code == 2
    assert out == ""
    assert err == "parse error: m must be at least 1, got -1 (line 5, col 5)\n"


def test_power_beyond_degree_cap_is_parse_error(capsys):
    code, out, err = _run(capsys, "act", "--module", "Cten2",
                          "--poly", "T^99999999999")
    assert code == 2
    assert out == ""
    assert err == ("parse error: power of degree 99999999999 exceeds "
                   "the cap of 10000 (col 2)\n")


def test_nesting_beyond_the_cap_is_parse_error(capsys):
    # refused at the 257th '(' however deep the caller's stack is
    deep = "(" * 1200 + "T" + ")" * 1200
    code, out, err = _run(capsys, "act", "--module", "Cten2", "--poly", deep)
    assert (code, out) == (2, "")
    assert err == ("parse error: parentheses nested more than 256 deep "
                   "(col 257)\n")
    at_cap = "(" * 256 + "T" + ")" * 256
    assert _run(capsys, "act", "--module", "Cten2", "--poly", at_cap) == _run(
        capsys, "act", "--module", "Cten2", "--poly", "T")


def test_deeply_nested_json_is_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"field": ' + "[" * 100_000 + "]" * 100_000 + "}",
                    encoding="utf-8")
    code, out, err = _run(capsys, "validate", "--manifest", str(path),
                          "--module", "C")
    assert (code, out, err) == (2, "", "parse error: bad JSON: nested too "
                                       "deeply\n")
    path.write_text(json.dumps({
        "field": {"p": 2}, "modules": {"C": {
            "m": "1", "a0": "(" * 256 + "T" + ")" * 256, "a1": "1"}}}),
        encoding="utf-8")
    code, out, err = _run(capsys, "validate", "--manifest", str(path),
                          "--module", "C")
    assert (code, err) == (0, "")


def _readme_examples():
    """(argv, stdout) for every indented '$ tml ...' block in README.md:
    the command line, then its output up to the next unindented line."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    prompt = "    $ tml "
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith(prompt):
            continue
        out = []
        for nxt in lines[i + 1:]:
            if not nxt.startswith("    ") or nxt.startswith("    $ "):
                break
            out.append(nxt[4:] + "\n")
        examples.append((shlex.split(line[len(prompt):]), "".join(out)))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_has_its_three_examples():
    assert [argv[0] for argv, _ in README_EXAMPLES] == [
        "stability", "j-bound", "torsion"]


@pytest.mark.parametrize("argv, expected", README_EXAMPLES,
                         ids=[argv[0] for argv, _ in README_EXAMPLES])
def test_readme_example_output_is_exact(capsys, monkeypatch, argv,
                                        expected):
    monkeypatch.chdir(REPO)
    monkeypatch.delenv("TML_COLOR", raising=False)
    _, out, _ = _run(capsys, *argv)
    assert out == expected


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_state_between_calls(capsys):
    # a usage error, help, then one command in text and JSON; then the
    # same in reverse, so JSON runs before text the second time
    calls = [("exp", "--order", "x"), ("--help",),
             ("exp", "--module", "Cten2", "--order", "2"),
             ("exp", "--module", "Cten2", "--order", "2", "--format", "json")]
    first = {}
    for argv in calls + calls[::-1]:
        result = _run(capsys, *argv)
        assert first.setdefault(argv, result) == result
    usage, helped, text, as_json = (first[argv] for argv in calls)
    assert usage[0] == 2 and "invalid int value: 'x'" in usage[2]
    assert helped[0] == 0 and helped[1].startswith("usage: tml")
    assert text[0] == 0 and text[1].startswith("truncated exponential")
    assert as_json[0] == 0 and json.loads(as_json[1])["order"] == 2


def test_help_wraps_at_the_width_when_printed(capsys, monkeypatch):
    build_parser()
    widths = {}
    for columns in (60, 120):
        monkeypatch.setenv("COLUMNS", str(columns))
        code, out, _ = _run(capsys, "--help")
        assert code == 0
        widths[columns] = max(len(line) for line in out.splitlines())
    assert widths[60] <= 60 < widths[120] <= 120


F9_STABILITY = ("stability", "--subgroup", "Second", "--poly", "t",
                "--manifest", "tests/golden/manifests/f9.tml")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_keeps_the_verdict(capsys, fmt):
    code, out, err = _run(capsys, *F9_STABILITY, "--format", fmt)
    assert code == 1 and out
    with contextlib.redirect_stdout(_ClosedPipe()):
        assert main([*F9_STABILITY, "--format", fmt]) == code
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_reader_closing_the_pipe_leaves_no_traceback(unbuffered):
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    for read_first_line in (False, True, True):
        proc = subprocess.Popen([sys.executable, "-m", "tml.cli",
                                 *F9_STABILITY],
                                cwd=REPO, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        # closed before the first write, every write meets the broken
        # pipe; closed after the first line, the rest may or may not
        if read_first_line:
            assert proc.stdout.readline().startswith(b"stability of Second")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""
