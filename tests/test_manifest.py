import json

import pytest
from importlib import resources

from tml.cli import main
from tml.errors import ParseError
from tml.fields import FiniteField, Poly
from tml.linalg import Mat
from tml.manifest import (MAX_POWER_DEGREE, load_manifest, manifest_to_text,
                          parse_manifest, poly_from_text)
from tml.tmodule import carlitz_tensor


def _packaged(name):
    return (resources.files("tml") / "manifests" / name).read_text(
        encoding="utf-8")


def test_packaged_example_builds_tensor_square():
    manifest = parse_manifest(_packaged("prop3.tml"))
    mod = manifest.modules["Cten2"]
    assert mod.phi_t == carlitz_tensor(manifest.tower, 2).phi_t
    assert set(manifest.subgroups) == {"Axis"}
    assert set(manifest.points) == {"origin"}
    assert manifest.polys["tsq"] == Poly(manifest.field, (0, 0, 1))
    assert manifest.point_modules["origin"] == "Cten2"


def test_packaged_root_twist_builds_tower():
    manifest = parse_manifest(_packaged("root_twist.tml"))
    assert manifest.tower.names() == ("U",)
    u = manifest.tower.gen()
    assert u * u == manifest.tower.T()
    assert set(manifest.modules) == {"RootPair"}
    assert set(manifest.subgroups) == {"Squares"}
    pt = manifest.points["Seed"]
    assert manifest.subgroups["Squares"].contains(pt)


def test_printer_is_fixed_point_on_both_examples():
    for name in ("prop3.tml", "root_twist.tml"):
        manifest = parse_manifest(_packaged(name))
        text = manifest_to_text(manifest)
        again = parse_manifest(text)
        assert manifest_to_text(again) == text
        assert again.modules == manifest.modules


def test_printer_round_trip_preserves_content():
    manifest = parse_manifest(_packaged("prop3.tml"))
    again = parse_manifest(manifest_to_text(manifest))
    assert again.modules["Cten2"].phi_t == manifest.modules["Cten2"].phi_t
    assert again.points["origin"] == manifest.points["origin"]
    assert again.polys == manifest.polys


def test_expression_grammar(f2):
    t = Poly.gen(f2)
    one = Poly.one(f2)
    assert poly_from_text(f2, "T^3 + T + 1") == t ** 3 + t + one
    assert poly_from_text(f2, "(T + 1) * (T + 1)") == t * t + one
    assert poly_from_text(f2, "0 - T") == t
    assert poly_from_text(f2, "2") == Poly.zero(f2)


def test_grammar_has_no_unary_minus(f2):
    with pytest.raises(ParseError):
        poly_from_text(f2, "-T")


def test_caret_error_reports_column(f2):
    with pytest.raises(ParseError) as info:
        poly_from_text(f2, "T^")
    assert info.value.col == 2
    with pytest.raises(ParseError):
        poly_from_text(f2, "T^T")


def test_literal_that_is_not_decimal_is_named(f2):
    # str.isdigit admits '²', which int() refuses
    for text, col in (("T^²", 3), ("²", 1)):
        with pytest.raises(ParseError) as info:
            poly_from_text(f2, text)
        assert str(info.value) == ("integer literal '²' is not decimal "
                                   f"(col {col})")
    with pytest.raises(ParseError, match="of 5000 digits is too long"):
        poly_from_text(f2, "1" * 5000)


def test_unknown_name_rejected(f2):
    with pytest.raises(ParseError):
        poly_from_text(f2, "T + X")


def test_poly_section_rejects_denominator():
    base = _packaged("prop3.tml")
    parse_manifest(base + "\n[poly ok]\nexpr = T * T + (1)\n")
    with pytest.raises(ParseError) as info:
        parse_manifest(base + "\n[poly bad]\nexpr = 1 / T\n")
    assert "denominator" in str(info.value)
    # division itself is fine when the quotient is a polynomial
    manifest = parse_manifest(base + "\n[poly ok]\nexpr = (T^2 + T) / T\n")
    assert manifest.polys["ok"] == Poly(manifest.field, (1, 1))


def test_duplicate_module_rejected():
    text = _packaged("prop3.tml")
    with pytest.raises(ParseError) as info:
        parse_manifest(text + "\n" + "[module Cten2]\nm = 1\na0 = T\n")
    assert "duplicate" in str(info.value)


def test_wrong_entry_count_rejected():
    text = _packaged("prop3.tml").replace("a1 = 0, 0, 1, 0", "a1 = 0, 0, 1")
    with pytest.raises(ParseError):
        parse_manifest(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_manifest("[field]\np = 2\n\n[poly bad]\nexpr = T^\n")
    assert info.value.line == 5
    assert "(line 5" in str(info.value)


def test_json_form_is_equivalent():
    doc = {
        "field": {"p": 2},
        "tower": [["U", "0 - T, 0, 1"]],
        "modules": {"RootPair": {
            "m": 2,
            "a0": "T, 0, 0, T",
            "a1": "1, 0, 0, U + T",
            "a2": "0, 0, 0, 1",
        }},
        "subgroups": {"Squares": {"module": "RootPair",
                                  "rows": ["[1], [0, 1]"]}},
        "points": {"Seed": {"module": "RootPair", "coords": "T, U"}},
        "polys": {"t": "T"},
    }
    from_json = parse_manifest(json.dumps(doc))
    from_ini = load_manifest("src/tml/manifests/root_twist.tml")
    assert manifest_to_text(from_json) == manifest_to_text(from_ini)


def test_json_rejects_unknown_keys():
    with pytest.raises(ParseError):
        parse_manifest(json.dumps({"field": {"p": 2}, "extras": {}}))


def test_json_syntax_error_is_parse_error():
    with pytest.raises(ParseError):
        parse_manifest("{not json")


@pytest.mark.parametrize("doc, message", [
    ({"modules": 5}, "JSON section 'modules' must be an object"),
    ({"subgroups": []}, "JSON section 'subgroups' must be an object"),
    ({"tower": 3}, "JSON section 'tower' must be a list"),
    ({"tower": [["U"]]}, "tower step must be a [name, coefficients] pair"),
    ({"field": 2}, "field must be an object"),
    ({"modules": {"C1": "T"}}, "module C1 must be an object"),
    ({"subgroups": {"A": {"rows": 3}}}, "subgroup A rows must be a list"),
])
def test_malformed_json_sections_rejected(doc, message):
    with pytest.raises(ParseError) as info:
        parse_manifest(json.dumps(doc))
    assert str(info.value) == message


@pytest.mark.parametrize("doc, text, message", [
    ({"polys": {"b": "1/T"}}, "1/T",
     "base polynomial may not have a denominator (col 1)"),
    ({"polys": {"b": "T^^2"}}, "T^^2",
     "'^' requires an unsigned integer exponent (col 2)"),
    ({"modules": {"C": {"m": 1, "a0": "T^^2"}}}, "T^^2",
     "'^' requires an unsigned integer exponent (col 2)"),
    ({"polys": {"b": "T + X"}}, "T + X", "unknown name 'X' (col 5)"),
], ids=["poly-denominator", "poly-caret", "module-caret", "unknown-name"])
def test_json_columns_match_literal_expressions(f2, doc, text, message):
    # a JSON value has no line; its columns count from 1 like --poly's
    with pytest.raises(ParseError) as info:
        parse_manifest(json.dumps({"field": {"p": 2}, **doc}))
    assert str(info.value) == message
    with pytest.raises(ParseError) as literal:
        poly_from_text(f2, text)
    assert str(literal.value) == message


def test_power_degree_cap(f2):
    # the cap counts the degree the power reaches: exponent times the
    # total degree of its base in T and the tower generators
    assert poly_from_text(f2, f"T^{MAX_POWER_DEGREE}").degree == MAX_POWER_DEGREE
    assert poly_from_text(f2, "(T^100)^100").degree == 10000
    assert poly_from_text(f2, "1^99999999999") == Poly.one(f2)
    for text in ("T^10001", "(T^100)^101", "(1/T)^10001", "T^99999999999",
                 "T^" + "9" * 5000):
        with pytest.raises(ParseError):
            poly_from_text(f2, text)
    manifest = parse_manifest(ROOT_TWIST_CAP.format(n=5000))
    assert manifest.points["P"][0].tower.depth == 1
    with pytest.raises(ParseError, match="exceeds the cap"):
        parse_manifest(ROOT_TWIST_CAP.format(n=5001))


ROOT_TWIST_CAP = """\
[field]
p = 2

[tower]
U = 0 - T, 0, 1

[module C]
m = 1
a0 = T
a1 = 1

[point P]
module = C
coords = (T * U)^{n}
"""


MODULE_INI = "[field]\np = 2\n\n[module C]\n{body}\n"


@pytest.mark.parametrize("m", [-1, 0])
def test_nonpositive_dimension_rejected(m):
    # (-1)^2 = 1 entry used to match a0 = T and build a 0-dimensional module
    with pytest.raises(ParseError) as info:
        parse_manifest(MODULE_INI.format(body=f"m = {m}\na0 = T"))
    assert str(info.value) == f"m must be at least 1, got {m} (line 5, col 5)"
    doc = {"field": {"p": 2}, "modules": {"C": {"m": m, "a0": "T"}}}
    with pytest.raises(ParseError) as info:
        parse_manifest(json.dumps(doc))
    assert str(info.value) == f"m must be at least 1, got {m} (col 1)"


def test_tau_index_given_twice_rejected():
    # a1 and a01 both name tau^1; the later one used to win silently
    with pytest.raises(ParseError) as info:
        parse_manifest(MODULE_INI.format(body="m = 1\na0 = T\na1 = 1\na01 = 0"))
    assert str(info.value) == \
        "duplicate key 'a01' (tau index 1) (line 8, col 1)"
    doc = {"field": {"p": 2},
           "modules": {"C": {"m": 1, "a0": "T", "a1": "1", "a01": "0"}}}
    with pytest.raises(ParseError, match="duplicate key 'a01'"):
        parse_manifest(json.dumps(doc))
    # json.dumps cannot repeat a key; json.loads alone keeps the last one
    with pytest.raises(ParseError) as info:
        parse_manifest('{"field": {"p": 2}, "modules": {"C": '
                       '{"m": 1, "a0": "T", "a1": "1", "a1": "0"}}}')
    assert str(info.value) == "duplicate key 'a1'"
    manifest = parse_manifest(MODULE_INI.format(body="m = 1\na00 = T\na01 = 1"))
    assert manifest.modules["C"].degree == 1


def test_tau_index_cap():
    message = ("tau index of 'a10001' exceeds the cap of "
               f"{MAX_POWER_DEGREE}")
    with pytest.raises(ParseError) as info:
        parse_manifest(MODULE_INI.format(body="m = 1\na0 = T\na10001 = 1"))
    assert str(info.value) == message + " (line 7, col 1)"
    doc = {"field": {"p": 2},
           "modules": {"C": {"m": 1, "a0": "T", "a10001": "1"}}}
    with pytest.raises(ParseError) as info:
        parse_manifest(json.dumps(doc))
    assert str(info.value) == message + " (col 1)"


def test_tau_index_must_be_ascii_digits():
    # '²'.isdigit() holds but int('²') raises ValueError
    with pytest.raises(ParseError) as info:
        parse_manifest(MODULE_INI.format(body="m = 1\na0 = T\na² = 1"))
    assert str(info.value) == "unknown key 'a²' in [module] (line 7, col 1)"


@pytest.mark.parametrize("gen", ["T", "1x", "g h", "g+1", ""])
def test_field_generator_must_be_a_name_other_than_t(gen):
    # gen = T would make every T in an expression the field generator
    doc = {"field": {"p": 3, "e": 2, "modulus": "1, 0, 1", "gen": gen}}
    message = f"field generator must be a name other than 'T', got {gen!r}"
    with pytest.raises(ParseError) as info:
        parse_manifest(json.dumps(doc))
    assert str(info.value) == message + " (col 1)"
    if gen:
        text = f"[field]\np = 3\ne = 2\nmodulus = 1, 0, 1\ngen = {gen}\n"
        with pytest.raises(ParseError) as info:
            parse_manifest(text)
        assert str(info.value) == message + " (line 5, col 7)"


@pytest.mark.parametrize("name", ["1x", "g+1", "5"])
def test_tower_generator_must_be_a_name(name):
    # no expression could name such a generator
    message = f"tower generator must be a name, got {name!r}"
    text = f"[field]\np = 2\n\n[tower]\n{name} = 0 - T, 0, 1\n"
    with pytest.raises(ParseError) as info:
        parse_manifest(text)
    assert str(info.value) == message + f" (line 5, col {len(name) + 4})"
    step = int(name) if name.isdigit() else name
    doc = {"field": {"p": 2}, "tower": [[step, "0 - T, 0, 1"]]}
    with pytest.raises(ParseError) as info:
        parse_manifest(json.dumps(doc))
    assert str(info.value) == message + " (col 1)"


@pytest.mark.parametrize("e", ["", "e = 1\n"])
def test_prime_field_generator_rejected(e):
    # a prime field has no generator, so the name would never be bound
    message = "a prime field (e = 1) has no generator to name, got gen = w"
    with pytest.raises(ParseError) as info:
        parse_manifest(f"[field]\np = 2\n{e}gen = w\n")
    assert str(info.value) == message + f" (line {3 + bool(e)}, col 7)"
    doc = {"field": {"p": 2, "gen": "w"}}
    if e:
        doc["field"]["e"] = 1
    with pytest.raises(ParseError) as info:
        parse_manifest(json.dumps(doc))
    assert str(info.value) == message + " (col 1)"


def test_field_generator_name_reads_back():
    doc = {"field": {"p": 3, "e": 2, "modulus": "1, 0, 1", "gen": "w_1"},
           "polys": {"b": "w_1 * T + 1"}}
    manifest = parse_manifest(json.dumps(doc))
    assert manifest.polys["b"].to_expr() == "w_1*T+1"
    assert parse_manifest(manifest_to_text(manifest)).polys == manifest.polys


NO_TOWER = """\
[field]
p = 3

[module Pair]
m = 2
a0 = T, 1, 0, T
a1 = 0, 0, 2, 0

[subgroup Axis]
module = Pair
row = [1], [0]

[point P]
module = Pair
coords = T + 1, 2*T

[poly A]
expr = T^2 + 1
"""


def test_one_parse_makes_one_tower_and_tokenizes_each_value_once(
        monkeypatch):
    from tml import manifest as manifest_module
    from tml.fields import FieldTower
    towers = []
    init = FieldTower.__init__

    def counted_init(self, *args, **kwargs):
        towers.append(self)
        init(self, *args, **kwargs)

    texts = []
    tokenize = manifest_module._tokenize

    def counted_tokenize(text, col_offset=0):
        texts.append(text)
        return tokenize(text, col_offset)

    monkeypatch.setattr(FieldTower, "__init__", counted_init)
    monkeypatch.setattr(manifest_module, "_tokenize", counted_tokenize)
    manifest = parse_manifest(NO_TOWER)
    # [poly] sections and --poly literals are read in the one base scope
    assert towers == [manifest.tower] and manifest.base.tower is towers[0]
    assert texts == ["T, 1, 0, T", "0, 0, 2, 0", "[1], [0]", "T + 1, 2*T",
                     "T^2 + 1"]
    assert manifest.base.poly("T^2 + 1") == manifest.polys["A"]
    assert len(towers) == 1


def test_two_parses_share_no_field_tower_module_or_subgroup():
    one, two = parse_manifest(NO_TOWER), parse_manifest(NO_TOWER)
    assert one.field is not two.field and one.tower is not two.tower
    assert one.modules["Pair"] is not two.modules["Pair"]
    assert one.subgroups["Axis"] is not two.subgroups["Axis"]
    assert one.base is not two.base and one.base.memo is not two.base.memo
    assert manifest_to_text(one) == manifest_to_text(two)


def test_row_with_a_trailing_comma_is_read():
    with_comma = parse_manifest(NO_TOWER.replace("[1], [0]", "[1], [0],"))
    plain = parse_manifest(NO_TOWER)
    assert manifest_to_text(with_comma) == manifest_to_text(plain)


@pytest.mark.parametrize("text, message", [
    (MODULE_INI.format(body="m = 1\na0 = T/0"),
     "inverse of zero rational function (line 6, col 7)"),
    (MODULE_INI.format(body="m = 1\na0 = T + (1 + T)/(T - T)"),
     "inverse of zero rational function (line 6, col 17)"),
    ("[field]\np = 3\n\n[tower]\nU = 0 - T^2, 0, 1\n\n[point P]\n"
     "coords = T, 1/(U - T)\n",
     "defining polynomial is reducible (line 8, col 14)"),
], ids=["literal", "parenthesized", "quotient-ring"])
def test_division_by_a_zero_divisor_is_placed_at_its_slash(text, message):
    with pytest.raises(ParseError) as info:
        parse_manifest(text)
    assert str(info.value) == message


def test_literal_division_by_zero_is_placed_at_its_slash(f2):
    with pytest.raises(ParseError) as info:
        poly_from_text(f2, "T + 1/0")
    assert str(info.value) == "inverse of zero rational function (col 6)"


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_manifest_file_reads_with_universal_newlines(tmp_path, newline):
    text = _packaged("root_twist.tml")
    path = tmp_path / "m.tml"
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert manifest_to_text(load_manifest(path)) == manifest_to_text(
        parse_manifest(text))
    path.write_bytes(b'{"field": {"p": 2},' + newline.encode() + b' "x": ]}')
    with pytest.raises(ParseError, match=r"\(line 2, col 7\)"):
        load_manifest(path)


# -- every remaining manifest error, through the command line -------------

_F2 = "[field]\np = 2\n\n"
_C = "[module C]\nm = 1\na0 = T\na1 = 1\n\n"


@pytest.mark.parametrize("text, message", [
    ("[field F]\np = 2\n", "[field] takes no name (line 1, col 1)"),
    (_F2 + "[module]\nm = 1\n", "[module] needs a name (line 4, col 1)"),
    ('{"field": {"p": [2]}}\n', "field.p must be a string"),
    ("[field]\np = 2\np = 3\n", "duplicate key 'p' (line 3, col 5)"),
    (_C, "no [field] section"),
    ("[field]\np = 2\nq = 3\n", "unknown key 'q' in [field] (line 3, col 1)"),
    (_F2 + "[field]\np = 3\n", "duplicate [field] section (line 4, col 1)"),
    (_F2 + "[tower]\nU = 1, 0, 2\n",
     "defining polynomial must be monic (line 5, col 5)"),
    (_F2 + "[module C]\nm = 1\na1 = 1\n",
     "[module C] is missing a0 (line 4, col 1)"),
    (_F2 + _C + "[subgroup S]\nmodule = C\nrow = [0]\n",
     "zero presentation; use zero rows for the full module (line 9, col 1)"),
    (_F2 + _C + "[point P]\nmodule = C\ncoords = T, 1\n",
     "point has wrong number of coordinates (line 9, col 1)"),
], ids=["field-named", "module-unnamed", "json-not-a-string", "duplicate-key",
        "no-field", "field-key", "duplicate-field", "tower-not-monic",
        "no-a0", "zero-subgroup", "point-length"])
def test_manifest_errors_exit_2_with_their_position(tmp_path, capsys, text,
                                                     message):
    path = tmp_path / "bad.tml"
    path.write_text(text, encoding="utf-8")
    code = main(["validate", "--manifest", str(path), "--module", "C"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"parse error: {message}\n")
