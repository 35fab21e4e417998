"""Manifest files describing fields, towers, modules, subgroups, points
and base polynomials, plus the expression grammar used inside them.

Expression grammar (no unary minus; subtract from 0 instead):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' uint)?
    atom   := name | uint | '(' expr ')'

The INI-like format has sections [field], [tower], [module NAME],
[subgroup NAME], [point NAME], [poly NAME] with key = value lines and
'#' comments.  A document whose first non-space character is '{' is read
as the JSON equivalent instead; both share the same value syntax.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError, ParseError
from .fields import FiniteField, FieldTower, Poly
from .linalg import Mat
from .subgroups import KernelSubgroup
from .tmodule import TModule

# Largest degree a power v^n may reach: n times the total degree of v in T
# and the tower generators, denominators included.  Well above any worked
# example; without it "T^99999999999" would run until memory ran out.
MAX_POWER_DEGREE = 10_000
# Deepest parenthesis nesting an expression may have.  The evaluator
# recurses once per level, so without a cap deep nesting would meet
# Python's recursion limit at a depth that depends on the caller's stack.
MAX_NESTING = 256

# Runs of whitespace, runs of word characters, or one other character.
# In re's Unicode mode \s is exactly str.isspace and \w exactly
# str.isalnum or '_', so a name is one run that starts with a letter and
# an integer literal is the str.isdigit prefix of a run.
_RUNS = re.compile(r"\s+|\w+|.", re.S)
_MUL = {"*": operator.mul, "/": operator.truediv}
_ADD = {"+": operator.add, "-": operator.sub}


def _tokenize(text, line=None, col_offset=0):
    """(kind, text, col) tuples ending in ('end', '', col); kind is
    'name', 'int', or the operator or parenthesis itself."""
    toks = []
    col = col_offset + 1
    for run in _RUNS.findall(text):
        ch = run[0]
        if ch.isalpha():
            toks.append(("name", run, col))
        elif ch.isdigit():
            j = 1
            while j < len(run) and run[j].isdigit():
                j += 1
            toks.append(("int", run[:j], col))
            if j < len(run):
                if not run[j].isalpha():
                    raise ParseError(f"unexpected character {run[j]!r}",
                                     line, col + j)
                toks.append(("name", run[j:], col + j))
        elif ch in "+-*/^()":
            toks.append((ch, ch, col))
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", line, col)
        col += len(run)
    toks.append(("end", "", col))
    return toks


def _is_name(text):
    """Whether the tokenizer reads text back as one name."""
    try:
        toks = _tokenize(text)
    except ParseError:
        return False
    return len(toks) == 2 and toks[0][:2] == ("name", text)


def _total_degree(v):
    """Total degree of a tower element in T and the tower generators."""
    if v.tower.parent is None:
        return max(v.data.num.degree, v.data.den.degree)
    return max((_total_degree(c) + j for j, c in enumerate(v.parts())
                if not c.is_zero()), default=0)


def _int(text, line, col):
    try:
        return int(text)
    except ValueError:
        # str.isdigit, which the tokenizer uses, also admits digits such
        # as '²' that are not decimal and that int() refuses
        if not text.isdecimal():
            raise ParseError(f"integer literal {text!r} is not decimal",
                             line, col) from None
        raise ParseError(f"integer literal of {len(text)} digits is "
                         "too long", line, col) from None


def _eval(toks, i, env, const, line, depth=0):
    """Evaluate the expr that starts at toks[i], inside depth levels of
    parentheses: (value, index of the token after it).  Each product and
    sum is formed as soon as its right operand is read, so errors come in
    reading order."""
    total = add = None
    while True:
        prod = mul = None
        while True:
            kind, text, col = toks[i]
            i += 1
            if kind == "name":
                if text not in env:
                    raise ParseError(f"unknown name {text!r}", line, col)
                v = env[text]
            elif kind == "int":
                v = const(_int(text, line, col))
            elif kind == "(":
                if depth == MAX_NESTING:
                    raise ParseError("parentheses nested more than "
                                     f"{MAX_NESTING} deep", line, col)
                v, i = _eval(toks, i, env, const, line, depth + 1)
                if toks[i][0] != ")":
                    raise ParseError("expected ')'", line, toks[i][2])
                i += 1
            else:
                raise ParseError(f"expected a value, found {text or 'end'!r}",
                                 line, col)
            if toks[i][0] == "^":
                caret = toks[i][2]
                kind, text, col = toks[i + 1]
                if kind != "int":
                    raise ParseError("'^' requires an unsigned integer "
                                     "exponent", line, caret)
                i += 2
                n = _int(text, line, col)
                degree = n * _total_degree(v)
                if degree > MAX_POWER_DEGREE:
                    raise ParseError(f"power of degree {degree} exceeds the "
                                     f"cap of {MAX_POWER_DEGREE}", line, caret)
                v = v ** n
            prod = v if mul is None else mul(prod, v)
            mul = _MUL.get(toks[i][0])
            if mul is None:
                break
            i += 1
        total = prod if add is None else add(total, prod)
        add = _ADD.get(toks[i][0])
        if add is None:
            return total, i
        i += 1


def eval_expr(text, env, const, line=None, col_offset=0):
    """Evaluate an expression against named values; const maps an
    unsigned integer literal to a value."""
    toks = _tokenize(text, line, col_offset)
    value, i = _eval(toks, 0, env, const, line)
    kind, rest, col = toks[i]
    if kind != "end":
        raise ParseError(f"unexpected trailing {rest!r}", line, col)
    return value


class _Scope:
    """What the expressions of one parse see at one tower: T, the tower
    generators and the field generator by name, and integer literals,
    made once per reduced F_q element.  Every parse makes its own, so
    nothing outlives it."""

    __slots__ = ("tower", "env", "memo")

    def __init__(self, tower):
        fq = tower.fq
        self.tower = tower
        self.env = {"T": tower.T()}
        for anc in tower.ancestors()[1:]:
            self.env[anc.name] = tower.embed(anc.gen())
        if fq.e > 1:
            self.env[fq.gen_name] = tower.const(fq.p)
        self.memo = {}

    def const(self, n):
        c = self.tower.fq.elem(n)
        if c not in self.memo:
            self.memo[c] = self.tower.const(c)
        return self.memo[c]

    def values(self, vals):
        """The values of a list of _Val expressions."""
        return [eval_expr(v.text, self.env, self.const, v.line, v.col - 1)
                for v in vals]


class _Val(NamedTuple):
    """A raw value with its source position; JSON values have no line
    and start at column 1."""
    text: str
    line: object = None
    col: int = 1


@dataclass
class Manifest:
    field: FiniteField
    tower: FieldTower
    modules: dict
    subgroups: dict
    points: dict
    point_modules: dict
    polys: dict


_SECTION_KINDS = ("field", "tower", "module", "subgroup", "point", "poly")


def _ini_sections(text):
    """section list [(kind, name, {key: [values]}, line)] in file order."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno,
                                 len(line))
            inner = stripped[1:-1].strip()
            parts = inner.split(None, 1)
            kind = parts[0] if parts else ""
            if kind not in _SECTION_KINDS:
                raise ParseError(f"unknown section kind {kind!r}", lineno,
                                 line.index("[") + 2)
            name = parts[1].strip() if len(parts) > 1 else None
            if kind in ("field", "tower"):
                if name is not None:
                    raise ParseError(f"[{kind}] takes no name", lineno, 1)
            elif name is None:
                raise ParseError(f"[{kind}] needs a name", lineno, 1)
            current = (kind, name, {}, lineno)
            sections.append(current)
            continue
        if current is None:
            raise ParseError("content before any section header", lineno, 1)
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno, 1)
        key, _, value = line.partition("=")
        col = len(key) + 2
        key = key.strip()
        if not key:
            raise ParseError("empty key", lineno, 1)
        current[2].setdefault(key, []).append(_Val(value.strip(), lineno,
                                                   col + _lead(value)))
    return sections


def _lead(s):
    return len(s) - len(s.lstrip())


_SEPARATORS = re.compile(r"[\[\],]")


def _split_commas(val: _Val):
    """Split a value on top-level commas, keeping positions."""
    text = val.text
    cuts = [-1]
    depth = 0
    for m in _SEPARATORS.finditer(text):
        i = m.start()
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ']'", val.line, val.col + i)
        elif not depth:
            cuts.append(i)
    if depth != 0:
        raise ParseError("unbalanced '['", val.line, val.col + len(text))
    cuts.append(len(text))
    out = []
    for a, b in zip(cuts, cuts[1:]):
        part = text[a + 1:b]
        rest = part.lstrip()
        out.append(_Val(rest.rstrip(), val.line,
                        val.col + a + 1 + len(part) - len(rest)))
    return out


def _split_brackets(val: _Val):
    """Split 'row' values: bracket groups separated by commas."""
    groups = []
    i = 0
    text = val.text
    n = len(text)
    while i < n:
        while i < n and text[i] in " \t":
            i += 1
        if i >= n:
            break
        if text[i] != "[":
            raise ParseError("expected '['", val.line, val.col + i)
        j = text.find("]", i)
        if j < 0:
            raise ParseError("unbalanced '['", val.line, val.col + i)
        inner = text[i + 1:j]
        inner_val = _Val(inner.strip(), val.line,
                         val.col + i + 1 + _lead(inner))
        if inner_val.text:
            groups.append(_split_commas(inner_val))
        else:
            groups.append([])
        i = j + 1
        while i < n and text[i] in " \t":
            i += 1
        if i < n:
            if text[i] != ",":
                raise ParseError("expected ',' between groups", val.line,
                                 val.col + i)
            i += 1
    return groups


def _as_int(val: _Val, what):
    try:
        return int(val.text)
    except ValueError:
        raise ParseError(f"{what} must be an integer", val.line,
                         val.col) from None


def _json_sections(data):
    """Normalize the JSON document shape onto the INI section list."""

    def obj(x, what):
        if not isinstance(x, dict):
            raise ParseError(f"{what} must be an object")
        return x

    def section(key, default):
        x = data.get(key, default)
        if not isinstance(x, type(default)):
            kind = "an object" if isinstance(default, dict) else "a list"
            raise ParseError(f"JSON section {key!r} must be {kind}")
        return x

    obj(data, "top-level JSON value")
    sections = []

    def val(x, what):
        if isinstance(x, (int, float)):
            x = repr(x)
        if not isinstance(x, str):
            raise ParseError(f"{what} must be a string")
        return _Val(x)

    field = data.get("field")
    if field is not None:
        body = {k: [val(v, f"field.{k}")]
                for k, v in obj(field, "field").items()}
        sections.append(("field", None, body, None))
    for step in section("tower", []):
        if not isinstance(step, list) or len(step) != 2:
            raise ParseError("tower step must be a [name, coefficients] pair")
        name, coeffs = step
        sections.append(("tower", None, {str(name): [val(coeffs, "tower")]},
                         None))
    for kind in ("module", "subgroup", "point"):
        for name, entry in section(kind + "s", {}).items():
            body = {}
            for k, v in obj(entry, f"{kind} {name}").items():
                if kind == "subgroup" and k == "rows":
                    if not isinstance(v, list):
                        raise ParseError(f"subgroup {name} rows must be a "
                                         "list")
                    body["row"] = [val(r, f"subgroup {name} row") for r in v]
                else:
                    body[k] = [val(v, f"{kind} {name}.{k}")]
            sections.append((kind, name, body, None))
    for name, expr in section("polys", {}).items():
        sections.append(("poly", name, {"expr": [val(expr, "poly")]}, None))
    known = {"field", "tower", "modules", "subgroups", "points", "polys"}
    for k in data:
        if k not in known:
            raise ParseError(f"unknown top-level JSON key {k!r}")
    return sections


def _single(body, key, kind, line, required=True, default=None):
    vals = body.get(key)
    if not vals:
        if required:
            raise ParseError(f"[{kind}] is missing {key!r}", line, 1)
        return default
    if len(vals) > 1:
        raise ParseError(f"duplicate key {key!r}", vals[1].line, vals[1].col)
    return vals[0]


def _check_keys(body, allowed, kind, line):
    for k in body:
        if k not in allowed:
            raise ParseError(f"unknown key {k!r} in [{kind}]",
                             body[k][0].line, 1)


def _named(sections, kind, keys=None):
    """(name, body, line) of each [kind NAME] section in file order,
    refusing a name given twice and, when keys is given, any other key."""
    seen = set()
    for k, name, body, line in sections:
        if k != kind:
            continue
        if name in seen:
            raise ParseError(f"duplicate {kind} {name!r}", line, 1)
        seen.add(name)
        if keys is not None:
            _check_keys(body, keys, kind, line)
        yield name, body, line


def build_manifest(sections) -> Manifest:
    field = None
    for kind, _name, body, line in sections:
        if kind == "field":
            if field is not None:
                raise ParseError("duplicate [field] section", line, 1)
            _check_keys(body, {"p", "e", "modulus", "gen"}, "field", line)
            p = _as_int(_single(body, "p", "field", line), "p")
            e_val = _single(body, "e", "field", line, required=False)
            e = _as_int(e_val, "e") if e_val else 1
            modulus = None
            mod_val = _single(body, "modulus", "field", line, required=False)
            if mod_val:
                modulus = tuple(_as_int(v, "modulus coefficient")
                                for v in _split_commas(mod_val))
            gen_val = _single(body, "gen", "field", line, required=False)
            if gen_val and (gen_val.text == "T" or not _is_name(gen_val.text)):
                raise ParseError("field generator must be a name other than "
                                 f"'T', got {gen_val.text!r}", gen_val.line,
                                 gen_val.col)
            if gen_val and e == 1:
                raise ParseError("a prime field (e = 1) has no generator "
                                 f"to name, got gen = {gen_val.text}",
                                 gen_val.line, gen_val.col)
            try:
                field = FiniteField(p, e, modulus=modulus,
                                    gen_name=gen_val.text if gen_val else None)
            except Exception as exc:
                raise ParseError(str(exc), line, 1) from None
    if field is None:
        raise ParseError("no [field] section")

    tower = FieldTower(field)
    for kind, _name, body, line in sections:
        if kind == "tower":
            for name, vals in body.items():
                for val in vals:
                    if not _is_name(name):
                        raise ParseError("tower generator must be a name, "
                                         f"got {name!r}", val.line, val.col)
                    coeffs = _Scope(tower).values(_split_commas(val))
                    try:
                        tower = tower.extend(name, coeffs)
                    except Exception as exc:
                        raise ParseError(str(exc), val.line, val.col) from None

    scope = _Scope(tower)
    modules = {}
    for name, body, line in _named(sections, "module"):
        m_val = _single(body, "m", "module", line)
        m = _as_int(m_val, "m")
        if m < 1:
            raise ParseError(f"m must be at least 1, got {m}", m_val.line,
                             m_val.col)
        mats = {}
        for key, vals in body.items():
            if key == "m":
                continue
            digits = key[1:]
            if not (key.startswith("a") and digits.isascii()
                    and digits.isdigit()):
                raise ParseError(f"unknown key {key!r} in [module]",
                                 vals[0].line, 1)
            val = _single(body, key, "module", line)
            # int() refuses over 4,300 digits, so the length is tested first
            digits = digits.lstrip("0") or "0"
            if (len(digits) > len(str(MAX_POWER_DEGREE))
                    or int(digits) > MAX_POWER_DEGREE):
                raise ParseError(f"tau index of {key!r} exceeds the cap of "
                                 f"{MAX_POWER_DEGREE}", val.line, 1)
            idx = int(digits)
            if idx in mats:
                raise ParseError(f"duplicate key {key!r} (tau index {idx})",
                                 val.line, 1)
            entries = scope.values(_split_commas(val))
            if len(entries) != m * m:
                raise ParseError(f"{key} needs {m * m} entries, got "
                                 f"{len(entries)}", val.line, val.col)
            mats[idx] = Mat(tuple(tuple(entries[r * m + c] for c in range(m))
                                  for r in range(m)))
        if 0 not in mats:
            raise ParseError(f"[module {name}] is missing a0", line, 1)
        top = max(mats)
        zero = Mat.zeros(tower, m, m)
        seq = [mats.get(i, zero) for i in range(top + 1)]
        try:
            modules[name] = TModule(tower, seq)
        except Exception as exc:
            raise ParseError(str(exc), line, 1) from None

    subgroups = {}
    for name, body, line in _named(sections, "subgroup", {"module", "row"}):
        mod_val = _single(body, "module", "subgroup", line)
        if mod_val.text not in modules:
            raise ParseError(f"unknown module {mod_val.text!r}",
                             mod_val.line, mod_val.col)
        module = modules[mod_val.text]
        entries = []
        for val in body.get("row", []):
            groups = _split_brackets(val)
            if len(groups) != module.dimension:
                raise ParseError(f"row needs {module.dimension} bracket "
                                 f"groups, got {len(groups)}",
                                 val.line, val.col)
            entries.append([scope.values(group) for group in groups])
        try:
            subgroups[name] = KernelSubgroup.from_entries(module, entries)
        except Exception as exc:
            raise ParseError(str(exc), line, 1) from None

    points = {}
    point_modules = {}
    for name, body, line in _named(sections, "point", {"module", "coords"}):
        coords = scope.values(_split_commas(_single(body, "coords", "point",
                                                    line)))
        mod_val = _single(body, "module", "point", line, required=False)
        mod_name = None
        if mod_val:
            if mod_val.text not in modules:
                raise ParseError(f"unknown module {mod_val.text!r}",
                                 mod_val.line, mod_val.col)
            mod_name = mod_val.text
            if len(coords) != modules[mod_name].dimension:
                raise ParseError("point has wrong number of coordinates",
                                 line, 1)
        points[name] = tuple(coords)
        point_modules[name] = mod_name

    polys = {}
    for name, body, line in _named(sections, "poly", {"expr"}):
        val = _single(body, "expr", "poly", line)
        polys[name] = poly_from_text(field, val.text, val.line, val.col)
    return Manifest(field, tower, modules, subgroups, points, point_modules,
                    polys)


def _module_name(manifest: Manifest, module: TModule) -> str:
    for name, mod in manifest.modules.items():
        if mod is module:
            return name
    raise ValueError("module does not belong to this manifest")


def manifest_to_text(manifest: Manifest) -> str:
    """Normalized section rendering; parsing it back reproduces the
    manifest, and rendering is a fixed point on already-normal text."""
    f = manifest.field
    out = ["[field]", f"p = {f.p}"]
    if f.e > 1:
        out.append(f"e = {f.e}")
        out.append("modulus = " + ", ".join(str(c) for c in f.modulus))
        out.append(f"gen = {f.gen_name}")
    steps = [t for t in manifest.tower.ancestors() if t.parent is not None]
    if steps:
        out.append("")
        out.append("[tower]")
        for t in steps:
            out.append(f"{t.name} = "
                       + ", ".join(c.to_expr() for c in t.modulus))
    for name, mod in manifest.modules.items():
        out.append("")
        out.append(f"[module {name}]")
        out.append(f"m = {mod.dimension}")
        m = mod.dimension
        for i, mat in enumerate(mod.matrices):
            if i > 0 and mat.is_zero():
                continue
            entries = [mat[r, c].to_expr() for r in range(m)
                       for c in range(m)]
            out.append(f"a{i} = " + ", ".join(entries))
    for name, sub in manifest.subgroups.items():
        out.append("")
        out.append(f"[subgroup {name}]")
        out.append(f"module = {_module_name(manifest, sub.module)}")
        p = sub.presentation
        for r in range(p.rows):
            groups = []
            for c in range(p.cols):
                coeffs = [p.coeff(i)[r, c] for i in range(p.degree + 1)]
                while len(coeffs) > 1 and coeffs[-1].is_zero():
                    coeffs.pop()
                groups.append("[" + ", ".join(x.to_expr() for x in coeffs)
                              + "]")
            out.append("row = " + ", ".join(groups))
    for name, coords in manifest.points.items():
        out.append("")
        out.append(f"[point {name}]")
        mod_name = manifest.point_modules.get(name)
        if mod_name:
            out.append(f"module = {mod_name}")
        out.append("coords = " + ", ".join(x.to_expr() for x in coords))
    for name, poly in manifest.polys.items():
        out.append("")
        out.append(f"[poly {name}]")
        out.append(f"expr = {poly.to_expr()}")
    return "\n".join(out) + "\n"


def poly_from_text(field: FiniteField, text: str, line=None,
                   col=1) -> Poly:
    """Parse a base polynomial expression, as [poly] sections and --poly
    do; denominators are rejected.  Errors are placed as if the text
    began at column col of the given line."""
    scope = _Scope(FieldTower(field))
    elem = eval_expr(text, scope.env, scope.const, line, col - 1)
    rf = elem.data
    if rf.den.degree != 0 or not rf.den.is_monic():
        raise ParseError("base polynomial may not have a denominator",
                         line, col)
    return rf.num


def _unique_keys(pairs):
    """A JSON object's dict, refusing a repeated key; json.loads alone
    would keep the last value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_manifest(text: str) -> Manifest:
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", exc.lineno,
                             exc.colno) from None
        except RecursionError:
            raise ParseError("bad JSON: nested too deeply") from None
        return build_manifest(_json_sections(data))
    return build_manifest(_ini_sections(text))


def load_manifest(path) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read manifest: {exc}") from None
    return parse_manifest(text)
