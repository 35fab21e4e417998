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
as the JSON equivalent instead; both share the same value syntax.  Each
value is tokenized once; ',' and '[ ]' separate entries only in
list-valued keys.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import re

from .errors import InputError, ParseError, ZeroDivisor
from .fields import FiniteField, FieldTower, Poly
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


def _tokenize(text, col_offset=0):
    """(tokens, marks) of a value.  Tokens are (kind, text, col) ending in
    'end'; kind is 'name', 'int', an operator or parenthesis, ',' or ']'.
    A ',', ']' or 'end' has text '' and the col where the entry before it,
    read alone, would end.  Marks are (next token's index, char, col) of
    each ',', '[', ']' and character no token holds, in text order."""
    toks, marks = [], []
    col = col_offset + 1
    end = 0  # col after the open entry's last token; 0 while it has none
    for run in _RUNS.findall(text):
        ch = run[0]
        if ch in ",]":
            marks.append((len(toks), ch, col))
            toks.append((ch, "", end or col))
            end = 0
        elif ch in "+-*/^()":
            toks.append((ch, ch, col))
            end = col + 1
        elif ch.isalpha():
            toks.append(("name", run, col))
            end = col + len(run)
        elif ch.isdigit():
            j = 1
            while j < len(run) and run[j].isdigit():
                j += 1
            toks.append(("int", run[:j], col))
            if j < len(run):
                if run[j].isalpha():
                    toks.append(("name", run[j:], col + j))
                else:
                    marks.append((len(toks), run[j], col + j))
            end = col + len(run)
        elif ch == "[":
            marks.append((len(toks), ch, col))
            end = 0
        elif not ch.isspace():
            marks.append((len(toks), ch, col))
        col += len(run)
    toks.append(("end", "", end or col))
    return toks, marks


def _is_name(text):
    """Whether text is one name token: a word run that starts with a letter."""
    return text[:1].isalpha() and _RUNS.fullmatch(text) is not None


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
    reading order, a division by a zero divisor at its '/'.  env keeps
    each literal it reads under its text, which no name can be."""
    total = add = None
    while True:
        prod = mul = None
        while True:
            kind, text, col = toks[i]
            i += 1
            if text in env:
                v = env[text]
            elif kind == "int":
                v = env[text] = const(_int(text, line, col))
            elif kind == "name":
                raise ParseError(f"unknown name {text!r}", line, col)
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
            try:
                prod = v if mul is None else mul(prod, v)
            except ZeroDivisor as exc:
                raise ParseError(str(exc), line, op) from None
            kind, _, op = toks[i]
            mul = _MUL.get(kind)
            if mul is None:
                break
            i += 1
        total = prod if add is None else add(total, prod)
        add = _ADD.get(toks[i][0])
        if add is None:
            return total, i
        i += 1


def _balance(marks, line, end):
    """Refuse a ']' that closes nothing, and a '[' still open at col end."""
    depth = 0
    for _, ch, col in marks:
        depth += (ch == "[") - (ch == "]")
        if depth < 0:
            raise ParseError("unbalanced ']'", line, col)
    if depth:
        raise ParseError("unbalanced '['", line, end)


class _Scope:
    """What the expressions of one parse see at one tower: T, the tower
    generators and the field generator by name, and integer literals,
    made once per reduced F_q element and kept in env under their text.
    Every parse makes its own, so nothing outlives it."""

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

    def _entries(self, toks, i, stop, marks, line):
        """The values of the comma-separated entries in toks[i:stop], with
        their marks; an entry with any other mark is refused unread."""
        env = self.env
        out = []
        for idx, ch, col in (*marks, (stop, ",", 0)):
            if ch != ",":
                raise ParseError(f"unexpected character {ch!r}", line, col)
            v, i = _eval(toks, i, env, self.const, line)
            if i != idx:
                _, rest, col = toks[i]
                raise ParseError(f"unexpected trailing {rest!r}", line, col)
            out.append(v)
            i = idx + 1
        return out

    def values(self, val):
        """The values of a comma list, one expression per entry."""
        text, line, col = val
        toks, marks = _tokenize(text, col - 1)
        if "[" in text or "]" in text:
            _balance(marks, line, col + len(text))
        return self._entries(toks, 0, len(toks) - 1, marks, line)

    def row(self, val, n):
        """The values of a row of n bracket groups of comma lists,
        '[a, b], [c]', perhaps with a trailing ','.  A group ends at the
        first ']', and only ' ' and '\\t' may stand between groups."""
        text, line, base = val
        toks, marks = _tokenize(text, base - 1)
        groups = []
        i, pos, want = 0, base, "["  # next token and col outside groups
        marks = iter((*marks, (len(toks) - 1, "", base + len(text))))
        for idx, ch, col in marks:
            at = toks[i][2] if i < idx else col
            rest = text[pos - base:at - base].lstrip(" \t")
            if rest or i < idx or ch not in (want, ""):
                raise ParseError("expected '['" if want == "[" else
                                 "expected ',' between groups", line,
                                 at - len(rest))
            if not ch:
                break
            if ch == ",":
                i, pos, want = idx + 1, col + 1, "["
                continue
            inner = []  # the marks up to the first ']'
            for mark in marks:
                if mark[1] in ("]", ""):
                    break
                inner.append(mark)
            stop, close, shut = mark
            if not close:
                raise ParseError("unbalanced '['", line, col)
            if any(m[1] == "[" for m in inner):
                raise ParseError("unbalanced '['", line,
                                 base + len(text[:shut - base].rstrip()))
            groups.append((idx, stop, inner) if idx < stop or inner else None)
            i, pos, want = stop + 1, shut + 1, ","
        if len(groups) != n:
            raise ParseError(f"row needs {n} bracket groups, got "
                             f"{len(groups)}", line, base)
        return [self._entries(toks, *g, line) if g else [] for g in groups]

    def expr(self, text, line=None, col=1):
        """The value of one expression, placed as if the text began at
        column col of the given line."""
        toks, marks = _tokenize(text, col - 1)
        if marks:
            _, ch, at = marks[0]
            raise ParseError(f"unexpected character {ch!r}", line, at)
        toks[-1] = ("end", "", col + len(text))
        value, i = _eval(toks, 0, self.env, self.const, line)
        _, rest, at = toks[i]
        if rest:
            raise ParseError(f"unexpected trailing {rest!r}", line, at)
        return value

    def poly(self, text, line=None, col=1):
        """A base polynomial, read as expr reads it; a denominator is
        refused."""
        rf = self.expr(text, line, col).data
        if rf.den.degree != 0 or not rf.den.is_monic():
            raise ParseError("base polynomial may not have a denominator",
                             line, col)
        return rf.num


@dataclasses.dataclass
class Manifest:
    field: FiniteField
    tower: FieldTower
    modules: dict
    subgroups: dict
    points: dict
    point_modules: dict
    polys: dict
    # the scope at the tower's base that reads [poly] sections and --poly
    base: _Scope = dataclasses.field(default=None, repr=False, compare=False)


_SECTION_KINDS = ("field", "tower", "module", "subgroup", "point", "poly")


def _ini_sections(text):
    """{kind: [(name, {key: [values]}, line)]}, each list in file order."""
    sections = {kind: [] for kind in _SECTION_KINDS}
    body = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).rstrip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if key[:1] == "[":  # exactly when the stripped line starts with '['
            head = line.lstrip()
            if head[-1] != "]":
                raise ParseError("unterminated section header", lineno,
                                 len(line))
            parts = head[1:-1].split(None, 1)
            kind = parts[0] if parts else ""
            if kind not in sections:
                raise ParseError(f"unknown section kind {kind!r}", lineno,
                                 line.index("[") + 2)
            name = parts[1].strip() if len(parts) > 1 else None
            if kind in ("field", "tower"):
                if name is not None:
                    raise ParseError(f"[{kind}] takes no name", lineno, 1)
            elif name is None:
                raise ParseError(f"[{kind}] needs a name", lineno, 1)
            body = {}
            sections[kind].append((name, body, lineno))
            continue
        if body is None:
            raise ParseError("content before any section header", lineno, 1)
        if not eq:
            raise ParseError("expected 'key = value'", lineno, 1)
        if not key:
            raise ParseError("empty key", lineno, 1)
        value = value.lstrip()
        body.setdefault(key, []).append(
            (value, lineno, len(line) - len(value) + 1))
    return sections


def _as_int(val, what):
    try:
        return int(val[0])
    except ValueError:
        raise ParseError(f"{what} must be an integer", *val[1:]) from None


def _ints(val, what):
    """int() of each entry of a comma list.  A ',' inside brackets cuts
    only an entry that int() refuses at its first character anyway."""
    text, line, col = val
    _balance(_tokenize(text, col - 1)[1], line, col + len(text))
    out = []
    for part in text.split(","):
        rest = part.lstrip()
        out.append(_as_int((rest.rstrip(), line, col + len(part) - len(rest)),
                           what))
        col += len(part) + 1
    return out


def _json_sections(data):
    """Normalize the JSON document shape onto the INI sections; a value
    is (text, None, 1), with no line."""

    def need(x, kind, *message):
        if not isinstance(x, kind):
            raise ParseError("".join(message))
        return x

    def val(x, *what):
        if isinstance(x, str):
            return (x, None, 1)
        if isinstance(x, (int, float)):
            return (repr(x), None, 1)
        raise ParseError("".join(what) + " must be a string")

    def section(key, default):
        kind = "an object" if isinstance(default, dict) else "a list"
        return need(data.get(key, default), type(default), "JSON section ",
                    repr(key), " must be ", kind)

    need(data, dict, "top-level JSON value must be an object")
    sections = {kind: [] for kind in _SECTION_KINDS}
    field = data.get("field")
    if field is not None:
        need(field, dict, "field must be an object")
        body = {k: [val(v, "field.", k)] for k, v in field.items()}
        sections["field"].append((None, body, None))
    for step in section("tower", []):
        if not isinstance(step, list) or len(step) != 2:
            raise ParseError("tower step must be a [name, coefficients] pair")
        name, coeffs = step
        body = {str(name): [val(coeffs, "tower")]}
        sections["tower"].append((None, body, None))
    for kind in ("module", "subgroup", "point"):
        for name, entry in section(kind + "s", {}).items():
            need(entry, dict, kind, " ", name, " must be an object")
            body = {}
            for k, v in entry.items():
                if kind == "subgroup" and k == "rows":
                    need(v, list, "subgroup ", name, " rows must be a list")
                    body["row"] = [val(r, "subgroup ", name, " row")
                                   for r in v]
                else:
                    body[k] = [val(v, kind, " ", name, ".", k)]
            sections[kind].append((name, body, None))
    for name, expr in section("polys", {}).items():
        sections["poly"].append((name, {"expr": [val(expr, "poly")]}, None))
    known = {"field", "tower", "modules", "subgroups", "points", "polys"}
    for k in data:
        if k not in known:
            raise ParseError(f"unknown top-level JSON key {k!r}")
    return sections


def _single(body, key, kind, line, required=True):
    vals = body.get(key)
    if not vals and required:
        raise ParseError(f"[{kind}] is missing {key!r}", line, 1)
    if vals and len(vals) > 1:
        raise ParseError(f"duplicate key {key!r}", *vals[1][1:])
    return vals[0] if vals else None


def _named(sections, kind, keys=None):
    """(name, body, line) of each [kind NAME] section in file order,
    refusing a name given twice and, when keys is given, any other key."""
    seen = set()
    for name, body, line in sections[kind]:
        if name in seen:
            raise ParseError(f"duplicate {kind} {name!r}", line, 1)
        seen.add(name)
        if keys is not None and not keys.issuperset(body):
            k = next(k for k in body if k not in keys)
            raise ParseError(f"unknown key {k!r} in [{kind}]",
                             body[k][0][1], 1)
        yield name, body, line


def build_manifest(sections) -> Manifest:
    """The manifest of the sections that either reader returns."""
    fields = sections["field"]
    if not fields:
        raise ParseError("no [field] section")
    _, body, line = fields[0]
    for k in body:
        if k not in ("p", "e", "modulus", "gen"):
            raise ParseError(f"unknown key {k!r} in [field]", body[k][0][1], 1)
    p = _as_int(_single(body, "p", "field", line), "p")
    e_val = _single(body, "e", "field", line, required=False)
    e = _as_int(e_val, "e") if e_val else 1
    mod_val = _single(body, "modulus", "field", line, required=False)
    modulus = tuple(_ints(mod_val, "modulus coefficient")) if mod_val else None
    gen_val = _single(body, "gen", "field", line, required=False)
    gen = gen_val[0] if gen_val else None
    if gen_val and (gen == "T" or not _is_name(gen)):
        raise ParseError("field generator must be a name other than "
                         f"'T', got {gen!r}", *gen_val[1:])
    if gen_val and e == 1:
        raise ParseError("a prime field (e = 1) has no generator "
                         f"to name, got gen = {gen}", *gen_val[1:])
    try:
        field = FiniteField(p, e, modulus=modulus, gen_name=gen)
    except Exception as exc:
        raise ParseError(str(exc), line, 1) from None
    if len(fields) > 1:
        raise ParseError("duplicate [field] section", fields[1][2], 1)

    base = tower = FieldTower(field)
    for _name, body, _line in sections["tower"]:
        for name, vals in body.items():
            for val in vals:
                if not _is_name(name):
                    raise ParseError("tower generator must be a name, "
                                     f"got {name!r}", *val[1:])
                coeffs = _Scope(tower).values(val)
                try:
                    tower = tower.extend(name, coeffs)
                except Exception as exc:
                    raise ParseError(str(exc), *val[1:]) from None

    scope = _Scope(tower)
    modules = {}
    for name, body, line in _named(sections, "module"):
        m_val = _single(body, "m", "module", line)
        m = _as_int(m_val, "m")
        if m < 1:
            raise ParseError(f"m must be at least 1, got {m}", *m_val[1:])
        mats = {}
        for key, vals in body.items():
            if key == "m":
                continue
            digits = key[1:]
            if not (key.startswith("a") and digits.isascii()
                    and digits.isdigit()):
                raise ParseError(f"unknown key {key!r} in [module]",
                                 vals[0][1], 1)
            val = _single(body, key, "module", line)
            # int() refuses over 4,300 digits, so the length is tested first
            digits = digits.lstrip("0") or "0"
            if (len(digits) > len(str(MAX_POWER_DEGREE))
                    or int(digits) > MAX_POWER_DEGREE):
                raise ParseError(f"tau index of {key!r} exceeds the cap of "
                                 f"{MAX_POWER_DEGREE}", val[1], 1)
            idx = int(digits)
            if idx in mats:
                raise ParseError(f"duplicate key {key!r} (tau index {idx})",
                                 val[1], 1)
            entries = scope.values(val)
            if len(entries) != m * m:
                raise ParseError(f"{key} needs {m * m} entries, got "
                                 f"{len(entries)}", *val[1:])
            mats[idx] = entries
        if 0 not in mats:
            raise ParseError(f"[module {name}] is missing a0", line, 1)
        # phi_T's entry (r, c) lists a_i[r, c] by i, None (0) for a skipped i
        got = [mats.get(i) for i in range(max(mats) + 1)]
        modules[name] = TModule._of(tower, [
            [[a and a[r * m + c] for a in got] for c in range(m)]
            for r in range(m)])

    subgroups = {}
    for name, body, line in _named(sections, "subgroup", {"module", "row"}):
        mod_val = _single(body, "module", "subgroup", line)
        if mod_val[0] not in modules:
            raise ParseError(f"unknown module {mod_val[0]!r}", *mod_val[1:])
        module = modules[mod_val[0]]
        entries = [scope.row(val, module.dimension)
                   for val in body.get("row", ())]
        try:
            subgroups[name] = KernelSubgroup.from_entries(module, entries)
        except Exception as exc:
            raise ParseError(str(exc), line, 1) from None

    points = {}
    point_modules = {}
    for name, body, line in _named(sections, "point", {"module", "coords"}):
        coords = scope.values(_single(body, "coords", "point", line))
        mod_val = _single(body, "module", "point", line, required=False)
        mod_name = mod_val[0] if mod_val else None
        if mod_val:
            if mod_name not in modules:
                raise ParseError(f"unknown module {mod_name!r}", *mod_val[1:])
            if len(coords) != modules[mod_name].dimension:
                raise ParseError("point has wrong number of coordinates",
                                 line, 1)
        points[name] = tuple(coords)
        point_modules[name] = mod_name

    base = scope if tower is base else _Scope(base)
    polys = {name: base.poly(*_single(body, "expr", "poly", line))
             for name, body, line in _named(sections, "poly", {"expr"})}
    return Manifest(field, tower, modules, subgroups, points, point_modules,
                    polys, base)


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
        out += [f"e = {f.e}",
                "modulus = " + ", ".join(str(c) for c in f.modulus),
                f"gen = {f.gen_name}"]
    steps = [t for t in manifest.tower.ancestors() if t.parent is not None]
    if steps:
        out += ["", "[tower]"] + [
            f"{t.name} = " + ", ".join(c.to_expr() for c in t.modulus)
            for t in steps]
    for name, mod in manifest.modules.items():
        m = mod.dimension
        out += ["", f"[module {name}]", f"m = {m}"]
        for i, mat in enumerate(mod.matrices):
            if i == 0 or not mat.is_zero():
                out.append(f"a{i} = " + ", ".join(
                    mat[r, c].to_expr() for r in range(m) for c in range(m)))
    for name, sub in manifest.subgroups.items():
        out += ["", f"[subgroup {name}]",
                f"module = {_module_name(manifest, sub.module)}"]
        zero = sub.module.tower.zero()
        for row in sub.presentation.entries:
            out.append("row = " + ", ".join(
                "[" + ", ".join(x.to_expr() for x in e or (zero,)) + "]"
                for e in row))
    for name, coords in manifest.points.items():
        out += ["", f"[point {name}]"]
        mod_name = manifest.point_modules.get(name)
        if mod_name:
            out.append(f"module = {mod_name}")
        out.append("coords = " + ", ".join(x.to_expr() for x in coords))
    for name, poly in manifest.polys.items():
        out += ["", f"[poly {name}]", f"expr = {poly.to_expr()}"]
    return "\n".join(out) + "\n"


def poly_from_text(field: FiniteField, text: str, line=None, col=1) -> Poly:
    """Parse a base polynomial expression as a [poly] section does, in a
    scope of its own."""
    return _Scope(FieldTower(field)).poly(text, line, col)


def _unique_keys(pairs):
    """A JSON object's dict, refusing a repeated key; json.loads alone
    would keep the last value silently."""
    obj = dict(pairs)
    if len(obj) < len(pairs):  # the first key met twice
        keys = [key for key, _ in pairs]
        dup = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ParseError(f"duplicate key {dup!r}")
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
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read manifest: {exc}") from None
    # the universal newlines that a text-mode read gives
    return parse_manifest(text.replace("\r\n", "\n").replace("\r", "\n"))
