"""The expression parser against a reference copy of its earlier,
closure-based form (kept below), on seeded valid and malformed inputs;
and the comma lists and bracket-group rows, which are now read from one
tokenization of the value, against the text splitters that cut each
value into parts before reading them one by one (also kept below).

Both sides must give the same value, or the same error with the same
message, line and column.  The inputs mix in non-ASCII letters and
digits, '_' and Unicode spaces, where str.isalpha, str.isdigit and
str.isspace differ from their ASCII reading.
"""

import random
import re
import sys
from dataclasses import dataclass

import pytest

from tml import manifest
from tml.errors import ParseError, TmlError, ZeroDivisor
from tml.fields import FieldTower, FiniteField
from tml.torsion import sqrt_tower

# -- reference: the tokenizer, evaluator and comma splitter as they were ------

_OPS = set("+-*/^")


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    col: int


def ref_tokenize(text, line=None, col_offset=0):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        col = col_offset + i + 1
        if ch.isspace():
            i += 1
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], col))
            i = j
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], col))
            i = j
        elif ch in _OPS:
            toks.append(_Tok("op", ch, col))
            i += 1
        elif ch == "(":
            toks.append(_Tok("lparen", ch, col))
            i += 1
        elif ch == ")":
            toks.append(_Tok("rparen", ch, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("end", "", col_offset + n + 1))
    return toks


def ref_eval_expr(text, env, const, line=None, col_offset=0):
    toks = ref_tokenize(text, line, col_offset)
    pos = 0

    def peek():
        return toks[pos]

    def take():
        nonlocal pos
        t = toks[pos]
        pos += 1
        return t

    def as_int(t):
        try:
            return int(t.text)
        except ValueError:
            # the one outcome changed since: a literal with a digit that
            # is not decimal, such as '²', is now named as not decimal
            if not t.text.isdecimal():
                raise ParseError(f"integer literal {t.text!r} is not "
                                 "decimal", line, t.col) from None
            raise ParseError(f"integer literal of {len(t.text)} digits is "
                             "too long", line, t.col) from None

    def parse_atom():
        t = take()
        if t.kind == "name":
            if t.text not in env:
                raise ParseError(f"unknown name {t.text!r}", line, t.col)
            return env[t.text]
        if t.kind == "int":
            return const(as_int(t))
        if t.kind == "lparen":
            v = parse_expr()
            closing = take()
            if closing.kind != "rparen":
                raise ParseError("expected ')'", line, closing.col)
            return v
        raise ParseError(f"expected a value, found {t.text or 'end'!r}",
                         line, t.col)

    def parse_factor():
        v = parse_atom()
        t = peek()
        if t.kind == "op" and t.text == "^":
            caret = take()
            e = peek()
            if e.kind != "int":
                raise ParseError("'^' requires an unsigned integer exponent",
                                 line, caret.col)
            take()
            n = as_int(e)
            degree = n * manifest._total_degree(v)
            if degree > manifest.MAX_POWER_DEGREE:
                raise ParseError(f"power of degree {degree} exceeds the cap "
                                 f"of {manifest.MAX_POWER_DEGREE}", line,
                                 caret.col)
            v = v ** n
        return v

    def parse_term():
        v = parse_factor()
        while peek().kind == "op" and peek().text in ("*", "/"):
            op = take()
            w = parse_factor()
            if op.text == "*":
                v = v * w
                continue
            try:
                v = v / w
            except ZeroDivisor as exc:
                # the other outcome changed since: a division by a zero
                # divisor is now a parse error placed at its '/'
                raise ParseError(str(exc), line, op.col) from None
        return v

    def parse_expr():
        v = parse_term()
        while peek().kind == "op" and peek().text in ("+", "-"):
            op = take()
            w = parse_term()
            v = v + w if op.text == "+" else v - w
        return v

    value = parse_expr()
    t = peek()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing {t.text!r}", line, t.col)
    return value


def _lead(s):
    return len(s) - len(s.lstrip())


def ref_split_commas(text, line, col):
    """(text, line, col) of each top-level part."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ']'", line, col + i)
        elif ch == "," and depth == 0:
            parts.append((text[start:i], start))
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced '['", line, col + len(text))
    parts.append((text[start:], start))
    return [(p.strip(), line, col + off + _lead(p)) for p, off in parts]


def ref_split_brackets(text, line, col):
    """The parts of each bracket group of a 'row' value."""
    groups = []
    i = 0
    n = len(text)
    while i < n:
        while i < n and text[i] in " \t":
            i += 1
        if i >= n:
            break
        if text[i] != "[":
            raise ParseError("expected '['", line, col + i)
        j = text.find("]", i)
        if j < 0:
            raise ParseError("unbalanced '['", line, col + i)
        inner = text[i + 1:j]
        if inner.strip():
            groups.append(ref_split_commas(inner.strip(), line,
                                           col + i + 1 + _lead(inner)))
        else:
            groups.append([])
        i = j + 1
        while i < n and text[i] in " \t":
            i += 1
        if i < n:
            if text[i] != ",":
                raise ParseError("expected ',' between groups", line,
                                 col + i)
            i += 1
    return groups


def ref_row(text, line, col, n, env, const):
    """A row as build_manifest read it: split, count, then evaluate."""
    groups = ref_split_brackets(text, line, col)
    if len(groups) != n:
        raise ParseError(f"row needs {n} bracket groups, got {len(groups)}",
                         line, col)
    return [[ref_eval_expr(part, env, const, pline, pcol - 1)
             for part, pline, pcol in group] for group in groups]


def ref_ints(text, line, col):
    """int() of each part, as the field modulus read it."""
    out = []
    for part, pline, pcol in ref_split_commas(text, line, col):
        try:
            out.append(int(part))
        except ValueError:
            raise ParseError("entry must be an integer", pline,
                             pcol) from None
    return out


# -- inputs ------------------------------------------------------------------

SCOPES = {
    "F2": lambda: FieldTower(FiniteField(2)),
    "F3": lambda: FieldTower(FiniteField(3)),
    "F9-gen": lambda: FieldTower(FiniteField(3, 2, gen_name="α")),
    "F4-U2=T": lambda: sqrt_tower(FieldTower(FiniteField(2, 2))),
}

# U+00A0 no-break space, U+2003 em space, U+202F narrow no-break space,
# U+3000 ideographic space, U+0085 next line
SPACES = ["", "", " ", " ", "\t", "\u00a0", "\u2003", "\u202f", "\u3000",
          "\u0085"]
# ARABIC-INDIC DIGIT THREE is a decimal digit and reads as 3; SUPERSCRIPT
# TWO is a digit int() refuses; VULGAR FRACTION ONE HALF is numeric but
# no digit
LITERALS = ["0", "1", "2", "3", "4", "12", "٣", "1٣"]
UNKNOWN = ["é", "Tα", "x_1", "U2", "T²", "g½", "αβ"]
ODD = ["", " ", "\u00a0", "½", "²", "_T", "T^10001", "(T + 1)^٣٣٣٣٣"]
NOISE = "+-*/^()[],_ \u00a0\u2003éαT0123g٣²½xU"


def _sp(rng):
    return rng.choice(SPACES)


def _expr(rng, names, depth):
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 2)):
            r = rng.random()
            if depth and r < 0.2:
                atom = "(" + _sp(rng) + _expr(rng, names, depth - 1) + ")"
            elif r < 0.6:
                atom = rng.choice(names)
            else:
                atom = rng.choice(LITERALS)
            if rng.random() < 0.3:
                atom += _sp(rng) + "^" + _sp(rng) + rng.choice(
                    ["0", "1", "2", "3", "4", "٣"])
            factors.append(atom)
        terms.append((_sp(rng) + rng.choice("*/") + _sp(rng)).join(factors))
    return (_sp(rng) + rng.choice("+-") + _sp(rng)).join(terms)


def _mutate(rng, text):
    """One to three inserted, deleted or replaced characters."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        ch = rng.choice(NOISE)
        if op == 0 or i == len(text):
            text = text[:i] + ch + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + ch + text[i + 1:]
    return text


def _text(rng, names):
    r = rng.random()
    if r < 0.1:
        return rng.choice(UNKNOWN + ODD)
    text = _expr(rng, names, 2)
    return _mutate(rng, text) if r < 0.55 else text


# texts int() reads, or refuses, differently from the expression grammar
INTS = ["0", "1", "12", "-1", "+2", "٣", "1_0", "²", "1 2", "x", ""]


def _list_text(rng, names):
    r = rng.random()
    parts = [rng.choice(INTS) if r < 0.2 else _text(rng, names)
             for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        parts = ["[" + p + "]" for p in parts]
    text = ",".join(_sp(rng) + p + _sp(rng) for p in parts)
    return _mutate(rng, text) if rng.random() < 0.2 else text


def _row_text(rng, names):
    """One to three bracket groups of zero to three expressions, with
    ' ', '\t' or other spaces around them and perhaps a trailing ','."""
    clean = rng.random() < 0.5
    groups = []
    for _ in range(rng.randint(1, 3)):
        parts = [_expr(rng, names, 1) if clean else _text(rng, names)
                 for _ in range(rng.randint(0, 3))]
        inner = ",".join(_sp(rng) + p + _sp(rng) for p in parts)
        groups.append(rng.choice(["", "", " ", " ", "\t", "\u00a0"]) + "["
                      + inner + "]"
                      + rng.choice(["", "", " ", " ", "\t ", "\u2003"]))
    text = ",".join(groups) + rng.choice(["", "", ",", ", ", " ,\t"])
    return _mutate(rng, text) if rng.random() < 0.35 else text


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except ParseError as exc:
        return ("parse error", str(exc), exc.line, exc.col)
    except TmlError as exc:
        return (type(exc).__name__, str(exc))


# -- tests -------------------------------------------------------------------

def test_word_and_space_classes_are_the_str_predicates():
    """The tokenizer's runs rely on re's \\s being str.isspace and \\w
    being str.isalnum or '_', over every code point."""
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\s", chars)) == {c for c in chars if c.isspace()}
    assert set(re.findall(r"\w", chars)) == {
        c for c in chars if c.isalnum() or c == "_"}


def _ref_const(tower):
    return lambda n: tower.const(tower.fq.elem(n))


@pytest.mark.parametrize("scope", sorted(SCOPES))
def test_expressions_match_reference(scope):
    tower = SCOPES[scope]()
    env = manifest._Scope(tower).env
    names = sorted(env)
    rng = random.Random(f"expr-{scope}")
    kinds = set()
    for _ in range(250):
        text = _text(rng, names)
        line = rng.choice([None, 1, 7])
        col_offset = rng.randrange(12)
        new = _outcome(manifest._Scope(tower).expr, text, line,
                       col_offset + 1)
        ref = _outcome(ref_eval_expr, text, env, _ref_const(tower), line,
                       col_offset)
        assert new == ref, text
        kinds.add(new[0])
    assert {"value", "parse error"} <= kinds


@pytest.mark.parametrize("scope", sorted(SCOPES))
def test_comma_lists_match_reference(scope):
    tower = SCOPES[scope]()
    env = manifest._Scope(tower).env
    names = sorted(env)
    rng = random.Random(f"list-{scope}")
    kinds = set()
    for _ in range(120):
        text = _list_text(rng, names)
        line = rng.choice([None, 3])
        col = rng.randrange(1, 9)
        val = (text, line, col)
        # the parts and their positions, through int() as the field
        # modulus reads them
        new = _outcome(manifest._ints, val, "entry")
        ref = _outcome(ref_ints, text, line, col)
        assert new == ref, text
        kinds.add(new[0])
        # the values as build_manifest reads them: the first error wins
        new = _outcome(manifest._Scope(tower).values, val)
        ref = _outcome(lambda: [
            ref_eval_expr(part, env, _ref_const(tower), pline, pcol - 1)
            for part, pline, pcol in ref_split_commas(text, line, col)])
        assert new == ref, text
        kinds.add(new[0])
    assert {"value", "parse error"} <= kinds


@pytest.mark.parametrize("scope", sorted(SCOPES))
def test_rows_match_reference(scope):
    tower = SCOPES[scope]()
    env = manifest._Scope(tower).env
    names = sorted(env)
    rng = random.Random(f"row-{scope}")
    kinds = set()
    messages = set()
    for _ in range(150):
        text = _row_text(rng, names)
        n = rng.choice([text.count("["), text.count("["), 1, 2])
        line = rng.choice([None, 5])
        col = rng.randrange(1, 9)
        new = _outcome(manifest._Scope(tower).row, (text, line, col), n)
        ref = _outcome(ref_row, text, line, col, n, env, _ref_const(tower))
        assert new == ref, text
        kinds.add(new[0])
        if new[0] == "parse error":
            messages.add(re.sub(r" \(.*| bracket groups.*", "", new[1]))
    assert {"value", "parse error"} <= kinds
    # each of the row's own errors, besides those of its expressions
    assert {"expected '['", "expected ',' between groups", "unbalanced '['",
            "row needs 1", "row needs 2"} <= messages


def test_literals_of_one_parse_share_one_object_per_element():
    tower = SCOPES["F3"]()
    scope = manifest._Scope(tower)
    assert scope.const(1) is scope.const(4)
    assert scope.const(0) is not scope.const(1)
    # 0 and 1 are the tower's shared zero and one; the memo of any other
    # literal dies with its scope
    assert scope.const(1) is tower.one()
    assert scope.const(3) is tower.zero()
    assert scope.const(2) is scope.const(5)
    assert manifest._Scope(tower).const(2) is not scope.const(2)
