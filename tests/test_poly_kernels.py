"""Poly and RatFunc against a schoolbook reference on plain int lists.

The reference below does its own F_q arithmetic on base-p digit vectors
reduced by the field's modulus, so it shares no code with the packed F_2
kernels or FiniteField's tables.
"""

import functools
import random
from collections import Counter

import pytest

from tml.errors import BadParameter, FieldMismatch
from tml.fields import TABLE_LIMIT, FiniteField, Poly, RatFunc

FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]


class RefField:
    """F_q on encoded ints: each entry is computed digit by digit from the
    modulus when it is first asked for, then remembered."""

    def __init__(self, field):
        p, e, q, m = field.p, field.e, field.q, field.modulus

        def digits(a):
            return [(a // p ** i) % p for i in range(e)]

        def enc(ds):
            return sum(d * p ** i for i, d in enumerate(ds))

        @functools.cache
        def add(a, b):
            return enc([(x + y) % p for x, y in zip(digits(a), digits(b))])

        @functools.cache
        def mul(a, b):
            conv = [0] * (2 * e - 1)
            for i, x in enumerate(digits(a)):
                for j, y in enumerate(digits(b)):
                    conv[i + j] += x * y
            for k in range(len(conv) - 1, e - 1, -1):
                for i in range(e):
                    conv[k - e + i] -= conv[k] * m[i]
            return enc([c % p for c in conv[:e]])

        @functools.cache
        def neg(a):
            return enc([-x % p for x in digits(a)])

        @functools.cache
        def inv(a):
            return next(b for b in range(1, q) if mul(a, b) == 1)

        self.q = q
        self.add, self.mul, self.neg, self.inv = add, mul, neg, inv


def strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(F, a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return strip(F.add(x, y) for x, y in zip(a, b))


def ref_sub(F, a, b):
    return ref_add(F, a, [F.neg(y) for y in b])


def ref_mul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return strip(out)


def ref_scale(F, a, c):
    return strip(F.mul(x, c) for x in a)


def ref_divmod(F, a, b):
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    inv = F.inv(b[-1])
    for off in reversed(range(len(quo))):
        c = F.mul(rem[off + len(b) - 1], inv)
        quo[off] = c
        for i, y in enumerate(b):
            rem[off + i] = F.add(rem[off + i], F.neg(F.mul(c, y)))
    return strip(quo), strip(rem[:len(b) - 1])


def ref_monic(F, a):
    return ref_scale(F, a, F.inv(a[-1])) if a else []


def ref_gcd(F, a, b):
    while b:
        a, b = b, ref_divmod(F, a, b)[1]
    return ref_monic(F, a)


def ref_stretch(a, k):
    out = [0] * ((len(a) - 1) * k + 1) if a else []
    for i, c in enumerate(a):
        out[i * k] = c
    return out


def ref_gf2_stretch(rep, k):
    """The earlier F_2 stretch: k - 1 zeros between binary digits."""
    return int(("0" * (k - 1)).join(bin(rep)[2:]), 2) if rep else 0


def ref_ratfunc(F, num, den):
    if not num:
        return [], [1]
    g = ref_gcd(F, num, den)
    num, den = ref_divmod(F, num, g)[0], ref_divmod(F, den, g)[0]
    c = F.inv(den[-1])
    return ref_scale(F, num, c), ref_scale(F, den, c)


def random_coeffs(rng, q, degree, trailing=0):
    """A coefficient list of the given degree (nonzero top unless zero
    polynomial is asked for by degree -1), then trailing zeros."""
    if degree < 0:
        return [0] * trailing
    cs = [rng.randrange(q) for _ in range(degree)] + [rng.randrange(1, q)]
    return cs + [0] * trailing


def operand_lists(rng, q):
    degrees = [-1, 0, 0, 1, 2, 3, 7, 16, 31, 60] + [rng.randrange(61)
                                                    for _ in range(6)]
    return [random_coeffs(rng, q, d, rng.choice((0, 0, 1, 3)))
            for d in degrees]


def check_against_reference(field, ops, rng, partners, scalars):
    F = RefField(field)
    for xs in ops:
        x = Poly(field, xs)
        want = strip(xs)
        assert list(x.coeffs) == want
        assert Poly(field, x.coeffs) == x
        assert x.degree == len(want) - 1
        assert x.is_zero() == (not want)
        assert list((-x).coeffs) == strip(F.neg(c) for c in want)
        assert list(x.monic().coeffs) == ref_monic(F, want)
        for k in (2, field.q, field.q ** 2):
            assert list(x.stretch(k).coeffs) == ref_stretch(want, k)
        for c in scalars:
            assert list(x.scale(c).coeffs) == ref_scale(F, want, c)
        for ys in rng.sample(ops, partners):
            y = Poly(field, ys)
            b = strip(ys)
            assert list((x + y).coeffs) == ref_add(F, want, b)
            assert list((x - y).coeffs) == ref_sub(F, want, b)
            assert list((x * y).coeffs) == ref_mul(F, want, b)
            assert list(x.gcd(y).coeffs) == ref_gcd(F, want, b)
            if b:
                quo, rem = divmod(x, y)
                assert (list(quo.coeffs), list(rem.coeffs)) == ref_divmod(
                    F, want, b)


@pytest.mark.parametrize("p,e", FIELDS)
def test_poly_matches_schoolbook_reference(p, e):
    field = FiniteField(p, e)
    rng = random.Random(7000 + 10 * p + e)
    check_against_reference(field, operand_lists(rng, field.q), rng, 6,
                            range(field.q))


def test_poly_matches_schoolbook_reference_above_the_table_limit():
    """F_343 is too large for list tables, so FiniteField computes each
    entry on access."""
    field = FiniteField(7, 3)
    assert field.q > TABLE_LIMIT
    rng = random.Random(7373)
    ops = [random_coeffs(rng, field.q, d, rng.choice((0, 1)))
           for d in (-1, 0, 1, 2, 5, 9, 14)]
    check_against_reference(field, ops, rng, 3,
                            [0, 1, field.q - 1] + rng.sample(range(field.q), 3))
    F = RefField(field)
    for _ in range(5):
        num = random_coeffs(rng, field.q, rng.randrange(-1, 5))
        den = random_coeffs(rng, field.q, rng.randrange(0, 5))
        common = random_coeffs(rng, field.q, rng.randrange(0, 3))
        num, den = ref_mul(F, num, common), ref_mul(F, den, common)
        r = RatFunc(Poly(field, num), Poly(field, den))
        assert (list(r.num.coeffs), list(r.den.coeffs)) == ref_ratfunc(
            F, num, den)


def test_gf2_stretch_matches_the_string_spread():
    # reps below 256 take the byte table, larger ones the nibble
    # interleave, and an odd factor of k the string spread
    f2 = FiniteField(2)
    rng = random.Random(20261019)
    degrees = [0, 1, 6, 7, 8, 9, 15, 16, 63, 64, 4999, 5000]
    degrees += [rng.randrange(5001) for _ in range(40)]
    for d in degrees:
        coeffs = [rng.randrange(2) for _ in range(d)] + [1]
        x = Poly(f2, coeffs)
        for k in range(2, 65):
            assert x.stretch(k).rep == ref_gf2_stretch(x.rep, k), (d, k)
    for k in (1, 2, 3, 64):
        assert Poly.zero(f2).stretch(k).rep == 0


@pytest.mark.parametrize("p,e", FIELDS)
def test_equal_values_are_equal_and_hash_equal(p, e):
    field = FiniteField(p, e)
    rng = random.Random(7100 + 10 * p + e)
    for xs in operand_lists(rng, field.q):
        x = Poly(field, xs)
        y = Poly(field, xs + [0, 0])
        z = Poly(field, random_coeffs(rng, field.q, rng.randrange(20)))
        for other in (y, (x + z) - z, (x * z).divexact(z),
                      Poly(FiniteField(p, e), list(x.coeffs))):
            assert other == x
            assert hash(other) == hash(x)
        assert x + Poly.one(field) != x


@pytest.mark.parametrize("p,e", FIELDS)
def test_ratfunc_normalisation_matches_reference(p, e):
    field = FiniteField(p, e)
    F = RefField(field)
    rng = random.Random(7200 + 10 * p + e)
    for _ in range(25):
        num = random_coeffs(rng, field.q, rng.randrange(-1, 12),
                            rng.choice((0, 2)))
        den = random_coeffs(rng, field.q, rng.randrange(0, 12),
                            rng.choice((0, 2)))
        common = random_coeffs(rng, field.q, rng.randrange(0, 5))
        num = ref_mul(F, strip(num), common)
        den = ref_mul(F, strip(den), common)
        r = RatFunc(Poly(field, num), Poly(field, den))
        want_num, want_den = ref_ratfunc(F, num, den)
        assert list(r.num.coeffs) == want_num
        assert list(r.den.coeffs) == want_den
        assert r.den.is_monic()


def test_prime_field_input_is_reduced():
    f2, f3 = FiniteField(2), FiniteField(3)
    assert Poly(f3, (5, 1)) == Poly(f3, (2, 1))
    assert Poly(f3, (5, 1)).to_expr() == "T+2"
    assert Poly(f3, (-1, 3)) == Poly.constant(f3, 2)
    assert hash(Poly(f3, (5, 1))) == hash(Poly(f3, (2, 1)))
    p = Poly(f2, (3, 1))
    assert p.to_expr() == "T+1"
    assert p * Poly.one(f2) == p
    assert Poly(f2, (4, 2)).is_zero()


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2)])
def test_extension_field_input_out_of_range_is_rejected(p, e):
    field = FiniteField(p, e)
    Poly(field, (field.q - 1, 0, 1))
    for bad in (field.q, -1, 100):
        with pytest.raises(BadParameter, match="not an encoded element"):
            Poly(field, (0, bad))
        with pytest.raises(BadParameter):
            Poly.constant(field, bad)


def test_mixed_fields_are_refused_on_every_path():
    f2, f3 = FiniteField(2), FiniteField(3)
    for x, y in ((Poly.zero(f2), Poly.gen(f3)), (Poly.gen(f2), Poly.zero(f3)),
                 (Poly.gen(f3), Poly.gen(f2))):
        for op in (lambda: x + y, lambda: x * y, lambda: divmod(x, y),
                   lambda: x.gcd(y)):
            with pytest.raises(FieldMismatch):
                op()
        with pytest.raises(FieldMismatch):
            RatFunc(x, y or Poly.one(y.field))
        rx, ry = RatFunc.from_poly(x), RatFunc.from_poly(y)
        for op in (lambda: rx + ry, lambda: ry + rx, lambda: rx * ry):
            with pytest.raises(FieldMismatch):
                op()


@pytest.fixture
def fq_calls(monkeypatch):
    """Counts calls of FiniteField's per-element operations."""
    calls = Counter()
    for name in ("add", "sub", "neg", "mul", "inv"):
        def counted(self, *args, _orig=getattr(FiniteField, name),
                    _name=name):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(FiniteField, name, counted)
    return calls


def _operands(field, rng):
    a = Poly(field, [rng.randrange(field.q) for _ in range(12)] + [field.q - 1])
    b = Poly(field, [rng.randrange(field.q) for _ in range(5)] + [field.q - 1])
    return a, b


@pytest.mark.parametrize("p,e", FIELDS)
def test_kernels_make_no_field_calls(fq_calls, p, e):
    """Every kernel reads FiniteField's tables directly; none of them calls
    its per-element methods."""
    field = FiniteField(p, e)
    a, b = _operands(field, random.Random(p))
    a + b
    -a
    a * b
    a.scale(field.q - 1)
    divmod(a, b)
    a.gcd(b)
    a.monic()
    RatFunc(a, b)
    assert sum(fq_calls.values()) == 0
