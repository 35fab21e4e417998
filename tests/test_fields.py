import random

import pytest

from tml.errors import BadParameter, FieldMismatch, TmlError, ZeroDivisor
from tml.fields import (FieldTower, FiniteField, Poly, RatFunc, _power,
                        pth_root, ratfunc_substitute, substitute)


def test_prime_field_tables(f3):
    assert f3.add(2, 2) == 1
    assert f3.mul(2, 2) == 1
    assert f3.neg(1) == 2
    assert f3.sub(0, 1) == 2
    assert f3.inv(2) == 2
    assert f3.pow(2, 4) == 1


def test_extension_field_arithmetic():
    f4 = FiniteField(2, 2)
    # elements encode base-p digit vectors, so the generator is the int p,
    # and it generates the cyclic group of order 3
    g = f4.p
    assert f4.pow(g, 3) == 1
    assert f4.mul(g, f4.inv(g)) == 1
    for a in range(4):
        assert f4.pth_root(f4.mul(a, a)) == a


def test_field_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        FiniteField(4)
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=(1, 0, 1))  # (x+1)^2 is reducible


@pytest.mark.parametrize("args", [(4,), (2, 0), (17, 1),
                                  (2, 2, (1, 0, 1)), (3, 2, (1, 1))])
def test_field_parameter_errors_are_bad_parameter(args):
    with pytest.raises(BadParameter) as info:
        FiniteField(*args)
    assert isinstance(info.value, TmlError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("p,e", [(17, 1), (2, 5)])
def test_field_size_caps(p, e):
    with pytest.raises(ValueError, match="field size out of range"):
        FiniteField(p, e)


def test_poly_divmod_round_trip(f3, rng):
    for _ in range(50):
        f = Poly(f3, [rng.randrange(3) for _ in range(6)])
        g = Poly(f3, [rng.randrange(3) for _ in range(3)] + [1])
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree


def test_poly_gcd_and_monic(f2):
    t = Poly.gen(f2)
    one = Poly.one(f2)
    a = (t + one) * (t * t + t + one)
    b = (t + one) * t
    assert a.gcd(b) == t + one
    assert a.gcd(b).is_monic()


def test_poly_stretch_and_eval(f3, tower3):
    t = Poly.gen(f3)
    p = t * t + Poly.constant(f3, 2)
    assert p.stretch(3) == t ** 6 + Poly.constant(f3, 2)
    assert p.at(tower3.const(1), tower3.const).is_zero()


def test_poly_expr_round_trips_through_grammar(f2):
    from tml.manifest import poly_from_text
    t = Poly.gen(f2)
    for p in (t ** 5 + t + Poly.one(f2), Poly.zero(f2), Poly.one(f2), t):
        assert poly_from_text(f2, p.to_expr()) == p


def test_ratfunc_canonical_denominator(f3):
    t = Poly.gen(f3)
    two = Poly.constant(f3, 2)
    r = RatFunc(t, two * (t + two))
    assert r.den.is_monic()
    assert r * r.inverse() == RatFunc.one(f3)
    with pytest.raises(ZeroDivisor):
        RatFunc.zero(f3).inverse()


def test_ratfunc_frobenius_is_power(f3, rng):
    for _ in range(20):
        num = Poly(f3, [rng.randrange(3) for _ in range(4)])
        den = Poly(f3, [rng.randrange(3) for _ in range(3)] + [1])
        r = RatFunc(num, den)
        assert r.frob(1) == r * r * r
        assert r.frob(2) == (r * r * r).frob(1)


def test_tower_constants_and_generator(tower2):
    assert tower2.T().to_expr() == "T"
    assert tower2.one() - tower2.one() == tower2.zero()
    ext = tower2.extend("U", (tower2.zero() - tower2.T(),
                              tower2.zero(), tower2.one()))
    u = ext.gen()
    assert u * u == ext.T()
    assert ext.step_degree() == 2
    assert ext.total_degree() == 2
    assert ext.names() == ("U",)


def test_tower_extend_rejects_bad_moduli(tower2):
    with pytest.raises(Exception):
        tower2.extend("U", (tower2.T(),))  # too short
    with pytest.raises(Exception):
        tower2.extend("U", (tower2.T(), tower2.zero(),
                            tower2.T()))  # not monic


def test_tower_embed_and_from_ratfunc(tower2, rng):
    ext = tower2.extend("U", (tower2.zero() - tower2.T(),
                              tower2.zero(), tower2.one()))
    t = tower2.T()
    assert ext.embed(t) == ext.T()
    num = Poly(tower2.fq, (1, 1))
    den = Poly(tower2.fq, (0, 1))
    rf = RatFunc(num, den)
    assert ext.from_ratfunc(rf) == ext.embed(tower2.from_ratfunc(rf))
    with pytest.raises(FieldMismatch):
        t + ext.gen()


def test_frobenius_is_qth_power(tower3, rng):
    ext = tower3.extend("W", (tower3.zero() - tower3.T(),
                              tower3.zero(), tower3.one()))
    for _ in range(20):
        num = Poly(tower3.fq, [rng.randrange(3) for _ in range(3)])
        den = Poly(tower3.fq, [rng.randrange(3) for _ in range(2)] + [1])
        x = ext.from_ratfunc(RatFunc(num, den)) + ext.gen()
        assert x.frob(1) == x ** 3
        assert x.frob(2) == (x ** 3) ** 3


def test_quotient_ring_zero_divisor(tower2):
    # modulus (V + T)^2: the coset of V + T squares to zero
    t = tower2.T()
    ext = tower2.extend("V", (t * t, tower2.zero(), tower2.one()))
    v = ext.gen()
    nil = v + ext.T()
    assert (nil * nil).is_zero()
    with pytest.raises(ZeroDivisor):
        nil.inverse()


def test_unit_inverse_over_reducible_lower_step(tower2):
    # V^2 = T^2 makes V + T nilpotent; over W^2 = V + T the element
    # 1 + (V + T)*W squares to one, so it is its own inverse
    t = tower2.T()
    low = tower2.extend("V", (t * t, tower2.zero(), tower2.one()))
    nil = low.gen() + low.T()
    top = low.extend("W", (nil, low.zero(), low.one()))
    x = top.one() + top.embed(nil) * top.gen()
    assert x * x == top.one()
    assert x.inverse() == x
    with pytest.raises(ZeroDivisor):
        top.embed(nil).inverse()


def test_tower_inverse_round_trip(tower2, rng):
    ext = tower2.extend("U", (tower2.zero() - tower2.T(),
                              tower2.zero(), tower2.one()))
    for _ in range(20):
        num = Poly(tower2.fq, [rng.randrange(2) for _ in range(3)])
        den = Poly(tower2.fq, [rng.randrange(2) for _ in range(2)] + [1])
        x = ext.from_ratfunc(RatFunc(num, den)) + ext.gen()
        if x.is_zero():
            continue
        assert x * x.inverse() == ext.one()


def test_pth_root_inverts_squaring(tower2, rng):
    ext = tower2.extend("U", (tower2.zero() - tower2.T(),
                              tower2.zero(), tower2.one()))
    for _ in range(20):
        num = Poly(tower2.fq, [rng.randrange(2) for _ in range(3)])
        den = Poly(tower2.fq, [rng.randrange(2) for _ in range(2)] + [1])
        x = ext.from_ratfunc(RatFunc(num, den)) + ext.gen()
        assert pth_root(x * x) == x
    assert pth_root(tower2.T()) is None


def test_flatten_unflatten_round_trip(tower2, rng):
    ext = tower2.extend("U", (tower2.zero() - tower2.T(),
                              tower2.zero(), tower2.one()))
    x = ext.gen() + ext.T()
    vec = ext.flatten(x)
    assert len(vec) == 2
    assert ext.unflatten(vec) == x


def test_substitute_polynomial_at_tower_element(tower2):
    t = tower2.T()
    p = Poly(tower2.fq, (1, 0, 1))  # 1 + T^2
    assert substitute(p, t) == tower2.one() + t * t
    rf = RatFunc(Poly.one(tower2.fq), Poly(tower2.fq, (0, 1)))
    assert ratfunc_substitute(rf, t) == t.inverse()


def _assert_powers_by_repeated_multiplication(x, one, top=40):
    acc = one
    for n in range(top + 1):
        assert x ** n == acc, n
        acc = acc * x


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (3, 2)])
def test_poly_power_matches_repeated_multiplication(p, e, rng):
    fq = FiniteField(p, e)
    for _ in range(3):
        x = Poly(fq, [rng.randrange(fq.q) for _ in range(3)] + [1])
        _assert_powers_by_repeated_multiplication(x, Poly.one(fq))
    _assert_powers_by_repeated_multiplication(Poly.zero(fq), Poly.one(fq))


def test_ratfunc_power_matches_repeated_multiplication(f3, rng):
    for _ in range(3):
        num = Poly(f3, [rng.randrange(3) for _ in range(3)] + [2])
        den = Poly(f3, [rng.randrange(1, 3)] + [rng.randrange(3), 1])
        _assert_powers_by_repeated_multiplication(RatFunc(num, den),
                                                  RatFunc.one(f3))


def test_tower_power_matches_repeated_multiplication(any_tower):
    t = any_tower
    for x in (t.gen(), t.gen() * t.T() + t.one()):
        _assert_powers_by_repeated_multiplication(x, t.one())
    if t.depth < 2:
        # a denominator at depth 2 makes forty products take seconds
        x = (t.gen() + t.one()).inverse()
        _assert_powers_by_repeated_multiplication(x, t.one())


def test_negative_powers_are_refused(shallow_tower):
    # -1 >> 1 is -1, so repeated squaring would never stop
    t = shallow_tower
    x = t.gen() + t.one()
    rf = RatFunc(Poly.gen(t.fq), Poly(t.fq, (1, 1)))
    for value in (x, rf, rf.num):
        with pytest.raises(BadParameter):
            value ** -1
        with pytest.raises(BadParameter):
            value ** -4


def test_negative_frobenius_is_refused(shallow_tower):
    t = shallow_tower
    for x in (t.gen(), t.T(), t.zero(), t.base().T().data):
        with pytest.raises(BadParameter):
            x.frob(-1)
    assert t.gen().frob(0) == t.gen()


def test_power_of_t_over_f2(f2):
    assert Poly.gen(f2) ** 10000 == Poly(f2, [0] * 10000 + [1])


def test_power_forms_only_the_needed_products():
    """bit_length - 1 squarings and popcount - 1 further products, none
    with one: T**2, T**3 and T**16 take 1, 2 and 4."""
    products = []

    class Counted(int):
        def __mul__(self, other):
            products.append(None)
            return Counted(int(self) * int(other))

    for n in range(41):
        products.clear()
        assert _power(Counted(3), n, Counted(1)) == 3 ** n
        want = n.bit_length() + bin(n).count("1") - 2 if n else 0
        assert len(products) == want, n
    for n, want in ((2, 1), (3, 2), (16, 4)):
        products.clear()
        _power(Counted(3), n, Counted(1))
        assert len(products) == want


# -- the term printer against a reference copy of its three earlier forms ----

def ref_fmt(f, a):
    if f.e == 1:
        return str(a)
    digits = [a // f.p ** i % f.p for i in range(f.e)]
    terms = []
    for i in reversed(range(f.e)):
        c = digits[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = f.gen_name if i == 1 else f"{f.gen_name}^{i}"
            terms.append(var if c == 1 else f"{c}*{var}")
    return "+".join(terms) if terms else "0"


def ref_poly_text(poly):
    coeffs = poly.coeffs
    if not coeffs:
        return "0"
    terms = []
    for i in reversed(range(len(coeffs))):
        c = coeffs[i]
        if c == 0:
            continue
        cs = ref_fmt(poly.field, c)
        if i == 0:
            terms.append(cs)
            continue
        var = "T" if i == 1 else f"T^{i}"
        if c == 1:
            terms.append(var)
        elif "+" in cs:
            terms.append(f"({cs})*{var}")
        else:
            terms.append(f"{cs}*{var}")
    return "+".join(terms)


def ref_tower_text(x):
    t = x.tower
    if t.parent is None:
        rf = x.data
        if rf.is_poly():
            return ref_poly_text(rf.num)
        return f"({ref_poly_text(rf.num)})/({ref_poly_text(rf.den)})"
    if x.is_zero():
        return "0"
    terms = []
    parts = x.parts()
    for i in reversed(range(len(parts))):
        c = parts[i]
        if c.is_zero():
            continue
        cs = ref_tower_text(c)
        if i == 0:
            terms.append(cs)
            continue
        var = t.name if i == 1 else f"{t.name}^{i}"
        if cs == "1":
            terms.append(var)
        elif "+" in cs:
            terms.append(f"({cs})*{var}")
        else:
            terms.append(f"{cs}*{var}")
    return "+".join(terms)


def _root_tower(p, e, names, depth):
    """F_q(T) with names[0]**2 = T on top at depth 1, and names[1]**2 =
    names[0] on top of that at depth 2."""
    tower = FieldTower(FiniteField(p, e))
    for name in names[:depth]:
        g = tower.gen()
        tower = tower.extend(name, (tower.zero() - g, tower.zero(),
                                    tower.one()))
    return tower


PRINTED_TOWERS = {f"F{p ** e}" + "".join(f"({n})" for n in names[:d]):
                  (p, e, names, d)
                  for p, e, names in ((3, 1, ()), (5, 1, ()), (3, 2, ()),
                                      (2, 4, ()), (7, 3, ()),
                                      (2, 2, ("U", "R")), (5, 1, ("V", "W")))
                  for d in range(len(names) + 1)}


@pytest.mark.parametrize("name", sorted(PRINTED_TOWERS))
def test_printer_matches_reference_and_reads_back(name):
    from tml.manifest import _Scope
    tower = _root_tower(*PRINTED_TOWERS[name])
    fq = tower.fq
    assert [fq.fmt(a) for a in range(fq.q)] == [ref_fmt(fq, a)
                                                 for a in range(fq.q)]
    rng = random.Random(f"printer-{name}")
    scope = _Scope(tower)
    shapes = set()
    for _ in range(25):
        coords = []
        for _ in range(tower.total_degree()):
            num = Poly(fq, [rng.randrange(fq.q) if rng.random() < 0.6 else 0
                            for _ in range(rng.randrange(4))])
            den = Poly(fq, [rng.randrange(fq.q)
                            for _ in range(rng.choice((0, 0, 1, 2)))] + [1])
            coords.append(RatFunc(num, den))
        x = tower.unflatten(coords)
        text = x.to_expr()
        assert text == ref_tower_text(x)
        if tower.parent is None:
            assert x.data.num.to_expr() == ref_poly_text(x.data.num)
        assert scope.expr(text) == x, text
        shapes.add("/" in text)
    assert shapes == {True, False}
