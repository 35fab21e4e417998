"""Differential tests: the flat, table-driven tower kernels against a
reference that multiplies nested coefficients (convolution over the
parent level, then reduction by the defining polynomial) on plain lists
of F_q(T) coordinates."""

import random

import pytest

from tml.errors import ZeroDivisor
from tml.fields import FieldTower, FiniteField, Poly, RatFunc
from tml.torsion import sqrt_tower, square_family_points


def _root_step(p, e, degree):
    base = FieldTower(FiniteField(p, e))
    z = base.zero()
    return base.extend("V", (z - base.T(),) + (z,) * (degree - 1)
                       + (base.one(),))


def _family_depth2():
    ext = sqrt_tower(FieldTower(FiniteField(2)))
    return square_family_points(ext)[1][1].tower


def _reducible():
    # V^2 = T^2, so V + T is nilpotent; then W^2 = V + T on top
    base = FieldTower(FiniteField(2))
    t = base.T()
    low = base.extend("V", (t * t, base.zero(), base.one()))
    nil = low.gen() + low.T()
    return low.extend("W", (nil, low.zero(), low.one()))


TOWERS = {
    "sqrt-f2": lambda: sqrt_tower(FieldTower(FiniteField(2))),
    "family-depth2": _family_depth2,
    "square-root-f3": lambda: _root_step(3, 1, 2),
    "cube-root-f4": lambda: _root_step(2, 2, 3),
    "reducible-depth2": _reducible,
}


# -- reference arithmetic on coordinate lists -------------------------------

def _add(a, b):
    return [x + y for x, y in zip(a, b)]


def _sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _ref_mul(tower, a, b):
    """Nested product: convolve the step-degree blocks over the parent
    level, then reduce the top blocks with the defining polynomial."""
    if tower.parent is None:
        return [a[0] * b[0]]
    up = tower.parent
    m, d = up.total_degree(), tower.step_degree()
    zero = RatFunc.zero(tower.fq)
    conv = [[zero] * m for _ in range(2 * d - 1)]
    for i in range(d):
        for j in range(d):
            prod = _ref_mul(up, a[i * m:(i + 1) * m], b[j * m:(j + 1) * m])
            conv[i + j] = _add(conv[i + j], prod)
    mod = [list(up.flatten(c)) for c in tower.modulus]
    for top in range(2 * d - 2, d - 1, -1):
        for i in range(d):
            conv[top - d + i] = _sub(conv[top - d + i],
                                     _ref_mul(up, conv[top], mod[i]))
    return [x for block in conv[:d] for x in block]


def _ref_embed(tower, below, vec):
    """Coordinates of an element of the ancestor `below`, lifted step by
    step as the constant coefficient of each step."""
    if tower == below:
        return list(vec)
    inner = _ref_embed(tower.parent, below, vec)
    zero = RatFunc.zero(tower.fq)
    return inner + [zero] * (len(inner) * (tower.step_degree() - 1))


def _ref_one(tower):
    return _ref_embed(tower, tower.base(), [RatFunc.one(tower.fq)])


def _ref_gen(tower):
    up = tower.parent
    zero = RatFunc.zero(tower.fq)
    m = up.total_degree()
    return [zero] * m + _ref_one(up) + [zero] * (m * (tower.step_degree() - 2))


def _ref_power(tower, a, n):
    out = _ref_one(tower)
    for _ in range(n):
        out = _ref_mul(tower, out, a)
    return out


def _det(rows):
    """Cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    out = RatFunc.zero(rows[0][0].field)
    for j, c in enumerate(rows[0]):
        if c.is_zero():
            continue
        minor = _det([r[:j] + r[j + 1:] for r in rows[1:]])
        out = out + c * minor if j % 2 == 0 else out - c * minor
    return out


# -- samples ----------------------------------------------------------------

def _rand_ratfunc(rng, fq):
    num = Poly(fq, [rng.randrange(fq.q) for _ in range(3)])
    den = Poly(fq, [rng.randrange(fq.q)] + [1])
    return RatFunc(num, den)


def _samples(tower, rng, count=4):
    """Zero, one, the generator, single-coordinate elements, elements with
    most coordinates zero, and dense ones."""
    fq, n = tower.fq, tower.total_degree()
    zero = RatFunc.zero(fq)
    out = [tower.zero(), tower.one(), tower.gen()]
    for i in range(n):
        vec = [zero] * n
        vec[i] = _rand_ratfunc(rng, fq)
        out.append(tower.unflatten(vec))
    for _ in range(count):
        vec = [zero] * n
        for i in rng.sample(range(n), max(1, n // 2)):
            vec[i] = _rand_ratfunc(rng, fq)
        out.append(tower.unflatten(vec))
        out.append(tower.unflatten([_rand_ratfunc(rng, fq) for _ in range(n)]))
    return out


def _vec(x):
    return list(x.tower.flatten(x))


@pytest.fixture(params=sorted(TOWERS))
def tower(request):
    return TOWERS[request.param]()


def test_mul_matches_nested_reference(tower):
    rng = random.Random(11)
    xs = _samples(tower, rng)
    for x in xs:
        for y in rng.sample(xs, 4):
            assert _vec(x * y) == _ref_mul(tower, _vec(x), _vec(y))


def test_inverse_exactly_on_units(tower):
    rng = random.Random(12)
    n = tower.total_degree()
    one = _ref_one(tower)
    zero, unit = RatFunc.zero(tower.fq), RatFunc.one(tower.fq)
    basis = [[zero] * j + [unit] + [zero] * (n - j - 1) for j in range(n)]
    for x in _samples(tower, rng):
        # x is a unit exactly when multiplication by x is invertible
        cols = [_ref_mul(tower, _vec(x), e) for e in basis]
        det = _det([[cols[j][k] for j in range(n)] for k in range(n)])
        if det.is_zero():
            with pytest.raises(ZeroDivisor):
                x.inverse()
        else:
            assert _ref_mul(tower, _vec(x), _vec(x.inverse())) == one


def test_reducible_tower_inverts_units_only():
    tower = _reducible()
    low = tower.parent
    nil = tower.embed(low.gen() + low.T())
    w = tower.gen()
    for x in (tower.one() + nil * w, tower.one() + nil, w + tower.T()):
        assert _ref_mul(tower, _vec(x), _vec(x.inverse())) == _ref_one(tower)
    for x in (nil, nil * w, w * w):
        with pytest.raises(ZeroDivisor):
            x.inverse()


def test_constructors_match_nested_reference(tower):
    rng = random.Random(13)
    fq = tower.fq
    assert _vec(tower.one()) == _ref_one(tower)
    assert _vec(tower.gen()) == _ref_gen(tower)
    for below in tower.ancestors():
        for _ in range(3):
            y = below.unflatten([_rand_ratfunc(rng, fq)
                                 for _ in range(below.total_degree())])
            assert _vec(tower.embed(y)) == _ref_embed(tower, below, _vec(y))
        if below.parent is not None:
            assert _vec(tower.embed(below.gen())) == _ref_embed(
                tower, below, _ref_gen(below))
    rf = _rand_ratfunc(rng, fq)
    assert _vec(tower.from_ratfunc(rf)) == _ref_embed(tower, tower.base(), [rf])


def test_frob_matches_reference_powers(tower):
    rng = random.Random(14)
    q = tower.fq.q
    for x in _samples(tower, rng, count=2):
        assert _vec(x.frob(1)) == _ref_power(tower, _vec(x), q)
        assert _vec(x.frob(2)) == _ref_power(tower, _vec(x), q * q)
