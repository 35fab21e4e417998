"""Differential tests: the tower Frobenius (a cached q-semilinear table on
flattened coordinates) against plain exponentiation x ** (q ** i)."""

import random

import pytest

from tml.errors import ShapeMismatch
from tml.fields import FieldTower, FiniteField, Poly, RatFunc
from tml.linalg import Mat
from tml.ore import OrePoly
from tml.torsion import sqrt_tower, square_family_points


def _sqrt_f2():
    return sqrt_tower(FieldTower(FiniteField(2)))


def _family_depth2():
    level2 = square_family_points(_sqrt_f2())[1]
    return level2[1].tower


def _root_step(p, e, degree):
    base = FieldTower(FiniteField(p, e))
    z = base.zero()
    return base.extend("V", (z - base.T(),) + (z,) * (degree - 1)
                       + (base.one(),))


TOWERS = {
    "base-f2": lambda: FieldTower(FiniteField(2)),
    "sqrt-f2": _sqrt_f2,
    "family-depth2": _family_depth2,
    "square-root-f3": lambda: _root_step(3, 1, 2),
    "cube-root-f4": lambda: _root_step(2, 2, 3),
}


def _rand_ratfunc(rng, fq):
    num = Poly(fq, [rng.randrange(fq.q) for _ in range(2)] + [1])
    den = Poly(fq, [rng.randrange(fq.q)] + [1])
    return RatFunc(num, den)


def _samples(tower, rng, count=3):
    """Zero, one, a pure base element, and elements with a rational
    function on every monomial of the basis."""
    dim = tower.total_degree()
    out = [tower.zero(), tower.one(),
           tower.from_ratfunc(_rand_ratfunc(rng, tower.fq))]
    for _ in range(count):
        out.append(tower.unflatten([_rand_ratfunc(rng, tower.fq)
                                    for _ in range(dim)]))
    return out


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_frob_is_qth_power(name):
    tower = TOWERS[name]()
    q = tower.fq.q
    rng = random.Random(4)
    for x in _samples(tower, rng):
        power = x
        for i in range(4):
            assert x.frob(i) == power, (name, i, x)
            power = power ** q


def test_matrix_and_composition_twist_by_qth_power():
    tower = _sqrt_f2()
    q = tower.fq.q
    rng = random.Random(6)
    xs = _samples(tower, rng, count=4)
    m = Mat(((xs[3], xs[4]), (xs[5], xs[2])))
    assert m.frob(1) == m.map(lambda e: e ** q)
    assert m.frob(2) == m.map(lambda e: e ** (q * q))
    # (tau^2)(B0 + B1 tau) = B0^(q^2) tau^2 + B1^(q^2) tau^3
    b = OrePoly(tower, 2, 2, (m, Mat(((xs[3], xs[5]), (xs[4], xs[2])))))
    zero = Mat.zeros(tower, 2, 2)
    tau2 = OrePoly(tower, 2, 2, (zero, zero, Mat.identity(tower, 2)))
    twisted = tau2 * b
    assert twisted.coeffs[:2] == (zero, zero)
    assert twisted.coeffs[2:] == tuple(c.map(lambda e: e ** (q * q))
                                       for c in b.coeffs)


def test_unflatten_rejects_wrong_length():
    tower = _family_depth2()
    vec = tower.flatten(tower.gen())
    with pytest.raises(ShapeMismatch):
        tower.unflatten(vec + vec[:1])
    with pytest.raises(ShapeMismatch):
        tower.base().unflatten([])
