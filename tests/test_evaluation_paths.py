"""Seeded cross-checks between the evaluation paths that remain: the
Horner kernel OrePoly.horner at phi_T (actions, root actions) against
the Taylor sum at a_0 (TModule.differential) and the ring structure,
and the Horner rule of Poly.at (substitution) against plain sums of
powers."""

import random

import pytest

from tml.corpus import random_element
from tml.fields import FieldTower, FiniteField, Poly, substitute
from tml.tmodule import carlitz, carlitz_tensor, drinfeld
from tml.torsion import root_action, sqrt_tower


def _rand_poly(rng, fq, max_deg):
    return Poly(fq, [rng.randrange(fq.q)
                     for _ in range(rng.randrange(max_deg + 2))])


@pytest.mark.parametrize("p", [2, 3])
def test_differential_is_constant_term_of_action(p):
    rng = random.Random(7000 + p)
    tower = FieldTower(FiniteField(p))
    modules = (carlitz(tower), carlitz_tensor(tower, 2),
               carlitz_tensor(tower, 3),
               drinfeld(tower, (random_element(rng, tower, 1), tower.one())))
    for module in modules:
        for _ in range(6):
            a = _rand_poly(rng, tower.fq, 4)
            assert module.differential(a) == module.act(a).coeff(0)


@pytest.mark.parametrize("p", [2, 3])
def test_root_action_is_multiplicative(p):
    rng = random.Random(7100 + p)
    ext = sqrt_tower(FieldTower(FiniteField(p)))
    for _ in range(6):
        b1 = _rand_poly(rng, ext.fq, 2)
        b2 = _rand_poly(rng, ext.fq, 2)
        assert (root_action(ext, b1 * b2)
                == root_action(ext, b1) * root_action(ext, b2))


@pytest.mark.parametrize("p", [2, 3])
def test_substitute_is_a_sum_of_powers(p):
    rng = random.Random(7200 + p)
    base = FieldTower(FiniteField(p))
    for tower in (base, sqrt_tower(base)):
        for _ in range(8):
            poly = _rand_poly(rng, base.fq, 4)
            x = random_element(rng, tower, 1)
            expected = tower.zero()
            for i, c in enumerate(poly.coeffs):
                expected = expected + tower.const(c) * x ** i
            assert substitute(poly, x) == expected
