import copy
import random
from importlib import resources

import pytest

from tml.errors import BadParameter, NotNilpotent, ShapeMismatch, TmlError
from tml.exponential import exp_series
from tml.fields import FieldTower, FiniteField, Poly, pth_root
from tml.linalg import Mat
from tml.manifest import parse_manifest
from tml.ore import OrePoly
from tml.structure import abelian_scan
from tml.subgroups import minimal_j_scan
from tml.tmodule import (TModule, carlitz, carlitz_tensor, diagonal_power,
                         drinfeld, product)
from tml.torsion import torsion_order_search


def _rand_poly(rng, field, max_deg=3):
    return Poly(field, [rng.randrange(field.q)
                        for _ in range(rng.randrange(1, max_deg + 2))])


def test_rank_one_squared_action(tower2):
    # (T + tau)^2 = T^2 + (T + T^q) tau + tau^2, and T^q = T^2 here
    t = tower2.T()
    mod = carlitz(tower2)
    got = mod.act(Poly(tower2.fq, (0, 0, 1)))
    assert got.scalar_elems() == (t * t, t + t * t, tower2.one())


def test_action_is_ring_map(tower2, rng):
    mod = carlitz_tensor(tower2, 2)
    for _ in range(25):
        a = _rand_poly(rng, tower2.fq)
        b = _rand_poly(rng, tower2.fq)
        assert mod.act(a * b) == mod.act(a) * mod.act(b)
        assert mod.act(a + b) == mod.act(a) + mod.act(b)


def test_action_over_odd_characteristic(tower3, rng):
    mod = carlitz_tensor(tower3, 2)
    for _ in range(10):
        a = _rand_poly(rng, tower3.fq)
        b = _rand_poly(rng, tower3.fq)
        assert mod.act(a * b) == mod.act(a) * mod.act(b)


def test_t_power_matches_repeated_composition(tower2):
    mod = carlitz_tensor(tower2, 2)
    assert mod.t_power(3) == mod.t_power(2) * mod.phi_t
    assert mod.t_power(1) == mod.phi_t


def test_negative_t_power_is_refused(tower2):
    with pytest.raises(BadParameter):
        carlitz_tensor(tower2, 2).t_power(-1)


def test_validate_good_module(tower2):
    report = carlitz_tensor(tower2, 3).validate()
    assert report.valid
    assert report.dimension == 3
    assert report.degree == 1
    assert report.nilpotency_order == 3
    assert report.problems == ()


def test_validate_rejects_non_nilpotent_tangent(tower2):
    t = tower2.T()
    o = tower2.one()
    z = tower2.zero()
    bad = TModule(tower2, (Mat(((t, z), (z, t + o))),
                           Mat(((o, z), (z, o)))))
    report = bad.validate()
    assert not report.valid
    assert report.nilpotency_order is None
    assert any("nilpotent" in p for p in report.problems)
    with pytest.raises(NotNilpotent):
        bad.j_bound()


def test_differential_is_tangent_part(tower2):
    mod = carlitz_tensor(tower2, 2)
    a = Poly(tower2.fq, (0, 0, 1))
    assert mod.differential(a) == mod.a0 @ mod.a0
    assert mod.differential(Poly(tower2.fq, (1,))) == \
        Mat.identity(tower2, 2)


def test_differential_with_a_left_factor(tower2):
    mod = carlitz_tensor(tower2, 2)
    a = Poly(tower2.fq, (1, 0, 1))
    row = Mat(((tower2.one(), tower2.T()),))
    assert mod.differential(a, row) == row @ mod.differential(a)
    assert mod.differential(Poly.zero(tower2.fq), row) == \
        Mat.zeros(tower2, 1, 2)
    with pytest.raises(ShapeMismatch):
        mod.differential(Poly(tower2.fq, (1,)), Mat(((tower2.one(),),)))


def test_j_bound_values(tower2, tower3):
    assert carlitz_tensor(tower2, 2).j_bound() == 2
    assert carlitz_tensor(tower2, 3).j_bound() == 4
    assert carlitz_tensor(tower3, 3).j_bound() == 3
    assert carlitz(tower2).j_bound() == 1
    t = tower2.T()
    assert drinfeld(tower2, (t, t * t)).j_bound() == 1


def test_j_bound_differential_is_scalar(tower2):
    mod = carlitz_tensor(tower2, 3)
    j = mod.j_bound()
    a = Poly(tower2.fq, (0,) * j + (1,))
    d = mod.differential(a)
    assert d == Mat.scalar(tower2, 3, mod.tower.T() ** j)


def test_product_acts_blockwise(tower2, rng):
    first = carlitz(tower2)
    second = carlitz_tensor(tower2, 2)
    prod = product([first, second])
    assert prod.dimension == 3
    for _ in range(10):
        a = _rand_poly(rng, tower2.fq)
        pa = prod.act(a)
        fa = first.act(a)
        sa = second.act(a)
        for i in range(pa.degree + 1):
            m = pa.coeff(i)
            assert m[0, 0] == fa.coeff(i)[0, 0] if i <= fa.degree \
                else m[0, 0].is_zero()
            for r in range(2):
                for c in range(2):
                    expect = sa.coeff(i)[r, c] if i <= sa.degree \
                        else tower2.zero()
                    assert m[1 + r, 1 + c] == expect
            assert m[0, 1].is_zero() and m[1, 0].is_zero()


def test_diagonal_power_is_product_of_copies(tower2):
    mod = carlitz(tower2)
    cube = diagonal_power(mod, 3)
    assert cube.dimension == 3
    assert cube.phi_t == product([mod, mod, mod]).phi_t


def test_drinfeld_builder_shapes(tower2):
    t = tower2.T()
    mod = drinfeld(tower2, (t, t * t))
    assert mod.dimension == 1
    assert mod.phi_t.scalar_elems() == (t, t, t * t)
    with pytest.raises(ValueError):
        drinfeld(tower2, ())


def test_carlitz_tensor_rejects_power_zero(tower2):
    with pytest.raises(BadParameter) as info:
        carlitz_tensor(tower2, 0)
    assert isinstance(info.value, TmlError)
    assert isinstance(info.value, ValueError)


def test_tower_and_module_do_not_change_when_used():
    # every table and phi_T is built with its object; using them must
    # leave each slot of the tower and each attribute of the module as
    # it was, so repeated calls redo the same work
    manifest = parse_manifest((resources.files("tml") / "manifests" /
                               "root_twist.tml").read_text(encoding="utf-8"))
    tower, mod = manifest.tower, manifest.modules["RootPair"]

    def snapshot():
        return ({s: copy.deepcopy(getattr(tower, s))
                 for s in FieldTower.__slots__},
                copy.deepcopy(vars(mod)))

    before = snapshot()
    manifest.subgroups["Squares"].stability(Poly(tower.fq, (0, 0, 1)))
    minimal_j_scan(manifest.subgroups["Squares"], 2)
    abelian_scan(mod, 3)
    exp_series(mod, 2)
    torsion_order_search(mod, manifest.points["Seed"], 2)
    assert pth_root(tower.T()) == tower.gen()
    assert mod.t_power(3) == mod.phi_t * mod.phi_t * mod.phi_t
    assert snapshot() == before
