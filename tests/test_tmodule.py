import copy
import random
from importlib import resources
from pathlib import Path

import pytest

from tml.errors import BadParameter, NotNilpotent, ShapeMismatch, TmlError
from tml.exponential import exp_series
from tml.fields import FieldTower, FiniteField, Poly, pth_root
from tml.linalg import Mat
from tml.manifest import parse_manifest
from tml.ore import OrePoly
from tml.structure import abelian_scan
from tml.subgroups import KernelSubgroup, minimal_j_scan
from tml.tmodule import (TModule, carlitz, carlitz_tensor, diagonal_power,
                         drinfeld, product)
from tml.torsion import (counterexample_module, curve_of_squares,
                         sqrt_tower, sqrt_twist, torsion_order_search)

GOLDEN_MANIFESTS = Path(__file__).parent / "golden" / "manifests"


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
    # only the left factor's constant term is read
    left = OrePoly(tower2, 1, 2, (row, row))
    assert mod.differential(a, left) == row @ mod.differential(a)
    assert mod.differential(Poly.zero(tower2.fq), left) == \
        Mat.zeros(tower2, 1, 2)
    with pytest.raises(ShapeMismatch):
        mod.differential(Poly(tower2.fq, (1,)), OrePoly.identity(tower2, 1))


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


def _packaged(name):
    return (resources.files("tml") / "manifests" / name).read_text(
        encoding="utf-8")


def test_tower_and_module_do_not_change_when_used():
    # every table and phi_T is built with its object; using them must
    # leave each slot of the tower and each attribute of the module as
    # it was, so repeated calls redo the same work
    manifest = parse_manifest(_packaged("root_twist.tml"))
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


# -- a module is its phi_T ---------------------------------------------------

@pytest.mark.parametrize("build, message", [
    (lambda tw: TModule(tw, ()),
     "need at least the constant coefficient matrix"),
    (lambda tw: drinfeld(tw, ()), "need at least one twist coefficient"),
    (lambda tw: product(()), "empty product"),
    (lambda tw: KernelSubgroup(carlitz(tw), OrePoly.zero(tw, 1, 1)),
     "zero presentation; use zero rows for the full module"),
], ids=["no-matrices", "no-twist", "empty-product", "zero-presentation"])
def test_refusals_are_library_errors(tower2, build, message):
    with pytest.raises(BadParameter) as info:
        build(tower2)
    assert str(info.value) == message
    assert isinstance(info.value, TmlError)
    assert isinstance(info.value, ValueError)


def test_zero_action_and_trailing_zero_matrices(tower2):
    t, o, z = tower2.T(), tower2.one(), tower2.zero()
    zero, ident = Mat.zeros(tower2, 2, 2), Mat.identity(tower2, 2)
    for mats in ([zero], [zero, zero, zero]):
        mod = TModule(tower2, mats)
        assert mod.phi_t.is_zero() and mod.degree == 0
        assert mod.matrices == (zero,) and mod.a0 == zero
        assert mod.validate().problems == ("not-nilpotent", "zero-leading")
    # a zero a_0 keeps the twist terms above it
    mod = TModule(tower2, [zero, ident, zero])
    assert mod.degree == 1 and mod.matrices == (zero, ident)
    assert mod.validate().problems == ("not-nilpotent",)
    # trailing zero matrices are dropped
    tangent = Mat(((t, o), (z, t)))
    mod = TModule(tower2, [tangent, ident, zero, zero])
    assert mod.degree == 1 and mod.matrices == (tangent, ident)
    assert mod.validate().valid


def test_every_route_builds_the_same_module():
    tower = FieldTower(FiniteField(3))
    t, o, z = tower.T(), tower.one(), tower.zero()
    mats = (Mat(((t, z), (z, t))), Mat(((o, z), (z, o))),
            Mat.zeros(tower, 2, 2))
    text = ("[field]\np = 3\n\n[module C]\nm = 1\na0 = T\na1 = 1\n\n"
            "[module P]\nm = 2\na0 = T, 0, 0, T\na1 = 1, 0, 0, 1\n"
            "a3 = 0, 0, 0, 0\n")
    read = parse_manifest(text).modules
    ones = [TModule(tower, (Mat(((t,),)), Mat(((o,),)))), read["C"],
            drinfeld(tower, (o, z)), carlitz(tower), product([carlitz(tower)])]
    pairs = [TModule(tower, mats), read["P"],
             product([drinfeld(tower, (o,))] * 2),
             diagonal_power(carlitz(tower), 2)]
    for same in (ones, pairs):
        for mod in same:
            assert mod == same[0] and hash(mod) == hash(same[0])
            assert mod.matrices == same[0].matrices
    assert ones[0] != pairs[0]


def test_module_state_is_tower_dimension_and_phi_t(tower2):
    # no coefficient-matrix tuple is stored beside phi_T
    ext = sqrt_tower(tower2)
    t = tower2.T()
    for mod in (TModule(tower2, (Mat(((t,),)),)), carlitz(tower2),
                drinfeld(tower2, (t, t)), carlitz_tensor(tower2, 3),
                product([carlitz(tower2), carlitz_tensor(tower2, 2)]),
                counterexample_module(ext),
                parse_manifest(_packaged("prop3.tml")).modules["Cten2"]):
        assert set(vars(mod)) == {"tower", "dimension", "phi_t"}
        assert isinstance(mod.phi_t, OrePoly)


def test_coefficients_must_be_square(tower2):
    t, o = tower2.T(), tower2.one()
    with pytest.raises(ShapeMismatch):
        TModule(tower2, (Mat(((t, o),)),))
    with pytest.raises(ShapeMismatch):
        TModule(tower2, (Mat(((t,),)), Mat(((o, o),))))
    with pytest.raises(ShapeMismatch):
        TModule._of(tower2, [[(t,), (o,)]])


def _refuse(*args):
    raise AssertionError("an OrePoly built from or read as matrices")


def _module_work():
    """Build modules from manifests and builders, then decide stability,
    scan exponents and bound them."""
    manifests = [parse_manifest(_packaged(n))
                 for n in ("prop3.tml", "root_twist.tml")]
    manifests.append(parse_manifest(
        (GOLDEN_MANIFESTS / "f3g.tml").read_text(encoding="utf-8")))
    tower = FieldTower(FiniteField(2))
    ext = sqrt_tower(tower)
    t = tower.T()
    modules = [carlitz(tower), drinfeld(tower, (t, t * t)),
               product([carlitz(tower), carlitz_tensor(tower, 2)]),
               sqrt_twist(ext), counterexample_module(ext)]
    subgroups = [curve_of_squares(modules[-1])]
    for manifest in manifests:
        modules += manifest.modules.values()
        subgroups += manifest.subgroups.values()
    out = [mod.j_bound() if mod.nilpotency_order() is not None else None
           for mod in modules]
    for sub in subgroups:
        fq = sub.module.tower.fq
        out.append(sub.stability(Poly(fq, (0, 1, 1))))
        out.append(minimal_j_scan(sub, 2))
    return out


def test_no_matrix_round_trip_in_builders_or_the_tangent_check(monkeypatch):
    # phi_T's entries pass straight into each module, and the tangent
    # check reads a_0 and dp as tau-degree-0 entries
    want = _module_work()
    monkeypatch.setattr(OrePoly, "__init__", _refuse)
    monkeypatch.setattr(OrePoly, "coeffs", property(_refuse))
    assert _module_work() == want
