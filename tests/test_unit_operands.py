"""A product with a unit or zero operand, or a sum with a zero operand,
is never formed: each layer returns the other operand instead.  These
tests count the products that a fixed root-twist round still forms with
such an operand (none), check that every early return still refuses an
operand from another field or tower, and that the shared zero and one
are what constructors, embeddings, Frobenius and the matrix kernels hand
on."""

from collections import Counter

import pytest

from tml.errors import FieldMismatch
from tml.fields import FieldTower, FiniteField, Poly, RatFunc, TowerElement
from tml.linalg import Mat, _sparse_rows, _weak_popov
from tml.ore import OrePoly
from tml.subgroups import KernelSubgroup
from tml.tmodule import carlitz_tensor
from tml.torsion import counterexample_module, curve_of_squares, sqrt_tower


def _root_round():
    """Curve and axis stability under T^2 and T^3, an action, an
    evaluation at a depth-1 point and an inverse at depth 1, over
    F_2(T)(U) with U^2 = T."""
    f2 = FiniteField(2)
    ext = sqrt_tower(FieldTower(f2))
    module = counterexample_module(ext)
    axis = KernelSubgroup.from_entries(carlitz_tensor(ext, 2),
                                       [[(ext.one(),), (ext.zero(),)]])
    t2, t3 = Poly(f2, (0, 0, 1)), Poly(f2, (0, 0, 0, 1))
    u, t = ext.gen(), ext.T()
    out = [sub.stability(a) for sub in (curve_of_squares(module), axis)
           for a in (t2, t3)]
    out.append(module.act(t3).evaluate((u + t, u * t)))
    out.append((u + t).inverse())
    return out


def _is_unit_or_zero(x):
    if isinstance(x, Poly):
        return x.is_zero() or x == Poly.one(x.field)
    return x.is_zero() or x == x.one()


@pytest.fixture
def formed(monkeypatch):
    """Counts, per class, the products that have a unit or zero operand
    and are still formed: whose result is neither operand."""
    counts = Counter()
    for cls in (TowerElement, Poly):
        def counted(x, y, _mul=cls.__mul__, _name=cls.__name__):
            out = _mul(x, y)
            if (out is not x and out is not y
                    and (_is_unit_or_zero(x) or _is_unit_or_zero(y))):
                counts[_name] += 1
            return out
        monkeypatch.setattr(cls, "__mul__", counted)
    return counts


def test_root_round_forms_no_product_with_a_unit_or_zero(formed):
    _root_round()
    assert formed == Counter()


# -- every early return still refuses an operand from elsewhere ---------------


@pytest.fixture
def towers(tower2, tower3):
    """Pairs of towers whose elements must not meet: F_2(T) and F_3(T),
    F_2(T) and F_2(T)(U), and F_2(T)(U) and F_3(T)(U)."""
    return ((tower2, tower3), (tower2, sqrt_tower(tower2)),
            (sqrt_tower(tower2), sqrt_tower(tower3)))


def test_ratfunc_products_with_units_and_zeros_refuse_other_fields(f2, f3):
    x2, x3 = RatFunc.gen(f2), RatFunc.gen(f3)
    for a in (RatFunc.one(f2), RatFunc.zero(f2)):
        for b in (x3, RatFunc.one(f3), RatFunc.zero(f3)):
            for op in (lambda: a * b, lambda: b * a):
                with pytest.raises(FieldMismatch):
                    op()
    with pytest.raises(FieldMismatch):
        x2 * RatFunc.one(f3)


def test_tower_products_and_sums_with_units_and_zeros_refuse(towers):
    for s, t in towers:
        for a in (s.one(), s.zero(), s.T()):
            for b in (t.one(), t.zero()):
                for op in (lambda: a * b, lambda: b * a, lambda: a + b,
                           lambda: b + a):
                    with pytest.raises(FieldMismatch):
                        op()
        with pytest.raises(FieldMismatch):
            s.one() * RatFunc.one(s.fq)


def test_matrix_scaling_by_a_unit_refuses_other_towers(towers):
    for s, t in towers:
        for m in (Mat.identity(s, 2), Mat.zeros(s, 2, 2)):
            for e in (t.one(), t.zero(), t.T()):
                with pytest.raises(FieldMismatch):
                    m.scale(e)
        for p in (OrePoly.identity(s, 2), OrePoly.zero(s, 2, 2)):
            for e in (t.one(), t.zero()):
                with pytest.raises(FieldMismatch):
                    p.scale(e)


def test_matrix_products_with_units_refuse_other_towers(towers):
    for s, t in towers:
        for a in (Mat.identity(s, 2), Mat.zeros(s, 2, 2)):
            for b in (Mat.identity(t, 2), Mat.zeros(t, 2, 2)):
                with pytest.raises(FieldMismatch):
                    a @ b
            for v in ((t.one(), t.zero()), (t.zero(), t.zero())):
                with pytest.raises(FieldMismatch):
                    a.matvec(v)


# -- the shared zero and one --------------------------------------------------


def test_constants_and_embeddings_are_the_shared_zero_and_one(any_tower):
    t = any_tower
    assert t.const(0) is t.zero() and t.const(1) is t.one()
    for up in t.ancestors():
        assert t.embed(up.one()) is t.one()
        assert t.embed(up.zero()) is t.zero()
    for x in (t.one(), t.zero()):
        assert x.frob(1) is x and x.frob(3) is x


def test_units_and_zeros_return_the_other_operand(any_tower, sparse_elem,
                                                  rng):
    t = any_tower
    for _ in range(6):
        x = sparse_elem(rng, t)
        assert (t.zero() * x).is_zero() and (x * t.zero()).is_zero()
        if x.is_zero():
            continue
        assert t.one() * x is x and x * t.one() is x
        assert t.zero() + x is x and x + t.zero() is x
        # a 1 that is not the shared object gives the same value
        one = t.unflatten(t.flatten(t.one()))
        assert one * x == x and x * one == x


def test_scaling_by_one_returns_the_operand(any_tower, sparse_mat, rng):
    t = any_tower
    m = sparse_mat(rng, t, 2, 3)
    assert m.scale(t.one()) is m
    assert m.scale(t.unflatten(t.flatten(t.one()))) is m
    assert m.scale(t.zero()) == Mat.zeros(t, 2, 3)
    p = OrePoly(t, 2, 3, (m, m))
    assert p.scale(t.one()) is p
    assert p.scale(t.zero()).is_zero()
    x = t.T() + t.one()
    assert m.scale(x) == Mat(tuple(tuple(a * x for a in row)
                                   for row in m.data))


def test_sparse_rows_and_pivots_hand_on_the_shared_one(any_tower):
    t = any_tower
    one = t.unflatten(t.flatten(t.one()))
    assert one is not t.one()
    (row,) = _sparse_rows(((t.zero(), one, t.T()),))
    assert [c for c, _ in row] == [1, 2] and row[0][1] is t.one()
    rows = [[[one], [t.T()]], [[t.T()], [one]]]
    owners, _ = _weak_popov(rows, range(2), [0, 0])
    assert owners[0][1] is rows[0] and rows[0][0][0] is t.one()
