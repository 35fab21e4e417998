"""One sparse Horner kernel, OrePoly.horner, serves TModule.act,
KernelSubgroup._pullback, torsion.root_action, and at a_0 the re-check
of TModule.j_bound and the differential of a module whose N is not
nilpotent.  These tests compare the kernel and TModule.differential
(which sums Taylor's formula on a T-module, see test_tangent_taylor)
with reference copies of the Horner rule driven by twisted composition
and of the differential's matrix loop, and check that no intermediate
composition or matrix product is formed and that each twist of a row of
x is formed once per call."""

import random
from collections import Counter

import pytest

from tml.errors import FieldMismatch, ShapeMismatch
from tml.fields import FieldTower, FiniteField, Poly, TowerElement
from tml.linalg import Mat, _sparse_rows
from tml.ore import OrePoly
from tml.subgroups import KernelSubgroup
from tml.tmodule import TModule, carlitz, carlitz_tensor, drinfeld, product
from tml.torsion import root_action, root_action_step, sqrt_tower


# -- reference copies of the Horner paths the kernel replaced ---------------

def _ref_at(a, x, const):
    """Horner's rule at x in any ring with * and +."""
    coeffs = a.coeffs
    if not coeffs:
        return const(0)
    acc = const(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * x
        if c:
            acc = acc + const(c)
    return acc


def _ref_times(left, tower, a, x):
    """left * a(x) by _ref_at, after the field check of the callers."""
    if a.field != tower.fq:
        raise FieldMismatch("polynomial over a different F_q")
    return _ref_at(a, x, lambda c: left.scale(tower.const(c)))


def _ref_act(module, a):
    ident = OrePoly.identity(module.tower, module.dimension)
    return _ref_times(ident, module.tower, a, module.phi_t)


def _ref_pullback(sub, a):
    return _ref_times(sub.presentation, sub.module.tower, a,
                      sub.module.phi_t)


def _ref_root_action(ext, b):
    return _ref_times(OrePoly.identity(ext, 1), ext, b, root_action_step(ext))


def _ref_differential(module, a, left=None):
    """left * a(a_0) by Horner's rule on Mat products."""
    tower = module.tower
    if a.field != tower.fq:
        raise FieldMismatch("polynomial over a different F_q")
    if left is None:
        left = Mat.identity(tower, module.dimension)
    elif left.cols != module.dimension:
        raise ShapeMismatch("left factor column count must match")
    coeffs = a.coeffs
    if not coeffs:
        return Mat.zeros(tower, left.rows, module.dimension)
    acc = left.scale(tower.const(coeffs[-1]))
    for c in reversed(coeffs[:-1]):
        acc = acc @ module.a0
        if c:
            acc = acc + left.scale(tower.const(c))
    return acc


def _outcome(fn, *args):
    """fn(*args), or the class of the tml error it raises."""
    try:
        return fn(*args)
    except (FieldMismatch, ShapeMismatch) as exc:
        return type(exc)


# -- seeded differential test over F_2, F_3, F_4 and F_9 ---------------------

def _quotient_ring():
    """F_3(T)[U]/(U^2 - T^2), in which U - T is a zero divisor."""
    base = FieldTower(FiniteField(3))
    t = base.T()
    return base.extend("U", (base.zero() - t * t, base.zero(), base.one()))


TOWERS = {f"q{p ** e}-depth{d}": (p, e, d)
          for p, e in ((2, 1), (3, 1), (2, 2), (3, 2)) for d in (0, 1)}
TOWERS["quotient-ring"] = None


def _tower(name):
    if TOWERS[name] is None:
        return _quotient_ring()
    p, e, d = TOWERS[name]
    base = FieldTower(FiniteField(p, e))
    return sqrt_tower(base) if d else base


def _polys(rng, fq, max_deg):
    """The zero polynomial, the constants 1 and (q > 2) a non-unit, and
    random polynomials up to max_deg."""
    out = [Poly.zero(fq), Poly(fq, (1,))]
    if fq.q > 2:
        out.append(Poly(fq, (fq.q - 1,)))
    for _ in range(4):
        out.append(Poly(fq, [rng.randrange(fq.q)
                             for _ in range(rng.randrange(max_deg))]
                        + [1 + rng.randrange(fq.q - 1)]))
    return out


def _modules(rng, tower, sparse_mat):
    """Carlitz, two tensor powers, a Drinfeld module, a product and a
    random 2 x 2 module of tau-degree 1 with sparse coefficients."""
    u = tower.gen() if tower.parent is not None else tower.T()
    return (carlitz(tower), carlitz_tensor(tower, 2), carlitz_tensor(tower, 3),
            drinfeld(tower, (u, tower.one())),
            product([carlitz(tower), drinfeld(tower, (tower.zero(), u))]),
            TModule(tower, [sparse_mat(rng, tower, 2, 2),
                            sparse_mat(rng, tower, 2, 2, zero_row=0)]))


def _presentations(rng, tower, m, sparse_mat):
    """Nonzero presentations: 1 x m of tau-degree 0, 2 x m of tau-degree
    1 whose top coefficient has a zero row, and 2 x m of tau-degree 2
    with a zero row at tau-degree 0; the top coefficient has entry 1 at
    (0, 0)."""
    def topped(mat):
        rows = [list(r) for r in mat.data]
        rows[0][0] = tower.one()
        return Mat(rows)

    yield OrePoly(tower, 1, m, [topped(sparse_mat(rng, tower, 1, m))])
    yield OrePoly(tower, 2, m, [sparse_mat(rng, tower, 2, m),
                                topped(sparse_mat(rng, tower, 2, m,
                                                  zero_row=1))])
    yield OrePoly(tower, 2, m, [sparse_mat(rng, tower, 2, m, zero_row=0),
                                sparse_mat(rng, tower, 2, m),
                                topped(sparse_mat(rng, tower, 2, m))])


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_kernel_matches_the_reference_paths(name, sparse_mat):
    rng = random.Random(sorted(TOWERS).index(name) + 2000)
    tower = _tower(name)
    fq = tower.fq
    other = Poly(FiniteField(5), (1, 1))
    max_deg = 3 if fq.q > 3 else 4
    polys = _polys(rng, fq, max_deg) + [other]
    for module in _modules(rng, tower, sparse_mat):
        m = module.dimension
        left = sparse_mat(rng, tower, 2, m, zero_row=1)
        # the differential reads only the constant term of its left factor
        left_op = OrePoly(tower, 2, m, [left, left])
        for a in polys:
            assert (_outcome(module.act, a)
                    == _outcome(_ref_act, module, a))
            assert (_outcome(module.differential, a)
                    == _outcome(_ref_differential, module, a))
            assert (_outcome(module.differential, a, left_op)
                    == _outcome(_ref_differential, module, a, left))
            for p in _presentations(rng, tower, m, sparse_mat):
                sub = KernelSubgroup(module, p)
                assert (_outcome(sub._pullback, a)
                        == _outcome(_ref_pullback, sub, a))
        # a left factor of the wrong width
        bad = sparse_mat(rng, tower, 1, m + 1)
        assert (_outcome(module.differential, polys[-2],
                         OrePoly(tower, 1, m + 1, [bad])) is ShapeMismatch)
        assert (_outcome(_ref_differential, module, polys[-2], bad)
                is ShapeMismatch)
    if tower.parent is not None:
        for b in polys:
            assert (_outcome(root_action, tower, b)
                    == _outcome(_ref_root_action, tower, b))


def test_kernel_refuses_operands_from_elsewhere(tower2, tower3):
    mod2, mod3 = carlitz_tensor(tower2, 2), carlitz_tensor(tower3, 2)
    a = Poly(tower2.fq, (1, 1))
    ident = OrePoly.identity(tower2, 2)
    with pytest.raises(FieldMismatch):
        ident.horner(a, OrePoly.identity(sqrt_tower(tower2), 2))
    with pytest.raises(FieldMismatch):
        ident.horner(Poly(tower3.fq, (1, 1)), mod2.phi_t)
    with pytest.raises(ShapeMismatch):
        OrePoly.identity(tower2, 3).horner(a, mod2.phi_t)
    with pytest.raises(ShapeMismatch):
        ident.horner(a, OrePoly(tower2, 2, 3, [Mat.zeros(tower2, 2, 3)]
                                + [Mat(((tower2.one(),) * 3,) * 2)]))
    # a left factor from another tower, whatever the polynomial; the
    # reference refused it only when a product was formed
    left = Mat(((tower3.T(), tower3.one()),))
    left_op = OrePoly(tower3, 1, 2, [left])
    own = Mat(((tower2.T(),) * 2,))
    for b in (Poly(tower2.fq, (1, 1)), Poly(tower2.fq, (1,))):
        assert _ref_differential(mod2, b, own) \
            == mod2.differential(b, OrePoly(tower2, 1, 2, [own]))
        assert _outcome(_ref_differential, mod2, b, left) is FieldMismatch
        assert _outcome(mod2.differential, b, left_op) is FieldMismatch
    zero = Poly.zero(tower2.fq)
    assert _ref_differential(mod2, zero, left) == Mat.zeros(tower2, 1, 2)
    assert _outcome(mod2.differential, zero, left_op) is FieldMismatch
    assert mod3.differential(Poly.zero(tower3.fq), left_op) == \
        Mat.zeros(tower3, 1, 2)


# -- no intermediate composition, one twist per rung ------------------------

def _refuse(*args):
    raise AssertionError("intermediate composition or matrix product")


def test_callers_form_no_composition_or_matrix_product(monkeypatch):
    ext = sqrt_tower(FieldTower(FiniteField(2)))
    fq = ext.fq
    module = product([carlitz(ext), drinfeld(ext, (ext.gen(), ext.one()))])
    sub = KernelSubgroup.from_entries(module, [[(ext.one(),),
                                                (ext.zero(), ext.one())]])
    dp = sub.presentation.coeff(0)
    polys = [Poly(fq, (0, 1, 1)), Poly(fq, (1, 0, 1, 1)), Poly(fq, (1,))]
    calls = [lambda a: module.act(a), lambda a: sub._pullback(a),
             lambda a: root_action(ext, a),
             lambda a: module.differential(a),
             lambda a: module.differential(a, sub.presentation)]
    want = [_ref_act(module, a) for a in polys] + \
        [_ref_pullback(sub, a) for a in polys] + \
        [_ref_root_action(ext, a) for a in polys] + \
        [_ref_differential(module, a) for a in polys] + \
        [_ref_differential(module, a, dp) for a in polys]
    monkeypatch.setattr(OrePoly, "__mul__", _refuse)
    monkeypatch.setattr(Mat, "__matmul__", _refuse)
    monkeypatch.setattr(Mat, "zeros", _refuse)
    assert [call(a) for call in calls for a in polys] == want


def _rungs_read(x, a):
    """The Frobenius calls and steps that twisting once per (coefficient,
    row, level) costs, and a(x).  At every Horner step of the reference,
    each column k that the accumulator reads at tau-degree i > 0 names
    row k of every x_j; the first such read costs one call per entry of
    that row, of i - l steps, l the highest level of the row formed
    before (0 for x_j itself)."""
    ident = OrePoly.identity(x.tower, x.rows)
    acc = ident.scale(x.tower.const(a.coeffs[-1]))
    xs = [_sparse_rows(c.data) for c in x.coeffs]
    formed = {}
    calls = steps = 0
    for c in reversed(a.coeffs[:-1]):
        for i, m in enumerate(acc.coeffs):
            used = {k for row in m.data for k, v in enumerate(row)
                    if not v.is_zero()}
            for j, rows in enumerate(xs):
                for k in sorted(used):
                    levels = formed.setdefault((j, k), {0})
                    if i not in levels:
                        low = max(lv for lv in levels if lv < i)
                        levels.add(i)
                        calls += len(rows[k])
                        steps += (i - low) * len(rows[k])
        acc = acc * x
        if c:
            acc = acc + ident.scale(x.tower.const(c))
    return calls, steps, acc


def test_each_rung_is_twisted_once(monkeypatch):
    ext = sqrt_tower(FieldTower(FiniteField(2)))
    module = carlitz_tensor(ext, 2)
    t8 = Poly(ext.fq, (0,) * 8 + (1,))
    calls, steps, want = _rungs_read(module.phi_t, t8)
    counts = Counter()

    def counted(x, i=1, _frob=TowerElement.frob):
        counts["calls"] += 1
        counts["steps"] += i
        return _frob(x, i)

    monkeypatch.setattr(TowerElement, "frob", counted)
    assert module.act(t8) == want
    assert (counts["calls"], counts["steps"]) == (calls, steps)
