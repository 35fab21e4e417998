"""TModule.differential by Taylor's formula at T: a_0 = T*I + N with T*I
central, so dp * a(a_0) is the sum of D^k a * (dp * N^k) over the Hasse
derivatives D^k a.  These tests compare it with the Horner and
sum-of-powers references kept in test_horner_kernel and test_subgroups
and with the constant term of the action; check that on a T-module it
forms no Horner pass, composition or matrix product and at most
(order - 1) products with N; that a module whose N is not nilpotent
keeps Horner's rule; and that j_bound re-checks its scalar differential
by Horner's rule, not by the Taylor sum."""

import os
from collections import Counter

import pytest

from conftest import _sparse_mat, _tower
from test_horner_kernel import _quotient_ring
from test_horner_kernel import _ref_differential as _ref_horner
from test_subgroups import _ref_differential as _ref_powers
from test_unit_operands import formed  # noqa: F401  (fixture)
from tml import tmodule
from tml.errors import CertificateError
from tml.fields import Poly
from tml.linalg import Mat
from tml.manifest import load_manifest
from tml.ore import OrePoly
from tml.tmodule import TModule, carlitz, carlitz_tensor
from tml.torsion import sqrt_tower

EDGE = os.path.join(os.path.dirname(__file__), "golden", "manifests",
                    "edge.tml")

TOWERS = {f"q{p ** e}-depth{d}": (p, e, d)
          for p, e in ((2, 1), (3, 1), (2, 2), (3, 2)) for d in (0, 1, 2)}
TOWERS["quotient-ring"] = None


def _field_tower(name):
    return _quotient_ring() if TOWERS[name] is None else _tower(*TOWERS[name])


def _polys(fq):
    """Zero, the constants 1 and (q > 2) a non-unit, T, T^p, T^(p+1),
    (T + 1)^(p^2) and a polynomial with every coefficient set."""
    p = fq.p
    out = [Poly.zero(fq), Poly.one(fq), Poly.gen(fq),
           Poly(fq, (0,) * p + (1,)), Poly(fq, (0,) * (p + 1) + (1,)),
           Poly(fq, (1, 1)) ** (p * p), Poly(fq, (1,) * 5)]
    if fq.q > 2:
        out.append(Poly(fq, (fq.q - 1,)))
    return out


def _modules(tower):
    """Nilpotency orders 1, 2 and 3, and a module whose N has a full
    strict upper triangle (entries T + 1 and, above the base, the
    generator), so that sums in dp * N^k meet."""
    n = tower.gen() if tower.parent is not None else tower.T()
    z, o, t = tower.zero(), tower.one(), tower.T()
    dense = TModule._of(tower, [[(t if i == j else n + o if j > i else z,
                                  o if i == 2 and j == 0 else z)
                                 for j in range(3)] for i in range(3)])
    return (carlitz(tower), carlitz_tensor(tower, 2),
            carlitz_tensor(tower, 3), dense)


def _lefts(rng, tower, m):
    """Left factors as (twisted polynomial, its constant term): None, a
    2 x m factor with a zero row and a tau^1 term the differential
    ignores, and a 1 x m factor whose constant term is zero."""
    yield None, None
    dp = _sparse_mat(rng, tower, 2, m, zero_row=1)
    yield OrePoly(tower, 2, m, [dp, _sparse_mat(rng, tower, 2, m)]), dp
    zero = Mat.zeros(tower, 1, m)
    yield OrePoly(tower, 1, m, [zero, Mat(((tower.one(),) * m,))]), zero


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_taylor_matches_the_references(name, rng):
    tower = _field_tower(name)
    polys = _polys(tower.fq)
    for module in _modules(tower):
        m = module.dimension
        for a in polys:
            want = _ref_horner(module, a)
            assert module.differential(a) == want
            assert _ref_powers(module, a) == want
            # the full action of (T + 1)^9 over F_9 would hold entries of
            # degree 9^8 in T
            if a.degree <= 4:
                assert module.act(a).coeff(0) == want
            for op, dp in _lefts(rng, tower, m):
                if op is not None:
                    assert (module.differential(a, op)
                            == _ref_horner(module, a, dp))


def _refuse(*args):
    raise AssertionError("Horner pass, composition or matrix product")


def test_t_modules_use_no_horner_pass_and_few_products(monkeypatch, rng):
    cases = []
    for name in ("q2-depth1", "q3-depth0", "q4-depth1", "q9-depth0"):
        tower = _field_tower(name)
        for module in _modules(tower):
            order = module.nilpotency_order()
            for a in _polys(tower.fq):
                for op, dp in _lefts(rng, tower, module.dimension):
                    cases.append((module, a, op, order,
                                  _ref_horner(module, a, dp)))
    counts = Counter()

    def counted(rows, n, zero, _times=tmodule._times):
        counts["products"] += 1
        return _times(rows, n, zero)

    monkeypatch.setattr(tmodule, "_times", counted)
    for name in ("horner", "__mul__"):
        monkeypatch.setattr(OrePoly, name, _refuse)
    monkeypatch.setattr(Mat, "__matmul__", _refuse)
    monkeypatch.setattr(Mat, "zeros", _refuse)
    for module, a, op, order, want in cases:
        counts.clear()
        assert module.differential(a, op) == want
        assert counts["products"] <= order - 1


def test_cancelled_sums_and_unit_derivatives_form_no_product(formed):
    # over F_3(T)(U): N = U * (e01 + e02 + e13 + e34) - U * e23, so the
    # row e_0 * N^2 = U^2 (e_3 - e_3) + U^2 e_4 cancels in column 3,
    # whose row of N is not zero; D^1 T is 1
    ext = sqrt_tower(_tower(3, 1, 0))
    z, t, u = ext.zero(), ext.T(), ext.gen()
    nz = {(0, 1): u, (0, 2): u, (1, 3): u, (1, 4): u, (2, 3): z - u,
          (3, 4): u}
    module = TModule._of(ext, [[(t if i == j else nz.get((i, j), z),)
                                for j in range(5)] for i in range(5)])
    left = OrePoly._of(ext, 5, [[(ext.one(),)] + [()] * 4])
    fq = ext.fq
    for a in (Poly.gen(fq), Poly(fq, (0, 0, 1)), Poly(fq, (1, 2, 0, 1))):
        want = _ref_horner(module, a, left.coeff(0))
        formed.clear()
        assert module.differential(a, left) == want
        assert formed == Counter()


def test_a_module_whose_n_is_not_nilpotent_keeps_horner(monkeypatch):
    bad = load_manifest(EDGE).modules["Bad"]
    assert bad.nilpotency_order() is None
    fq = bad.tower.fq
    low = [Poly.zero(fq), Poly.one(fq), Poly.gen(fq)]
    high = [Poly(fq, (1, 0, 1)), Poly(fq, (1,) * 9)]
    want = {a: _ref_horner(bad, a) for a in low + high}
    calls = Counter()

    def counted(self, a, x, _horner=OrePoly.horner):
        calls["horner"] += 1
        return _horner(self, a, x)

    monkeypatch.setattr(OrePoly, "horner", counted)
    for a in low:
        # below degree m the Taylor sum ends before dp * N^m is read
        assert bad.differential(a) == want[a]
    assert calls["horner"] == 0
    for a in high:
        calls.clear()
        assert bad.differential(a) == want[a]
        assert calls["horner"] == 1


def test_j_bound_rechecks_by_horner(monkeypatch, tower3):
    module = carlitz_tensor(tower3, 2)
    assert module.j_bound() == 3
    t3 = Poly(tower3.fq, (0, 0, 0, 1))
    scalar = Mat.scalar(tower3, 2, tower3.T() ** 3)

    def wrong(self, a, x):
        return OrePoly.zero(x.tower, self.rows, x.cols)

    monkeypatch.setattr(OrePoly, "horner", wrong)
    # the Taylor sum still reads the scalar: binom(3, k) = 0 mod 3 for
    # 0 < k < 3, so it could not catch a wrong block
    assert module.differential(t3) == scalar
    with pytest.raises(CertificateError):
        module.j_bound()


def test_nilpotency_order_reads_n_as_the_differential_does(monkeypatch):
    towers = [_tower(2, 1, 1), _tower(3, 2, 0), _quotient_ring()]
    modules = [mod for tower in towers for mod in _modules(tower)]
    bad = load_manifest(EDGE).modules["Bad"]
    want = [1, 2, 3, 3] * len(towers) + [None]
    reads = Counter()

    def counted(self, _part=TModule._nilpotent_part):
        reads["n"] += 1
        return _part(self)

    monkeypatch.setattr(TModule, "_nilpotent_part", counted)
    monkeypatch.setattr(Mat, "__matmul__", _refuse)
    monkeypatch.setattr(Mat, "scalar", _refuse)
    assert [mod.nilpotency_order() for mod in modules + [bad]] == want
    assert reads["n"] == len(want)


def test_nilpotent_part_forms_no_difference_on_the_diagonal(monkeypatch):
    tower = sqrt_tower(_tower(2, 1, 0))
    module = carlitz_tensor(tower, 3)
    monkeypatch.setattr(type(tower.T()), "__sub__", _refuse)
    one = tower.one()
    assert module._nilpotent_part() == [[(1, one)], [(2, one)], []]
