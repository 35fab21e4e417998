import os
import random
import subprocess
import sys
import textwrap

import pytest

from tml.errors import BadParameter, CertificateError, TmlError

from tml.corpus import random_element
from tml.fields import FieldTower, FiniteField, Poly, RatFunc, pth_root
from tml.tmodule import carlitz, carlitz_tensor, drinfeld
from tml.torsion import (TorsionCertificate, TorsionRefuted, act_on_point,
                         certify_torsion_subvariety, counterexample_module,
                         curve_of_squares, degree1_kernel,
                         frobenius_intertwines, is_torsion,
                         root_kernel_degrees, root_of_square_identity,
                         sqrt_tower, sqrt_twist, square_family_points,
                         square_root_family, torsion_order_search)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _ext2(tower2):
    return sqrt_tower(tower2)


def test_act_on_point_matches_composed_operator(tower2, rng):
    mod = carlitz_tensor(tower2, 2)
    for _ in range(15):
        a = Poly(tower2.fq, [rng.randrange(2) for _ in range(4)])
        pt = (random_element(rng, tower2, 1), random_element(rng, tower2, 1))
        assert act_on_point(mod, a, pt) == mod.act(a).evaluate(pt)


def test_act_on_point_over_odd_characteristic(tower3, rng):
    mod = carlitz(tower3)
    for _ in range(15):
        a = Poly(tower3.fq, [rng.randrange(3) for _ in range(3)])
        pt = (random_element(rng, tower3, 1),)
        assert act_on_point(mod, a, pt) == mod.act(a).evaluate(pt)


def test_carlitz_t_kills_its_own_variable(tower2):
    # T*x + x^2 vanishes at x = T in characteristic 2
    mod = carlitz(tower2)
    t = tower2.T()
    assert act_on_point(mod, Poly(tower2.fq, (0, 1)), (t,)) == \
        (tower2.zero(),)
    cert = torsion_order_search(mod, (t,), 2)
    assert isinstance(cert, TorsionCertificate)
    assert cert.order == Poly(tower2.fq, (0, 1))


def test_constant_point_is_torsion(tower2):
    # 1 is killed by T^2 + T = T(T + 1) but by nothing of lower degree
    mod = carlitz(tower2)
    cert = torsion_order_search(mod, (tower2.one(),), 2)
    assert isinstance(cert, TorsionCertificate)
    assert cert.order == Poly(tower2.fq, (0, 1, 1))


def test_torsion_refuted_for_free_point(tower2):
    from tml.fields import RatFunc
    mod = carlitz(tower2)
    invt = tower2.from_ratfunc(RatFunc(Poly.one(tower2.fq),
                                       Poly(tower2.fq, (0, 1))))
    out = torsion_order_search(mod, (invt,), 3)
    assert isinstance(out, TorsionRefuted)
    assert out.max_degree == 3
    assert not is_torsion(mod, (invt,), Poly(tower2.fq, (0, 1)))


def test_torsion_module_closure(tower2, rng):
    # if a kills v then every multiple of a kills v, and a kills the
    # image of v under any action
    mod = counterexample_module(_ext2(tower2))
    ext = _ext2(tower2)
    pt = (ext.T(), ext.gen())
    a = Poly(tower2.fq, (0, 1))
    assert all(x.is_zero() for x in act_on_point(mod, a, pt))
    for _ in range(10):
        b = Poly(tower2.fq, [rng.randrange(2) for _ in range(3)] + [1])
        assert all(x.is_zero() for x in act_on_point(mod, a * b, pt))
        moved = act_on_point(mod, b, pt)
        assert all(x.is_zero() for x in act_on_point(mod, a, moved))


def test_degree1_kernel_in_characteristic_two(tower2):
    t = tower2.T()
    kernel = degree1_kernel(t, tower2.one())
    assert kernel.theta == t
    assert set(kernel.elements) == {tower2.zero(), t}
    for e in kernel.elements:
        assert (t * e + e.frob(1)).is_zero()


def test_degree1_kernel_needs_extension_for_odd_q(tower3):
    t = tower3.T()
    kernel = degree1_kernel(t, tower3.one())
    th = kernel.theta
    assert th.tower != tower3
    assert len(kernel.elements) == 3
    for e in kernel.elements:
        assert (th.tower.embed(t) * e + e.frob(1)).is_zero()


def test_degree1_kernel_rejects_zero_leading(tower2):
    with pytest.raises(ValueError):
        degree1_kernel(tower2.T(), tower2.zero())


def test_sqrt_twist_coefficients(tower2):
    ext = _ext2(tower2)
    tw = sqrt_twist(ext)
    u = ext.gen()
    assert tw.phi_t.scalar_elems() == (ext.T(), u + ext.T(), ext.one())


def test_frobenius_intertwines_forever(tower2, rng):
    ext = _ext2(tower2)
    fq = tower2.fq
    for b in (Poly(fq, (0, 1)), Poly(fq, (0, 0, 1)), Poly(fq, (1, 1, 1)),
              Poly(fq, (0, 1, 0, 1))):
        assert frobenius_intertwines(ext, b)


def test_root_of_square_identity_randomized(tower2, rng):
    ext = _ext2(tower2)
    for _ in range(40):
        w = random_element(rng, ext)
        assert root_of_square_identity(ext, w)


def test_curve_membership_and_family_orders(tower2):
    ext = _ext2(tower2)
    mod = counterexample_module(ext)
    curve = curve_of_squares(mod)
    pts = square_family_points(ext)
    t_poly = Poly(tower2.fq, (0, 1))
    t2_poly = Poly(tower2.fq, (0, 0, 1))
    assert curve.contains(pts[0])
    assert curve.contains(pts[1])
    c0 = torsion_order_search(mod, pts[0], 2)
    c1 = torsion_order_search(mod, pts[1], 3)
    assert c0.order == t_poly
    assert c1.order == t2_poly


def test_square_root_family_requires_a_root(tower2):
    ext = _ext2(tower2)
    with pytest.raises(BadParameter, match="no p-th root"):
        square_root_family(ext, ext.gen())


@pytest.mark.parametrize("make", [lambda t: t.inverse(),
                                  lambda t: t * t + t,
                                  lambda t: t ** 3],
                         ids=["1/T", "T^2+T", "T^3"])
def test_square_root_family_rejects_non_torsion(tower2, make):
    # each has a square root in the tower but no order of degree <= 2;
    # the error is a TmlError and still a ValueError
    ext = _ext2(tower2)
    with pytest.raises(BadParameter, match="not torsion") as info:
        square_root_family(ext, make(ext.T()), order_cap=2)
    assert isinstance(info.value, TmlError)
    assert isinstance(info.value, ValueError)


def test_square_root_family_certifies(tower2):
    ext = _ext2(tower2)
    fam = square_root_family(ext, ext.T(), order_cap=2)
    assert fam.point == (ext.T(), ext.gen())
    assert fam.certificate.order == Poly(tower2.fq, (0, 1))


def test_certified_subvariety_never_stabilizes(tower2):
    cert = certify_torsion_subvariety(tower2, max_j=4)
    assert cert.scan.found is None
    assert cert.scan.searched_to == 4
    assert [o.degree for o in cert.orders] == [1, 2]
    assert len(cert.points) == 2


def test_family_beyond_the_order_cap_is_a_certificate_error(tower2):
    # the second family point has order T^2, so a cap of 1 cannot certify it
    with pytest.raises(CertificateError, match="not torsion within the cap"):
        certify_torsion_subvariety(tower2, order_cap=1)


def test_root_kernel_degrees_grow(tower2):
    ext = _ext2(tower2)
    levels = root_kernel_degrees(ext, 4)
    assert levels == ((1, True), (2, True), (3, True), (4, True))


def test_pth_root_tower_alignment(tower2):
    ext = _ext2(tower2)
    u = ext.gen()
    assert pth_root(ext.T()) == u
    assert pth_root(u) is None


def _reference_search(module, point, max_degree):
    """The plain enumeration: monic candidates by degree, then by the
    base-q integer whose digits are the lower coefficients; the first
    annihilator is the order.  Returns (order or None, tried, iterates
    transcript or max_degree)."""
    fq = module.tower.fq
    vt = point[0].tower
    iterates = [tuple(point)]
    for _ in range(max_degree):
        iterates.append(tuple(module.phi_t.evaluate(iterates[-1])))
    tried = 0
    for d in range(max_degree + 1):
        for n in range(fq.q ** d):
            tried += 1
            low = [n // fq.q ** i % fq.q for i in range(d)]
            acc = iterates[d]
            for i, c in enumerate(low):
                acc = tuple(x + y * vt.const(c)
                            for x, y in zip(acc, iterates[i]))
            if all(x.is_zero() for x in acc):
                transcript = tuple(tuple(x.to_expr() for x in it)
                                   for it in iterates[:d + 1])
                return Poly(fq, low + [1]), tried, transcript
    return None, tried, max_degree


def _kernel_sum(fq, a, b):
    """A Carlitz point of order (T + a)(T + b), a != b: the sum of kernel
    points of C_{T+a} and C_{T+b}, each adjoined by a radical step."""
    t = FieldTower(fq)
    k1 = degree1_kernel(t.T() + t.const(a), t.one(), "W")
    tw = k1.tower
    k2 = degree1_kernel(tw.T() + tw.const(b), tw.one(), "V")
    tv = k2.tower
    return carlitz(tv), (tv.embed(k1.theta) + k2.theta,)


def _differential_cases(rng):
    # (q, search bound) with q = 4 and 9 built on nonprime F_q
    fields = {(2, 1): 5, (3, 1): 3, (2, 2): 3, (5, 1): 2, (3, 2): 2}
    for (p, e), bound in fields.items():
        fq = FiniteField(p, e)
        t = FieldTower(fq)
        q = fq.q

        def poly_elem():
            cs = [rng.randrange(q) for _ in range(2)]
            return t.from_ratfunc(RatFunc.from_poly(Poly(fq, cs)))

        modules = (carlitz(t), carlitz_tensor(t, 2),
                   drinfeld(t, (t.const(rng.randrange(1, q)), t.one())))
        for mod in modules:
            dim = mod.dimension
            yield mod, (t.zero(),) * dim, bound
            yield mod, tuple(t.const(rng.randrange(1, q))
                             for _ in range(dim)), bound
            yield mod, tuple(poly_elem() for _ in range(dim)), bound
        # rational points through phi_T of degree two blow up for odd q
        yield carlitz(t), (random_element(rng, t, 1),), (bound if q < 4
                                                          else 1)
    f2 = FieldTower(FiniteField(2))
    yield carlitz_tensor(f2, 2), (random_element(rng, f2, 1),
                                  random_element(rng, f2, 1)), 4
    ext = sqrt_tower(f2)
    for pt in square_family_points(ext):
        yield counterexample_module(ext), pt, 3
    for p, e, a in ((3, 1, 0), (2, 2, 2), (5, 1, 3)):
        mod, pt = _kernel_sum(FiniteField(p, e), a, 1)
        yield mod, pt, 2


def test_search_matches_reference_enumeration():
    seen = set()
    for mod, pt, bound in _differential_cases(random.Random(20261018)):
        order, tried, tail = _reference_search(mod, pt, bound)
        out = torsion_order_search(mod, pt, bound)
        assert out.tried == tried
        if order is None:
            assert isinstance(out, TorsionRefuted)
            assert out.max_degree == tail
            seen.add("refuted")
        else:
            assert isinstance(out, TorsionCertificate)
            assert out.order == order
            # the iterates themselves are kept, P first
            assert out.iterates[0] == tuple(pt)
            assert tuple(tuple(x.to_expr() for x in it)
                         for it in out.iterates) == tail
            seen.add(order.degree)
    # zero points, degree one and two orders, and refutations all occur
    assert seen >= {0, 1, 2, "refuted"}


def test_order_with_nonzero_lower_coefficients():
    # (T + g)(T + 1) over F_4 sits at position 1 + 4 + (g + (g+1)*4) + 1
    fq = FiniteField(2, 2)
    mod, pt = _kernel_sum(fq, 2, 1)
    out = torsion_order_search(mod, pt, 2)
    assert out.order == Poly(fq, (2, 3, 1))
    assert out.tried == 1 + 4 + (2 + 3 * 4) + 1


def test_refutation_counts_every_candidate():
    tower = FieldTower(FiniteField(5))
    out = torsion_order_search(carlitz(tower), (tower.T(),), 6)
    assert isinstance(out, TorsionRefuted)
    assert out.tried == 19531


def test_negative_search_degree_is_rejected(tower2):
    with pytest.raises(BadParameter):
        torsion_order_search(carlitz(tower2), (tower2.T(),), -1)


def test_composed_recheck_survives_optimized_mode():
    # corrupt the annihilator that the re-check composes; under -O the
    # search must still refuse to certify it
    script = textwrap.dedent("""
        from tml.errors import CertificateError
        from tml.fields import FieldTower, FiniteField, Poly
        from tml.tmodule import TModule, carlitz
        from tml.torsion import torsion_order_search
        act = TModule.act
        TModule.act = lambda self, a: act(self, a + Poly.one(a.field))
        tower = FieldTower(FiniteField(2))
        try:
            torsion_order_search(carlitz(tower), (tower.T(),), 2)
        except CertificateError as exc:
            print("refused:", exc)
        """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: order T failed")
