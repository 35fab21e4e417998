import os
import random
import subprocess
import sys
import textwrap

import pytest

from tml.errors import FieldMismatch, NonInvertibleLeading, ShapeMismatch
from tml.fields import FieldTower, FiniteField, Poly, RatFunc
from tml.linalg import Mat
from tml.ore import OrePoly, left_multiple_witness, right_divide

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _rand_elem(rng, tower, degree=2):
    num = Poly(tower.fq,
               [rng.randrange(tower.fq.q) for _ in range(degree + 1)])
    den = Poly(tower.fq, [rng.randrange(tower.fq.q) for _ in range(degree)]
               + [1])
    return tower.from_ratfunc(RatFunc(num, den))


def _rand_scalar_op(rng, tower, degree):
    elems = [_rand_elem(rng, tower, 1) for _ in range(degree + 1)]
    return OrePoly.scalar(tower, elems)


def test_twist_rule_scalar(tower2):
    t = tower2.T()
    tau = OrePoly.scalar(tower2, (tower2.zero(), tower2.one()))
    c = OrePoly.scalar(tower2, (t,))
    # composing the twist after multiplication by c multiplies by c^q
    left = tau * c
    assert left.scalar_elems() == (tower2.zero(), t * t)


def test_composition_matches_evaluation(tower2, rng):
    for _ in range(30):
        f = _rand_scalar_op(rng, tower2, rng.randrange(3))
        g = _rand_scalar_op(rng, tower2, rng.randrange(3))
        v = (_rand_elem(rng, tower2),)
        assert (f * g).evaluate(v) == f.evaluate(g.evaluate(v))


def test_ring_axioms_spot_check(tower3, rng):
    for _ in range(15):
        f = _rand_scalar_op(rng, tower3, rng.randrange(3))
        g = _rand_scalar_op(rng, tower3, rng.randrange(3))
        h = _rand_scalar_op(rng, tower3, rng.randrange(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


def test_matrix_composition_shapes(tower2):
    t = tower2.T()
    o = tower2.one()
    z = tower2.zero()
    wide = OrePoly(tower2, 1, 2, (Mat(((o, t),)),))
    tall = OrePoly(tower2, 2, 1, (Mat(((o,), (t,))),))
    assert (wide * tall).rows == 1
    assert (wide * tall).cols == 1
    with pytest.raises(ShapeMismatch):
        tall + wide


def test_evaluation_lifts_into_extensions(tower2):
    t = tower2.T()
    op = OrePoly.scalar(tower2, (t, tower2.one()))
    ext = tower2.extend("U", (tower2.zero() - t, tower2.zero(),
                              tower2.one()))
    u = ext.gen()
    out = op.evaluate((u,))
    assert out == (ext.T() * u + u * u,)


def test_right_division_round_trip(tower2, rng):
    for _ in range(40):
        f = _rand_scalar_op(rng, tower2, rng.randrange(4))
        g = _rand_scalar_op(rng, tower2, rng.randrange(1, 3))
        if g.leading().is_zero() or g.leading()[0, 0].is_zero():
            continue
        res = right_divide(f, g)
        assert res.quotient * g + res.remainder == f
        assert res.remainder.is_zero() or res.remainder.degree < g.degree


def test_right_division_matrix_case(tower2, rng):
    t = tower2.T()
    o = tower2.one()
    z = tower2.zero()
    g = OrePoly(tower2, 2, 2, (Mat(((t, o), (z, t))),
                               Mat(((o, z), (z, o)))))
    for _ in range(10):
        mats = [Mat(tuple(tuple(_rand_elem(rng, tower2, 1)
                                for _ in range(2)) for _ in range(2)))
                for _ in range(3)]
        f = OrePoly(tower2, 2, 2, tuple(mats))
        res = right_divide(f, g)
        assert res.quotient * g + res.remainder == f
        assert res.remainder.is_zero() or res.remainder.degree < g.degree


def test_right_division_rejects_singular_leading(tower2):
    o = tower2.one()
    z = tower2.zero()
    g = OrePoly(tower2, 2, 2, (Mat.identity(tower2, 2),
                               Mat(((o, o), (o, o)))))
    f = OrePoly(tower2, 2, 2, (Mat.identity(tower2, 2),) * 3)
    with pytest.raises(NonInvertibleLeading):
        right_divide(f, g)
    with pytest.raises(ZeroDivisionError):
        right_divide(f, OrePoly.zero(tower2, 2, 2))


def test_left_multiple_witness_finds_planted_factor(tower2, rng):
    for _ in range(20):
        p = _rand_scalar_op(rng, tower2, 1)
        if p.leading()[0, 0].is_zero():
            continue
        q = _rand_scalar_op(rng, tower2, rng.randrange(3))
        g = q * p
        found = left_multiple_witness(p, g, bound=max(q.degree, 0))
        assert found is not None
        assert found * p == g


def test_left_multiple_witness_absent(tower2):
    t = tower2.T()
    p = OrePoly.scalar(tower2, (t, tower2.one()))
    g = OrePoly.scalar(tower2, (tower2.one(),))
    assert left_multiple_witness(p, g, bound=4) is None


def test_ore_constructors(tower2):
    ident = OrePoly.identity(tower2, 2)
    assert ident.degree == 0
    assert ident.coeff(0) == Mat.identity(tower2, 2)
    zero = OrePoly.zero(tower2, 2, 3)
    assert zero.is_zero()
    assert zero.rows == 2 and zero.cols == 3
    mats = (Mat.identity(tower2, 2), Mat.scalar(tower2, 2, tower2.T()))
    fm = OrePoly.from_matrices(tower2, mats)
    assert fm.degree == 1
    assert fm.coeff(1)[0, 0] == tower2.T()


def test_witness_recheck_survives_optimized_mode():
    # corrupt the solved witness system; under -O the re-expansion
    # q * p == g must still refuse it
    script = textwrap.dedent("""
        from tml import ore
        from tml.errors import CertificateError
        from tml.fields import FieldTower, FiniteField
        solve = ore.gauss_solve
        def corrupt(tower, rows, rhs):
            sol = solve(tower, rows, rhs)
            return [sol[0] + tower.one()] + sol[1:]
        ore.gauss_solve = corrupt
        tower = FieldTower(FiniteField(2))
        p = ore.OrePoly.scalar(tower, (tower.T(), tower.one()))
        try:
            ore.left_multiple_witness(p, p * p, bound=1)
        except CertificateError as exc:
            print("refused:", exc)
        """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused: witness failed independent re-expansion\n"


# -- differential test of composition against a schoolbook reference --------

def _ref_compose(f, g):
    """Every a_i * b_j^(q^i), zeros included, summed by tau-degree."""
    zero = f.tower.zero()
    out = [[[zero] * g.cols for _ in range(f.rows)]
           for _ in range(len(f.coeffs) + len(g.coeffs))]
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            bt, cells = b.frob(i), out[i + j]
            for r in range(f.rows):
                for c in range(g.cols):
                    for k in range(f.cols):
                        cells[r][c] = cells[r][c] + a[r, k] * bt[k, c]
    return OrePoly(f.tower, f.rows, g.cols, [Mat(tuple(map(tuple, m)))
                                             for m in out])


def _sparse_op(rng, sparse_mat, tower, rows, cols, degree):
    mats = [sparse_mat(rng, tower, rows, cols) for _ in range(degree + 1)]
    if degree > 1:
        mats[1] = Mat.zeros(tower, rows, cols)
    return OrePoly(tower, rows, cols, mats)


@pytest.mark.parametrize("seed", range(2))
def test_composition_matches_schoolbook(any_tower, sparse_mat, seed):
    rng = random.Random(seed)
    for m, k, n in ((1, 1, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2)):
        f = _sparse_op(rng, sparse_mat, any_tower, m, k, rng.randrange(3))
        g = _sparse_op(rng, sparse_mat, any_tower, k, n, rng.randrange(3))
        fg = f * g
        assert fg == _ref_compose(f, g)
        for d in range(len(f.coeffs) + len(g.coeffs) - 1):
            for r in range(m):
                for c in range(n):
                    if all(f.coeff(i)[r, x].is_zero()
                           or g.coeff(d - i)[x, c].is_zero()
                           for i in range(d + 1) for x in range(k)):
                        assert fg.coeff(d)[r, c].is_zero()
        h = _sparse_op(rng, sparse_mat, any_tower, n, n, rng.randrange(2))
        assert (fg * h) == f * (g * h)
    zero = OrePoly.zero(any_tower, 2, 2)
    f = _sparse_op(rng, sparse_mat, any_tower, 2, 2, 1)
    assert (f * zero).is_zero() and (zero * f).is_zero()


def test_composition_across_towers_raises_with_zero_operands(tower2,
                                                             tower3):
    # every pair of operands has a zero, so no product is ever formed
    f = OrePoly(tower2, 1, 2, (Mat(((tower2.one(), tower2.zero()),)),))
    g = OrePoly(tower3, 2, 1, (Mat(((tower3.zero(),), (tower3.one(),))),))
    with pytest.raises(FieldMismatch):
        f * g


def test_sums_of_different_degrees_build_no_zero_matrix(tower3, rng,
                                                        monkeypatch):
    # the shorter operand is not padded: its missing coefficients add
    # nothing, so the longer operand's tail is kept as it is
    def mats(n):
        return [Mat(tuple(tuple(_rand_elem(rng, tower3, 1) for _ in range(2))
                          for _ in range(2))) for _ in range(n)]

    short, long_ = mats(2), mats(4)
    expected = [short[0] + long_[0], short[1] + long_[1]] + long_[2:]
    f = OrePoly.from_matrices(tower3, short)
    g = OrePoly.from_matrices(tower3, long_)

    def refuse(*args):
        raise AssertionError("zero matrix built")

    monkeypatch.setattr(Mat, "zeros", refuse)
    assert list((f + g).coeffs) == expected
    assert list((g + f).coeffs) == expected
    assert (g - g).is_zero()
    assert (f + OrePoly.zero(tower3, 2, 2)) == f
    assert list((f - g).coeffs) == [short[0] - long_[0], short[1] - long_[1],
                                    -long_[2], -long_[3]]
