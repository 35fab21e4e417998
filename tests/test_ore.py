import os
import random
import subprocess
import sys
import textwrap

import pytest

from tml.errors import (BadParameter, CertificateError, FieldMismatch,
                        NonInvertibleLeading, ShapeMismatch, TmlError,
                        ZeroDivisor)
from tml.fields import FieldTower, FiniteField, Poly, RatFunc
from tml.linalg import (Mat, _divide, _filled, _mul_into, _shared_one,
                        _sparse_rows, _weak_popov, gauss_inverse, gauss_solve)
from tml.ore import (DivisionResult, OrePoly, _witness_bound,
                     left_multiple_witness, right_divide)
from tml.subgroups import KernelSubgroup
from tml import ore, torsion
from tml.corpus import base_field_tower, graph_modules
from tml.manifest import load_manifest
from tml.tmodule import carlitz, carlitz_tensor, product
from tml.torsion import (counterexample_module, curve_of_squares,
                         sqrt_tower, square_family_points)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


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
    fm = OrePoly(tower2, 2, 2, mats)
    assert fm.degree == 1
    assert fm.coeff(1)[0, 0] == tower2.T()


def test_witness_recheck_survives_optimized_mode():
    # corrupt the division's quotient; under -O the re-expansion
    # q * p == g must still refuse it
    script = textwrap.dedent("""
        from tml import ore
        from tml.errors import CertificateError
        from tml.fields import FieldTower, FiniteField
        divide = ore._divide
        def corrupt(row, cols, shift, owners):
            lead = divide(row, cols, shift, owners)
            if lead is None:  # a row of g divided: add 1 to its quotient
                row[-1][0] = row[-1][0] + row[-1][0].one()
            return lead
        ore._divide = corrupt
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
    f = OrePoly(tower3, 2, 2, short)
    g = OrePoly(tower3, 2, 2, long_)

    def refuse(*args):
        raise AssertionError("zero matrix built")

    monkeypatch.setattr(Mat, "zeros", refuse)
    assert list((f + g).coeffs) == expected
    assert list((g + f).coeffs) == expected
    assert (g - g).is_zero()
    assert (f + OrePoly.zero(tower3, 2, 2)) == f
    assert list((f - g).coeffs) == [short[0] - long_[0], short[1] - long_[1],
                                    -long_[2], -long_[3]]


# -- differential test of right division against the inverted leading matrix -

def _ref_right_divide(f, g):
    """f = q*g + r by the inverse of g's leading matrix: each step adds
    u tau^gap to q, padded below with zero matrices."""
    f._check(g)
    if g.rows != g.cols or f.cols != g.rows:
        raise ShapeMismatch("division shapes")
    if g.is_zero():
        raise ZeroDivisionError("twisted division by zero")
    lead_inv = gauss_inverse(g.tower, g.leading())
    if lead_inv is None:
        raise NonInvertibleLeading("divisor leading coefficient is singular")
    quo = OrePoly.zero(f.tower, f.rows, g.cols)
    rem = f
    while not rem.is_zero() and rem.degree >= g.degree:
        gap = rem.degree - g.degree
        u = rem.leading() @ lead_inv.frob(gap)
        step = OrePoly(f.tower, f.rows, g.rows,
                       (Mat.zeros(f.tower, f.rows, g.rows),) * gap + (u,))
        quo = quo + step
        rem = rem - step * g
    return quo, rem


def _division_outcome(divide, f, g):
    """(quotient, remainder), or the class of the exception raised."""
    try:
        res = divide(f, g)
    except (TmlError, ZeroDivisionError) as exc:
        return type(exc)
    return res if isinstance(res, tuple) else (res.quotient, res.remainder)


def _assert_division_matches_reference(tower, divisors, rng, sparse_mat):
    """Divide 0-row, zero, lower-degree and random dividends by each
    divisor, as right_divide and as the reference; returns the outcomes."""
    seen = set()
    for g in divisors:
        s = g.rows
        dividends = [OrePoly.zero(tower, 0, s), OrePoly.zero(tower, s, s),
                     OrePoly.zero(tower, 1, s)]
        for deg in range(max(g.degree, 0) + 3):
            for rows in (s, 1):
                dividends.append(OrePoly(tower, rows, s, [
                    sparse_mat(rng, tower, rows, s) for _ in range(deg + 1)]))
        for f in dividends:
            want = _division_outcome(_ref_right_divide, f, g)
            assert _division_outcome(right_divide, f, g) == want, (f, g)
            seen.add(want if isinstance(want, type) else tuple)
    return seen


def _divisors(tower, rng, sparse_mat):
    """Scalar and 2x2 divisors of degrees 0 to 2, random ones with sparse
    coefficients, and 2x2 ones whose leading matrix is singular though
    every row has full degree."""
    o, z = tower.one(), tower.zero()
    ident = Mat.identity(tower, 2)
    out = [OrePoly.zero(tower, 2, 2), OrePoly.identity(tower, 2),
           OrePoly(tower, 2, 2, (ident, Mat(((o, o), (o, o))))),
           OrePoly(tower, 2, 2, (ident, Mat(((z, o), (z, tower.T()))))),
           OrePoly(tower, 2, 2, (ident, Mat(((o, z), (z, z))), ident))]
    for deg in range(3):
        out.append(OrePoly(tower, 1, 1, [sparse_mat(rng, tower, 1, 1)
                                         for _ in range(deg)]
                           + [Mat(((tower.T() + o,),))]))
        out.append(OrePoly(tower, 2, 2, [sparse_mat(rng, tower, 2, 2)
                                         for _ in range(deg + 1)]))
    return out


def test_right_division_matches_the_inverted_leading_matrix(shallow_tower,
                                                            sparse_mat):
    tower = shallow_tower
    rng = random.Random(f"divide-{tower.depth}-{tower.fq.q}")
    seen = _assert_division_matches_reference(
        tower, _divisors(tower, rng, sparse_mat), rng, sparse_mat)
    assert {tuple, NonInvertibleLeading, ZeroDivisionError} <= seen


def test_right_division_in_a_quotient_ring_matches_the_reference(tower3,
                                                                 sparse_mat):
    # U^2 = T^2: U - T is a zero divisor, so a leading matrix that needs
    # it as a pivot raises ZeroDivisor on both sides
    t = tower3.T()
    ring = tower3.extend("U", (tower3.zero() - t * t, tower3.zero(),
                               tower3.one()))
    rng = random.Random("divide-quotient-ring")
    o, z, zd = ring.one(), ring.zero(), ring.gen() - ring.T()
    ident = Mat.identity(ring, 2)
    divisors = _divisors(ring, rng, sparse_mat) + [
        OrePoly.scalar(ring, (o, zd)), OrePoly.scalar(ring, (zd, o)),
        OrePoly(ring, 2, 2, (ident, Mat(((zd, o), (o, z))))),
        OrePoly(ring, 2, 2, (ident, Mat(((o, z), (zd, o))))),
        OrePoly(ring, 2, 2, (Mat(((zd, z), (z, z))),
                             Mat(((z, o), (o, z))))),
        OrePoly(ring, 2, 2, (ident, Mat(((zd, z), (z, ring.gen() + ring.T())))))]
    seen = _assert_division_matches_reference(ring, divisors, rng,
                                              sparse_mat)
    assert {tuple, NonInvertibleLeading, ZeroDivisor} <= seen


# -- differential test of the division against a per-row witness system ---

def _ref_witness(p, g, bound=None):
    """One dense system per row of Q, every coefficient of g read
    through OrePoly.coeff, zero matrices past its degree included."""
    p._check(g)
    if p.cols != g.cols or p.rows != g.rows:
        raise ShapeMismatch("witness target shape mismatch")
    if bound is None:
        bound = max(g.degree, 0)
    if bound < 0:
        raise BadParameter(f"negative bound {bound}")
    tower = p.tower
    s, m = p.rows, p.cols
    if s == 0:
        q = OrePoly.zero(tower, 0, 0)
        if q * p != g:
            raise CertificateError("witness failed independent re-expansion")
        return q
    if p.is_zero():
        return None if not g.is_zero() else OrePoly.zero(tower, s, s)
    max_deg = max(bound + p.degree, g.degree)
    twisted = [p.coeffs]
    for _ in range(bound):
        twisted.append(tuple(c.frob(1) for c in twisted[-1]))
    nunk = (bound + 1) * s
    rows_out = []
    for r in range(s):
        eq_rows = []
        rhs = []
        for n in range(max_deg + 1):
            gn = g.coeff(n)
            for c in range(m):
                row = [tower.zero()] * nunk
                any_nz = False
                for i in range(min(n, bound) + 1):
                    j = n - i
                    if j > p.degree:
                        continue
                    pj = twisted[i][j]
                    for k in range(s):
                        v = pj[k, c]
                        if not v.is_zero():
                            row[i * s + k] = v
                            any_nz = True
                target = gn[r, c]
                if not any_nz and target.is_zero():
                    continue
                eq_rows.append(row)
                rhs.append(target)
        sol = gauss_solve(tower, eq_rows, rhs)
        if sol is None:
            return None
        rows_out.append(sol)
    mats = []
    for i in range(bound + 1):
        mats.append(Mat(tuple(tuple(rows_out[r][i * s + k] for k in range(s))
                              for r in range(s))))
    q = OrePoly(tower, s, s, mats)
    if q * p != g:
        raise CertificateError("witness failed independent re-expansion")
    return q


def _outcome(search, p, g, bound):
    """The witness, None, or the class of the exception raised."""
    try:
        return search(p, g, bound)
    except TmlError as exc:
        return type(exc)


def _non_graph_presentations(tower):
    """[tau], [tau^2], (tau, tau + tau^2), [[tau, 0], [0, 1]] and
    [[T tau, 0], [0, 1]], whose twists are not constant: no tau-free
    column carries an invertible constant block."""
    o, z = tower.one(), tower.zero()
    return [OrePoly.scalar(tower, (z, o)), OrePoly.scalar(tower, (z, z, o)),
            OrePoly(tower, 1, 2, (Mat(((z, z),)), Mat(((o, o),)),
                                  Mat(((z, o),))))] + [
        OrePoly(tower, 2, 2, (Mat(((z, z), (z, o))), Mat(((a, z), (z, z)))))
        for a in (o, tower.T())]


@pytest.mark.parametrize("seed", range(2))
def test_witness_system_matches_per_row_builder(shallow_tower, sparse_mat,
                                                seed):
    rng = random.Random(seed)
    for p in _non_graph_presentations(shallow_tower):
        s, m = p.rows, p.cols
        planted = [OrePoly(shallow_tower, s, s,
                           [sparse_mat(rng, shallow_tower, s, s)
                            for _ in range(rng.randrange(1, 3))]) * p
                   for _ in range(2)]
        absent = OrePoly(shallow_tower, s, m,
                         [sparse_mat(rng, shallow_tower, s, m)
                          for _ in range(rng.randrange(1, 3))])
        for g in planted + [absent, OrePoly.zero(shallow_tower, s, m)]:
            for bound in (None, 0, 2):
                want = _outcome(_ref_witness, p, g, bound)
                assert _outcome(left_multiple_witness, p, g, bound) == want
        for g in planted:
            assert left_multiple_witness(p, g, 2) * p == g


def test_witness_system_matches_per_row_builder_in_a_quotient_ring(tower3):
    # U^2 = T^2 makes a quotient ring in which U - T is a zero divisor;
    # the presentations of test_zero_divisor_leading_coefficient_raises
    t = tower3.T()
    ring = tower3.extend("U", (tower3.zero() - t * t, tower3.zero(),
                               tower3.one()))
    o, z, zd = ring.one(), ring.zero(), ring.gen() - ring.T()
    module = product([carlitz(ring), carlitz(ring)])
    outcomes = set()
    for entries in ([[(zd,), (z, o)]], [[(o,), (z, zd)]], [[(o,), (zd,)]]):
        sub = KernelSubgroup.from_entries(module, entries)
        targets = [sub._pullback(Poly(tower3.fq, (0,) * j + (1,)))
                   for j in (1, 2, 3)] + [sub.presentation]
        for g in targets:
            for bound in (None, 1):
                want = _outcome(_ref_witness, sub.presentation, g, bound)
                got = _outcome(left_multiple_witness, sub.presentation, g,
                               bound)
                assert got == want
                outcomes.add(want if isinstance(want, type) else
                             type(want))
    assert outcomes == {type(None), OrePoly, ZeroDivisor}


def test_witness_search_past_the_target_degree_reads_no_padding(tower3,
                                                               sparse_mat,
                                                               monkeypatch):
    # a bound past deg g: the division reads no zero matrix and no
    # coefficient past the end of p or g
    rng = random.Random(3)
    tau, _, _, diag, _ = _non_graph_presentations(tower3)
    q = OrePoly(tower3, 2, 2, [sparse_mat(rng, tower3, 2, 2),
                               Mat.identity(tower3, 2)])
    g = q * diag
    absent = OrePoly.scalar(tower3, (tower3.one(),))

    def refuse(*args):
        raise AssertionError("zero matrix or padded coefficient built")

    monkeypatch.setattr(Mat, "zeros", refuse)
    monkeypatch.setattr(OrePoly, "coeff", refuse)
    found = left_multiple_witness(diag, g, bound=g.degree + 3)
    assert found is not None and found * diag == g
    assert left_multiple_witness(tau, absent, bound=4) is None


# -- differential test of evaluation against matvec-and-sum ------------------

def _ref_evaluate(op, vec):
    """Each coefficient lifted whole into the point's tower, one matvec
    per nonzero coefficient, the products summed as tuples."""
    vt = vec[0].tower
    acc = None
    cur = tuple(vec)
    for i, a in enumerate(op.coeffs):
        if i > 0:
            cur = tuple(v.frob(1) for v in cur)
        if a.is_zero():
            continue
        term = a.map(vt.embed).matvec(cur)
        acc = term if acc is None else tuple(x + y for x, y in zip(acc, term))
    return (vt.zero(),) * op.rows if acc is None else acc


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2)])
def test_evaluation_matches_matvec_and_sum(p, e, sparse_mat, sparse_elem):
    rng = random.Random(p * e)
    base = FieldTower(FiniteField(p, e))
    ext = sqrt_tower(base)
    ext2 = square_family_points(ext)[1][0].tower
    for coeffs, points in ((base, (base, ext, ext2)), (ext, (ext, ext2))):
        for rows, cols in ((1, 1), (2, 2), (2, 3)):
            op = _sparse_op(rng, sparse_mat, coeffs, rows, cols,
                            rng.randrange(3))
            for pt in points:
                vec = tuple(sparse_elem(rng, pt) for _ in range(cols))
                assert op.evaluate(vec) == _ref_evaluate(op, vec)
    with pytest.raises(FieldMismatch):
        OrePoly.identity(ext, 1).evaluate((base.one(),))


# -- differential test against the tuple-of-Mat representation ---------------

class _MatOre:
    """The representation OrePoly had before per-entry storage, kept as
    the reference: a tuple of dense coefficient matrices by tau-degree,
    trailing zero matrices dropped, converted to sparse rows by every
    product and to per-column lists by the division."""

    def __init__(self, tower, rows, cols, coeffs):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        for m in coeffs:
            if m.rows != rows or m.cols != cols:
                raise ShapeMismatch("coefficient matrix with wrong shape")
        self.tower, self.rows, self.cols = tower, rows, cols
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.tower != other.tower:
            raise FieldMismatch("twisted polynomials over different towers")

    def __add__(self, other):
        self._check(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("adding twisted polynomials of different shapes")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return _MatOre(self.tower, self.rows, self.cols,
                       tuple([x + y for x, y in zip(a, b)]) + a[len(b):])

    def __neg__(self):
        return _MatOre(self.tower, self.rows, self.cols,
                       tuple(-m for m in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatch("composition shape mismatch")
        if self.is_zero() or other.is_zero():
            return _MatOre(self.tower, self.rows, other.cols, ())
        cells = [[[None] * other.cols for _ in range(self.rows)]
                 for _ in range(self.degree + other.degree + 1)]
        _mat_compose_into(cells, [_sparse_rows(a.data) for a in self.coeffs],
                          [[_sparse_rows(b.data) for b in other.coeffs]])
        zero = self.tower.zero()
        return _MatOre(self.tower, self.rows, other.cols,
                       [Mat(_filled(grid, zero)) for grid in cells])

    def horner(self, a, x):
        tower, s, m = self.tower, self.rows, x.cols
        if a.field != tower.fq:
            raise FieldMismatch("polynomial over a different F_q")
        self._check(x)
        if self.cols != x.rows or x.rows != m:
            raise ShapeMismatch("Horner needs self.cols == x.rows == x.cols")
        own = [_sparse_rows(c.data) for c in self.coeffs]
        twists = [[_sparse_rows(c.data) for c in x.coeffs]]
        cells = []
        for c in reversed(a.coeffs):
            acc = [[[(k, _shared_one(v)) for k, v in enumerate(row)
                     if v is not None and not v.is_zero()] for row in grid]
                   for grid in cells]
            cells = [[[None] * m for _ in range(s)] for _ in
                     range(max(len(acc) + x.degree if acc else 0, len(own)))]
            _mat_compose_into(cells, acc, twists)
            if c:
                e = tower.const(c)
                term = own if e is tower.one() else [
                    [[(k, v * e) for k, v in row] for row in rows]
                    for rows in own]
                for grid, rows in zip(cells, term):
                    for out, row in zip(grid, rows):
                        for k, v in row:
                            out[k] = v if out[k] is None else out[k] + v
        return _MatOre(tower, s, m, [Mat(_filled(grid, tower.zero()))
                                     for grid in cells])

    def scale(self, e):
        one = self.tower.one()
        one._check(e)
        if e == one:
            return self
        return _MatOre(self.tower, self.rows, self.cols,
                       tuple(c.scale(e) for c in self.coeffs))

    def evaluate(self, vec):
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ShapeMismatch("point has wrong number of coordinates")
        if not vec:
            return ()
        vt = vec[0].tower
        for v in vec:
            if v.tower != vt:
                raise FieldMismatch("point coordinates in different towers")
        if not vt.extends(self.tower):
            raise FieldMismatch("point tower does not extend the coefficient tower")
        cells = [[None] for _ in range(self.rows)]
        cur = vec
        for i, a in enumerate(self.coeffs):
            if i > 0:
                cur = tuple(v.frob(1) for v in cur)
            rows = _sparse_rows(a.data)
            if vt != self.tower:
                rows = [[(k, vt.embed(x)) for k, x in row] for row in rows]
            _mul_into(cells, rows, _sparse_rows(zip(cur)))
        return tuple(v for v, in _filled(cells, vt.zero()))

    def __eq__(self, other):
        return (isinstance(other, _MatOre) and self.tower == other.tower
                and self.rows == other.rows and self.cols == other.cols
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.rows, self.cols, self.coeffs))


def _mat_compose_into(cells, acc, twists):
    """Add acc * x into per-degree grids; acc and x in sparse rows."""
    for i, rows in enumerate(acc):
        used = {k for row in rows for k, _ in row}
        if not used:
            continue
        while len(twists) <= i:
            twists.append([[None] * len(xj) for xj in twists[0]])
        for j, b in enumerate(twists[i]):
            for k in used:
                if b[k] is None:
                    low = i - 1
                    while twists[low][j][k] is None:
                        low -= 1
                    b[k] = [(c, y.frob(i - low))
                            for c, y in twists[low][j][k]]
            _mul_into(cells[i + j], rows, b)


def _mat_bordered(op, s, eye):
    one, out = op.tower.one(), []
    for r in range(op.rows):
        row = [[c.data[r][k] for c in op.coeffs] for k in range(op.cols)]
        for e in row:
            while e and not e[-1]:
                e.pop()
        out.append(row + [[one] if eye and k == r else [] for k in range(s)])
    return out


def _mat_from_lists(tower, rows, cols):
    zero = tower.zero()
    return _MatOre(tower, len(rows), cols, [
        Mat(tuple(tuple(e[i] if i < len(e) else zero for e in row)
                  for row in rows))
        for i in range(max((len(e) for row in rows for e in row), default=0))])


def _mat_right_divide(f, g):
    f._check(g)
    if g.rows != g.cols:
        raise ShapeMismatch("divisor must be square")
    if f.cols != g.rows:
        raise ShapeMismatch("dividend and divisor shapes incompatible")
    if g.is_zero():
        raise ZeroDivisionError("twisted division by zero")
    s, shift = g.rows, [0] * g.rows
    owners, _ = _weak_popov(_mat_bordered(g, s, True), range(s), shift)
    if len(owners) < s or any(d <= g.degree for d, _ in owners.values()):
        raise NonInvertibleLeading("divisor leading coefficient is singular")
    rows = _mat_bordered(f, s, False)
    for row in rows:
        _divide(row, range(s), shift, owners)
    return (-_mat_from_lists(f.tower, [r[s:] for r in rows], s),
            _mat_from_lists(f.tower, [r[:s] for r in rows], s))


def _mat_witness(p, g, bound=None):
    bound = _witness_bound(p, bound, g)
    s, m = p.rows, p.cols
    shift = [p.degree + 1 if all(not c.data[r][k] for c in p.coeffs[1:]
                                 for r in range(s)) else 0
             for k in range(m)] + [0] * s
    owners, kernel = _weak_popov(_mat_bordered(p, s, True), range(m), shift)
    rows = _mat_bordered(g, s, False)
    if any(_divide(row, range(m), shift, owners) for row in rows):
        return None
    back = range(m + s - 1, m - 1, -1)
    least, _ = _weak_popov(kernel, back, shift)
    for row in rows:
        _divide(row, back, shift, least)
    q = -_mat_from_lists(p.tower, [row[m:] for row in rows], s)
    if q.degree > bound:
        return None
    if q * p != g:
        raise CertificateError("witness failed independent re-expansion")
    return q


def _view(x):
    """x in a form that compares across the two representations: a
    twisted polynomial as its shape, degree and coefficient matrices."""
    if isinstance(x, (OrePoly, _MatOre)):
        return (x.rows, x.cols, x.degree, tuple(x.coeffs))
    if isinstance(x, DivisionResult):
        x = (x.quotient, x.remainder)
    return tuple(map(_view, x)) if isinstance(x, tuple) else x


def _assert_canonical(x):
    """Every stored 0 and 1 of x is the tower's shared zero() or one(),
    and no entry ends in a zero."""
    if isinstance(x, DivisionResult):
        x = (x.quotient, x.remainder)
    if isinstance(x, tuple):
        for v in x:
            _assert_canonical(v)
    if not isinstance(x, OrePoly):
        return
    zero, one = x.tower.zero(), x.tower.one()
    assert len(x.entries) == x.rows
    for row in x.entries:
        assert isinstance(row, tuple) and len(row) == x.cols
        for e in row:
            assert isinstance(e, tuple) and (not e or e[-1] is not zero)
            for v in e:
                assert v is zero or not v.is_zero()
                assert v is one or v != one
    assert x.degree == max((len(e) for row in x.entries for e in row),
                           default=0) - 1


def _run(fn):
    """fn(), or the class of the error it raises."""
    try:
        return fn()
    except (TmlError, ZeroDivisionError) as exc:
        return type(exc)


def _agree(new, ref):
    """new() in canonical form, with the value and error class of ref()."""
    got = _run(new)
    _assert_canonical(got)
    assert _view(got) == _view(_run(ref))


def _both(tower, rows, cols, mats):
    return OrePoly(tower, rows, cols, mats), _MatOre(tower, rows, cols, mats)


def _quotient_ring():
    """F_3(T)[U]/(U^2 - T^2), in which U - T and U + T are zero
    divisors with product 0."""
    base = FieldTower(FiniteField(3))
    t = base.T()
    return base.extend("U", (base.zero() - t * t, base.zero(), base.one()))


def _cases(tower, rng, sparse_mat, zero_divisors=()):
    """(new, reference) pairs: zero, 0-row, units, a trailing zero
    matrix, random sparse ones in four shapes, a sum that cancels, a
    sum that cancels the top, and for two zero divisors with product 0,
    each as a scalar, a 2x2 built from the first, and their product."""
    o = tower.one()
    ident, zeros = Mat.identity(tower, 2), Mat.zeros(tower, 2, 2)
    specs = [(2, 2, ()), (0, 2, ()), (2, 2, (ident,)), (1, 1, (Mat(((o,),)),)),
             (2, 2, (sparse_mat(rng, tower, 2, 2), ident, zeros))]
    for rows, cols in ((2, 2), (2, 2), (1, 2), (2, 1), (1, 1)):
        specs.append((rows, cols, [sparse_mat(rng, tower, rows, cols)
                                   for _ in range(rng.randrange(1, 4))]))
    for zd in zero_divisors:
        specs.append((1, 1, (Mat(((zd,),)),)))
    if zero_divisors:
        zd = zero_divisors[0]
        specs.append((2, 2, (Mat(((zd, o), (o, zd))), ident)))
    cases = [_both(tower, *spec) for spec in specs]
    f, rf = _both(tower, 2, 2, (sparse_mat(rng, tower, 2, 2),
                                Mat(((o, tower.T()), (tower.zero(), o)))))
    top = [zeros, Mat(((tower.zero() - o, tower.zero() - tower.T()),
                       (tower.zero(), tower.zero() - o)))]
    g, rg = _both(tower, 2, 2, top)
    cases += [(f, rf), (f - f, rf - rf), (f + g, rf + rg)]
    if zero_divisors:
        (a, ra), (b, rb) = cases[10:12]
        cases.append((a * b, ra * rb))
    return cases


def _assert_representations_agree(tower, rng, sparse_mat, sparse_elem,
                                  zero_divisors=()):
    """Every operation on the cases of _cases agrees with the reference
    and leaves its result in canonical form."""
    fq, o = tower.fq, tower.one()
    cases = _cases(tower, rng, sparse_mat, zero_divisors)
    for x, _ in cases:
        _assert_canonical(x)
    other = FieldTower(FiniteField(5))
    polys = [Poly.zero(fq), Poly(fq, (1,)), Poly(fq, (fq.q - 1, 1)),
             Poly(fq, [rng.randrange(fq.q) for _ in range(3)] + [1]),
             Poly(other.fq, (1, 1))]
    scalars = [tower.zero(), o, tower.unflatten(tower.flatten(o)),
               tower.T() + o, other.one()]
    ext = sqrt_tower(tower) if tower.parent is None else tower
    squares = [c for c in cases if c[0].rows == c[0].cols]
    for f, rf in cases:
        _agree(lambda: -f, lambda: -rf)
        _agree(lambda: f.coeffs, lambda: rf.coeffs)
        for e in scalars:
            _agree(lambda: f.scale(e), lambda: rf.scale(e))
        for pt_tower in (tower, ext):
            for n in (f.cols, f.cols + 1):
                pt = [sparse_elem(rng, pt_tower) for _ in range(n)]
                _agree(lambda: f.evaluate(pt), lambda: rf.evaluate(pt))
        for a in polys:
            for x, rx in squares[:5]:
                _agree(lambda: f.horner(a, x), lambda: rf.horner(a, rx))
        for g, rg in cases:
            _agree(lambda: f + g, lambda: rf + rg)
            _agree(lambda: f - g, lambda: rf - rg)
            _agree(lambda: f * g, lambda: rf * rg)
            assert (f == g) == (rf == rg)
            if f == g:
                assert hash(f) == hash(g)
        for g, rg in squares:
            _agree(lambda: right_divide(f, g),
                   lambda: _mat_right_divide(rf, rg))
    # witnesses for planted and absent targets over a few presentations
    pres = [c for c in cases if c[0].degree <= 1 and not c[0].is_zero()]
    for p, rp in pres:
        q, rq = _both(tower, p.rows, p.rows,
                      [sparse_mat(rng, tower, p.rows, p.rows)])
        targets = [(q * p, rq * rp), (p, rp),
                   _both(tower, p.rows, p.cols,
                         [sparse_mat(rng, tower, p.rows, p.cols)])]
        for g, rg in targets + cases[:2]:
            for bound in (None, 0, 2):
                _agree(lambda: left_multiple_witness(p, g, bound),
                       lambda: _mat_witness(rp, rg, bound))


def test_representations_agree(shallow_tower, sparse_mat, sparse_elem):
    rng = random.Random(f"entries-{shallow_tower.depth}-{shallow_tower.fq.q}")
    _assert_representations_agree(shallow_tower, rng, sparse_mat,
                                  sparse_elem)


def test_representations_agree_in_a_quotient_ring(sparse_mat, sparse_elem):
    ring = _quotient_ring()
    zd, zd2 = ring.gen() - ring.T(), ring.gen() + ring.T()
    assert (zd * zd2).is_zero()
    assert (OrePoly.scalar(ring, (zd,)) * OrePoly.scalar(ring, (zd2,))
            ).is_zero()
    _assert_representations_agree(ring, random.Random("entries-ring"),
                                  sparse_mat, sparse_elem, (zd, zd2))


def test_equal_polynomials_are_stored_alike(any_tower):
    # a 1 and a 0 that are not the shared objects, a trailing zero
    # matrix, per-column lists and arithmetic all give one stored form
    t = any_tower
    one, zero = t.unflatten(t.flatten(t.one())), t.T() - t.T()
    assert one is not t.one() and zero is not t.zero()
    x = t.T() + t.one()
    built = OrePoly(t, 1, 2, (Mat(((one, zero),)), Mat(((zero, x),)),
                              Mat(((zero, zero),))))
    sub = KernelSubgroup.from_entries(carlitz_tensor(t, 2),
                                      [[(one, zero, zero), (zero, x, zero)]])
    tau = OrePoly.scalar(t, (t.zero(), t.one()))
    pieces = (OrePoly(t, 1, 2, (Mat(((t.one(), t.zero()),)),))
              + OrePoly(t, 1, 1, (Mat(((x,),)),)) * tau
              * OrePoly(t, 1, 2, (Mat(((t.zero(), t.one()),)),)))
    scaled = built.scale(x).scale(x.inverse())
    forms = [built, sub.presentation, pieces, scaled,
             built * OrePoly.identity(t, 2), (built - built) + built]
    for f in forms:
        _assert_canonical(f)
        assert f == built and hash(f) == hash(built)
        assert f.entries == ((((t.one(),), (t.zero(), x)),))
    assert built.entries[0][0][0] is t.one()
    assert built.entries[0][1][0] is t.zero()


# -- evaluation stays a path of its own ------------------------------------

def _corpus_points():
    """(module, point, subgroups of the module) for the square-root
    family's points over F_2 and F_3, the graph point over F_2 and the
    bound points of the golden manifests."""
    out = []
    for p in (2, 3):
        ext = sqrt_tower(FieldTower(FiniteField(p)))
        module = counterexample_module(ext)
        curve = curve_of_squares(module)
        out += [(module, pt, [curve]) for pt in square_family_points(ext)]
    tower = base_field_tower()
    _, _, ambient, graph = graph_modules(tower)
    t = tower.T()
    out.append((ambient, (t, t + t * t), [graph]))
    folder = os.path.join(ROOT, "tests", "golden", "manifests")
    for name in sorted(os.listdir(folder)):
        man = load_manifest(os.path.join(folder, name))
        for pt_name, coords in man.points.items():
            module = man.modules.get(man.point_modules.get(pt_name))
            if module is not None:
                out.append((module, coords, [
                    sub for sub in man.subgroups.values()
                    if sub.module is module]))
    return out


def _ref_act_on_point(module, a, point):
    """sum of c_j phi_T^j(point), phi_T applied by the reference."""
    phi = _MatOre(module.tower, module.dimension, module.dimension,
                  module.matrices)
    vt = point[0].tower
    acc, cur = tuple(vt.zero() for _ in point), tuple(point)
    for j, c in enumerate(a.coeffs):
        if j > 0:
            cur = phi.evaluate(cur)
        if c:
            acc = tuple(x + y * vt.const(c) for x, y in zip(acc, cur))
    return acc


def test_evaluation_needs_no_composition_or_horner(monkeypatch):
    def refuse(*args):
        raise AssertionError("evaluation reached composition or Horner")

    monkeypatch.setattr(ore, "_compose_into", refuse)
    monkeypatch.setattr(OrePoly, "__mul__", refuse)
    monkeypatch.setattr(OrePoly, "horner", refuse)
    points = _corpus_points()
    assert len(points) >= 10
    for module, pt, subs in points:
        m = module.dimension
        phi = _MatOre(module.tower, m, m, module.matrices)
        assert module.phi_t.evaluate(pt) == phi.evaluate(pt)
        fq = module.tower.fq
        for a in (Poly.zero(fq), Poly(fq, (0, 1)), Poly(fq, (1, 0, 1)),
                  Poly(fq, (0, 1, 0, 1))):
            assert (torsion.act_on_point(module, a, pt)
                    == _ref_act_on_point(module, a, pt))
        for sub in subs:
            p = sub.presentation
            ref = _MatOre(p.tower, p.rows, p.cols, p.coeffs)
            assert sub.contains(pt) == all(v.is_zero()
                                           for v in ref.evaluate(pt))
