import random

import pytest

from tml.errors import BadParameter, FieldMismatch, ShapeMismatch
from tml.fields import Poly, RatFunc
from tml.linalg import (Mat, gauss_inverse, gauss_solve, kernel_basis,
                        matrix_rank)


def _rand_elem(rng, tower):
    num = Poly(tower.fq, [rng.randrange(tower.fq.q) for _ in range(3)])
    den = Poly(tower.fq, [rng.randrange(tower.fq.q) for _ in range(2)] + [1])
    return tower.from_ratfunc(RatFunc(num, den))


def _rand_mat(rng, tower, n):
    return Mat(tuple(tuple(_rand_elem(rng, tower) for _ in range(n))
                     for _ in range(n)))


def test_identity_and_scalar(tower2):
    t = tower2.T()
    ident = Mat.identity(tower2, 3)
    s = Mat.scalar(tower2, 3, t)
    assert s == ident.scale(t)
    assert (s - s).is_zero()


def test_matmul_against_hand_product(tower2):
    t = tower2.T()
    o = tower2.one()
    z = tower2.zero()
    a = Mat(((t, o), (z, t)))
    b = Mat(((o, o), (t, z)))
    ab = a @ b
    assert ab == Mat(((t + t, t), (t * t, z)))


def test_gauss_solve_known_system(tower2):
    t = tower2.T()
    o = tower2.one()
    z = tower2.zero()
    a = Mat(((t, o), (z, o)))
    x = gauss_solve(tower2, a, (t * t + o, o))
    assert x is not None
    assert a.matvec(x) == (t * t + o, o)


def test_gauss_solve_unsolvable(tower2):
    o = tower2.one()
    z = tower2.zero()
    a = Mat(((o, o), (o, o)))
    assert gauss_solve(tower2, a, (o, z)) is None


def test_gauss_inverse_round_trip(tower2, rng):
    ident = Mat.identity(tower2, 3)
    found = 0
    for _ in range(10):
        m = _rand_mat(rng, tower2, 3)
        inv = gauss_inverse(tower2, m)
        if inv is None:
            assert matrix_rank(m) < 3
            continue
        assert matrix_rank(m) == 3
        found += 1
        assert m @ inv == ident
        assert inv @ m == ident
    assert found >= 5


def test_det_of_singular_matrix(tower2):
    o = tower2.one()
    m = Mat(((o, o), (o, o)))
    assert matrix_rank(m) == 1
    assert gauss_inverse(tower2, m) is None


def test_kernel_basis_annihilates(tower2, rng):
    t = tower2.T()
    o = tower2.one()
    z = tower2.zero()
    m = Mat(((o, t), (t, t * t)))  # rank 1
    basis = kernel_basis(tower2, m)
    assert len(basis) == 1
    for v in basis:
        assert all(x.is_zero() for x in m.matvec(v))
    full = Mat(((o, z), (z, o)))
    assert len(kernel_basis(tower2, full)) == 0


def test_negative_frobenius_of_matrix_is_refused(shallow_tower):
    t = shallow_tower
    m = Mat(((t.gen(), t.zero()), (t.one(), t.T())))
    with pytest.raises(BadParameter):
        m.frob(-2)


def test_frobenius_of_matrix_is_entrywise(tower2):
    t = tower2.T()
    o = tower2.one()
    m = Mat(((t, o), (o, t)))
    f = m.frob(1)
    assert f[0, 0] == t * t
    assert f[0, 1] == o


# -- differential tests of the zero-skipping kernels -------------------------
#
# The references below form every product, zeros included, as schoolbook
# matrix arithmetic and dense row elimination do.

def _ref_matmul(a, b, zero):
    out = []
    for r in range(a.rows):
        row = []
        for c in range(b.cols):
            acc = zero
            for k in range(a.cols):
                acc = acc + a[r, k] * b[k, c]
            row.append(acc)
        out.append(tuple(row))
    return Mat(tuple(out))


def _assert_skipped_cells_zero(a, b, out):
    """Every cell with no pair of nonzero operands is a zero of a's tower."""
    for r in range(a.rows):
        for c in range(b.cols):
            if all(a[r, k].is_zero() or b[k, c].is_zero()
                   for k in range(a.cols)):
                assert out[r, c].is_zero()
                assert out[r, c].tower == a[r, 0].tower


def _ref_rref(rows, ncols):
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nr) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * v for v in rows[r]]
        for i in range(nr):
            if i != r:
                f = rows[i][c]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots


def _ref_solve(tower, a, b):
    aug = [list(row) + [x] for row, x in zip(a.data, b)]
    pivots = _ref_rref(aug, a.cols)
    if any(not row[-1].is_zero() for row in aug[len(pivots):]):
        return None
    sol = [tower.zero()] * a.cols
    for r, c in enumerate(pivots):
        sol[c] = aug[r][-1]
    return sol


def _ref_inverse(tower, a):
    ident = Mat.identity(tower, a.rows)
    aug = [list(row) + list(e) for row, e in zip(a.data, ident.data)]
    if len(_ref_rref(aug, a.cols)) < a.rows:
        return None
    return Mat(tuple(tuple(row[a.cols:]) for row in aug))


def _ref_kernel(tower, a):
    rows = [list(row) for row in a.data]
    pivots = _ref_rref(rows, a.cols)
    basis = []
    for fc in (c for c in range(a.cols) if c not in pivots):
        vec = [tower.zero()] * a.cols
        vec[fc] = tower.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


SHAPES = [(1, 1, 1), (1, 2, 2), (2, 2, 1), (2, 3, 2), (3, 3, 3)]


@pytest.mark.parametrize("seed", range(2))
def test_matmul_and_matvec_match_schoolbook(any_tower, sparse_mat, seed):
    rng = random.Random(seed)
    zero = any_tower.zero()
    for m, k, n in SHAPES:
        cases = [(sparse_mat(rng, any_tower, m, k),
                  sparse_mat(rng, any_tower, k, n)),
                 (Mat.zeros(any_tower, m, k),
                  sparse_mat(rng, any_tower, k, n)),
                 (sparse_mat(rng, any_tower, m, k, zero_col=k - 1),
                  sparse_mat(rng, any_tower, k, n, zero_row=k - 1)),
                 (sparse_mat(rng, any_tower, m, k, zero_row=0),
                  sparse_mat(rng, any_tower, k, n, zero_col=0))]
        for a, b in cases:
            out = a @ b
            assert out == _ref_matmul(a, b, zero)
            _assert_skipped_cells_zero(a, b, out)
            col = Mat(tuple((b[i, 0],) for i in range(k)))
            got = Mat(tuple(zip(a.matvec(tuple(v for v, in col.data)))))
            assert got == _ref_matmul(a, col, zero)
            _assert_skipped_cells_zero(a, col, got)


def test_products_of_empty_matrices(tower2):
    empty = Mat(())
    assert empty @ empty == empty
    assert empty.matvec(()) == ()
    one_by_zero = Mat(((),))
    assert one_by_zero @ empty == one_by_zero
    o = tower2.one()
    assert (Mat(((o,),)) @ Mat(((),))) == Mat(((),))


def test_matvec_with_no_columns_raises(tower2):
    # m x 0 times the empty vector has no entry to take a zero from
    with pytest.raises(ShapeMismatch):
        Mat(((),)).matvec(())
    with pytest.raises(ShapeMismatch):
        Mat(((), ())).matvec(())


@pytest.mark.parametrize("seed", range(2))
def test_elimination_matches_dense_reference(any_tower, sparse_mat,
                                              sparse_elem, seed):
    rng = random.Random(100 + seed)
    shapes = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4))
    # entries grow fast in a depth-2 elimination: stop at 2x2 there
    for m, n in shapes[:4] if any_tower.depth == 2 else shapes:
        for zero_col in (None, 0):
            a = sparse_mat(rng, any_tower, m, n, zero_col=zero_col)
            b = tuple(sparse_elem(rng, any_tower) for _ in range(m))
            assert gauss_solve(any_tower, a, b) == _ref_solve(any_tower, a, b)
            assert kernel_basis(any_tower, a) == _ref_kernel(any_tower, a)
            pivots = _ref_rref([list(row) for row in a.data], n)
            assert matrix_rank(a) == len(pivots)
            if m == n:
                assert (gauss_inverse(any_tower, a)
                        == _ref_inverse(any_tower, a))
    zeros = Mat.zeros(any_tower, 2, 2)
    assert matrix_rank(zeros) == 0
    assert gauss_inverse(any_tower, zeros) is None
    assert gauss_solve(any_tower, Mat(()), ()) == []


def test_products_across_towers_raise_with_zero_operands(tower2, tower3):
    # every pair of operands has a zero, so no product is ever formed
    o2, z2, o3, z3 = tower2.one(), tower2.zero(), tower3.one(), tower3.zero()
    a = Mat(((o2, z2),))
    with pytest.raises(FieldMismatch):
        a @ Mat(((z3,), (o3,)))
    with pytest.raises(FieldMismatch):
        a.matvec((z3, o3))
    with pytest.raises(FieldMismatch):
        Mat.zeros(tower2, 2, 2) @ Mat.zeros(tower3, 2, 2)
