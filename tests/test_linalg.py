import random

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


def test_frobenius_of_matrix_is_entrywise(tower2):
    t = tower2.T()
    o = tower2.one()
    m = Mat(((t, o), (o, t)))
    f = m.frob(1)
    assert f[0, 0] == t * t
    assert f[0, 1] == o
