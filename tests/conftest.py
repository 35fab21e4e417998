import random

import pytest

from tml.fields import FieldTower, FiniteField, Poly, RatFunc
from tml.linalg import Mat
from tml.torsion import sqrt_tower, square_family_points


@pytest.fixture
def f2():
    return FiniteField(2)


@pytest.fixture
def f3():
    return FiniteField(3)


@pytest.fixture
def tower2(f2):
    return FieldTower(f2)


@pytest.fixture
def tower3(f3):
    return FieldTower(f3)


@pytest.fixture
def rng():
    return random.Random(20260819)


# -- sparse operands over F_2, F_3 and F_4 at tower depths 0, 1 and 2 -------

def _tower(p, e, depth):
    """F_q(T) at depth 0, with U^2 = T at depth 1, and with the division
    step y^q + U*y - U of square_family_points on top at depth 2."""
    base = FieldTower(FiniteField(p, e))
    if depth == 0:
        return base
    ext = sqrt_tower(base)
    return ext if depth == 1 else square_family_points(ext)[1][0].tower


TOWERS = {f"q{p ** e}-depth{d}": (p, e, d)
          for p, e in ((2, 1), (3, 1), (2, 2)) for d in (0, 1, 2)}


@pytest.fixture(params=sorted(TOWERS))
def any_tower(request):
    return _tower(*TOWERS[request.param])


def _sparse_elem(rng, tower):
    """Zero half of the time, else coordinates that are each zero half
    of the time; at depth 2, where an inverse solves a system of the
    tower's degree, the coordinates are constants of F_q."""
    fq = tower.fq
    if rng.random() < 0.5:
        return tower.zero()
    size = 1 if tower.depth == 2 else 2
    coords = []
    for _ in range(tower.total_degree()):
        num = Poly(fq, [rng.randrange(fq.q) for _ in range(size)]
                   if rng.random() < 0.5 else [])
        den = Poly(fq, [rng.randrange(fq.q) for _ in range(size - 1)] + [1])
        coords.append(RatFunc(num, den))
    return tower.unflatten(coords)


def _sparse_mat(rng, tower, rows, cols, zero_row=None, zero_col=None):
    """A rows x cols matrix of _sparse_elem entries; zero_row and zero_col
    name a row and a column of zeros."""
    return Mat(tuple(tuple(tower.zero() if r == zero_row or c == zero_col
                           else _sparse_elem(rng, tower)
                           for c in range(cols)) for r in range(rows)))


@pytest.fixture
def sparse_elem():
    return _sparse_elem


@pytest.fixture
def sparse_mat():
    return _sparse_mat
