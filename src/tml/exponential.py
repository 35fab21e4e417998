"""Truncated exponential series attached to a module action.

The exponential is the unique formal series e(z) = sum E_i z^(q^i) with
E_0 = I intertwining the tangent action with the full action:
e(a_0 z) = phi(T)(e(z)).  Comparing coefficients of z^(q^i) gives one
Sylvester-type matrix equation per order,

    E_i a_0^(i) - a_0 E_i = sum_{j=1..min(i,d)} A_j E_{i-j}^(j),

where ^(j) is the entrywise q^j power.  The operator on the left is
invertible for i >= 1 because a_0 and its twist share no eigenvalue, so
the coefficients are solved exactly order by order.

verify_functional_equation re-checks a series without the solver and
without reducing a fraction.  It requires E_0 = I, the normalisation
that makes e unique: the equation is linear in E and every twist fixes
F_q, so 0 and c*E satisfy it too.  Each entry of both sides,
E_i a_0^(i) and sum_{j=0..min(i,d)} A_j E_{i-j}^(j), is an unreduced
fraction X / prod(D), where D is a tuple of polynomials in F_q[T] and
X is a tower element whose flat coordinates over F_q(T) are all
polynomials (at depth 0, that one polynomial).  A product multiplies
numerators and joins the tuples; a twist twists X and stretches each
factor of D, which is central; a sum brings both terms over the
multiset union of their factors, so terms that share a denominator
are added as they are.  The sides X / prod(D) and Y / prod(E) are
compared as X prod(E - D) == Y prod(D - E).  This takes
multiplications only: at depth 0, and on towers whose moduli have
polynomial coefficients, no gcd is formed and nothing is divided.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce

from .errors import BadParameter, SingularSystem
from .fields import Poly, RatFunc, TowerElement
from .linalg import Mat, gauss_solve
from .subgroups import KernelSubgroup
from .tmodule import TModule


@dataclass(frozen=True)
class ExpSeries:
    """Exponential coefficients E_0..E_order of a module."""
    module: TModule
    order: int
    coeffs: tuple

    def coeff(self, i: int) -> Mat:
        return self.coeffs[i]


def exp_series(module: TModule, order: int) -> ExpSeries:
    """Solve for the exponential coefficients through the given order."""
    if order < 0:
        raise BadParameter("truncation order must be nonnegative, "
                           f"got {order}")
    tower = module.tower
    m = module.dimension
    phi = module.matrices
    a0 = phi[0]
    coeffs = [Mat.identity(tower, m)]
    for i in range(1, order + 1):
        rhs = Mat.zeros(tower, m, m)
        for j in range(1, min(i, len(phi) - 1) + 1):
            aj = phi[j]
            if not aj.is_zero():
                rhs = rhs + (aj @ coeffs[i - j].frob(j))
        ai = a0.frob(i)
        z = tower.zero()
        rows = []
        target = []
        # unknown X flattened row-major; equation grid (r, c) reads
        # sum_k X[r,k] ai[k,c] - sum_k a0[r,k] X[k,c] = rhs[r,c]
        for r in range(m):
            for c in range(m):
                row = [z] * (m * m)
                for k in range(m):
                    row[r * m + k] = row[r * m + k] + ai[k, c]
                for k in range(m):
                    row[k * m + c] = row[k * m + c] - a0[r, k]
                rows.append(row)
                target.append(rhs[r, c])
        sol = gauss_solve(tower, rows, target)
        if sol is None:
            raise SingularSystem(f"exponential order {i} has no solution")
        coeffs.append(Mat(tuple(tuple(sol[r * m + c] for c in range(m))
                                for r in range(m))))
    return ExpSeries(module, order, tuple(coeffs))


def _fraction(x):
    """x as an unreduced fraction (X, D), x = X / prod(D), where D is the
    tuple of x's distinct coordinate denominators other than 1.  At depth
    0, X is x's numerator, a Poly; above it, X is a tower element whose
    coordinates are each that coordinate's numerator times the other
    factors of D."""
    t = x.tower
    if t.parent is None:
        rf = x.data
        return rf.num, () if rf.is_poly() else (rf.den,)
    coords = t.flatten(x)
    dens = tuple({c.den: None for c in coords if not c.is_poly()})
    if not dens:
        return x, dens
    return t.unflatten([RatFunc.from_poly(_scaled(c.num,
                                                  _missing((c.den,), dens)))
                        for c in coords]), dens


def _missing(have, need):
    """The factors of need that remain once each factor of have has
    matched at most one equal factor: the multiset difference need - have."""
    if not need or not have:
        return need
    rest = list(have)
    out = []
    for d in need:
        if d in rest:
            rest.remove(d)
        else:
            out.append(d)
    return out


def _scaled(x, factors):
    """The numerator x, a Poly or a tower element, times every polynomial
    in factors."""
    if isinstance(x, TowerElement) and factors:
        t = x.tower
        f = RatFunc.from_poly(_scaled(Poly.one(t.fq), factors))
        return t.unflatten([c * f for c in t.flatten(x)])
    for d in factors:
        x = x * d
    return x


def _add(f, g):
    """f + g over the multiset union of their denominators."""
    (x, a), (y, b) = f, g
    if x.is_zero():
        return g
    if y.is_zero():
        return f
    extra = _missing(a, b)
    return _scaled(x, extra) + _scaled(y, _missing(b, a)), a + tuple(extra)


def _terms(left, right, r, c):
    """The nonzero products summed in entry (r, c) of left @ right, on
    matrices of unreduced fractions with None for a zero entry."""
    return [(a[0] * b[0], a[1] + b[1])
            for a, b in zip(left[r], (row[c] for row in right))
            if a is not None and b is not None]


def _fractions(mat):
    """The entries of mat as unreduced fractions, None for a zero."""
    return [[None if a.is_zero() else _fraction(a) for a in row]
            for row in mat.data]


def _twisted(fracs, j, q):
    """The entrywise q^j power of a matrix of unreduced fractions."""
    if j == 0:
        return fracs
    k = q ** j
    return [[None if f is None else
             (f[0].stretch(k) if isinstance(f[0], Poly) else f[0].frob(j),
              tuple(d.stretch(k) for d in f[1]))
             for f in row] for row in fracs]


def _check_shape(exp: ExpSeries):
    """BadParameter unless exp holds order + 1 coefficients, each an
    m x m matrix over the module's tower."""
    module = exp.module
    m = module.dimension
    if (not isinstance(exp.order, int) or exp.order < 0
            or len(exp.coeffs) != exp.order + 1):
        raise BadParameter(f"an exponential series of order {exp.order} "
                           f"needs order + 1 coefficients, "
                           f"got {len(exp.coeffs)}")
    for i, e in enumerate(exp.coeffs):
        if not isinstance(e, Mat) or e.rows != m or e.cols != m:
            raise BadParameter(f"exponential coefficient E_{i} is not a "
                               f"{m}x{m} matrix")
        for row in e.data:
            for a in row:
                if not isinstance(a, TowerElement) or a.tower != module.tower:
                    raise BadParameter(f"exponential coefficient E_{i} has "
                                       "an entry outside the module's tower")


def verify_functional_equation(exp: ExpSeries) -> bool:
    """Whether E_0 = I and the coefficients of z^(q^i) agree on both sides
    of e(a_0 z) = phi(T)(e(z)) through the series order,
    E_i a_0^(i) == sum_{j=0..min(i,d)} A_j E_{i-j}^(j), each entry
    compared as unreduced fractions cross-multiplied (see the module
    docstring); nothing is solved, divided or reduced, and terms beyond
    the order are never formed.  A malformed series raises BadParameter."""
    _check_shape(exp)
    module = exp.module
    tower, m = module.tower, module.dimension
    if exp.coeffs[0] != Mat.identity(tower, m):
        return False
    q = tower.fq.q
    zero = (Poly.zero(tower.fq) if tower.parent is None else tower.zero(),
            ())
    coeffs = [_fractions(e) for e in exp.coeffs]
    phi = [_fractions(a) for a in module.matrices]
    for i in range(1, exp.order + 1):
        a0i = _twisted(phi[0], i, q)
        rhs = [(phi[j], _twisted(coeffs[i - j], j, q))
               for j in range(min(i, len(phi) - 1) + 1)]
        for r in range(m):
            for c in range(m):
                x, a = reduce(_add, _terms(coeffs[i], a0i, r, c), zero)
                y, b = reduce(_add, [f for aj, ej in rhs
                                     for f in _terms(aj, ej, r, c)], zero)
                if _scaled(x, _missing(a, b)) != _scaled(y, _missing(b, a)):
                    return False
    return True


class RestrictionVerdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNCHECKED = "unchecked"


@dataclass(frozen=True)
class RestrictionReport:
    """Whether the truncated exponential maps the subgroup's tangent
    space into the subgroup.  detail is (order, row, col) of the first
    offending entry on FAILS, or a reason string on UNCHECKED."""
    verdict: RestrictionVerdict
    order: int
    detail: object = None


def _constrained_columns(subgroup: KernelSubgroup):
    """Column set when every presentation row pins one coordinate to
    zero, else None."""
    p = subgroup.presentation
    if p.rows == 0:
        return frozenset()
    if p.degree != 0:
        return None
    dp = p.coeff(0)
    cols = set()
    for r in range(dp.rows):
        nz = [c for c in range(dp.cols) if not dp[r, c].is_zero()]
        if len(nz) != 1:
            return None
        cols.add(nz[0])
    return frozenset(cols)


def exp_restriction_check(exp: ExpSeries,
                          subgroup: KernelSubgroup) -> RestrictionReport:
    """For a subgroup cut out by vanishing coordinates, the exponential
    restricts exactly when every constrained row of every E_i vanishes on
    the free columns; other presentations are reported UNCHECKED."""
    if subgroup.module != exp.module:
        raise BadParameter("subgroup belongs to a different module")
    pinned = _constrained_columns(subgroup)
    if pinned is None:
        return RestrictionReport(RestrictionVerdict.UNCHECKED, exp.order,
                                 "presentation does not pin single coordinates")
    free = [c for c in range(exp.module.dimension) if c not in pinned]
    for i in range(1, exp.order + 1):
        ei = exp.coeffs[i]
        for r in sorted(pinned):
            for c in free:
                if not ei[r, c].is_zero():
                    return RestrictionReport(RestrictionVerdict.FAILS,
                                             exp.order, (i, r, c))
    return RestrictionReport(RestrictionVerdict.HOLDS, exp.order)
