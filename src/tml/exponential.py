"""Truncated exponential series attached to a module action.

The exponential is the unique formal series e(z) = sum E_i z^(q^i) with
E_0 = I intertwining the tangent action with the full action:
e(a_0 z) = phi(T)(e(z)).  Comparing coefficients of z^(q^i) gives one
Sylvester-type matrix equation per order,

    E_i a_0^(i) - a_0 E_i = sum_{j=1..min(i,d)} A_j E_{i-j}^(j),

where ^(j) is the entrywise q^j power.  The operator on the left is
invertible for i >= 1 because a_0 and its twist share no eigenvalue, so
the coefficients are solved exactly order by order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BadParameter, SingularSystem
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
    a0 = module.a0
    coeffs = [Mat.identity(tower, m)]
    for i in range(1, order + 1):
        rhs = Mat.zeros(tower, m, m)
        for j in range(1, min(i, module.degree) + 1):
            aj = module.phi_t.coeff(j)
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


def verify_functional_equation(exp: ExpSeries) -> bool:
    """Compare the coefficients of z^(q^i) on both sides of
    e(a_0 z) = phi(T)(e(z)) through the series order by direct matrix
    products, E_i a_0^(i) == sum_{j=0..min(i,d)} A_j E_{i-j}^(j),
    without solving anything; terms beyond the order are never formed."""
    module = exp.module
    phi = module.phi_t
    for i in range(exp.order + 1):
        lhs = exp.coeffs[i] @ module.a0.frob(i)
        rhs = phi.coeff(0) @ exp.coeffs[i]
        for j in range(1, min(i, module.degree) + 1):
            rhs = rhs + phi.coeff(j) @ exp.coeffs[i - j].frob(j)
        if lhs != rhs:
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
