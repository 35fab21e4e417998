"""Twisted polynomials with matrix coefficients over a tower field.

The twist is the q-power Frobenius: moving tau past a coefficient raises
the coefficient to the q-th power, so composition obeys

    (A tau^i) (B tau^j) = A * B^(q^i) tau^(i+j).

Composition is written left-to-right as operator application: (f * g)
acts by applying g first.  A scalar twisted polynomial is the 1x1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (BadParameter, CertificateError, FieldMismatch,
                     NonInvertibleLeading, ShapeMismatch)
from .linalg import (Mat, _filled, _mul_into, _sparse_rows,
                     gauss_inverse, gauss_solve)


class OrePoly:
    """Matrix twisted polynomial: a tuple of coefficient matrices by tau-degree."""

    __slots__ = ("tower", "rows", "cols", "coeffs")

    def __init__(self, tower, rows, cols, coeffs):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        for m in coeffs:
            if m.rows != rows or m.cols != cols:
                raise ShapeMismatch("coefficient matrix with wrong shape")
        self.tower = tower
        self.rows = rows
        self.cols = cols
        self.coeffs = coeffs

    @classmethod
    def zero(cls, tower, rows, cols):
        return cls(tower, rows, cols, ())

    @classmethod
    def identity(cls, tower, n):
        return cls(tower, n, n, (Mat.identity(tower, n),))

    @classmethod
    def from_matrices(cls, tower, mats):
        mats = tuple(mats)
        if not mats:
            raise ValueError("need at least one coefficient matrix")
        return cls(tower, mats[0].rows, mats[0].cols, mats)

    @classmethod
    def scalar(cls, tower, elems):
        """A 1x1 twisted polynomial from a list of tower elements."""
        return cls(tower, 1, 1, tuple(Mat(((e,),)) for e in elems))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Mat:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Mat.zeros(self.tower, self.rows, self.cols)

    def leading(self) -> Mat:
        if not self.coeffs:
            raise ValueError("zero twisted polynomial has no leading coefficient")
        return self.coeffs[-1]

    def scalar_elems(self):
        """Coefficients as tower elements; only for the 1x1 case."""
        if self.rows != 1 or self.cols != 1:
            raise ShapeMismatch("not a scalar twisted polynomial")
        return tuple(m[0, 0] for m in self.coeffs)

    def _check(self, other):
        if self.tower != other.tower:
            raise FieldMismatch("twisted polynomials over different towers")

    def __add__(self, other):
        self._check(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("adding twisted polynomials of different shapes")
        n = max(len(self.coeffs), len(other.coeffs))
        return OrePoly(self.tower, self.rows, self.cols,
                       tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __neg__(self):
        return OrePoly(self.tower, self.rows, self.cols,
                       tuple(-m for m in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Composition with the twist rule; self acts after other."""
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatch("composition shape mismatch")
        if self.is_zero() or other.is_zero():
            return OrePoly.zero(self.tower, self.rows, other.cols)
        # one cell grid per tau-degree of the product; None is zero
        cells = [[[None] * other.cols for _ in range(self.rows)]
                 for _ in range(self.degree + other.degree + 1)]
        left = [_sparse_rows(a.data) for a in self.coeffs]
        # a twist costs one Frobenius per entry: twist only the rows of
        # b_j that a_i reads, those indexed by a_i's nonzero columns
        used = [{k for row in a for k, _ in row} for a in left]
        for j, b in enumerate(other.coeffs):
            right = _sparse_rows(b.data)
            for i, a in enumerate(left):
                twisted = [[(c, y.frob(i)) for c, y in row] if k in used[i]
                           else () for k, row in enumerate(right)]
                _mul_into(cells[i + j], a, twisted)
        zero = self.tower.zero()
        return OrePoly(self.tower, self.rows, other.cols,
                       [Mat(_filled(grid, zero)) for grid in cells])

    def scale(self, e):
        return OrePoly(self.tower, self.rows, self.cols,
                       tuple(c.scale(e) for c in self.coeffs))

    def evaluate(self, vec):
        """Apply the twisted polynomial to a coordinate vector.

        The vector may live in a tower extending the coefficient tower;
        coefficients are lifted before evaluating sum A_i vec^(q^i).
        """
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ShapeMismatch("point has wrong number of coordinates")
        if not vec:
            return ()
        vt = vec[0].tower
        for v in vec:
            if v.tower != vt:
                raise FieldMismatch("point coordinates in different towers")
        if vt == self.tower:
            lift = lambda m: m
        elif vt.extends(self.tower):
            lift = lambda m: m.map(vt.embed)
        else:
            raise FieldMismatch("point tower does not extend the coefficient tower")
        acc = None
        cur = vec
        for i, a in enumerate(self.coeffs):
            if i > 0:
                cur = tuple(v.frob(1) for v in cur)
            if a.is_zero():
                continue
            term = lift(a).matvec(cur)
            acc = term if acc is None else tuple(x + y for x, y in zip(acc, term))
        if acc is None:
            z = vt.zero()
            return (z,) * self.rows
        return acc

    def __eq__(self, other):
        return (isinstance(other, OrePoly) and self.tower == other.tower
                and self.rows == other.rows and self.cols == other.cols
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.rows, self.cols, self.coeffs))

    def to_exprs(self):
        """Coefficient matrices as expression strings, tau-degree order."""
        return [m.to_exprs() for m in self.coeffs]

    def __repr__(self):
        if self.rows == 1 and self.cols == 1:
            parts = []
            for i, m in enumerate(self.coeffs):
                e = m[0, 0].to_expr()
                if i == 0:
                    parts.append(e)
                else:
                    t = "t" + ("" if i == 1 else f"^{i}")
                    parts.append(f"({e})*{t}")
            return "OrePoly(" + (" + ".join(parts) if parts else "0") + ")"
        return f"OrePoly({self.rows}x{self.cols}, deg {self.degree})"


@dataclass(frozen=True)
class DivisionResult:
    quotient: OrePoly
    remainder: OrePoly


def right_divide(f: OrePoly, g: OrePoly) -> DivisionResult:
    """Euclidean division f = q*g + r with deg r < deg g.

    g must be square with an invertible leading coefficient matrix; the
    quotient step inverts the twisted leading coefficient exactly.
    """
    f._check(g)
    if g.rows != g.cols:
        raise ShapeMismatch("divisor must be square")
    if f.cols != g.rows:
        raise ShapeMismatch("dividend and divisor shapes incompatible")
    if g.is_zero():
        raise ZeroDivisionError("twisted division by zero")
    lead_inv = gauss_inverse(g.tower, g.leading())
    if lead_inv is None:
        raise NonInvertibleLeading("divisor leading coefficient is singular")
    quo = OrePoly.zero(f.tower, f.rows, g.cols)
    rem = f
    dg = g.degree
    while not rem.is_zero() and rem.degree >= dg:
        gap = rem.degree - dg
        u = rem.leading() @ lead_inv.frob(gap)
        step = OrePoly(f.tower, f.rows, g.rows,
                       (Mat.zeros(f.tower, f.rows, g.rows),) * gap + (u,))
        quo = quo + step
        rem = rem - step * g
    return DivisionResult(quo, rem)


def left_multiple_witness(p: OrePoly, g: OrePoly, bound=None):
    """A twisted polynomial Q with Q*p == g and deg Q <= bound, or None.

    Treats the coefficients of Q as unknowns of an exact linear system,
    one block of equations per tau-degree of the product, and re-verifies
    any solution by an independent composition before returning it.
    """
    p._check(g)
    if p.cols != g.cols or p.rows != g.rows:
        raise ShapeMismatch("witness target shape mismatch")
    if bound is None:
        bound = max(g.degree, 0)
    if bound < 0:
        raise BadParameter("witness degree bound must be nonnegative, "
                           f"got {bound}")
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
    # twisted copies of p's coefficients, indexed by the tau-degree of Q
    twisted = [[p.coeff(j).frob(i) for j in range(p.degree + 1)]
               for i in range(bound + 1)]
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
