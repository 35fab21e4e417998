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
                     NonInvertibleLeading, ShapeMismatch, ZeroDivisor)
from .linalg import (Mat, _filled, _mul_into, _rref, _sparse_rows,
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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return OrePoly(self.tower, self.rows, self.cols,
                       tuple([x + y for x, y in zip(a, b)]) + a[len(b):])

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
        # b_j that a_i reads, those indexed by a_i's nonzero columns, and
        # build each twist on the last one formed (twisted[k] holds row k
        # of b_j raised to the q**level[k])
        used = [{k for row in a for k, _ in row} for a in left]
        for j, b in enumerate(other.coeffs):
            twisted = _sparse_rows(b.data)
            level = [0] * len(twisted)
            for i, a in enumerate(left):
                for k in used[i]:
                    gap = i - level[k]
                    if gap:
                        twisted[k] = [(c, y.frob(gap)) for c, y in twisted[k]]
                        level[k] = i
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
            return f"OrePoly({scalar_text(self)})"
        return f"OrePoly({self.rows}x{self.cols}, deg {self.degree})"


def scalar_text(op: OrePoly) -> str:
    """The nonzero tau-terms of a 1x1 twisted polynomial, lowest first."""
    parts = []
    for i, e in enumerate(op.scalar_elems()):
        if e.is_zero():
            continue
        es = e.to_expr()
        if i == 0:
            parts.append(es)
            continue
        t = "tau" if i == 1 else f"tau^{i}"
        parts.append(t if es == "1" else f"({es})*{t}")
    return " + ".join(parts) if parts else "0"


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
    # twisted copies of p's coefficients, indexed by the tau-degree of
    # Q; each is one Frobenius step from the one before
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


def graph_block(p: OrePoly):
    """The graph block of p as (cols, inv), or None when p is no graph.

    p (s x m) is a graph presentation when its tau-free columns, those
    zero in every coefficient of tau-degree 1 or more, have a constant
    part of rank s.  cols are the s pivot columns of that part, C the
    s x s matrix on them, and inv is C**-1, or None when C is the
    identity.  A pivot that is a zero divisor of a quotient-ring tower
    leaves p to the linear search.
    """
    tower, s = p.tower, p.rows
    free = [c for c in range(p.cols) if all(
        m[r, c].is_zero() for m in p.coeffs[1:] for r in range(s))]
    ident = Mat.identity(tower, s)
    # [C | I] reduces to [R | C_piv**-1] when C has full row rank
    aug = [[p.coeffs[0][r, c] for c in free] + list(ident.data[r])
           for r in range(s)]
    try:
        pivots = _rref(aug, len(free))
    except ZeroDivisor:
        return None
    if len(pivots) < s:
        return None
    inv = Mat(tuple(tuple(row[len(free):]) for row in aug))
    return [free[k] for k in pivots], (None if inv == ident else inv)


def graph_witness(p: OrePoly, block, g: OrePoly, bound=None):
    """The Q with Q*p == g and deg Q <= bound, or None, by one right
    division by the graph presentation p (block from graph_block).

    On the graph columns Q*p is sum Q_i C^(q^i) tau^i, so Q_i =
    g_i[:, cols] (C**-1)^(q^i) is the only candidate at any degree; it
    is returned only when an independent composition reproduces g.
    """
    p._check(g)
    if p.cols != g.cols or p.rows != g.rows:
        raise ShapeMismatch("witness target shape mismatch")
    if bound is None:
        bound = max(g.degree, 0)
    cols, inv = block
    mats = []
    for i, gi in enumerate(g.coeffs):
        qi = Mat(tuple(tuple(row[c] for c in cols) for row in gi.data))
        if inv is not None:
            if i:
                inv = inv.frob(1)
            qi = qi @ inv
        mats.append(qi)
    q = OrePoly(p.tower, p.rows, p.rows, mats)
    if q.degree > bound or q * p != g:
        return None
    return q
