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
from .linalg import (Mat, _filled, _mul_into, _rref, _shared_one,
                     _sparse_rows, gauss_inverse, gauss_solve)


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
        cells = [[[None] * other.cols for _ in range(self.rows)]
                 for _ in range(self.degree + other.degree + 1)]
        _compose_into(cells, [_sparse_rows(a.data) for a in self.coeffs],
                      [[_sparse_rows(b.data) for b in other.coeffs]])
        zero = self.tower.zero()
        return OrePoly(self.tower, self.rows, other.cols,
                       [Mat(_filled(grid, zero)) for grid in cells])

    def horner(self, a, x):
        """self * a(x) by Horner's rule, for a in F_q[T] and a square x.

        Constants of F_q commute with tau, so each step is acc * x +
        self * c, with acc in sparse rows and each twist of x formed once
        per call (see _compose_into).
        """
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
            # the nonzero cells of the last step, ones as the shared one
            acc = [[[(k, _shared_one(v)) for k, v in enumerate(row)
                     if v is not None and not v.is_zero()] for row in grid]
                   for grid in cells]
            cells = [[[None] * m for _ in range(s)] for _ in
                     range(max(len(acc) + x.degree if acc else 0, len(own)))]
            _compose_into(cells, acc, twists)
            if c:
                e = tower.const(c)
                term = own if e is tower.one() else [
                    [[(k, v * e) for k, v in row] for row in rows]
                    for rows in own]
                for grid, rows in zip(cells, term):
                    for out, row in zip(grid, rows):
                        for k, v in row:
                            out[k] = v if out[k] is None else out[k] + v
        return OrePoly(tower, s, m, [Mat(_filled(grid, tower.zero()))
                                     for grid in cells])

    def scale(self, e):
        """The product with a tower element e on the right: self when e
        is 1; e from another tower raises FieldMismatch."""
        one = self.tower.one()
        one._check(e)
        if e == one:
            return self
        return OrePoly(self.tower, self.rows, self.cols,
                       tuple(c.scale(e) for c in self.coeffs))

    def evaluate(self, vec):
        """Apply the twisted polynomial to a coordinate vector.

        The vector may live in a tower extending the coefficient tower;
        nonzero coefficients are lifted before sum A_i vec^(q^i) is added
        into one grid.
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


def _compose_into(cells, acc, twists):
    """Add acc * x into cells, one grid per tau-degree in which None is
    zero.  acc holds sparse rows (see _sparse_rows) by tau-degree, and
    twists[i][j][k] is row k of x_j raised to the q**i, None until read.
    A twist costs one Frobenius per entry, so only the rows that acc_i
    reads, those of its nonzero columns, are twisted, each once while
    twists lives, from the highest twist of the row formed below i."""
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


def _witness_bound(p, bound, g=None):
    """The degree bound of a witness Q with Q*p == g: bound, or
    max(deg g, 0) when it is None.  g must have p's shape and bound must
    be nonnegative; without g only bound is checked."""
    if g is not None:
        p._check(g)
        if p.cols != g.cols or p.rows != g.rows:
            raise ShapeMismatch("witness target shape mismatch")
        if bound is None:
            return max(g.degree, 0)
    if bound is not None and bound < 0:
        raise BadParameter("witness degree bound must be nonnegative, "
                           f"got {bound}")
    return bound


def left_multiple_witness(p: OrePoly, g: OrePoly, bound=None):
    """A twisted polynomial Q with Q*p == g and deg Q <= bound, or None.

    Treats the coefficients of Q as unknowns of an exact linear system,
    one block of equations per tau-degree of the product, and re-verifies
    any solution by an independent composition before returning it.
    """
    bound = _witness_bound(p, bound, g)
    tower = p.tower
    s, m = p.rows, p.cols
    if p.is_zero():  # every p with no rows is zero
        return None if not g.is_zero() else OrePoly.zero(tower, s, s)
    zero = tower.zero()
    # the matrix of Q -> Q*p, shared by every row of Q: row (n, c) at
    # n*m + c, column (i, k) at i*s + k, entry (p_{n-i})^(q^i)[k, c]
    system = [[zero] * ((bound + 1) * s)
              for _ in range((max(bound + p.degree, g.degree) + 1) * m)]
    live = set()
    twisted = p.coeffs
    for i in range(bound + 1):
        if i:
            twisted = tuple(c.frob(1) for c in twisted)
        for j, pj in enumerate(twisted):
            for k, row in enumerate(_sparse_rows(pj.data)):
                for c, v in row:
                    system[(i + j) * m + c][i * s + k] = v
                    live.add((i + j) * m + c)
    sols = []
    for r in range(s):
        # an equation with no unknown and a zero target is dropped
        eqs, rhs = [], []
        for x, eq in enumerate(system):
            n, c = divmod(x, m)
            target = g.coeffs[n][r, c] if n <= g.degree else zero
            if x in live or not target.is_zero():
                eqs.append(eq)
                rhs.append(target)
        sol = gauss_solve(tower, eqs, rhs)
        if sol is None:
            return None
        sols.append(sol)
    q = OrePoly(tower, s, s, [Mat([sol[i * s:(i + 1) * s] for sol in sols])
                              for i in range(bound + 1)])
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
    bound = _witness_bound(p, bound, g)
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
