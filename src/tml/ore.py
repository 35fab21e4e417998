"""Twisted polynomials with matrix coefficients over a tower field.

The twist is the q-power Frobenius: moving tau past a coefficient raises
the coefficient to the q-th power, so composition obeys

    (A tau^i) (B tau^j) = A * B^(q^i) tau^(i+j).

Composition is written left-to-right as operator application: (f * g)
acts by applying g first.  A scalar twisted polynomial is the 1x1 case.
Whether g is a left multiple Q * p, at any degree, is decided by one
right division by the weak Popov form of p (see left_multiple_witness).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (BadParameter, CertificateError, FieldMismatch,
                     NonInvertibleLeading, ShapeMismatch)
from .linalg import (Mat, _divide, _filled, _mul_into, _shared_one,
                     _sparse_rows, _weak_popov)


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

    g must be square with an invertible leading coefficient matrix, that
    is, its weak Popov form owns every column at degree deg g.  Each row
    of f divided by that form leaves a row of r, and, through the [x | y]
    rows of left_multiple_witness, a row of q.
    """
    f._check(g)
    if g.rows != g.cols:
        raise ShapeMismatch("divisor must be square")
    if f.cols != g.rows:
        raise ShapeMismatch("dividend and divisor shapes incompatible")
    if g.is_zero():
        raise ZeroDivisionError("twisted division by zero")
    s, shift = g.rows, [0] * g.rows
    owners, _ = _weak_popov(_bordered(g, s, True), range(s), shift)
    if len(owners) < s or any(d <= g.degree for d, _ in owners.values()):
        raise NonInvertibleLeading("divisor leading coefficient is singular")
    rows = _bordered(f, s, False)
    for row in rows:
        _divide(row, range(s), shift, owners)
    return DivisionResult(-_from_lists(f.tower, [r[s:] for r in rows], s),
                          _from_lists(f.tower, [r[:s] for r in rows], s))


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

    One right division decides at every degree: p is brought to weak
    Popov form U*p by left row operations, each row of g is divided by
    it, and Q, formed from the quotients and U, is reduced modulo the
    left kernel of p to its least degree, then re-verified by composition.
    """
    bound = _witness_bound(p, bound, g)
    tower, s, m = p.tower, p.rows, p.cols
    # a tau-free column of p leads: its shifted degree deg p + 1 is above
    # every other column's, so a graph block supplies the leading terms
    shift = [p.degree + 1 if all(not c.data[r][k] for c in p.coeffs[1:]
                                 for r in range(s)) else 0
             for k in range(m)] + [0] * s
    # each row is [x | y] with x = y*p for the rows of p, which start as
    # [p_r | e_r], and x - y*p = g_r for [g_r | 0]; left row operations
    # keep both, so a row of g divided to x = 0 leaves -y, a row of Q
    owners, kernel = _weak_popov(_bordered(p, s, True), range(m), shift)
    rows = _bordered(g, s, False)
    if any(_divide(row, range(m), shift, owners) for row in rows):
        return None
    # the vanished rows of U*p span the left kernel of p; the remainder
    # modulo it, rightmost first, has least degree and ties keep left entries
    back = range(m + s - 1, m - 1, -1)
    least, _ = _weak_popov(kernel, back, shift)
    for row in rows:
        _divide(row, back, shift, least)
    q = -_from_lists(tower, [row[m:] for row in rows], s)
    if q.degree > bound:
        return None
    if q * p != g:
        raise CertificateError("witness failed independent re-expansion")
    return q


def _bordered(op, s, eye):
    """Each row of op as per-column coefficient lists, low degree first,
    without trailing zeros, followed by s columns: e_r when eye is true,
    else zero."""
    one, out = op.tower.one(), []
    for r in range(op.rows):
        row = [[c.data[r][k] for c in op.coeffs] for k in range(op.cols)]
        for e in row:
            while e and not e[-1]:
                e.pop()
        out.append(row + [[one] if eye and k == r else [] for k in range(s)])
    return out


def _from_lists(tower, rows, cols):
    """The OrePoly with cols columns whose rows are given as lists (see
    _bordered); a coefficient past the end of a list is zero."""
    zero = tower.zero()
    return OrePoly(tower, len(rows), cols, [
        Mat(tuple(tuple(e[i] if i < len(e) else zero for e in row)
                  for row in rows))
        for i in range(max((len(e) for row in rows for e in row), default=0))])
