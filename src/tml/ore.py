"""Twisted polynomials with matrix coefficients over a tower field.

The twist is the q-power Frobenius: moving tau past a coefficient raises
the coefficient to the q-th power, so composition obeys

    (A tau^i) (B tau^j) = A * B^(q^i) tau^(i+j).

Composition is written left-to-right as operator application: (f * g)
acts by applying g first.  A scalar twisted polynomial is the 1x1 case.
An OrePoly is stored as its entries: entries[r][c] is the tuple of the
(r, c) entry's coefficients by tau-degree, low first, without trailing
zeros, each 0 and 1 the tower's shared zero() and one().  Arithmetic,
evaluation and the weak Popov division read that form; coefficient
matrices (coeffs, coeff, leading) are built on read.  Whether g is a
left multiple Q * p, at any degree, is decided by one right division by
the weak Popov form of p (see left_multiple_witness).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import (BadParameter, CertificateError, FieldMismatch,
                     NonInvertibleLeading, ShapeMismatch)
from .linalg import Mat, _divide, _weak_popov


class OrePoly:
    """Matrix twisted polynomial: per-entry coefficient tuples (see the
    module docstring) and the tau-degree, -1 for zero."""

    __slots__ = ("tower", "rows", "cols", "entries", "degree")

    def __init__(self, tower, rows, cols, coeffs):
        """The twisted polynomial with coefficient matrices coeffs."""
        coeffs = tuple(coeffs)
        for m in coeffs:
            if m.rows != rows or m.cols != cols:
                raise ShapeMismatch("coefficient matrix with wrong shape")
        self._store(tower, cols, [[[m.data[r][c] for m in coeffs]
                                   for c in range(cols)] for r in range(rows)])

    def _store(self, tower, cols, rows):
        """Store rows of per-entry coefficient lists (see _entry)."""
        zero, one = tower.zero(), tower.one()
        self.tower, self.rows, self.cols = tower, len(rows), cols
        self.entries = tuple([tuple([_entry(e, zero, one) if e else ()
                                     for e in row]) for row in rows])
        self.degree = max(map(len, chain(*self.entries)), default=0) - 1

    @classmethod
    def _of(cls, tower, cols, rows):
        """The OrePoly with cols columns whose rows are coefficient lists."""
        op = cls.__new__(cls)
        op._store(tower, cols, rows)
        return op

    @classmethod
    def zero(cls, tower, rows, cols):
        return cls._of(tower, cols, [[()] * cols] * rows)

    @classmethod
    def identity(cls, tower, n):
        return cls._of(tower, n, [[(tower.one(),) if r == c else ()
                                   for c in range(n)] for r in range(n)])

    @classmethod
    def scalar(cls, tower, elems):
        """A 1x1 twisted polynomial from a list of tower elements."""
        return cls._of(tower, 1, [[elems]])

    def is_zero(self) -> bool:
        return self.degree < 0

    def coeff(self, i: int) -> Mat:
        """The coefficient matrix at tau-degree i, zero outside the degree."""
        z = self.tower.zero()
        return Mat(tuple(tuple(e[i] if 0 <= i < len(e) else z for e in row)
                         for row in self.entries))

    @property
    def coeffs(self):
        """The coefficient matrices by tau-degree, up to the degree."""
        return tuple(map(self.coeff, range(self.degree + 1)))

    def leading(self) -> Mat:
        if self.degree < 0:
            raise ValueError("zero twisted polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def scalar_elems(self):
        """Coefficients as tower elements; only for the 1x1 case."""
        if self.rows != 1 or self.cols != 1:
            raise ShapeMismatch("not a scalar twisted polynomial")
        return self.entries[0][0]

    def _check(self, other):
        if self.tower != other.tower:
            raise FieldMismatch("twisted polynomials over different towers")

    def __add__(self, other):
        """The sum; only coefficients that both entries have are added."""
        self._check(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("adding twisted polynomials of different shapes")
        zero = self.tower.zero()
        return OrePoly._of(self.tower, self.cols, [
            [_plus(a, b, zero) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return self._map(lambda v: -v)

    def __sub__(self, other):
        return self + (-other)

    def _map(self, fn):
        """fn applied to every nonzero coefficient."""
        zero = self.tower.zero()
        return OrePoly._of(self.tower, self.cols, [
            [[v if v is zero else fn(v) for v in e] for e in row]
            for row in self.entries])

    def __mul__(self, other):
        """Composition with the twist rule; self acts after other."""
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatch("composition shape mismatch")
        if self.is_zero() or other.is_zero():
            return OrePoly.zero(self.tower, self.rows, other.cols)
        out = [[None] * other.cols for _ in range(self.rows)]
        _compose_into(out, self.entries, [{0: row} for row in other.entries],
                      self.tower.zero(), self.degree + other.degree + 1)
        return OrePoly._of(self.tower, other.cols, out)

    def horner(self, a, x):
        """self * a(x) by Horner's rule, for a in F_q[T] and a square x.

        Constants of F_q commute with tau, so from acc = self * c_n each
        step adds acc * x to self * c, with each twist of x formed once
        per call (see _compose_into).
        """
        tower, m = self.tower, x.cols
        if a.field != tower.fq:
            raise FieldMismatch("polynomial over a different F_q")
        self._check(x)
        if self.cols != x.rows or x.rows != m:
            raise ShapeMismatch("Horner needs self.cols == x.rows == x.cols")
        coeffs, twists = a.coeffs or (0,), [{0: row} for row in x.entries]
        acc = self.scale(tower.const(coeffs[-1]))
        for c in reversed(coeffs[:-1]):
            n = max(self.degree, acc.degree + x.degree) + 1
            own = (self.scale(tower.const(c)).entries if c
                   else [[()] * m] * self.rows)
            out = [[list(e) + [None] * (n - len(e)) if e else None
                    for e in row] for row in own]
            _compose_into(out, acc.entries, twists, tower.zero(), n)
            acc = OrePoly._of(tower, m, out)
        return acc

    def scale(self, e):
        """The product with a tower element e on the right: self when e
        is 1; e from another tower raises FieldMismatch."""
        one = self.tower.one()
        one._check(e)
        if e == one:
            return self
        return self._map(lambda v: v * e)

    def evaluate(self, vec):
        """Apply the twisted polynomial to a coordinate vector.

        The vector may live in a tower extending the coefficient tower;
        nonzero coefficients are lifted as they are read.  Evaluation is
        its own loop, apart from composition and Horner's rule.
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
        zero, vz, vo = self.tower.zero(), vt.zero(), vt.one()
        lift = vt != self.tower
        # the q**i-th powers of the point, its zeros and ones shared
        pows = [tuple(vz if v.is_zero() else vo if v == vo else v
                      for v in vec)]
        for _ in range(self.degree):
            pows.append(tuple(v.frob(1) for v in pows[-1]))
        return tuple(sum(((vt.embed(a) if lift else a) * p[k]
                          for k, e in enumerate(row) for a, p in zip(e, pows)
                          if a is not zero and p[k] is not vz), vz)
                     for row in self.entries)

    def __eq__(self, other):
        return (isinstance(other, OrePoly) and self.tower == other.tower
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def to_exprs(self):
        """Coefficient matrices as expression strings, tau-degree order."""
        return [m.to_exprs() for m in self.coeffs]

    def __repr__(self):
        if self.rows == 1 and self.cols == 1:
            return f"OrePoly({scalar_text(self)})"
        return f"OrePoly({self.rows}x{self.cols}, deg {self.degree})"


def _entry(vals, zero, one):
    """vals, in which None is 0, as a stored entry: each 0 and 1 the
    shared zero and one, no trailing zero."""
    out = [zero if v is None else v if v is zero or v is one else
           zero if v.is_zero() else
           one if v == one else v for v in vals]
    while out and out[-1] is zero:
        out.pop()
    return tuple(out)


def _plus(a, b, zero):
    """Entry a plus entry b as a list, forming no sum with the zero."""
    if len(a) < len(b):
        a, b = b, a
    return [y if x is zero else x if y is zero else x + y
            for x, y in zip(a, b)] + list(a[len(b):])


def _compose_into(out, acc, twists, zero, n):
    """Add acc * x into out, whose entries are None or n coefficients, None
    for 0.  twists[k] maps i to row k of x raised to the q**i, from {0:
    row k}.  A twist costs one Frobenius per nonzero coefficient, so row k
    is twisted only to the levels at which acc reads column k, once while
    twists lives, from the nearest level below."""
    for i in range(max(map(len, chain(*acc)), default=0)):
        for arow, orow in zip(acc, out):
            for e, tw in zip(arow, twists):
                if i >= len(e) or e[i] is zero:
                    continue
                a, row = e[i], tw.get(i)
                if row is None:
                    low = max(lv for lv in tw if lv < i)
                    row = tw[i] = [tuple(y if y is zero else y.frob(i - low)
                                         for y in b) for b in tw[low]]
                for c, b in enumerate(row):
                    if b and orow[c] is None:
                        orow[c] = [None] * n
                    o = orow[c]
                    for j, y in enumerate(b, i):
                        if y is not zero:
                            y = a * y
                            o[j] = y if o[j] is None else o[j] + y


def scalar_text(op: OrePoly) -> str:
    """The nonzero tau-terms of a 1x1 twisted polynomial, lowest first."""
    parts = []
    for i, e in enumerate(op.scalar_elems()):
        if e is op.tower.zero():
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
    return DivisionResult(-OrePoly._of(f.tower, s, [r[s:] for r in rows]),
                          OrePoly._of(f.tower, s, [r[:s] for r in rows]))


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
    s, m = p.rows, p.cols
    # a tau-free column of p leads: its shifted degree deg p + 1 is above
    # every other column's, so a graph block supplies the leading terms
    shift = [p.degree + 1 if all(len(row[k]) < 2 for row in p.entries)
             else 0 for k in range(m)] + [0] * s
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
    q = -OrePoly._of(p.tower, s, [row[m:] for row in rows])
    if q.degree > bound:
        return None
    if q * p != g:
        raise CertificateError("witness failed independent re-expansion")
    return q


def _bordered(op, s, eye):
    """Each row of op's entries as lists, the form _weak_popov works on,
    followed by s columns: e_r when eye is true, else zero."""
    one = op.tower.one()
    return [[list(e) for e in row] + [[one] if eye and k == r else []
                                      for k in range(s)]
            for r, row in enumerate(op.entries)]
