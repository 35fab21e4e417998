"""Small exact linear algebra over a coefficient field object.

The field argument only needs zero() and one(); elements need the ring
operators plus inverse(), frob(), is_zero(), zero(), one() and _check(),
the last raising FieldMismatch for an element of another field.  Matrices
are stored dense, but products and eliminations skip zero entries and
hand every entry 1 on as the field's shared one(): a product with a zero
or unit operand is never formed.  One elimination, the weak Popov
reduction of matrices of twisted polynomials, serves solve, inverse,
rank and kernel (a constant matrix is its degree-0 case) as well as
tml.ore's right division and witnesses.  Its rows are per-column
coefficient lists, the form in which tml.ore stores twisted polynomials.
Everything is exact over the rational-function towers used here.
"""

from __future__ import annotations

from .errors import BadParameter, ShapeMismatch


class Mat:
    """Immutable dense matrix of field elements."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = tuple(tuple(row) for row in data)
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ShapeMismatch("ragged matrix rows")
        self.data = data

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero()
        return cls(tuple((z,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, field, n):
        return cls.scalar(field, n, field.one())

    @classmethod
    def scalar(cls, field, n, value):
        z = field.zero()
        return cls(tuple(tuple(value if i == j else z for j in range(n))
                         for i in range(n)))

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r][c]

    def __add__(self, other):
        self._shape_check(other)
        return Mat(tuple(tuple(a + b for a, b in zip(ra, rb))
                         for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other):
        self._shape_check(other)
        return Mat(tuple(tuple(a - b for a, b in zip(ra, rb))
                         for ra, rb in zip(self.data, other.data)))

    def __neg__(self):
        return Mat(tuple(tuple(-a for a in row) for row in self.data))

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cells = [[None] * other.cols for _ in range(self.rows)]
        zero = (_zero_of(self.data[0][0], other.data[0][0])
                if cells and other.cols else None)
        _mul_into(cells, _sparse_rows(self.data), _sparse_rows(other.data))
        return Mat(_filled(cells, zero))

    def matvec(self, vec):
        if self.cols != len(vec):
            raise ShapeMismatch("matrix-vector size mismatch")
        if self.rows and not vec:
            # the product is a vector of zeros, but no entry names the field
            raise ShapeMismatch(f"{self.rows}x0 matrix times an empty vector")
        cells = [[None] for _ in range(self.rows)]
        zero = _zero_of(self.data[0][0], vec[0]) if cells else None
        _mul_into(cells, _sparse_rows(self.data), _sparse_rows(zip(vec)))
        return tuple(v for v, in _filled(cells, zero))

    def scale(self, s):
        """The product with a scalar s on the right: the matrix itself when
        s is 1 or the matrix is empty, and zero entries are left as they
        are; s from another field raises FieldMismatch, for a zero matrix
        too."""
        if not (self.rows and self.cols):
            return self
        self.data[0][0]._check(s)
        if s == s.one():
            return self
        return Mat(tuple(tuple(a if a.is_zero() else a * s for a in row)
                         for row in self.data))

    def map(self, fn):
        return Mat(tuple(tuple(fn(a) for a in row) for row in self.data))

    def frob(self, i):
        if i < 0:
            raise BadParameter(f"negative Frobenius power {i}")
        if i == 0:
            return self
        return self.map(lambda a: a if a.is_zero() else a.frob(i))

    def is_zero(self):
        return all(a.is_zero() for row in self.data for a in row)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash(self.data)

    def to_exprs(self):
        return [[a.to_expr() for a in row] for row in self.data]

    def __repr__(self):
        return f"Mat({self.to_exprs()})"


def _zero_of(x, y):
    """The zero of x's field; raises FieldMismatch, as x * y would, when
    y lives in another field."""
    x._check(y)
    return x.zero()


def _sparse_rows(data):
    """Each row of data as its (column, entry) pairs with nonzero entry;
    an entry equal to 1 is replaced by the shared one(), which forms no
    product."""
    return [[(c, _shared_one(v)) for c, v in enumerate(row)
             if not v.is_zero()] for row in data]


def _shared_one(v):
    """v, or the shared one() of its field when v equals it."""
    one = v.one()
    return one if v == one else v


def _mul_into(cells, a, b):
    """Add the product of a and b into cells, a list of row lists in
    which None is zero.  a and b are sparse rows (see _sparse_rows), so
    a product is formed only when both operands are nonzero, and the
    nonzero pattern of each row of b is found once, not once per use."""
    for out, arow in zip(cells, a):
        for k, x in arow:
            for c, y in b[k]:
                term = x * y
                acc = out[c]
                out[c] = term if acc is None else acc + term


def _filled(cells, zero):
    """cells as a tuple of row tuples, with zero where a cell is None."""
    return tuple(tuple(zero if v is None else v for v in row)
                 for row in cells)


def _divide(row, cols, shift, owners):
    """Cancel row's leading term (top shifted degree, first of cols to
    reach it) by its column's owner while the owner's degree is no
    larger; returns the last (degree, column) lead, None for a zero row."""
    while True:
        lead = max(((len(row[k]) + shift[k], k) for k in cols if row[k]),
                   key=lambda t: t[0], default=None)
        held = lead and owners.get(lead[1])
        if not held or held[0] > lead[0]:
            return lead
        _cancel(row, held[1], lead[1])


def _cancel(row, src, col):
    """row -= c tau^k src, cancelling row's last term c in col, src's
    leading column, where src's last term is 1: that term is popped."""
    k = len(row[col]) - len(src[col])
    c = _shared_one(row[col].pop())
    zero = c.zero()
    for j, (dst, e) in enumerate(zip(row, src)):
        top = len(e) - (j == col)
        dst.extend([zero] * (top + k - len(dst)))
        for i in range(top):
            if e[i]:
                dst[i + k] = dst[i + k] - c * e[i].frob(k)
        while dst and not dst[-1]:
            dst.pop()


def _weak_popov(rows, cols, shift):
    """Weak Popov form of rows over cols, in place (Mulders and Storjohann).

    A row is a list of per-column coefficient lists by tau-degree, low
    first, without trailing zeros.  Each nonzero row owns its lead's
    column, with lead 1 (ZeroDivisor if not a unit).  Returns {column:
    (degree, row)} and the vanished rows.  On constant rows with shift 0
    the owners are the pivots of the reduced row echelon form.
    """
    owners, vanished = {}, []
    todo = rows[::-1]
    while todo:
        row = todo.pop()
        lead = _divide(row, cols, shift, owners)
        if lead is None:
            vanished.append(row)
            continue
        col = row[lead[1]]
        lc = _shared_one(col.pop())
        inv = lc if lc is lc.one() else lc.inverse()
        for e in row:  # a product with the shared one is its other operand
            e[:] = [_shared_one(inv * x) if x else x for x in e]
        col.append(lc.one())
        held = owners.get(lead[1])
        owners[lead[1]] = (lead[0], row)
        if held:
            todo.append(held[1])
    # cancel owners' terms in each other's columns, right to left, below
    # the leads; leads are kept, and a constant block C leaves C**-1 * p
    for k in sorted(owners, reverse=True):
        src = owners[k][1]
        for _, row in owners.values():
            while row is not src and len(row[k]) >= len(src[k]):
                _cancel(row, src, k)
    return owners, vanished


def _echelon(rows, ncols):
    """The reduced row echelon form of constant rows over their first
    ncols columns: {pivot column: row} and the rows that vanish there,
    each entry a list of one nonzero element or empty."""
    owners, vanished = _weak_popov(
        [[[e] if e else [] for e in row] for row in rows], range(ncols),
        [0] * ncols)
    return {c: row for c, (_, row) in owners.items()}, vanished


def gauss_solve(field, a_rows, b):
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    a_rows is a Mat or a list of row lists; b a vector.
    """
    if isinstance(a_rows, Mat):
        a_rows = a_rows.data
    n = len(a_rows)
    if n != len(b):
        raise ShapeMismatch("system row count mismatch")
    if n == 0:
        return []
    ncols = len(a_rows[0])
    pivots, vanished = _echelon([list(r) + [x] for r, x in zip(a_rows, b)],
                                ncols)
    if any(row[ncols] for row in vanished):
        return None
    sol = [field.zero()] * ncols
    for c, row in pivots.items():
        if row[ncols]:
            sol[c] = row[ncols][0]
    return sol


def gauss_inverse(field, mat: Mat):
    """Exact inverse, or None when the matrix is singular."""
    n = mat.rows
    if n != mat.cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    if n == 0:
        return Mat(())
    ident = Mat.identity(field, n)
    pivots, _ = _echelon([r + e for r, e in zip(mat.data, ident.data)], n)
    if len(pivots) < n:
        return None
    z = field.zero()
    return Mat(tuple(tuple(e[0] if e else z for e in pivots[c][n:])
                     for c in range(n)))


def matrix_rank(mat: Mat) -> int:
    """Rank, as the pivot count of the reduced row echelon form."""
    return len(_echelon(mat.data, mat.cols)[0])


def kernel_basis(field, mat: Mat):
    """Basis vectors of the right kernel, deterministic order."""
    n = mat.cols
    pivots, _ = _echelon(mat.data, n)
    z, o = field.zero(), field.one()
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [z] * n
        vec[fc] = o
        for pc, row in pivots.items():
            if row[fc]:
                vec[pc] = -row[fc][0]
        basis.append(vec)
    return basis
