"""Small exact linear algebra over a coefficient field object.

The field argument only needs zero() and one(); elements need the ring
operators plus inverse(), is_zero(), zero(), one() and _check(), the
last raising FieldMismatch for an element of another field.  Matrices
are stored dense, but products and eliminations skip zero entries and
hand every entry 1 on as the field's shared one(), whose products
return the other operand: a product with a zero or unit operand is
never formed.  Everything is exact over the rational-function towers
used here.
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

    def transpose(self):
        return Mat(tuple(zip(*self.data))) if self.data else Mat(())

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


def _rref(rows, ncols):
    """In-place reduced row echelon form; returns the pivot column list."""
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nr):
            if not rows[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r]
        # columns left of c are zero in every row from r down
        nz = [k for k in range(c, len(piv)) if not piv[k].is_zero()]
        one = piv[c].one()
        if piv[c] != one:
            inv = piv[c].inverse()
            for k in nz[1:]:
                piv[k] = inv * piv[k]
        # the pivot is the shared one, so eliminating by it forms no product
        piv[c] = one
        for i in range(nr):
            row = rows[i]
            if i != r and not row[c].is_zero():
                f = row[c]
                for k in nz:
                    row[k] = row[k] - f * piv[k]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots


def gauss_solve(field, a_rows, b):
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    a_rows is a Mat or a list of row lists; b a vector.
    """
    if isinstance(a_rows, Mat):
        a_rows = [list(r) for r in a_rows.data]
    else:
        a_rows = [list(r) for r in a_rows]
    n = len(a_rows)
    if n != len(b):
        raise ShapeMismatch("system row count mismatch")
    if n == 0:
        return []
    ncols = len(a_rows[0])
    aug = [a_rows[i] + [b[i]] for i in range(n)]
    pivots = _rref(aug, ncols)
    for row in aug[len(pivots):]:
        if not row[ncols].is_zero():
            return None
    z = field.zero()
    sol = [z] * ncols
    for r, c in enumerate(pivots):
        sol[c] = aug[r][ncols]
    return sol


def gauss_inverse(field, mat: Mat):
    """Exact inverse, or None when the matrix is singular."""
    n = mat.rows
    if n != mat.cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    if n == 0:
        return Mat(())
    ident = Mat.identity(field, n)
    aug = [list(mat.data[i]) + list(ident.data[i]) for i in range(n)]
    pivots = _rref(aug, n)
    if len(pivots) < n:
        return None
    return Mat(tuple(tuple(row[n:]) for row in aug))


def matrix_rank(mat: Mat) -> int:
    """Rank, as the pivot count of the reduced row echelon form."""
    return len(_rref([list(r) for r in mat.data], mat.cols))


def kernel_basis(field, mat: Mat):
    """Basis vectors of the right kernel, deterministic order."""
    rows = [list(r) for r in mat.data]
    n = mat.cols
    if not rows:
        ident = Mat.identity(field, n)
        return [list(r) for r in ident.data]
    pivots = _rref(rows, n)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    z, o = field.zero(), field.one()
    basis = []
    for fc in free:
        vec = [z] * n
        vec[fc] = o
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis
