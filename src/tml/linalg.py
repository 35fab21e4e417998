"""Small exact dense linear algebra over a coefficient field object.

The field argument only needs zero() and one(); elements need the ring
operators plus inverse() and is_zero().  Everything reduces by ordinary
row elimination with immediate canonicalization of every entry, which is
exact over the rational-function towers used here.
"""

from __future__ import annotations

from .errors import ShapeMismatch


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
        z, o = field.zero(), field.one()
        return cls(tuple(tuple(o if i == j else z for j in range(n))
                         for i in range(n)))

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
        ot = tuple(zip(*other.data)) if other.data else ()
        out = []
        for row in self.data:
            new = []
            for col in ot:
                acc = None
                for a, b in zip(row, col):
                    term = a * b
                    acc = term if acc is None else acc + term
                new.append(acc)
            out.append(tuple(new))
        if self.rows and other.cols == 0:
            return Mat(tuple(() for _ in range(self.rows)))
        if not out:
            return Mat(())
        return Mat(tuple(out))

    def matvec(self, vec):
        if self.cols != len(vec):
            raise ShapeMismatch("matrix-vector size mismatch")
        out = []
        for row in self.data:
            acc = None
            for a, b in zip(row, vec):
                term = a * b
                acc = term if acc is None else acc + term
            out.append(acc)
        return tuple(out)

    def scale(self, s):
        return Mat(tuple(tuple(a * s for a in row) for row in self.data))

    def map(self, fn):
        return Mat(tuple(tuple(fn(a) for a in row) for row in self.data))

    def frob(self, i):
        if i == 0:
            return self
        return self.map(lambda a: a.frob(i))

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
        inv = rows[r][c].inverse()
        rows[r] = [inv * v for v in rows[r]]
        for i in range(nr):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[r])]
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
