"""Module structures on powers of the additive group over a tower field.

A module definition is the list of coefficient matrices a_0..a_d of the
twisted polynomial giving the action of T; the constant term must be
T*I + N with N nilpotent.  The action of any base polynomial follows by
Horner composition in the twisted-polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (BadParameter, CertificateError, FieldMismatch,
                     NotNilpotent, ShapeMismatch)
from .fields import Poly, _power
from .linalg import Mat
from .ore import OrePoly


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    dimension: int
    degree: int
    nilpotency_order: int | None
    problems: tuple


class TModule:
    """A T-module given by the matrix coefficients of its T-action."""

    def __init__(self, tower, matrices):
        matrices = tuple(matrices)
        if not matrices:
            raise ValueError("need at least the constant coefficient matrix")
        m = matrices[0].rows
        for a in matrices:
            if a.rows != m or a.cols != m:
                raise ShapeMismatch("coefficient matrices must be square, same size")
        while len(matrices) > 1 and matrices[-1].is_zero():
            matrices = matrices[:-1]
        self.tower = tower
        self.matrices = matrices
        self.dimension = m
        self.phi_t = OrePoly(tower, m, m, matrices)

    @property
    def degree(self) -> int:
        return len(self.matrices) - 1

    @property
    def a0(self) -> Mat:
        return self.matrices[0]

    def nilpotent_part(self) -> Mat:
        t_ident = Mat.scalar(self.tower, self.dimension, self.tower.T())
        return self.a0 - t_ident

    def nilpotency_order(self):
        """Least n with N**n = 0 for N = a_0 - T*I, or None if there is none."""
        n = self.nilpotent_part()
        power = Mat.identity(self.tower, self.dimension)
        for i in range(self.dimension + 1):
            if power.is_zero():
                return i
            power = power @ n
        return None

    def require_nilpotent(self) -> int:
        """The nilpotency order; raises NotNilpotent when there is none."""
        order = self.nilpotency_order()
        if order is None:
            raise NotNilpotent("constant coefficient is not T*I plus nilpotent")
        return order

    def validate(self) -> ValidityReport:
        problems = []
        order = self.nilpotency_order()
        if order is None:
            problems.append("not-nilpotent")
        if self.matrices[-1].is_zero():
            problems.append("zero-leading")
        return ValidityReport(valid=not problems, dimension=self.dimension,
                              degree=self.degree, nilpotency_order=order,
                              problems=tuple(problems))

    def t_power(self, j: int) -> OrePoly:
        """The action of T**j, by repeated squaring."""
        return _power(self.phi_t, j,
                      OrePoly.identity(self.tower, self.dimension))

    def act(self, a: Poly) -> OrePoly:
        """The action of a base polynomial, by Horner's rule."""
        return OrePoly.identity(self.tower, self.dimension).horner(
            a, self.phi_t)

    def differential(self, a: Poly, left: Mat | None = None) -> Mat:
        """The tangent action: the base polynomial evaluated at a_0.

        With a k x m matrix left over the module's tower, returns left *
        a(a_0) by Horner's rule on left's rows, without forming a(a_0).
        """
        tower, m = self.tower, self.dimension
        if left is None:
            left = Mat.identity(tower, m)
        elif left.rows and left.cols:
            tower.one()._check(left[0, 0])
        return OrePoly(tower, left.rows, left.cols, (left,)).horner(
            a, OrePoly(tower, m, m, (self.a0,))).coeff(0)

    def j_bound(self) -> int:
        """Smallest power of p at or above the nilpotency order.

        For j = p**r >= n the differential of the T**j action collapses to
        the scalar matrix T**j * I; this is re-verified before returning.
        """
        order = self.require_nilpotent()
        p = self.tower.fq.p
        j = 1
        while j < order:
            j *= p
        fq = self.tower.fq
        tj = Poly(fq, (0,) * j + (1,))
        expected = Mat.scalar(self.tower, self.dimension, self.tower.T() ** j)
        if self.differential(tj) != expected:
            raise CertificateError("scalar differential verification failed")
        return j

    def __eq__(self, other):
        return (isinstance(other, TModule) and self.tower == other.tower
                and self.matrices == other.matrices)

    def __hash__(self):
        return hash((self.tower, self.matrices))

    def __repr__(self):
        return f"TModule(dim {self.dimension}, deg {self.degree}, q={self.tower.fq.q})"


def carlitz(tower) -> TModule:
    """The one-dimensional module with T acting as T + tau."""
    return drinfeld(tower, (tower.one(),))


def drinfeld(tower, elems) -> TModule:
    """A one-dimensional module T + c_1 tau + ... + c_d tau^d."""
    elems = tuple(elems)
    if not elems:
        raise ValueError("need at least one twist coefficient")
    return TModule(tower, OrePoly.scalar(tower, (tower.T(),) + elems).coeffs)


def carlitz_tensor(tower, n: int) -> TModule:
    """The n-th tensor power pattern: T*I + superdiagonal nilpotent,
    plus a single twist entry in the lower-left corner."""
    if n < 1:
        raise BadParameter(f"tensor power must be at least 1, got {n}")
    z, o, t = tower.zero(), tower.one(), tower.T()
    a0 = Mat(tuple(tuple(t if i == j else (o if j == i + 1 else z)
                         for j in range(n)) for i in range(n)))
    a1 = Mat(tuple(tuple(o if (i == n - 1 and j == 0) else z
                         for j in range(n)) for i in range(n)))
    return TModule(tower, (a0, a1))


def product(modules) -> TModule:
    """Block-diagonal product; all factors over the same tower."""
    modules = tuple(modules)
    if not modules:
        raise ValueError("empty product")
    tower = modules[0].tower
    for mod in modules:
        if mod.tower != tower:
            raise FieldMismatch("product factors over different towers")
    total, rows = sum(mod.dimension for mod in modules), []
    for mod in modules:
        left, right = len(rows), total - len(rows) - mod.dimension
        rows += [[()] * left + list(row) + [()] * right
                 for row in mod.phi_t.entries]
    phi = OrePoly._of(tower, total, rows)
    return TModule(tower, [phi.coeff(i) for i in
                           range(max(mod.degree for mod in modules) + 1)])


def diagonal_power(module: TModule, m: int) -> TModule:
    """The m-fold product of one module with itself."""
    return product([module] * m)
