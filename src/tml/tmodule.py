"""Module structures on powers of the additive group over a tower field.

A module is stored as phi_T = a_0 + a_1 tau + ... + a_d tau^d, the
twisted polynomial giving the action of T; a_0 must be T*I + N with N
nilpotent.  The action of any base polynomial follows by
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
    """A T-module, stored as phi_t: the twisted polynomial of T's action."""

    def __init__(self, tower, matrices):
        """The module with T-action sum a_i tau^i for matrices a_0..a_d."""
        matrices = tuple(matrices)
        m = matrices[0].rows if matrices else 0
        self._store(OrePoly(tower, m, m, matrices))

    @classmethod
    def _of(cls, tower, rows):
        """The module whose phi_T has rows as in OrePoly._of."""
        return cls.__new__(cls)._store(OrePoly._of(tower, len(rows), rows))

    def _store(self, phi):
        if not phi.rows:
            raise BadParameter("need at least the constant coefficient matrix")
        if any(len(row) != phi.rows for row in phi.entries):
            raise ShapeMismatch("coefficient matrices must be square, same size")
        self.tower, self.dimension, self.phi_t = phi.tower, phi.rows, phi
        return self

    @property
    def degree(self) -> int:
        return max(self.phi_t.degree, 0)

    @property
    def matrices(self):
        """The coefficient matrices a_0..a_d, read off phi_t."""
        return tuple(map(self.phi_t.coeff, range(self.degree + 1)))

    @property
    def a0(self) -> Mat:
        return self.phi_t.coeff(0)

    def nilpotency_order(self):
        """Least n with N**n = 0 for N = a_0 - T*I, or None if there is none."""
        n = self.a0 - Mat.scalar(self.tower, self.dimension, self.tower.T())
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
        if self.phi_t.is_zero():
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

    def differential(self, a: Poly, left: OrePoly | None = None) -> Mat:
        """The tangent action: the base polynomial evaluated at a_0.

        With a k x m twisted polynomial left, returns dp * a(a_0) for its
        constant term dp by Horner's rule on dp's rows, not forming a(a_0).
        """
        left = (OrePoly.identity(self.tower, self.dimension) if left is None
                else _constant(left))
        return left.horner(a, _constant(self.phi_t)).coeff(0)

    def j_bound(self) -> int:
        """Smallest power of p at or above the nilpotency order.

        For j = p**r >= n the differential of the T**j action collapses to
        the scalar matrix T**j * I; this is re-verified before returning.
        """
        order, j = self.require_nilpotent(), 1
        while j < order:
            j *= self.tower.fq.p
        expected = Mat.scalar(self.tower, self.dimension, self.tower.T() ** j)
        if self.differential(Poly(self.tower.fq, (0,) * j + (1,))) != expected:
            raise CertificateError("scalar differential verification failed")
        return j

    def __eq__(self, other):
        return isinstance(other, TModule) and self.phi_t == other.phi_t

    def __hash__(self):
        return hash(self.phi_t)

    def __repr__(self):
        return f"TModule(dim {self.dimension}, deg {self.degree}, q={self.tower.fq.q})"


def carlitz(tower) -> TModule:
    """The one-dimensional module with T acting as T + tau."""
    return drinfeld(tower, (tower.one(),))


def drinfeld(tower, elems) -> TModule:
    """A one-dimensional module T + c_1 tau + ... + c_d tau^d."""
    elems = tuple(elems)
    if not elems:
        raise BadParameter("need at least one twist coefficient")
    return TModule._of(tower, [[(tower.T(),) + elems]])


def carlitz_tensor(tower, n: int) -> TModule:
    """The n-th tensor power pattern: T*I + superdiagonal nilpotent,
    plus a single twist entry in the lower-left corner."""
    if n < 1:
        raise BadParameter(f"tensor power must be at least 1, got {n}")
    z, o, t = tower.zero(), tower.one(), tower.T()
    return TModule._of(tower, [[(t if i == j else o if j == i + 1 else z,
                                 o if i == n - 1 and j == 0 else z)
                                for j in range(n)] for i in range(n)])


def product(modules) -> TModule:
    """Block-diagonal product; all factors over the same tower."""
    modules = tuple(modules)
    if not modules:
        raise BadParameter("empty product")
    tower = modules[0].tower
    if any(mod.tower != tower for mod in modules):
        raise FieldMismatch("product factors over different towers")
    total, rows = sum(mod.dimension for mod in modules), []
    for mod in modules:
        left, right = len(rows), total - len(rows) - mod.dimension
        rows += [[()] * left + list(row) + [()] * right
                 for row in mod.phi_t.entries]
    return TModule._of(tower, rows)


def _constant(op: OrePoly) -> OrePoly:
    """The tau-degree-0 part of op, read off its entries."""
    return OrePoly._of(op.tower, op.cols,
                       [[e[:1] for e in row] for row in op.entries])


def diagonal_power(module: TModule, m: int) -> TModule:
    """The m-fold product of one module with itself."""
    return product([module] * m)
