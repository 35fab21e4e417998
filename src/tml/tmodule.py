"""Module structures on powers of the additive group over a tower field.

A module is stored as phi_T = a_0 + a_1 tau + ... + a_d tau^d, the
twisted polynomial giving the action of T; a_0 must be T*I + N with N
nilpotent.  The action of any base polynomial follows by
Horner composition in the twisted-polynomial ring.  Its tangent action
a(a_0) follows by Taylor's formula at T instead: T*I is central, so
a(T*I + N) is the sum of D^k a * N^k over the Hasse derivatives D^k a,
a finite sum once N is nilpotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import (BadParameter, CertificateError, FieldMismatch,
                     NotNilpotent, ShapeMismatch)
from .fields import Poly, RatFunc, _power
from .linalg import Mat, _filled, _mul_into, _shared_one, _sparse_rows
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
        n, power = self._nilpotent_part(), self._identity_rows()
        for i in range(self.dimension + 1):
            if not any(power):
                return i
            power = _times(power, n, self.tower.zero())
        return None

    def _nilpotent_part(self):
        """N = a_0 - T*I as sparse rows (see linalg._sparse_rows).  The
        entries of phi_t hold the shared zero and one, so only the
        diagonal is compared, and an entry equal to T cancels by that
        test, with no subtraction."""
        zero, t = self.tower.zero(), self.tower.T()
        rows = []
        for r, row in enumerate(self.phi_t.entries):
            cells = []
            for c, e in enumerate(row):
                v = e[0] if e else zero
                if c == r:
                    v = zero if v == t else _shared_one(v - t)
                if v is not zero:
                    cells.append((c, v))
            rows.append(cells)
        return rows

    def _identity_rows(self):
        one = self.tower.one()
        return [[(r, one)] for r in range(self.dimension)]

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
        constant term dp, not forming a(a_0): by Taylor's formula at T it
        is the sum of D^k a * (dp * N^k), which ends at the first zero
        dp * N^k.  A product with N is formed only while a nonzero entry
        meets a nonzero row of N, and only up to k = deg a.  When dp * N^m
        is not zero, N is not nilpotent and Horner's rule at a_0 gives the
        block instead.
        """
        tower, m = self.tower, self.dimension
        if a.field != tower.fq:
            raise FieldMismatch("polynomial over a different F_q")
        zero = tower.zero()
        if left is None:
            powers = [self._identity_rows()]
        else:
            self.phi_t._check(left)
            if left.cols != m:
                raise ShapeMismatch("left factor column count must match")
            powers = [[[(c, e[0]) for c, e in enumerate(row)
                        if e and e[0] is not zero] for row in left.entries]]
        n = self._nilpotent_part()
        while len(powers) <= a.degree and any(
                n[c] for row in powers[-1] for c, _ in row):
            power = _times(powers[-1], n, zero)
            if not any(power):
                break
            if len(powers) == m:
                return self._horner_at_a0(a, (
                    OrePoly.identity(tower, m) if left is None
                    else _constant(left)))
            powers.append(power)
        derivs = (_in_tower(tower, _hasse(a, k)) for k in range(len(powers)))
        terms = [(k, d) for k, d in enumerate(derivs) if d is not zero]
        cells = [[None] * m for _ in powers[0]]
        for r, out in enumerate(cells):
            _mul_into([out], [terms], [power[r] for power in powers])
        return Mat(_filled(cells, zero))

    def _horner_at_a0(self, a: Poly, left: OrePoly) -> Mat:
        """left * a(a_0) by Horner's rule, for left of tau-degree 0."""
        return left.horner(a, _constant(self.phi_t)).coeff(0)

    def j_bound(self) -> int:
        """Smallest power of p at or above the nilpotency order.

        For j = p**r >= n the differential of the T**j action collapses to
        the scalar matrix T**j * I; this is re-verified before returning,
        by Horner's rule at a_0 and not by Taylor's formula, under which
        every binomial binom(j, k), 0 < k < j, vanishes mod p.
        """
        order, j = self.require_nilpotent(), 1
        while j < order:
            j *= self.tower.fq.p
        m = self.dimension
        expected = Mat.scalar(self.tower, m, self.tower.T() ** j)
        if self._horner_at_a0(Poly(self.tower.fq, (0,) * j + (1,)),
                              OrePoly.identity(self.tower, m)) != expected:
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


def _times(rows, n, zero):
    """Sparse rows times the sparse rows of N; a sum that cancels is
    dropped and one equal to 1 is the shared one."""
    cells = [[None] * len(n) for _ in rows]
    _mul_into(cells, rows, n)
    return _sparse_rows(_filled(cells, zero))


def _hasse(a: Poly, k: int) -> Poly:
    """The k-th Hasse derivative of a: binom(i, k) * c_i at T**(i - k)."""
    if not k:
        return a
    f = a.field
    return Poly(f, [f.mul_table[comb(i, k) % f.p][c]
                    for i, c in enumerate(a.coeffs[k:], k)])


def _in_tower(tower, b: Poly):
    """b in F_q[T] as a tower element; 0 and 1 the shared zero and one."""
    if b.degree < 1:
        return tower.const(b.lc() if b else 0)
    return tower.from_ratfunc(RatFunc.from_poly(b))


def _constant(op: OrePoly) -> OrePoly:
    """The tau-degree-0 part of op, read off its entries."""
    return OrePoly._of(op.tower, op.cols,
                       [[e[:1] for e in row] for row in op.entries])


def diagonal_power(module: TModule, m: int) -> TModule:
    """The m-fold product of one module with itself."""
    return product([module] * m)
