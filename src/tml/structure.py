"""Finite-generation analysis of the row module attached to a T-module.

Rows of twisted polynomials form a module over the base polynomial ring,
a base polynomial a acting by right composition with phi(a).  Two sound
certificates are produced:

  * abelian: some phi(T^i) has positive tau-degree and an invertible
    leading matrix, so Euclidean right division rewrites every row as an
    action image plus a row of smaller degree; the rows of tau-degree
    below deg phi(T^i) then generate everything.

  * nonabelian: the support pattern of phi(T), the set of positions
    (tau-degree, row, column) that can be nonzero, is closed under
    composition; when the closure reaches a fixed point of bounded
    tau-degree, every action image has tau-degree at most that bound,
    while the row module contains rows of arbitrarily large tau-degree,
    so no finite generating set exists.

When neither certificate appears within the scan limits the report is
honestly inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameter
from .linalg import matrix_rank
from .ore import OrePoly
from .tmodule import TModule


class OrePattern:
    """Support pattern of a matrix twisted polynomial: the set of
    positions (tau-degree, row, column) whose entry can be nonzero.
    slices gives it back as one rows x cols grid of bits per tau-degree,
    up to the largest degree present."""

    __slots__ = ("rows", "cols", "positions")

    def __init__(self, rows, cols, slices):
        self.rows = rows
        self.cols = cols
        self.positions = frozenset(
            (i, r, c) for i, s in enumerate(slices)
            for r, row in enumerate(s) for c, b in enumerate(row) if b)

    @classmethod
    def _at(cls, rows, cols, positions) -> "OrePattern":
        out = cls(rows, cols, ())
        out.positions = frozenset(positions)
        return out

    @classmethod
    def of(cls, op: OrePoly) -> "OrePattern":
        return cls._at(op.rows, op.cols, (
            (i, r, c) for i, m in enumerate(op.coeffs)
            for r, row in enumerate(m.data)
            for c, x in enumerate(row) if not x.is_zero()))

    @property
    def max_degree(self) -> int:
        return max((i for i, _, _ in self.positions), default=-1)

    @property
    def slices(self):
        return tuple(tuple(tuple((i, r, c) in self.positions
                                 for c in range(self.cols))
                           for r in range(self.rows))
                     for i in range(self.max_degree + 1))

    def union(self, other: "OrePattern") -> "OrePattern":
        return OrePattern._at(self.rows, self.cols,
                              self.positions | other.positions)

    def compose(self, other: "OrePattern") -> "OrePattern":
        """Pattern dominating any product self * other (self acts after).

        The twist never changes which entries are nonzero, so an entry
        (r, c) of degree i + j can be nonzero only through some (r, k) of
        degree i in self and (k, c) of degree j in other.
        """
        return OrePattern._at(self.rows, other.cols, {
            (i + j, r, c) for i, r, k in self.positions
            for j, k2, c in other.positions if k == k2})

    def dominates(self, other: "OrePattern") -> bool:
        return other.positions <= self.positions

    def __eq__(self, other):
        return (isinstance(other, OrePattern) and self.rows == other.rows
                and self.cols == other.cols
                and self.positions == other.positions)

    def __hash__(self):
        return hash((self.rows, self.cols, self.positions))

    def grids(self):
        """Each slice as text: X marks a spot that can be nonzero, and
        rows are split by /."""
        return ["/".join("".join("X" if b else "." for b in row) for row in s)
                for s in self.slices]

    def __repr__(self):
        return "OrePattern(" + "; ".join(self.grids()) + ")"


@dataclass(frozen=True)
class ScanRow:
    index: int
    degree: int
    leading_invertible: bool


@dataclass(frozen=True)
class AbelianCertificate:
    """phi(T^index) has positive degree and invertible leading matrix;
    the generators count is (dimension) * (that degree)."""
    index: int
    action_degree: int
    generators: int


@dataclass(frozen=True)
class NonabelianCertificate:
    """The pattern closure stabilized, bounding every action image's
    tau-degree by degree_bound."""
    degree_bound: int
    pattern: OrePattern


@dataclass(frozen=True)
class InconclusiveScan:
    max_index: int
    degree_cap: int


@dataclass(frozen=True)
class AbelianScanReport:
    outcome: object
    rows: tuple


def _action_powers(module: TModule, count: int):
    """phi(T^i) for i = 1..count, each one composition from the last."""
    act = module.phi_t
    for i in range(count):
        if i:
            act = act * module.phi_t
        yield act


def invertible_leading_index(module: TModule, max_index: int):
    """First i <= max_index where phi(T^i) has positive tau-degree and an
    invertible leading matrix; returns (i, degree, rows) with the scan
    transcript, or (None, None, rows)."""
    if max_index < 1:
        raise BadParameter("largest action power must be at least 1, "
                           f"got {max_index}")
    rows = []
    for i, act in enumerate(_action_powers(module, max_index), 1):
        d = act.degree
        inv = d >= 1 and matrix_rank(act.leading()) == module.dimension
        rows.append(ScanRow(i, d, inv))
        if inv:
            return i, d, tuple(rows)
    return None, None, tuple(rows)


def pattern_closure(module: TModule, degree_cap: int):
    """Close the pattern of phi(T) under composition with itself, up to
    the degree cap; the fixed point, or None if the cap was exceeded."""
    step = OrePattern.of(module.phi_t)
    u = step
    while True:
        grown = u.union(u.compose(step))
        if grown == u:
            return u
        if grown.max_degree > degree_cap:
            return None
        u = grown


def abelian_scan(module: TModule, max_index: int = 8,
                 degree_cap=None) -> AbelianScanReport:
    """Look for an abelian certificate up to max_index, then for a
    nonabelian pattern fixed point up to the degree cap."""
    if degree_cap is not None and degree_cap < 0:
        raise BadParameter(f"degree cap must be nonnegative, got {degree_cap}")
    i, d, rows = invertible_leading_index(module, max_index)
    if i is not None:
        cert = AbelianCertificate(index=i, action_degree=d,
                                  generators=module.dimension * d)
        return AbelianScanReport(cert, rows)
    if degree_cap is None:
        degree_cap = max_index * max(module.degree, 1)
    closed = pattern_closure(module, degree_cap)
    if closed is not None:
        return AbelianScanReport(
            NonabelianCertificate(closed.max_degree, closed), rows)
    return AbelianScanReport(InconclusiveScan(max_index, degree_cap), rows)


def rank_report(module: TModule, max_index: int = 8):
    """Size of the exhibited finite generating set of the row module,
    from a scan up to max_index; None when no certificate appears."""
    report = abelian_scan(module, max_index)
    if isinstance(report.outcome, AbelianCertificate):
        return report.outcome.generators
    return None


def degree_sequence(module: TModule, max_j: int):
    """tau-degrees of phi(T^j) for j = 1..max_j."""
    return tuple(act.degree for act in _action_powers(module, max_j))
