"""Finite-generation analysis of the row module attached to a T-module.

Rows of twisted polynomials form a module over the base polynomial ring,
a base polynomial a acting by right composition with phi(a).  Two sound
certificates are produced:

  * abelian: some phi(T^i) has positive tau-degree and an invertible
    leading matrix, so Euclidean right division rewrites every row as an
    action image plus a row of smaller degree; the rows of tau-degree
    below deg phi(T^i) then generate everything.

  * nonabelian: boolean occupancy patterns of coefficient matrices are
    closed under composition with the pattern of phi(T); when the closure
    reaches a fixed point of bounded tau-degree, every action image has
    tau-degree at most that bound, while the row module contains rows of
    arbitrarily large tau-degree, so no finite generating set exists.

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
    """Boolean occupancy pattern of a matrix twisted polynomial: one
    rows x cols grid of bits per tau-degree, trailing empty grids stripped."""

    __slots__ = ("rows", "cols", "slices")

    def __init__(self, rows, cols, slices):
        slices = tuple(tuple(tuple(bool(b) for b in row) for row in s)
                       for s in slices)
        while slices and not any(b for row in slices[-1] for b in row):
            slices = slices[:-1]
        self.rows = rows
        self.cols = cols
        self.slices = slices

    @classmethod
    def of(cls, op: OrePoly) -> "OrePattern":
        slices = [tuple(tuple(not m[r, c].is_zero() for c in range(op.cols))
                        for r in range(op.rows)) for m in op.coeffs]
        return cls(op.rows, op.cols, slices)

    @property
    def max_degree(self) -> int:
        return len(self.slices) - 1

    def is_empty(self) -> bool:
        return not self.slices

    def slice(self, i):
        if 0 <= i < len(self.slices):
            return self.slices[i]
        return tuple((False,) * self.cols for _ in range(self.rows))

    def union(self, other: "OrePattern") -> "OrePattern":
        n = max(len(self.slices), len(other.slices))
        out = []
        for i in range(n):
            a, b = self.slice(i), other.slice(i)
            out.append(tuple(tuple(x or y for x, y in zip(ra, rb))
                             for ra, rb in zip(a, b)))
        return OrePattern(self.rows, self.cols, out)

    def compose(self, other: "OrePattern") -> "OrePattern":
        """Pattern dominating any product self * other (self acts after).

        The twist never changes which entries are nonzero, so boolean
        matrix products per degree pair give a sound upper bound.
        """
        if self.is_empty() or other.is_empty():
            return OrePattern(self.rows, other.cols, ())
        n = self.max_degree + other.max_degree
        out = [[[False] * other.cols for _ in range(self.rows)]
               for _ in range(n + 1)]
        for i, a in enumerate(self.slices):
            for j, b in enumerate(other.slices):
                grid = out[i + j]
                for r in range(self.rows):
                    ar = a[r]
                    for c in range(other.cols):
                        if not grid[r][c]:
                            grid[r][c] = any(ar[k] and b[k][c]
                                             for k in range(self.cols))
        return OrePattern(self.rows, other.cols, out)

    def dominates(self, other: "OrePattern") -> bool:
        if len(other.slices) > len(self.slices):
            for s in other.slices[len(self.slices):]:
                if any(b for row in s for b in row):
                    return False
        for a, b in zip(self.slices, other.slices):
            for ra, rb in zip(a, b):
                if any(y and not x for x, y in zip(ra, rb)):
                    return False
        return True

    def __eq__(self, other):
        return (isinstance(other, OrePattern) and self.rows == other.rows
                and self.cols == other.cols and self.slices == other.slices)

    def __hash__(self):
        return hash((self.rows, self.cols, self.slices))

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


def invertible_leading_index(module: TModule, max_index: int):
    """First i <= max_index where phi(T^i) has positive tau-degree and an
    invertible leading matrix; returns (i, degree, rows) with the scan
    transcript, or (None, None, rows)."""
    if max_index < 1:
        raise BadParameter("largest action power must be at least 1, "
                           f"got {max_index}")
    rows, act = [], module.phi_t
    for i in range(1, max_index + 1):
        if i > 1:
            act = act * module.phi_t
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
    degrees, act = [], module.phi_t
    for j in range(1, max_j + 1):
        if j > 1:
            act = act * module.phi_t
        degrees.append(act.degree)
    return tuple(degrees)
