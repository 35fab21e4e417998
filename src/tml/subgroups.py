"""Kernel-presented subgroups and their stability under a module action.

A subgroup of the ambient coordinate space is the kernel of a matrix
twisted polynomial P.  Stability under the action of a base polynomial a
is certified by a witness identity Q * P = P * phi(a): any point killed
by P is then sent to another point killed by P.  Refutations come from
two sound obstructions checked before the witness search: a coordinate
axis lying inside the kernel that the action moves out of it, and a
tangent vector at the origin that the differential moves out of the
tangent space.  When neither a witness nor an obstruction is found the
outcome is an honest "no witness up to the searched degree".

One right division (ore.left_multiple_witness) decides every
presentation: it finds a witness of least degree whenever one exists,
and the degree bound only caps the witness accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameter, FieldMismatch, ShapeMismatch
from .fields import Poly
from .linalg import kernel_basis
from .ore import OrePoly, _witness_bound, left_multiple_witness
from .tmodule import TModule


@dataclass(frozen=True)
class Stable:
    """Certificate: witness * presentation == presentation * action."""
    witness: OrePoly


@dataclass(frozen=True)
class NoWitnessUpTo:
    """No witness of tau-degree at most bound; not a proof of instability."""
    bound: int


@dataclass(frozen=True)
class ProvablyUnstable:
    """A sound refutation of stability.

    reason is "escaping-axis" (column says which coordinate axis inside
    the kernel escapes) or "tangent-escape" (vector is a tangent vector
    the differential moves out of the tangent space at the origin).
    """
    reason: str
    column: int | None = None
    vector: tuple | None = None


def _col_is_zero(op: OrePoly, c: int) -> bool:
    return all(not row[c] for row in op.entries)


class KernelSubgroup:
    """The kernel of a matrix twisted polynomial inside a module's space.

    A presentation with zero rows denotes the full ambient module; with a
    positive row count the presentation must be nonzero.
    """

    def __init__(self, module: TModule, presentation: OrePoly):
        if presentation.tower != module.tower:
            raise FieldMismatch("presentation over a different tower")
        if presentation.cols != module.dimension:
            raise ShapeMismatch("presentation column count must match the dimension")
        if presentation.rows > 0 and presentation.is_zero():
            raise BadParameter("zero presentation; use zero rows for the full module")
        self.module = module
        self.presentation = presentation

    @classmethod
    def full(cls, module: TModule) -> "KernelSubgroup":
        return cls(module, OrePoly.zero(module.tower, 0, module.dimension))

    @classmethod
    def from_entries(cls, module: TModule, entries) -> "KernelSubgroup":
        """Build from rows of per-column twist coefficient lists (low first)."""
        rows = [list(row) for row in entries]
        if not rows:
            return cls.full(module)
        m = module.dimension
        if any(len(row) != m for row in rows):
            raise ShapeMismatch("presentation row with wrong entry count")
        return cls(module, OrePoly._of(module.tower, m, rows))

    @property
    def is_full(self) -> bool:
        return self.presentation.rows == 0

    def contains(self, point) -> bool:
        """Is the point killed by the presentation?"""
        return all(v.is_zero() for v in self.presentation.evaluate(point))

    def _tangent_escape(self, a: Poly):
        """A kernel-of-differential vector that the action's differential
        moves out of that kernel, or None."""
        if self.is_full:
            return None
        dp = self.presentation.coeff(0)
        # a zero dp moves no vector out; its kernel is never formed
        basis = () if dp.is_zero() else kernel_basis(self.module.tower, dp)
        if not basis:
            return None
        # the s x m block dp * a(a_0); the m x m differential is not formed
        block = self.module.differential(a, self.presentation)
        for v in basis:
            if not all(x.is_zero() for x in block.matvec(v)):
                return v
        return None

    def _pullback(self, a: Poly) -> OrePoly:
        """p * phi(a) for the presentation p, by Horner's rule on p:
        composition is associative and constants of F_q commute with tau,
        so the m x m action of a is never formed."""
        return self.presentation.horner(a, self.module.phi_t)

    def tangent_preserved(self, a: Poly) -> bool:
        """Does the differential of the action preserve the tangent space
        of the kernel at the origin?"""
        return self._tangent_escape(a) is None

    def stability(self, a: Poly, witness_bound=None):
        """Decide stability under the action of a, as far as possible.

        Returns Stable with a re-verified witness, ProvablyUnstable with
        one of the sound obstructions, or NoWitnessUpTo when no witness
        has degree at most the bound.
        """
        p = self.presentation
        _witness_bound(p, witness_bound)  # refused before any work
        if p.rows == 0:
            return Stable(OrePoly.zero(self.module.tower, 0, 0))
        esc = self._tangent_escape(a)
        if esc is not None:
            return ProvablyUnstable("tangent-escape", vector=esc)
        g = self._pullback(a)
        for c in range(p.cols):
            # an axis inside the kernel that the action maps onto a
            # nonzero column can never stay inside the kernel
            if _col_is_zero(p, c) and not _col_is_zero(g, c):
                return ProvablyUnstable("escaping-axis", column=c)
        bound = _witness_bound(p, witness_bound, g)
        q = left_multiple_witness(p, g, bound)
        return NoWitnessUpTo(bound) if q is None else Stable(q)

    def __repr__(self):
        if self.is_full:
            return f"KernelSubgroup(full, dim {self.module.dimension})"
        return (f"KernelSubgroup({self.presentation.rows} rows, "
                f"dim {self.module.dimension})")


@dataclass(frozen=True)
class JScanRow:
    j: int
    verdict: object


@dataclass(frozen=True)
class MinimalJScan:
    """Outcome of scanning monomial exponents for stability.

    found is the least stabilizing exponent seen, or None; searched_to
    is the largest exponent actually examined; bound_hint is the
    module's nilpotency-derived cap: whenever some exponent works at
    all, the least one is at most this value.
    """
    found: int | None
    searched_to: int
    bound_hint: int
    rows: tuple


def minimal_j_scan(subgroup: KernelSubgroup, max_j=None,
                   witness_bound=None) -> MinimalJScan:
    """Scan j = 1, 2, ... for the least exponent whose monomial action
    leaves the subgroup stable, stopping at the first success."""
    if max_j is not None and max_j < 1:
        raise BadParameter(f"largest exponent must be at least 1, got {max_j}")
    hint = subgroup.module.j_bound()
    cap = hint if max_j is None else max_j
    fq = subgroup.module.tower.fq
    rows = []
    found = None
    for j in range(1, cap + 1):
        a = Poly(fq, (0,) * j + (1,))
        verdict = subgroup.stability(a, witness_bound)
        rows.append(JScanRow(j, verdict))
        if isinstance(verdict, Stable):
            found = j
            break
    searched = rows[-1].j if rows else 0
    return MinimalJScan(found, searched, hint, tuple(rows))
