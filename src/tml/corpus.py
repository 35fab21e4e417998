"""Built-in worked examples, each rebuilt from scratch and re-verified.

Every check here pins down a construction the library is anchored to:
the graph subgroup between two twisted rank-one actions and its explicit
witness, the tensor-square axis with both stability verdicts, the
nilpotency power bound, the square-root twist with its torsion family
and its never-stabilized curve, row-module generator counts, a module of
bounded action degree with no finite generating set, and the truncated
exponential identities.

The command line runs the whole registry and reports one verdict per
item.  Checks accept the few parameters they vary so the test suite can
also run mutated variants that must fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exponential import (RestrictionVerdict, exp_restriction_check,
                          exp_series, verify_functional_equation)
from .fields import (FieldTower, FiniteField, Poly, RatFunc,
                     ratfunc_substitute)
from .linalg import Mat
from .ore import OrePoly, scalar_text
from .structure import (AbelianCertificate, NonabelianCertificate,
                        OrePattern, abelian_scan, degree_sequence,
                        rank_report)
from .subgroups import KernelSubgroup, NoWitnessUpTo, ProvablyUnstable, Stable
from .tmodule import TModule, carlitz, carlitz_tensor, drinfeld, product
from .torsion import (certify_torsion_subvariety, frobenius_intertwines,
                      root_kernel_degrees, root_of_square_identity,
                      sqrt_tower, square_family_points, square_root_family)


class CorpusFailure(AssertionError):
    """A built-in example check did not reproduce its pinned outcome."""


def _require(cond, message):
    if not cond:
        raise CorpusFailure(message)


@dataclass(frozen=True)
class CorpusResult:
    ident: str
    summary: str
    ok: bool
    lines: tuple


@dataclass(frozen=True)
class CorpusReport:
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def random_element(rng: random.Random, tower: FieldTower, degree: int = 2):
    """Deterministic pseudo-random tower element: a random rational base
    coordinate for every monomial in the step generators."""
    fq = tower.fq

    def base_rand(t):
        num = Poly(fq, [rng.randrange(fq.q) for _ in range(degree + 1)])
        den = Poly(fq, [rng.randrange(fq.q) for _ in range(degree)] + [1])
        return t.from_ratfunc(RatFunc(num, den))

    if tower.parent is None:
        return base_rand(tower)
    acc = tower.embed(random_element(rng, tower.parent, degree))
    g = tower.one()
    for _ in range(tower.step_degree() - 1):
        g = g * tower.gen()
        acc = acc + g * tower.embed(random_element(rng, tower.parent, degree))
    return acc


# -- builders ---------------------------------------------------------------

def base_field_tower(field: FiniteField | None = None) -> FieldTower:
    return FieldTower(field if field is not None else FiniteField(2))


def graph_modules(tower: FieldTower):
    """The two rank-one actions T + T*tau and T + T^2*tau whose graph
    subgroup y = x + x^2 is stable, with that subgroup; q = 2 only,
    since the graph's second equation squares with the Frobenius."""
    if tower.fq.q != 2:
        raise ValueError("the graph subgroup needs q = 2: its defining "
                         "equation squares coordinates with the Frobenius")
    t = tower.T()
    one = tower.one()
    first = drinfeld(tower, (t,))
    second = drinfeld(tower, (t * t,))
    ambient = product([first, second])
    graph = KernelSubgroup.from_entries(ambient, [[(one, one), (one,)]])
    return first, second, ambient, graph


def tensor_square(tower: FieldTower, corner=(1, 0)) -> TModule:
    """The two-dimensional tensor-square action; corner places the
    tau-coefficient's single 1 (the canonical spot is lower-left)."""
    t = tower.T()
    one = tower.one()
    zero = tower.zero()
    a0 = Mat(((t, one), (zero, t)))
    grid = [[zero, zero], [zero, zero]]
    grid[corner[0]][corner[1]] = one
    a1 = Mat(tuple(tuple(row) for row in grid))
    return TModule(tower, (a0, a1))


def axis_subgroup(module: TModule) -> KernelSubgroup:
    """The second coordinate axis, cut out by the first coordinate."""
    tower = module.tower
    return KernelSubgroup.from_entries(
        module, [[(tower.one(),), (tower.zero(),)]])


def corner_module(tower: FieldTower) -> TModule:
    """Scalar tangent action plus a lower-left nilpotent tau-term; its
    iterates never grow in tau-degree."""
    t = tower.T()
    one = tower.one()
    zero = tower.zero()
    a0 = Mat(((t, zero), (zero, t)))
    a1 = Mat(((zero, zero), (one, zero)))
    return TModule(tower, (a0, a1))


def squared_variable_module(tower: FieldTower):
    """The tensor square re-read over the squared variable: substitute
    the adjoined square root for the old variable in every coefficient
    of the degree-two action, so the tower's own T plays the new base
    variable.  Returns (extension tower, re-read module)."""
    fq = tower.fq
    c2 = carlitz_tensor(tower, 2)
    action = c2.act(Poly(fq, (0, 0, 1)))
    ext = sqrt_tower(tower)
    u = ext.gen()
    return ext, TModule._of(ext, [[[ratfunc_substitute(x.data, u) for x in e]
                                   for e in row] for row in action.entries])


# -- checks -----------------------------------------------------------------

def check_graph_subgroup_witness(field: FiniteField | None = None):
    tower = base_field_tower(field)
    first, second, ambient, graph = graph_modules(tower)
    t = tower.T()
    fq = tower.fq
    a = Poly(fq, (0, 1))
    _require(graph.contains((t, t + t * t)),
             "sample graph point fails the defining equation")
    verdict = graph.stability(a)
    _require(isinstance(verdict, Stable),
             f"expected a stability witness, got {verdict!r}")
    witness = verdict.witness
    _require(witness == second.phi_t,
             "witness is not the second factor's own action: "
             f"got {witness.to_exprs()}")
    lhs = witness * graph.presentation
    rhs = graph.presentation * ambient.act(a)
    _require(lhs == rhs, "witness identity fails on re-expansion")
    return ("ambient: product of T + T*tau and T + T^2*tau",
            "subgroup: kernel of [1 + tau, 1]",
            f"witness: {scalar_text(witness)}")


def check_tensor_square_action(corner=(1, 0)):
    tower = base_field_tower()
    fq = tower.fq
    module = tensor_square(tower, corner)
    t = tower.T()
    one = tower.one()
    zero = tower.zero()
    got = module.act(Poly(fq, (0, 0, 1)))
    expected = OrePoly(tower, 2, 2, (
        Mat(((t * t, zero), (zero, t * t))),
        Mat(((one, zero), (t + t * t, one)))))
    _require(got == expected,
             f"squared action mismatch: got {got.to_exprs()}, "
             f"expected {expected.to_exprs()}")
    return ("action of T^2: (T^2*X + X^2, T^2*Y + (T + T^2)*X^2 + Y^2)",)


def check_axis_unstable(corner=(1, 0)):
    tower = base_field_tower()
    module = tensor_square(tower, corner)
    axis = axis_subgroup(module)
    verdict = axis.stability(Poly(tower.fq, (0, 1)))
    _require(isinstance(verdict, ProvablyUnstable),
             f"expected a refutation under T, got {verdict!r}")
    return (f"verdict under T: unstable ({verdict.reason})",)


def check_axis_stable(corner=(1, 0)):
    tower = base_field_tower()
    module = tensor_square(tower, corner)
    axis = axis_subgroup(module)
    a = Poly(tower.fq, (0, 0, 1))
    verdict = axis.stability(a)
    _require(isinstance(verdict, Stable),
             f"expected a witness under T^2, got {verdict!r}")
    witness = verdict.witness
    _require(witness * axis.presentation == axis.presentation * module.act(a),
             "witness identity fails on re-expansion")
    return (f"verdict under T^2: stable, witness {scalar_text(witness)}",)


def check_power_bound():
    tower = base_field_tower()
    module = tensor_square(tower)
    j = module.j_bound()
    _require(j == 2, f"power bound is {j}, expected 2")
    d = module.differential(Poly(tower.fq, (0,) * j + (1,)))
    t = tower.T()
    _require(d == Mat.scalar(tower, 2, t * t),
             "differential of T^2 is not the scalar T^2")
    n = module.nilpotency_order()
    _require(n == 2, f"nilpotency order is {n}, expected 2")
    return ("nilpotency order 2, bound exponent 2",
            "differential of T^2 is T^2 times the identity")


def check_root_twist_identity(samples: int = 100, seed: int = 1789):
    tower = base_field_tower()
    ext = sqrt_tower(tower)
    fq = tower.fq
    for b in (Poly(fq, (0, 0, 1)), Poly(fq, (0, 1)), Poly(fq, (1, 1, 1))):
        _require(frobenius_intertwines(ext, b),
                 f"exact intertwining fails for {b.to_expr()}")
    rng = random.Random(seed)
    for i in range(samples):
        w = random_element(rng, ext)
        _require(root_of_square_identity(ext, w),
                 f"pointwise identity fails at sample {i}")
    return ("exact intertwining for T^2 and two more polynomials",
            f"pointwise identity at {samples} pseudo-random squares")


def check_root_family_torsion():
    tower = base_field_tower()
    ext = sqrt_tower(tower)
    fam1 = square_root_family(ext, ext.T(), order_cap=2)
    _require(fam1.certificate.order == Poly(tower.fq, (0, 1)),
             f"first family point has order "
             f"{fam1.certificate.order.to_expr()}, expected T")
    _pt1, pt2 = square_family_points(ext)
    fam2 = square_root_family(ext, pt2[0], order_cap=3)
    _require(fam2.certificate.order == Poly(tower.fq, (0, 0, 1)),
             f"second family point has order "
             f"{fam2.certificate.order.to_expr()}, expected T^2")
    _require(fam1.certificate.order.degree < fam2.certificate.order.degree,
             "family orders do not strictly grow")
    return ("point (T, U) has order T",
            "the next division point has order T^2",
            "orders grow strictly along the family")


def check_curve_scan(max_j: int = 6):
    tower = base_field_tower()
    cert = certify_torsion_subvariety(tower, max_j=max_j)
    scan = cert.scan
    _require(scan.found is None,
             f"curve unexpectedly stabilized at exponent {scan.found}")
    _require(all(isinstance(r.verdict, NoWitnessUpTo) for r in scan.rows),
             "unexpected verdict kind in the scan rows")
    ext = cert.points[0][1].tower
    levels = root_kernel_degrees(ext, 4)
    _require(all(deg == n + 1 and sep for n, (deg, sep)
                 in enumerate(levels)),
             f"kernel growth certificate failed: {levels}")
    bounds = ", ".join(str(r.verdict.bound) for r in scan.rows)
    return (f"no stabilizing exponent up to {scan.searched_to}",
            f"witness degree bounds searched: {bounds}",
            "twist kernels grow: degree n with separable constant term")


def check_generator_counts():
    tower = base_field_tower()
    ext, psi = squared_variable_module(tower)
    _require(psi.validate().valid, "re-read module fails validation")
    _require(psi.a0 == Mat.scalar(ext, 2, ext.T()),
             "re-read tangent action is not the new scalar variable")
    report = abelian_scan(psi)
    _require(isinstance(report.outcome, AbelianCertificate),
             f"expected a finite generating set, got {report.outcome!r}")
    _require(report.outcome.generators == 2,
             f"ambient generator count {report.outcome.generators}, "
             "expected 2")
    # the second coordinate axis is preserved with zero first coordinate,
    # and the restricted action is the rank-one T + tau
    _require(not psi.phi_t.entries[0][1],
             "axis is not invariant under the re-read action")
    restricted = TModule._of(ext, [[psi.phi_t.entries[1][1]]])
    _require(restricted.phi_t == carlitz(ext).phi_t,
             "axis restriction is not the rank-one T + tau action")
    axis_count = rank_report(restricted)
    _require(axis_count == 1, f"axis generator count {axis_count}, expected 1")
    return ("ambient re-read over the squared variable: 2 generators",
            "second-axis restriction: 1 generator")


def check_bounded_degree_nonabelian():
    tower = base_field_tower()
    fq = tower.fq
    module = corner_module(tower)
    t = tower.T()
    zero = tower.zero()
    got = module.act(Poly(fq, (0, 0, 1)))
    expected = OrePoly(tower, 2, 2, (
        Mat.scalar(tower, 2, t * t),
        Mat(((zero, zero), (t + t * t, zero)))))
    _require(got == expected, "squared corner action mismatch")
    degrees = degree_sequence(module, 20)
    _require(degrees == (1,) * 20,
             f"action degrees are not all 1: {degrees}")
    report = abelian_scan(module)
    _require(isinstance(report.outcome, NonabelianCertificate),
             f"expected a no-finite-generating-set certificate, "
             f"got {report.outcome!r}")
    expected_pattern = OrePattern(2, 2, (
        ((True, False), (False, True)),
        ((False, False), (True, False))))
    _require(report.outcome.pattern == expected_pattern,
             f"closure pattern mismatch: {report.outcome.pattern!r}")
    basic = abelian_scan(carlitz(tower))
    _require(isinstance(basic.outcome, AbelianCertificate)
             and basic.outcome.generators == 1,
             "rank-one module did not certify a single generator")
    return ("action degree stays 1 through exponent 20",
            "pattern closure: diagonal at degree 0, lower-left at degree 1",
            "rank-one comparison module certifies 1 generator")


def check_exponential_equation(order: int = 5):
    tower = base_field_tower()
    t = tower.T()
    one_dim = carlitz(tower)
    series = exp_series(one_dim, order)
    _require(verify_functional_equation(series),
             "rank-one series fails its functional equation")
    e1 = series.coeff(1)[0, 0]
    _require(e1 == (t * t + t).inverse(),
             f"rank-one second coefficient is {e1.to_expr()}")
    module = tensor_square(tower)
    series2 = exp_series(module, order)
    _require(verify_functional_equation(series2),
             "tensor-square series fails its functional equation")
    d1 = (t * t + t).inverse()
    d2 = (t * t * t * t + t * t).inverse()
    zero = tower.zero()
    _require(series2.coeff(1) == Mat(((d2, zero), (d1, d2))),
             f"tensor-square second coefficient is "
             f"{series2.coeff(1).to_exprs()}")
    _f, _s, ambient, _g = graph_modules(tower)
    series3 = exp_series(ambient, order)
    _require(verify_functional_equation(series3),
             "product series fails its functional equation")
    return (f"functional equation holds through order {order} "
            "for all three modules",
            "rank-one second coefficient: 1/(T^2 + T)")


def check_exponential_restriction(order: int = 5):
    tower = base_field_tower()
    module = tensor_square(tower)
    axis = axis_subgroup(module)
    series = exp_series(module, order)
    report = exp_restriction_check(series, axis)
    _require(report.verdict is RestrictionVerdict.HOLDS,
             f"axis restriction verdict is {report.verdict.value}: "
             f"{report.detail}")
    for i in range(1, order + 1):
        _require(series.coeff(i)[0, 1].is_zero(),
                 f"coefficient {i} does not vanish at the pinned entry")
    return (f"pinned entry vanishes in every coefficient through "
            f"order {order}",)


CORPUS = (
    ("graph-subgroup-witness",
     "graph of an additive map between two rank-one actions is stable",
     check_graph_subgroup_witness),
    ("tensor-square-action-formula",
     "squared action of the tensor square matches its closed form",
     check_tensor_square_action),
    ("tensor-square-axis-unstable",
     "second axis of the tensor square escapes under T",
     check_axis_unstable),
    ("tensor-square-axis-stable",
     "second axis of the tensor square is stable under T^2",
     check_axis_stable),
    ("nilpotency-power-bound",
     "power bound 2 with scalar differential at that power",
     check_power_bound),
    ("root-twist-action-identity",
     "square-root twist intertwines with the plain action",
     check_root_twist_identity),
    ("root-family-torsion-points",
     "curve points from the root family are torsion of growing order",
     check_root_family_torsion),
    ("curve-of-squares-scan",
     "curve of squares admits no stabilizing exponent up to 6",
     check_curve_scan),
    ("division-generator-counts",
     "generator counts 2 and 1 over the squared variable",
     check_generator_counts),
    ("bounded-degree-nonabelian",
     "bounded action degree certifies no finite generating set",
     check_bounded_degree_nonabelian),
    ("exponential-functional-equation",
     "truncated exponentials satisfy the defining identity",
     check_exponential_equation),
    ("exponential-restriction-pattern",
     "exponential coefficients vanish along the stable axis",
     check_exponential_restriction),
)


def run_corpus(checks=CORPUS) -> CorpusReport:
    """Run every check; failures carry the mismatch message."""
    results = []
    for ident, summary, fn in checks:
        try:
            lines = tuple(fn())
            results.append(CorpusResult(ident, summary, True, lines))
        except Exception as exc:
            results.append(CorpusResult(
                ident, summary, False, (f"{type(exc).__name__}: {exc}",)))
    return CorpusReport(tuple(results))
