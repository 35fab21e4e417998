import random

import pytest

from tml import fields, linalg, ore
from tml.corpus import (axis_subgroup, base_field_tower, graph_modules,
                        tensor_square)
from tml.fields import FieldTower, FiniteField, Poly
from tml.errors import TmlError, ZeroDivisor
from tml.linalg import Mat, gauss_solve, kernel_basis
from tml.ore import OrePoly, left_multiple_witness
from tml.subgroups import (KernelSubgroup, NoWitnessUpTo, ProvablyUnstable,
                           Stable, minimal_j_scan)
from tml.tmodule import TModule, carlitz, carlitz_tensor, product
from tml.torsion import counterexample_module, curve_of_squares, sqrt_tower


def _t_monomial(fq, j):
    return Poly(fq, (0,) * j + (1,))


def test_graph_contains_its_points(tower2):
    first, second, ambient, graph = graph_modules(tower2)
    t = tower2.T()
    assert graph.contains((t, t + t * t))
    assert graph.contains((tower2.one(), tower2.zero()))
    assert not graph.contains((t, t))


def test_graph_witness_is_second_action(tower2):
    first, second, ambient, graph = graph_modules(tower2)
    a = _t_monomial(tower2.fq, 1)
    verdict = graph.stability(a)
    assert isinstance(verdict, Stable)
    assert verdict.witness == second.phi_t
    assert verdict.witness * graph.presentation == \
        graph.presentation * ambient.act(a)


def test_graph_witness_is_unique_at_its_degree(tower2):
    # the second presentation column is the scalar 1, so R * P = 0 forces
    # R = 0 and the bounded witness is unique
    first, second, ambient, graph = graph_modules(tower2)
    a = _t_monomial(tower2.fq, 1)
    g = graph.presentation * ambient.act(a)
    q = second.phi_t
    for deg in range(q.degree + 1):
        bumped = q + OrePoly.scalar(
            tower2, (tower2.zero(),) * deg + (tower2.one(),))
        assert bumped * graph.presentation != g


def test_axis_verdicts(tower2):
    module = tensor_square(tower2)
    axis = axis_subgroup(module)
    under_t = axis.stability(_t_monomial(tower2.fq, 1))
    assert isinstance(under_t, ProvablyUnstable)
    assert under_t.reason == "tangent-escape"
    assert under_t.vector is not None
    under_t2 = axis.stability(_t_monomial(tower2.fq, 2))
    assert isinstance(under_t2, Stable)
    assert under_t2.witness.scalar_elems() == \
        (tower2.T() ** 2, tower2.one())


def test_escaping_axis_refutation(tower2):
    # moving the twist entry to the upper-right corner makes the second
    # axis escape through a zero column
    module = tensor_square(tower2, corner=(0, 1))
    axis = axis_subgroup(module)
    verdict = axis.stability(_t_monomial(tower2.fq, 2))
    assert isinstance(verdict, ProvablyUnstable)
    assert verdict.reason == "escaping-axis"
    assert verdict.column is not None


def test_witnesses_compose_along_products(tower2):
    module = tensor_square(tower2)
    axis = axis_subgroup(module)
    fq = tower2.fq
    a = _t_monomial(fq, 2)
    q = axis.stability(a).witness
    p = axis.presentation
    # Q_a * Q_b witnesses a*b, and Q^n witnesses a^n
    acc = q
    power = a
    for _ in range(2):
        acc = acc * q
        power = power * a
        assert acc * p == p * module.act(power)
    b = _t_monomial(fq, 4)
    qb = axis.stability(b).witness
    assert (q * qb) * p == p * module.act(a * b)


def test_full_subgroup_always_stable(tower2):
    module = carlitz_tensor(tower2, 2)
    full = KernelSubgroup.full(module)
    assert full.is_full
    verdict = full.stability(_t_monomial(tower2.fq, 1))
    assert isinstance(verdict, Stable)
    assert verdict.witness.rows == 0


def test_stability_with_constant_polynomial(tower2):
    module = tensor_square(tower2)
    axis = axis_subgroup(module)
    verdict = axis.stability(Poly(tower2.fq, (1,)))
    assert isinstance(verdict, Stable)


def test_no_witness_reported_as_bound_not_refutation(tower2):
    from tml.torsion import counterexample_module, curve_of_squares, sqrt_tower
    ext = sqrt_tower(tower2)
    curve = curve_of_squares(counterexample_module(ext))
    verdict = curve.stability(_t_monomial(tower2.fq, 1), witness_bound=2)
    assert isinstance(verdict, NoWitnessUpTo)
    assert verdict.bound == 2


def test_minimal_j_scan_stops_at_first_stable(tower2):
    module = tensor_square(tower2)
    axis = axis_subgroup(module)
    scan = minimal_j_scan(axis, max_j=5)
    assert scan.found == 2
    assert scan.searched_to == 2
    assert len(scan.rows) == 2
    assert isinstance(scan.rows[0].verdict, ProvablyUnstable)
    assert isinstance(scan.rows[1].verdict, Stable)
    assert scan.found <= scan.bound_hint


def test_minimal_j_scan_default_cap_is_bound_hint(tower2):
    module = tensor_square(tower2)
    axis = axis_subgroup(module)
    scan = minimal_j_scan(axis)
    assert scan.found == 2
    assert scan.bound_hint == module.j_bound()


def test_tangent_preserved_matches_verdicts(tower2):
    module = tensor_square(tower2)
    axis = axis_subgroup(module)
    assert not axis.tangent_preserved(_t_monomial(tower2.fq, 1))
    assert axis.tangent_preserved(_t_monomial(tower2.fq, 2))


# -- differential test: pullbacks on the presentation's side against the
# full m x m action and differential -----------------------------------

def _ref_witness(p, g, bound):
    """Q with Q*p == g and deg Q <= bound, or None: one equation per
    entry of each tau-degree of Q*p, with every twist formed directly
    from p's entries.  Free unknowns are zero; when the rows of p are
    independent the witness is unique, so it is left_multiple_witness's."""
    tower, s, m = p.tower, p.rows, p.cols
    zero = tower.zero()
    rows = []
    for r in range(s):
        eqs, rhs = [], []
        for n in range(max(bound + p.degree, g.degree) + 1):
            for c in range(m):
                eqs.append([p.coeff(n - i)[k, c].frob(i) if i <= n else zero
                            for i in range(bound + 1) for k in range(s)])
                rhs.append(g.coeff(n)[r, c])
        sol = gauss_solve(tower, eqs, rhs)
        if sol is None:
            return None
        rows.append(sol)
    return OrePoly(tower, s, s, [Mat(tuple(tuple(rows[r][i * s + k]
                                                 for k in range(s))
                                           for r in range(s)))
                                 for i in range(bound + 1)])


def _ref_differential(module, a):
    """a(a_0) as the sum of c_i * a_0^i."""
    tower, m = module.tower, module.dimension
    acc, power = Mat.zeros(tower, m, m), Mat.identity(tower, m)
    for c in a.coeffs:
        if c:
            acc = acc + power.scale(tower.const(c))
        power = power @ module.a0
    return acc


def _ref_stability(sub, a, bound=None):
    """The verdict as computed from the m x m action and differential."""
    module, p = sub.module, sub.presentation
    tower = module.tower
    if p.rows == 0:
        return Stable(OrePoly.zero(tower, 0, 0))
    dp = p.coeff(0)
    basis = kernel_basis(tower, dp)
    if basis:
        da = _ref_differential(module, a)
        for v in basis:
            if not all(x.is_zero() for x in dp.matvec(da.matvec(v))):
                return ProvablyUnstable("tangent-escape", vector=v)
    g = p * module.act(a)
    for c in range(p.cols):
        in_kernel = all(m[r, c].is_zero() for m in p.coeffs
                        for r in range(p.rows))
        if in_kernel and any(not m[r, c].is_zero() for m in g.coeffs
                             for r in range(g.rows)):
            return ProvablyUnstable("escaping-axis", column=c)
    bound = max(g.degree, 0) if bound is None else bound
    q = _ref_witness(p, g, bound)
    return NoWitnessUpTo(bound) if q is None else Stable(q)


def _small_entry(rng, tower):
    """0, 1, T, the tower's generator or their sum, mostly zero."""
    picks = [tower.zero()] * 3 + [tower.one(), tower.T()]
    if tower.parent is not None:
        picks += [tower.gen(), tower.gen() + tower.T()]
    return rng.choice(picks)


def _random_subgroup(rng, tower, sparse_elem):
    """A module T*I + (superdiagonal) + one or two twist terms, and a
    nonzero presentation of tau-degree 0 or 1 with one or two rows."""
    m = rng.choice((1, 2, 2))
    s = rng.choice((1, 1, 2)) if m == 2 else 1
    t = tower.T()
    a0 = Mat(tuple(tuple(t if r == c else
                         (_small_entry(rng, tower) if c == r + 1
                          else tower.zero())
                         for c in range(m)) for r in range(m)))
    mats = [a0] + [Mat(tuple(tuple(_small_entry(rng, tower)
                                   for _ in range(m)) for _ in range(m)))
                   for _ in range(rng.randrange(1, 3))]
    module = TModule(tower, mats)
    while True:
        pres = OrePoly(tower, s, m, [
            Mat(tuple(tuple(sparse_elem(rng, tower) if d == 0
                            and rng.random() < 0.3
                            else _small_entry(rng, tower)
                            for _ in range(m)) for _ in range(s)))
            for d in range(rng.randrange(1, 3))])
        if not pres.is_zero():
            return KernelSubgroup(module, pres)


@pytest.mark.parametrize("seed", range(2))
def test_pullbacks_and_verdicts_match_the_full_action(shallow_tower,
                                                      sparse_elem, seed):
    tower = shallow_tower
    fq = tower.fq
    rng = random.Random(300 + seed)
    for _ in range(4):
        sub = _random_subgroup(rng, tower, sparse_elem)
        module, p = sub.module, sub.presentation
        polys = [Poly.zero(fq), Poly(fq, (rng.randrange(1, fq.q),)),
                 Poly(fq, [rng.randrange(fq.q) for _ in range(2)] + [1]),
                 Poly(fq, [rng.randrange(fq.q) for _ in range(3)] + [1])]
        for a in polys:
            assert sub._pullback(a) == p * module.act(a)
            da = _ref_differential(module, a)
            assert module.differential(a) == da
            assert module.differential(a, p) == p.coeff(0) @ da
            assert sub.stability(a) == _ref_stability(sub, a)


# -- graph presentations: the division against the witness system ---------

def _graph_block_matrix(rng, tower, kind):
    """The constant block C of a graph presentation: the identity, a
    constant of F_q other than 1 (the 2x2 [[1, 1], [0, 1]] over F_2), a
    non-constant 1x1 block, or a random invertible 2x2 block."""
    fq, t = tower.fq, tower.T()
    if kind == "one":
        return Mat.identity(tower, 1)
    if kind == "const":
        if fq.q == 2:
            o, z = tower.one(), tower.zero()
            return Mat(((o, o), (z, o)))
        return Mat(((tower.const(rng.randrange(2, fq.q)),),))
    if kind == "nonconst":
        picks = [t, t + tower.one()]
        if tower.parent is not None:
            picks.append(tower.gen())
        return Mat(((rng.choice(picks),),))
    while True:
        c = Mat(tuple(tuple(_small_entry(rng, tower) for _ in range(2))
                      for _ in range(2)))
        if not (c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]).is_zero():
            return c


def _graph_subgroups(rng, tower, kind):
    """Graph presentations C * (I | B) with C from _graph_block_matrix,
    columns shuffled.  On a power of the Carlitz module, with B's entries
    Carlitz actions of F_q[T], the subgroup is stable; on a module like
    _random_subgroup's, with B random of tau-degree at most 2, it mostly
    is not."""
    fq = tower.fq
    c = _graph_block_matrix(rng, tower, kind)
    s = c.rows
    m = s + rng.choice((1, 2))
    order = list(range(m))
    rng.shuffle(order)
    carlitz_power = TModule(tower, (Mat.scalar(tower, m, tower.T()),
                                    Mat.identity(tower, m)))
    one_dim = carlitz(tower)
    stable_b = [[one_dim.act(Poly(fq, [rng.randrange(fq.q)
                                       for _ in range(2)]))
                 for _ in range(m - s)] for _ in range(s)]
    t = tower.T()
    a0 = Mat(tuple(tuple(t if r == col else
                         (_small_entry(rng, tower) if col == r + 1
                          else tower.zero())
                         for col in range(m)) for r in range(m)))
    random_module = TModule(tower, [a0, Mat(tuple(
        tuple(_small_entry(rng, tower) for _ in range(m))
        for _ in range(m)))])
    random_b = [[OrePoly.scalar(tower, [_small_entry(rng, tower)
                                        for _ in range(rng.randrange(1, 4))])
                 for _ in range(m - s)] for _ in range(s)]
    subs = []
    for module, b in ((carlitz_power, stable_b), (random_module, random_b)):
        z = tower.zero()
        deg = max(e.degree for row in b for e in row)
        mats = []
        for i in range(max(deg, 0) + 1):
            cells = [[z] * m for _ in range(s)]
            for r in range(s):
                if i == 0:
                    cells[r][order[r]] = tower.one()
                for k, e in enumerate(b[r]):
                    if i <= e.degree:
                        cells[r][order[s + k]] = e.coeff(i)[0, 0]
            mats.append(Mat(cells))
        graph = OrePoly(tower, s, s, (c,)) * OrePoly(tower, s, m, mats)
        subs.append(KernelSubgroup(module, graph))
    return subs


@pytest.mark.parametrize("kind", ["one", "const", "nonconst", "block"])
def test_graph_division_agrees_with_the_witness_system(shallow_tower, kind):
    tower = shallow_tower
    fq = tower.fq
    rng = random.Random(f"{kind}-{tower.depth}-{fq.q}")
    stable = 0
    for _ in range(2):
        for sub in _graph_subgroups(rng, tower, kind):
            p = sub.presentation
            for a in (_t_monomial(fq, 1),
                      Poly(fq, [rng.randrange(fq.q) for _ in range(2)] + [1])):
                g = sub._pullback(a)
                q = left_multiple_witness(p, g)
                assert q == _ref_witness(p, g, max(g.degree, 0))
                bounds = [None]
                if q is not None and q.degree > 0:
                    bounds.append(q.degree - 1)
                    stable += 1
                for bound in bounds:
                    verdict = sub.stability(a, bound)
                    assert verdict == _ref_stability(sub, a, bound)
                    if bound is not None:
                        assert verdict == NoWitnessUpTo(bound)
    assert stable


@pytest.mark.parametrize("kind", ["const", "nonconst", "block"])
def test_graph_block_reduces_to_the_identity(shallow_tower, kind):
    # the weak Popov form of a graph presentation C * (I | B) is (I | B),
    # so its witness is read through C**-1 as one row operation per term
    tower = shallow_tower
    rng = random.Random(f"popov-{kind}-{tower.depth}-{tower.fq.q}")
    for sub in _graph_subgroups(rng, tower, kind):
        p = sub.presentation
        shift = [p.degree + 1 if all(c[r, k].is_zero() for c in p.coeffs[1:]
                                     for r in range(p.rows)) else 0
                 for k in range(p.cols)]
        owners, vanished = linalg._weak_popov(
            ore._bordered(p, 0, False), range(p.cols), shift)
        assert not vanished and len(owners) == p.rows
        for k, (_, row) in owners.items():
            assert [row[j] for j in owners] == [
                [tower.one()] if j == k else [] for j in owners]


class _WitnessSystem(Exception):
    pass


def test_stability_builds_no_witness_system(tower2, monkeypatch):
    # the curve, the axis and [tau], [tau^2] over F_2(T)(U): every
    # witness comes from the division, with no linear solve and no
    # zero matrix
    module = counterexample_module(sqrt_tower(tower2))
    o, z = module.tower.one(), module.tower.zero()
    subs = (curve_of_squares(module), axis_subgroup(module),
            KernelSubgroup.from_entries(module, [[(z, o), (z, z, o)]]))
    polys = [_t_monomial(tower2.fq, j) for j in (1, 2, 3)]
    expected = [_ref_stability(sub, a) for sub in subs for a in polys]

    def refuse(*args):
        raise _WitnessSystem
    for owner in (linalg, fields):
        monkeypatch.setattr(owner, "gauss_solve", refuse)
    monkeypatch.setattr(Mat, "zeros", refuse)
    assert [sub.stability(a) for sub in subs for a in polys] == expected
    assert {type(v) for v in expected} == {NoWitnessUpTo, Stable}


def _outcome(fn, *args):
    """The result, or the class of the exception raised."""
    try:
        return fn(*args)
    except TmlError as exc:
        return type(exc)


def test_zero_divisor_leading_coefficient_raises(tower3):
    # U^2 = T^2 makes a quotient ring in which U - T is a zero divisor:
    # as the leading coefficient of a row it refuses the division, as
    # a pivot refuses the witness system; elsewhere both decide alike
    t = tower3.T()
    ring = tower3.extend("U", (tower3.zero() - t * t, tower3.zero(),
                               tower3.one()))
    o, z, zd = ring.one(), ring.zero(), ring.gen() - ring.T()
    module = product([carlitz(ring), carlitz(ring)])
    blocked = KernelSubgroup.from_entries(module, [[(zd,), (z, o)]])
    p = blocked.presentation
    with pytest.raises(ZeroDivisor):
        left_multiple_witness(p, p)
    verdicts = set()
    for entries in ([[(zd,), (z, o)]], [[(o,), (z, zd)]], [[(o,), (zd,)]]):
        sub = KernelSubgroup.from_entries(module, entries)
        for j in (1, 2, 3):
            a = _t_monomial(tower3.fq, j)
            verdict = _outcome(sub.stability, a)
            assert verdict == _outcome(_ref_stability, sub, a)
            verdicts.add(verdict if isinstance(verdict, type)
                         else type(verdict))
    assert verdicts == {ZeroDivisor, NoWitnessUpTo}


# -- dependent rows: the least-degree witness against the witness system ---

@pytest.mark.parametrize("p,e,depth", [(2, 1, 0), (3, 1, 0), (2, 2, 0),
                                       (2, 1, 1)],
                         ids=["q2-depth0", "q3-depth0", "q4-depth0",
                              "q2-depth1"])
def test_dependent_rows_give_a_least_degree_witness(p, e, depth,
                                                    sparse_mat):
    # the last row is c tau^k times the first, or zero, so Q is unique
    # only up to the left kernel of p: the division must still find a
    # witness whenever the system does, of no larger degree
    tower = FieldTower(FiniteField(p, e))
    if depth:
        tower = sqrt_tower(tower)
    rng = random.Random(f"dependent-{p}-{e}-{depth}")
    o, z = tower.one(), tower.zero()
    found = 0
    for _ in range(12):
        s, m = rng.choice(((2, 1), (2, 2), (3, 2)))
        deg = rng.randrange(2)
        rows = [[OrePoly.scalar(tower, [_small_entry(rng, tower)
                                        for _ in range(deg + 1)])
                 for _ in range(m)] for _ in range(s - 1)]
        k = rng.randrange(3)
        c = rng.choice((z, o, _small_entry(rng, tower)))
        twist = OrePoly.scalar(tower, (z,) * k + (c,))
        rows.append([twist * x for x in rows[0]])
        pres = OrePoly(tower, s, m, [
            Mat(tuple(tuple(x.coeffs[i][0, 0] if i <= x.degree else z
                            for x in row) for row in rows))
            for i in range(deg + k + 1)])
        if pres.is_zero():
            continue
        planted = OrePoly(tower, s, s, [sparse_mat(rng, tower, s, s)
                                        for _ in range(rng.randrange(1, 3))])
        absent = OrePoly(tower, s, m, [sparse_mat(rng, tower, s, m)])
        for g in (planted * pres, absent):
            for bound in (None, 0, 1, 2, 4):
                ref = _ref_witness(pres, g, max(g.degree, 0)
                                   if bound is None else bound)
                q = left_multiple_witness(pres, g, bound)
                assert (q is None) == (ref is None)
                if q is not None:
                    assert q * pres == g
                    assert q.degree <= ref.degree
                    found += 1
    assert found
