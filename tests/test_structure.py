import random

from tml.corpus import corner_module, squared_variable_module, tensor_square
from tml.fields import Poly
from tml.linalg import Mat
from tml.structure import (AbelianCertificate, InconclusiveScan,
                           NonabelianCertificate, OrePattern, abelian_scan,
                           degree_sequence, pattern_closure, rank_report)
from tml.tmodule import TModule, carlitz, carlitz_tensor


def test_pattern_of_operator(tower2):
    mod = corner_module(tower2)
    pat = OrePattern.of(mod.phi_t)
    assert pat.rows == 2 and pat.cols == 2
    assert pat.slices[0] == ((True, False), (False, True))
    assert pat.slices[1] == ((False, False), (True, False))
    assert pat.max_degree == 1


def test_pattern_compose_matches_product(tower2, rng):
    # the pattern of a product is dominated by the composition of patterns
    mod = tensor_square(tower2)
    p = OrePattern.of(mod.phi_t)
    prod = mod.phi_t * mod.phi_t
    assert p.compose(p).dominates(OrePattern.of(prod))


def test_pattern_union_and_dominates(tower2):
    a = OrePattern(1, 1, (((True,),),))
    b = OrePattern(1, 1, (((False,),), ((True,),)))
    u = a.union(b)
    assert u.dominates(a) and u.dominates(b)
    assert not a.dominates(b)


# reference copy of the grid algebra the position sets replaced: one
# rows x cols grid of bits per tau-degree, trailing empty grids stripped
def _strip(slices):
    slices = [tuple(tuple(bool(b) for b in row) for row in s) for s in slices]
    while slices and not any(b for row in slices[-1] for b in row):
        slices.pop()
    return tuple(slices)


def _grid(slices, i, rows, cols):
    if 0 <= i < len(slices):
        return slices[i]
    return tuple((False,) * cols for _ in range(rows))


def _grid_union(a, b, rows, cols):
    return _strip(tuple(tuple(x or y for x, y in zip(ra, rb))
                        for ra, rb in zip(_grid(a, i, rows, cols),
                                          _grid(b, i, rows, cols)))
                  for i in range(max(len(a), len(b))))


def _grid_compose(a, b, rows, inner, cols):
    if not a or not b:
        return ()
    out = [[[False] * cols for _ in range(rows)]
           for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for r in range(rows):
                for c in range(cols):
                    out[i + j][r][c] |= any(x[r][k] and y[k][c]
                                            for k in range(inner))
    return _strip(out)


def _grid_dominates(a, b):
    if any(bit for s in b[len(a):] for row in s for bit in row):
        return False
    return all(y <= x for sa, sb in zip(a, b)
               for ra, rb in zip(sa, sb) for x, y in zip(ra, rb))


def _random_slices(rng, rows, cols):
    density = rng.choice((0.0, 0.2, 0.5, 0.9))
    return _strip(tuple(tuple(rng.random() < density for _ in range(cols))
                        for _ in range(rows))
                  for _ in range(rng.randrange(5)))


def test_position_sets_match_grid_algebra():
    rng = random.Random(16)
    for _ in range(400):
        rows, inner, cols = (rng.randrange(1, 4) for _ in range(3))
        a = _random_slices(rng, rows, inner)
        b = _random_slices(rng, rows, inner)
        c = _random_slices(rng, inner, cols)
        pa, pb, pc = (OrePattern(rows, inner, a), OrePattern(rows, inner, b),
                      OrePattern(inner, cols, c))
        assert pa.slices == a and pa.max_degree == len(a) - 1
        assert pa.union(pb).slices == _grid_union(a, b, rows, inner)
        assert pa.compose(pc) == OrePattern(
            rows, cols, _grid_compose(a, c, rows, inner, cols))
        assert pa.compose(pc).slices == _grid_compose(a, c, rows, inner, cols)
        assert pa.dominates(pb) == _grid_dominates(a, b)
        assert pa.union(pb).dominates(pb) and _grid_dominates(
            _grid_union(a, b, rows, inner), b)


def test_pattern_keeps_empty_inner_slices():
    pat = OrePattern(1, 2, (((True, False),), ((False, False),),
                            ((False, True),), ((False, False),)))
    assert pat.max_degree == 2
    assert pat.grids() == ["X.", "..", ".X"]
    assert OrePattern(2, 2, ()).max_degree == -1
    assert OrePattern(2, 2, ()).grids() == []
    assert pat == OrePattern(1, 2, (((1, 0),), ((0, 0),), ((0, 1),)))


def test_pattern_closure_is_fixed_point(tower2):
    mod = corner_module(tower2)
    closed = pattern_closure(mod, degree_cap=8)
    assert closed is not None
    assert closed.union(closed.compose(closed)) == closed


def test_closure_sound_for_all_monomials(tower2):
    mod = corner_module(tower2)
    closed = pattern_closure(mod, degree_cap=8)
    for j in range(1, 7):
        a = Poly(tower2.fq, (0,) * j + (1,))
        assert closed.dominates(OrePattern.of(mod.act(a)))


def test_abelian_scan_certifies_tensor_square(tower2):
    report = abelian_scan(tensor_square(tower2))
    assert isinstance(report.outcome, AbelianCertificate)
    assert report.outcome.index == 2
    assert report.outcome.action_degree == 1
    assert report.outcome.generators == 2
    assert [r.index for r in report.rows] == [1, 2]
    assert not report.rows[0].leading_invertible
    assert report.rows[1].leading_invertible


def test_abelian_scan_rank_one(tower2):
    report = abelian_scan(carlitz(tower2))
    assert isinstance(report.outcome, AbelianCertificate)
    assert report.outcome.index == 1
    assert report.outcome.generators == 1


def test_nonabelian_certificate_for_corner_module(tower2):
    report = abelian_scan(corner_module(tower2))
    out = report.outcome
    assert isinstance(out, NonabelianCertificate)
    assert out.degree_bound == 1
    assert out.pattern == OrePattern(2, 2, (
        ((True, False), (False, True)),
        ((False, False), (True, False))))


def test_nonabelian_invariant_under_permutation(tower2):
    # conjugating by the swap matrix moves the twist entry to the other
    # corner; the verdict must not change
    mod = corner_module(tower2)
    o = tower2.one()
    z = tower2.zero()
    swap = Mat(((z, o), (o, z)))
    mats = [swap @ mod.phi_t.coeff(i) @ swap
            for i in range(mod.degree + 1)]
    flipped = TModule(tower2, mats)
    report = abelian_scan(flipped)
    assert isinstance(report.outcome, NonabelianCertificate)
    assert report.outcome.degree_bound == 1
    assert report.outcome.pattern == OrePattern(2, 2, (
        ((True, False), (False, True)),
        ((False, True), (False, False))))


def test_scan_outcomes_are_mutually_exclusive(tower2):
    for mod in (tensor_square(tower2), corner_module(tower2),
                carlitz(tower2), carlitz_tensor(tower2, 3)):
        report = abelian_scan(mod)
        kinds = [isinstance(report.outcome, cls)
                 for cls in (AbelianCertificate, NonabelianCertificate,
                             InconclusiveScan)]
        assert sum(kinds) == 1


def test_inconclusive_when_degree_cap_too_small(tower2):
    # power 1 has a singular leading matrix and the pattern closure
    # grows past a zero cap, so neither certificate is available
    report = abelian_scan(tensor_square(tower2), max_index=1, degree_cap=0)
    assert isinstance(report.outcome, InconclusiveScan)
    assert report.outcome.max_index == 1
    assert report.outcome.degree_cap == 0


def test_degree_sequence_bounded_for_corner_module(tower2):
    assert degree_sequence(corner_module(tower2), 20) == (1,) * 20


def test_degree_sequence_grows_for_rank_one(tower2):
    assert degree_sequence(carlitz(tower2), 4) == (1, 2, 3, 4)


def test_nonabelian_bounds_degree_sequence(tower2):
    report = abelian_scan(corner_module(tower2))
    bound = report.outcome.degree_bound
    assert all(d <= bound
               for d in degree_sequence(corner_module(tower2), 3 * bound + 3))


def test_rank_report_paths(tower2):
    assert rank_report(tensor_square(tower2)) == 2
    assert rank_report(carlitz(tower2)) == 1
    assert rank_report(corner_module(tower2)) is None


def test_generator_counts_over_squared_variable(tower2):
    ext, psi = squared_variable_module(tower2)
    report = abelian_scan(psi)
    assert isinstance(report.outcome, AbelianCertificate)
    assert report.outcome.index == 1
    assert report.outcome.generators == 2
