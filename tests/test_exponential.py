import os
import random
import subprocess
import sys
import textwrap

import pytest

from conftest import _tower
from tml import exponential, fields, linalg
from tml.corpus import (axis_subgroup, graph_modules, random_element,
                        tensor_square)
from tml.exponential import (ExpSeries, RestrictionVerdict,
                             exp_restriction_check, exp_series,
                             verify_functional_equation)
from tml.errors import BadParameter, TmlError
from tml.fields import FieldTower, FiniteField, Poly
from tml.linalg import Mat
from tml.subgroups import KernelSubgroup
from tml.tmodule import TModule, carlitz, carlitz_tensor, drinfeld

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def test_rank_one_coefficients_match_closed_form(tower2):
    # over q = 2 the usual denominators are D_1 = T^2 + T and
    # D_2 = (T^4 + T)(T^4 + T^2)
    series = exp_series(carlitz(tower2), 2)
    t = tower2.T()
    assert series.coeff(0) == Mat.identity(tower2, 1)
    assert series.coeff(1)[0, 0] == (t ** 2 + t).inverse()
    d2 = (t ** 4 + t) * (t ** 4 + t ** 2)
    assert series.coeff(2)[0, 0] == d2.inverse()


@pytest.mark.parametrize("q, order", [(2, 7), (3, 5), (5, 3)])
def test_carlitz_coefficients_are_reciprocal_products(q, order):
    # E_i = 1/D_i with D_i = prod_{j<i} (T^(q^i) - T^(q^j)) (Goss, Basic
    # Structures of Function Field Arithmetic, section 3)
    tower = FieldTower(FiniteField(q))
    series = exp_series(carlitz(tower), order)
    t = tower.T()
    for i in range(order + 1):
        d = tower.one()
        for j in range(i):
            d = d * (t ** (q ** i) - t ** (q ** j))
        assert series.coeff(i) == Mat(((d.inverse(),),))


def test_functional_equation_holds(tower2):
    for module in (carlitz(tower2), tensor_square(tower2),
                   carlitz_tensor(tower2, 3)):
        assert verify_functional_equation(exp_series(module, 4))


def test_functional_equation_detects_perturbation(tower2):
    series = exp_series(carlitz(tower2), 3)
    coeffs = list(series.coeffs)
    coeffs[1] = coeffs[1] + Mat.identity(tower2, 1)
    broken = ExpSeries(series.module, series.order, tuple(coeffs))
    assert not verify_functional_equation(broken)


def test_functional_equation_checks_the_top_order(tower3):
    series = exp_series(carlitz(tower3), 4)
    assert verify_functional_equation(series)
    coeffs = list(series.coeffs)
    coeffs[4] = coeffs[4] + Mat.identity(tower3, 1)
    broken = ExpSeries(series.module, series.order, tuple(coeffs))
    assert not verify_functional_equation(broken)


def test_order_zero_series_is_identity(tower2):
    series = exp_series(tensor_square(tower2), 0)
    assert series.coeff(0) == Mat.identity(tower2, 2)
    assert verify_functional_equation(series)


def test_tensor_square_first_coefficient(tower2):
    series = exp_series(tensor_square(tower2), 1)
    t = tower2.T()
    d1 = (t ** 2 + t).inverse()
    d2 = (t ** 4 + t ** 2).inverse()
    z = tower2.zero()
    assert series.coeff(1) == Mat(((d2, z), (d1, d2)))


def test_tensor_square_coefficients_lower_triangular(tower2):
    series = exp_series(tensor_square(tower2), 4)
    for i in range(5):
        m = series.coeff(i)
        assert m[0, 1].is_zero()
        assert m[0, 0] == m[1, 1]


def test_restriction_holds_on_stable_axis(tower2):
    module = tensor_square(tower2)
    series = exp_series(module, 5)
    report = exp_restriction_check(series, axis_subgroup(module))
    assert report.verdict is RestrictionVerdict.HOLDS
    assert report.order == 5


def test_restriction_of_another_modules_subgroup_is_a_tml_error(tower2):
    series = exp_series(tensor_square(tower2), 2)
    other = axis_subgroup(tensor_square(tower2, corner=(0, 1)))
    with pytest.raises(BadParameter, match="different module") as info:
        exp_restriction_check(series, other)
    # still a ValueError for callers that caught the old exception
    assert isinstance(info.value, TmlError)
    assert isinstance(info.value, ValueError)


def test_restriction_fails_on_escaping_axis(tower2):
    # the first axis is not preserved and the exponential shows it
    module = tensor_square(tower2)
    first_axis = KernelSubgroup.from_entries(
        module, [[(tower2.zero(),), (tower2.one(),)]])
    series = exp_series(module, 5)
    report = exp_restriction_check(series, first_axis)
    assert report.verdict is RestrictionVerdict.FAILS
    assert report.detail == (1, 1, 0)


def test_restriction_unchecked_for_twisted_presentation(tower2):
    _f, _s, ambient, graph = graph_modules(tower2)
    series = exp_series(ambient, 3)
    report = exp_restriction_check(series, graph)
    assert report.verdict is RestrictionVerdict.UNCHECKED


def test_restriction_trivial_subgroups(tower2):
    module = tensor_square(tower2)
    series = exp_series(module, 3)
    full = KernelSubgroup.full(module)
    assert exp_restriction_check(series, full).verdict is \
        RestrictionVerdict.HOLDS
    o = tower2.one()
    z = tower2.zero()
    origin = KernelSubgroup.from_entries(module, [[(o,), (z,)],
                                                  [(z,), (o,)]])
    assert exp_restriction_check(series, origin).verdict is \
        RestrictionVerdict.HOLDS


def test_product_series_is_blockwise(tower2):
    _f, _s, ambient, _g = graph_modules(tower2)
    series = exp_series(ambient, 4)
    assert verify_functional_equation(series)
    for i in range(5):
        m = series.coeff(i)
        assert m[0, 1].is_zero() and m[1, 0].is_zero()


# -- the check on unreduced fractions against the normalising reference ----

def _ref_verify(exp):
    """The normalising check: both sides formed by matrix products and
    sums of reduced fractions, compared order by order from order 0;
    E_0 is not required to be I."""
    module = exp.module
    phi = module.phi_t
    for i in range(exp.order + 1):
        lhs = exp.coeffs[i] @ module.a0.frob(i)
        rhs = phi.coeff(0) @ exp.coeffs[i]
        for j in range(1, min(i, module.degree) + 1):
            rhs = rhs + phi.coeff(j) @ exp.coeffs[i - j].frob(j)
        if lhs != rhs:
            return False
    return True


def _with_coeff(series, i, mat):
    coeffs = list(series.coeffs)
    coeffs[i] = mat
    return ExpSeries(series.module, series.order, tuple(coeffs))


def _with_entry(series, i, r, c, value):
    e = series.coeff(i)
    return _with_coeff(series, i, Mat(tuple(
        tuple(value if (k, l) == (r, c) else e[k, l]
              for l in range(e.cols)) for k in range(e.rows))))


def _seeded_module(rng, tower, degree):
    """a_0 = T*I plus a random corner, a_1 random, entries rational of
    the given degree."""
    t, z = tower.T(), tower.zero()
    a0 = Mat(((t, random_element(rng, tower, degree)), (z, t)))
    a1 = Mat(tuple(tuple(random_element(rng, tower, degree)
                         for _ in range(2)) for _ in range(2)))
    return TModule(tower, (a0, a1))


def _perturbed(rng, series):
    """One entry of an inner and of the top E_i changed by a unit of F_q,
    changed by T, or replaced by its own twist."""
    tower = series.module.tower
    m = series.module.dimension
    unit = tower.const(rng.randrange(1, tower.fq.q))
    for i in sorted({1, series.order} - {0}):
        r, c = rng.randrange(m), rng.randrange(m)
        x = series.coeff(i)[r, c]
        for value in (x + unit, x + tower.T(), x.frob(1)):
            yield _with_entry(series, i, r, c, value)


DIFFERENTIAL = [(2, 1, 0), (3, 1, 0), (5, 1, 0), (3, 2, 0), (2, 1, 1),
                (3, 1, 1)]


@pytest.mark.parametrize("p, e, depth", DIFFERENTIAL)
def test_check_matches_the_normalising_reference(p, e, depth):
    tower = _tower(p, e, depth)
    rng = random.Random(100 * p + 10 * e + depth)
    # over F_9 degree-1 entries take the reference seconds per series
    cases = [(carlitz(tower), 3), (carlitz_tensor(tower, 2), 2),
             (drinfeld(tower, (tower.gen(),)), 2),
             (_seeded_module(rng, tower, 0 if e > 1 else 1), 2)]
    outcomes = []
    for module, order in cases:
        series = exp_series(module, order)
        assert verify_functional_equation(series) and _ref_verify(series)
        for broken in _perturbed(rng, series):
            got = verify_functional_equation(broken)
            assert got == _ref_verify(broken)
            outcomes.append(got)
    # an entry of F_q is its own twist, so some perturbations change
    # nothing, but most are refused
    assert outcomes.count(False) > len(outcomes) // 2


def test_zero_series_is_refused(tower3):
    module = carlitz_tensor(tower3, 2)
    zero = ExpSeries(module, 3, (Mat.zeros(tower3, 2, 2),) * 4)
    assert _ref_verify(zero)
    assert not verify_functional_equation(zero)


def test_multiple_of_the_exponential_is_refused(tower3):
    # the equation is linear in E and every twist fixes F_q, so 2E
    # satisfies it too; only E_0 = I singles out the exponential
    series = exp_series(carlitz_tensor(tower3, 2), 3)
    two = tower3.const(2)
    doubled = ExpSeries(series.module, 3,
                        tuple(e.scale(two) for e in series.coeffs))
    assert _ref_verify(doubled)
    assert not verify_functional_equation(doubled)


def test_malformed_series_is_a_bad_parameter(tower2, tower3):
    series = exp_series(carlitz_tensor(tower2, 2), 2)
    module, coeffs = series.module, series.coeffs
    bad = [ExpSeries(module, 3, coeffs), ExpSeries(module, 1, coeffs),
           ExpSeries(module, -1, ()),
           _with_coeff(series, 1, Mat.identity(tower2, 3)),
           _with_coeff(series, 2, Mat(((tower2.one(), tower2.zero()),))),
           _with_coeff(series, 0, "I"),
           _with_coeff(series, 1, Mat.identity(tower3, 2))]
    for exp in bad:
        with pytest.raises(BadParameter):
            verify_functional_equation(exp)


# -- the check divides nothing and never solves ------------------------------

def _refuse(*_args, **_kwargs):
    raise AssertionError("the check divided or solved")


def _guarded_outcomes(patch):
    """Solve four series, then apply patch(owner, name, _refuse) to every
    gcd, polynomial division and solver, and check them: Carlitz over F_3
    at order 4, T + U tau over F_2(T)(U) and F_3(T)(U) with U^2 = T at
    order 3, and the last with T added to an entry of E_3."""
    series = [exp_series(carlitz(FieldTower(FiniteField(3))), 4)]
    for p in (2, 3):
        deep = _tower(p, 1, 1)
        series.append(exp_series(drinfeld(deep, (deep.gen(),)), 3))
    series.append(_with_entry(series[-1], 3, 0, 0,
                              series[-1].coeff(3)[0, 0] + deep.T()))
    for owner, name in ((fields.Poly, "gcd"), (fields, "_gf2_gcd"),
                        (fields, "_gf2_divmod"), (fields.Poly, "__divmod__"),
                        (fields, "gauss_solve"), (linalg, "gauss_solve"),
                        (linalg, "_weak_popov"), (exponential, "gauss_solve")):
        patch(owner, name, _refuse)
    return [verify_functional_equation(s) for s in series]


def test_check_divides_nothing(monkeypatch):
    assert _guarded_outcomes(monkeypatch.setattr) == [True, True, True,
                                                      False]


def test_check_divides_nothing_under_optimized_mode():
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
        from test_exponential import _guarded_outcomes
        print(_guarded_outcomes(setattr))
        """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[True, True, True, False]\n"
