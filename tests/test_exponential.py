import pytest

from tml.corpus import axis_subgroup, graph_modules, tensor_square
from tml.exponential import (ExpSeries, RestrictionVerdict,
                             exp_restriction_check, exp_series,
                             verify_functional_equation)
from tml.errors import BadParameter, TmlError
from tml.fields import FieldTower, FiniteField, Poly
from tml.linalg import Mat
from tml.subgroups import KernelSubgroup
from tml.tmodule import carlitz, carlitz_tensor


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
