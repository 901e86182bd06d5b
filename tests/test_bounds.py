import math

import pytest

from koutlab import ParameterError
from koutlab.bounds import (deleted_tail_bound, deleted_tail_bound_alt,
                            er_giant_fraction, heuristic_giant_lower_bound,
                            mean_degree, mean_selections, r_class_tail_bound,
                            tail_bound)


def test_mean_selections_values():
    assert mean_selections(0.9, 2) == pytest.approx(1.1)
    assert mean_selections(0.5, 4) == pytest.approx(2.5)
    for mu in (0.1, 0.5, 0.9):
        assert mean_selections(mu, 2) == pytest.approx(2 - mu)
    with pytest.raises(ParameterError):
        mean_selections(0.0, 2)
    with pytest.raises(ParameterError):
        mean_selections(0.5, 1)


def test_tail_bound_value_and_ratio():
    b = tail_bound(0.9, 2, 60)
    assert b.value == pytest.approx(math.exp(-6) / (1 - math.exp(-0.1)),
                                    rel=1e-12)
    assert b.value == pytest.approx(0.026047550681243627, rel=1e-12)
    for m in (1, 3, 10):
        ratio = tail_bound(0.9, 2, m + 1).value / tail_bound(0.9, 2, m).value
        assert ratio == pytest.approx(math.exp(-0.1), rel=1e-12)
    assert b.regime_notes  # dropped o(1) terms are recorded
    assert b.inputs["M"] == 60


def test_tail_bound_decreasing_in_k():
    vals = [tail_bound(0.5, k, 5).value for k in (2, 3, 4, 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ParameterError):
        tail_bound(0.5, 2, 0)


def test_deleted_tail_bound_threshold():
    # mu=0.9, K=2, d=20, eps=1: hypothesis is x > 2*20/0.1 = 400
    with pytest.raises(ParameterError) as err:
        deleted_tail_bound(0.9, 2, 20, 400, eps=1.0)
    assert "400" in str(err.value)
    b = deleted_tail_bound(0.9, 2, 20, 401, eps=1.0)
    assert b.value > 0
    assert set(b.components) == {"mean_rate_tail", "heavy_mass_tail"}
    rate = 0.1 * 0.5
    expect = (math.exp(-401 * rate) / (1 - math.exp(-rate))
              + math.exp(-401 * 0.1 * 0.5) / (1 - math.exp(-0.1 * 0.5)))
    assert b.value == pytest.approx(expect, rel=1e-12)


def test_deleted_tail_bound_without_deletions_admits_any_x():
    vals = [deleted_tail_bound(0.5, 2, 0, x).value for x in (1, 2, 5, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ParameterError):
        deleted_tail_bound(0.5, 2, 0, 5, eps=0.0)
    with pytest.raises(ParameterError):
        deleted_tail_bound(0.5, 2, -1, 5)


def test_deleted_tail_bound_eps_scale_approaches_unit():
    # the tempering factor eps/(1+eps) climbs to 1 as eps grows
    tight = deleted_tail_bound(0.5, 2, 0, 10, eps=1e9).value
    rate = mean_selections(0.5, 2) - 1.0
    limit = (math.exp(-10 * rate) / (1 - math.exp(-rate))
             + math.exp(-10 * 0.5) / (1 - math.exp(-0.5)))
    assert tight == pytest.approx(limit, rel=1e-6)


def test_alt_deleted_bound_value_and_threshold():
    b = deleted_tail_bound_alt(0.5, 0, 10, eps=1.0)
    assert b.value == pytest.approx(math.exp(-2.5) / (1 - math.exp(-0.25)),
                                    rel=1e-12)
    with pytest.raises(ParameterError) as err:
        deleted_tail_bound_alt(0.5, 10, 40, eps=1.0)
    assert "40" in str(err.value)
    vals = [deleted_tail_bound_alt(0.5, 0, x).value for x in (2, 4, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_alt_bound_never_exceeds_two_tail_bound():
    for x in (45, 80, 200):
        full = deleted_tail_bound(0.5, 3, 10, x, eps=1.0).value
        alt = deleted_tail_bound_alt(0.5, 10, x, eps=1.0).value
        assert alt <= full


def test_r_class_bound_reduces_to_two_type():
    for mu, k in ((0.5, 2), (0.9, 2), (0.3, 5)):
        a = r_class_tail_bound((mu, 1 - mu), (1, k), 7).value
        b = tail_bound(mu, k, 7).value
        assert a == pytest.approx(b, rel=1e-12)


def test_r_class_bound_value_and_monotonicity():
    b = r_class_tail_bound((0.5, 0.3, 0.2), (1, 2, 4), 10)
    assert b.value == pytest.approx(math.exp(-6) / (1 - math.exp(-0.6)),
                                    rel=1e-12)
    heavier = r_class_tail_bound((0.4, 0.3, 0.3), (1, 2, 4), 10)
    assert heavier.value < b.value  # larger mu_r shrinks the bound
    with pytest.raises(ParameterError):
        r_class_tail_bound((0.5, 0.5), (1, 1), 10)


def test_heuristic_floor_values():
    assert heuristic_giant_lower_bound(1000, 0.9, 2, 20) == 780
    assert heuristic_giant_lower_bound(5000, 0.9, 2, 70) == 4230
    assert heuristic_giant_lower_bound(500, 0.5, 2, 0) == 500
    assert heuristic_giant_lower_bound(100, 0.9, 2, 60) == 0  # clamped
    for n, d in ((10, 20), (10, 10), (-5, 3), (0, 0), (10, -1)):
        with pytest.raises(ParameterError, match=r"need 0 <= d < n"):
            heuristic_giant_lower_bound(n, 0.9, 2, d)


def test_er_fixed_point():
    beta = er_giant_fraction(2.2)
    assert beta == pytest.approx(0.8437, abs=5e-4)
    for c in (1.1, 2.2, 5.0):
        b = er_giant_fraction(c)
        assert 0.0 < b <= 1.0
        assert abs(b + math.exp(-b * c) - 1.0) < 1e-10
    assert er_giant_fraction(50.0) > 0.999
    with pytest.raises(ParameterError):
        er_giant_fraction(1.0)
    with pytest.raises(ParameterError):
        er_giant_fraction(0.5)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_er_fixed_point_rejects_non_finite_c(c):
    with pytest.raises(ParameterError, match="1 < c < inf"):
        er_giant_fraction(c)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_deleted_tail_bounds_reject_non_finite_eps(eps):
    with pytest.raises(ParameterError, match="0 < eps < inf"):
        deleted_tail_bound(0.5, 2, 2, 50, eps=eps)
    with pytest.raises(ParameterError, match="0 < eps < inf"):
        deleted_tail_bound_alt(0.5, 2, 50, eps=eps)


def test_mean_degree_formula():
    got = mean_degree(2000, 0.9, 2)
    want = 2 * 1.1 - 1.1 ** 2 / 1999
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(2.1993947, abs=1e-6)
    # finite-n correction vanishes as n grows
    assert mean_degree(10 ** 8, 0.9, 2) == pytest.approx(2.2, abs=1e-6)
    assert mean_degree(3, 0.5, 2) == pytest.approx(2 * 1.5 - 1.5 ** 2 / 2)
    with pytest.raises(ParameterError):
        mean_degree(2, 0.5, 2)


def test_bound_objects_are_annotated():
    for b in (tail_bound(0.5, 2, 3),
              deleted_tail_bound(0.5, 2, 0, 3),
              deleted_tail_bound_alt(0.5, 0, 3),
              r_class_tail_bound((0.5, 0.5), (1, 2), 3)):
        assert b.value >= 0.0
        assert len(b.regime_notes) == 2
        assert b.inputs
        assert b.components
