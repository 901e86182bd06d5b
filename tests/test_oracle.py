import math

import numpy as np
import pytest

from koutlab import ParameterError
from koutlab.component_analysis import connected_components
from koutlab.experiments import trial_stream
from koutlab.graph_model import construct_two_type, two_type_params
from koutlab.oracle import (EnumeratedRealization, exact_cut_probability,
                            exact_cut_probability_deleted,
                            exhaustive_event_probability, union_bound_sum,
                            union_bound_sum_deleted)


# Scalar reference for the vectorized kernel: math.lgamma log-binomials
# and one Python pass per subset size.

def _ref_log_binom(a, b):
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _ref_mix_factor(n, mu, k, m):
    single = mu * m / (n - 1)
    if m < k:
        return single
    return single + (1.0 - mu) * math.exp(
        _ref_log_binom(m, k) - _ref_log_binom(n - 1, k))


def _ref_cut_probability(n, mu, k, d, r):
    f_in = _ref_mix_factor(n, mu, k, r + d - 1)
    f_out = _ref_mix_factor(n, mu, k, n - r - 1)
    if f_in == 0.0 or f_out == 0.0:
        return 0.0
    return math.exp(r * math.log(f_in) + (n - d - r) * math.log(f_out))


def _ref_bound_terms(n, mu, k, d, lo):
    terms = []
    for r in range(lo, (n - d) // 2 + 1):
        f_in = _ref_mix_factor(n, mu, k, r + d - 1)
        f_out = _ref_mix_factor(n, mu, k, n - r - 1)
        if f_in == 0.0 or f_out == 0.0:
            terms.append(0.0)
            continue
        terms.append(math.exp(_ref_log_binom(n - d, r) + r * math.log(f_in)
                              + (n - d - r) * math.log(f_out)))
    return np.array(terms)


def _assert_matches_reference(ev, n, mu, k, d):
    ref = _ref_bound_terms(n, mu, k, d, ev.r_start)
    assert ev.terms.shape == ref.shape
    assert ((ev.terms == 0.0) == (ref == 0.0)).all()
    nz = ref > 0.0
    assert (np.abs(ev.terms[nz] - ref[nz]) <= 1e-9 * ref[nz]).all()
    assert abs(ev.raw_sum - ref.sum()) <= 1e-12 * ref.sum()


# n=9000 crosses the kernel's 4096-wide block boundary; K = n//2 + 2
# leaves the outside pool m_out = n-r-1 below K for the largest r
_GRID_N = (10, 31, 200, 9000)
_GRID_MU = (0.1, 0.5, 0.99)


def _grid_k(n):
    return (2, 3, 5, n // 2 + 2)


@pytest.mark.parametrize("n", _GRID_N)
def test_union_bound_matches_scalar_reference(n):
    for mu in _GRID_MU:
        for k in _grid_k(n):
            _assert_matches_reference(union_bound_sum(n, mu, k, 1), n, mu, k, 0)


@pytest.mark.parametrize("n", _GRID_N)
def test_deleted_union_bound_matches_scalar_reference(n):
    for mu in _GRID_MU:
        for k in _grid_k(n):
            for d in (0, 1, 3):
                ev = union_bound_sum_deleted(n, mu, k, d, 1)
                _assert_matches_reference(ev, n, mu, k, d)


def test_union_bound_matches_reference_with_many_deletions():
    # d well above the block size keeps the kernel's lgamma spans apart
    for n, mu, k, d in ((200, 0.5, 3, 150), (9000, 0.5, 5, 5000),
                        (9000, 0.1, 3, 5000)):
        ev = union_bound_sum_deleted(n, mu, k, d, 1)
        _assert_matches_reference(ev, n, mu, k, d)


def test_union_bound_beyond_float64_is_inf_and_clamped():
    # terms near r = (n-d)/2 exceed float64; the scalar loop raised here
    ev = union_bound_sum_deleted(9000, 0.5, 2, 5000, 1)
    assert ev.raw_sum == math.inf
    assert ev.value == 1.0


def test_cut_probabilities_match_scalar_reference():
    for n, mu, k in ((10, 0.5, 2), (200, 0.1, 3), (9000, 0.99, 5), (31, 0.5, 17)):
        for r in (1, 2, n // 3, n // 2, n - 4):
            assert exact_cut_probability(n, mu, k, r) == pytest.approx(
                _ref_cut_probability(n, mu, k, 0, r), rel=1e-12, abs=0.0)
            for d in (1, 3):
                got = exact_cut_probability_deleted(n, mu, k, d, r)
                assert got == pytest.approx(
                    _ref_cut_probability(n, mu, k, d, r), rel=1e-12, abs=0.0)


def test_single_node_cut_probability_is_exactly_zero():
    # a lone node always selects someone, so {v} can never be a cut
    for n in (5, 20, 100):
        for k in (2, 3):
            assert exact_cut_probability(n, 0.5, k, 1) == 0.0


def test_known_closed_form_value_n5():
    # n=5, r=2, mu=0.5, K=2: (1/3)^3 * (1/8)^2 = 1/1728
    value = exact_cut_probability(5, 0.5, 2, 2)
    assert value == pytest.approx(1.0 / 1728.0, abs=1e-15)


def test_cut_probability_agrees_with_enumeration_on_a_point():
    p_closed = exact_cut_probability(5, 0.5, 2, 2)
    p_enum = exhaustive_event_probability(
        5, 0.5, 2, 0, lambda g: g.is_cut({0, 1}))
    assert abs(p_closed - p_enum) < 1e-12


def test_deleted_cut_probability_agrees_with_enumeration():
    # P[S cut | S disjoint from D] recovered from the joint enumeration
    n, mu, k, d, r = 6, 0.5, 2, 1, 2
    subset = set(range(r))
    joint = exhaustive_event_probability(
        n, mu, k, d,
        lambda g: not (subset & g.deleted) and g.is_cut(subset))
    conditional = joint * math.comb(n, d) / math.comb(n - r, d)
    closed = exact_cut_probability_deleted(n, mu, k, d, r)
    assert abs(closed - conditional) < 1e-12


def test_deleted_reduces_to_plain_at_d_zero():
    for n in (6, 15, 40):
        for r in (1, 2, n // 2):
            a = exact_cut_probability_deleted(n, 0.3, 2, 0, r)
            b = exact_cut_probability(n, 0.3, 2, r)
            assert a == b


def test_cut_probability_decreasing_in_r_on_positive_support():
    # r=1 gives probability exactly 0, so monotone decrease starts at r=2
    vals = [exact_cut_probability(100, 0.5, 2, r) for r in range(2, 51)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert exact_cut_probability(100, 0.5, 2, 1) == 0.0


def test_deleted_cut_probability_nondecreasing_in_d():
    for r in (2, 5, 8):
        vals = [exact_cut_probability_deleted(20, 0.5, 2, d, r)
                for d in range(4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_cut_probability_validates_range():
    with pytest.raises(ParameterError):
        exact_cut_probability(10, 0.5, 2, 0)
    with pytest.raises(ParameterError):
        exact_cut_probability(10, 0.5, 2, 10)
    with pytest.raises(ParameterError):
        exact_cut_probability(10, 1.5, 2, 3)
    with pytest.raises(ParameterError):
        exact_cut_probability(10, 0.5, 1, 3)
    with pytest.raises(ParameterError):
        exact_cut_probability_deleted(10, 0.5, 2, 3, 7)  # r > n-d-1
    with pytest.raises(ParameterError):
        exact_cut_probability_deleted(10, 0.5, 2, -1, 2)


def test_union_bound_frozen_values():
    assert union_bound_sum(30, 0.5, 2, 2).value == pytest.approx(
        0.009915959580270053, rel=1e-12)
    assert union_bound_sum(30, 0.5, 2, 8).value == pytest.approx(
        9.58809e-05, rel=1e-5)
    assert union_bound_sum_deleted(30, 0.5, 2, 3, 3).value == pytest.approx(
        0.1027793674939932, rel=1e-12)


def test_union_bound_evaluation_structure():
    ev = union_bound_sum(30, 0.5, 2, 2)
    assert ev.r_start == 2
    assert ev.terms.size == 30 // 2 - 2 + 1
    assert (ev.terms >= 0).all()
    assert 0.0 <= ev.value <= 1.0
    assert ev.value <= ev.terms.sum() + 1e-15
    assert ev.raw_sum == pytest.approx(float(ev.terms.sum()), rel=1e-12)
    assert ev.arithmetic_mode == "log"


def test_union_bound_clamps_but_preserves_raw_sum():
    ev = union_bound_sum(60, 0.99, 2, 1)
    assert ev.raw_sum > 1.0
    assert ev.value == 1.0


def test_union_bound_monotone_in_m_k_and_mu():
    by_m = [union_bound_sum(40, 0.5, 2, m).raw_sum for m in range(1, 15)]
    assert all(a >= b for a, b in zip(by_m, by_m[1:]))
    by_k = [union_bound_sum(40, 0.5, k, 3).raw_sum for k in (2, 3, 4, 5)]
    assert all(a > b for a, b in zip(by_k, by_k[1:]))
    by_mu = [union_bound_sum(40, mu, 2, 3).raw_sum
             for mu in (0.25, 0.5, 0.75, 0.9)]
    assert all(a < b for a, b in zip(by_mu, by_mu[1:]))


def test_deleted_union_bound_nondecreasing_in_d():
    vals = [union_bound_sum_deleted(30, 0.5, 2, d, 3).raw_sum
            for d in range(5)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert union_bound_sum_deleted(30, 0.5, 2, 0, 3).raw_sum == \
        union_bound_sum(30, 0.5, 2, 3).raw_sum


def test_direct_mode_refuses_binomials_beyond_float64():
    # C(3000, 1500) ~ 1e901 has no float64 value
    with pytest.raises(ParameterError, match="exceeds float64"):
        union_bound_sum(3000, 0.5, 2, 1, mode="direct")
    with pytest.raises(ParameterError, match="exceeds float64"):
        union_bound_sum_deleted(3000, 0.5, 2, 20, 1, mode="direct")


def test_union_bound_validates_limits():
    with pytest.raises(ParameterError):
        union_bound_sum(30, 0.5, 2, 0)
    with pytest.raises(ParameterError):
        union_bound_sum(30, 0.5, 2, 16)
    with pytest.raises(ParameterError):
        union_bound_sum_deleted(30, 0.5, 2, 4, 14)  # x > (n-d)/2
    with pytest.raises(ParameterError):
        union_bound_sum(30, 0.5, 2, 3, mode="fancy")


def test_log_domain_survives_huge_n():
    ev = union_bound_sum(1_000_000, 0.9, 2, 10)
    assert np.isfinite(ev.raw_sum)
    assert ev.raw_sum > 0.0
    big = union_bound_sum(5000, 0.9, 2, 60)
    assert big.value == pytest.approx(5.176349720329502e-07, rel=1e-9)
    assert big.value < 1.0


def test_log_and_direct_modes_agree():
    for n in (10, 50, 200):
        for mu in (0.25, 0.75):
            for k in (2, 3):
                for r in (2, max(1, n // 3)):
                    a = exact_cut_probability(n, mu, k, r, mode="log")
                    b = exact_cut_probability(n, mu, k, r, mode="direct")
                    if b > 0:
                        assert abs(a - b) / b < 1e-9
                la = union_bound_sum(n, mu, k, 2, mode="log").raw_sum
                di = union_bound_sum(n, mu, k, 2, mode="direct").raw_sum
                assert abs(la - di) / di < 1e-9


def test_enumeration_connected_probability_forced_case():
    p = exhaustive_event_probability(3, 0.5, 2, 0, lambda g: g.is_connected)
    assert p == pytest.approx(1.0, abs=1e-15)
    p = exhaustive_event_probability(3, 0.25, 2, 0, lambda g: g.is_connected)
    assert p == pytest.approx(1.0, abs=1e-15)


def test_enumeration_refuses_large_n():
    with pytest.raises(ParameterError):
        exhaustive_event_probability(8, 0.5, 2, 0, lambda g: True)


def test_enumeration_probabilities_are_normalized():
    assert exhaustive_event_probability(5, 0.5, 2, 0, lambda g: True) == \
        pytest.approx(1.0, abs=1e-15)
    assert exhaustive_event_probability(5, 0.5, 2, 1, lambda g: True) == \
        pytest.approx(1.0, abs=1e-15)
    assert exhaustive_event_probability(5, 0.5, 2, 0, lambda g: False) == 0.0


def test_enumerated_realization_exposes_graph_queries():
    seen = {"components": 0}

    def probe(g):
        assert isinstance(g, EnumeratedRealization)
        sizes = g.component_sizes
        assert sum(sizes) == 5 - len(g.deleted)
        assert g.cmax == max(sizes)
        seen["components"] += 1
        return g.cmax >= 4

    p = exhaustive_event_probability(5, 0.5, 2, 1, probe)
    assert 0.0 < p < 1.0
    assert seen["components"] > 0


def test_enumeration_matches_monte_carlo_on_giant_event():
    # P[cmax >= n-1] at n=5: enumeration vs 150k simulated draws, 4 sigma
    n, mu, k = 5, 0.5, 2
    p_exact = exhaustive_event_probability(
        n, mu, k, 0, lambda g: g.cmax >= n - 1)
    trials = 150_000
    params = two_type_params(n, mu, k)
    rng = trial_stream(2024, 0, 0)
    hits = 0
    for _ in range(trials):
        g = construct_two_type(params, rng)
        hits += connected_components(g).cmax >= n - 1
    sigma = math.sqrt(p_exact * (1 - p_exact) / trials)
    assert abs(hits / trials - p_exact) < 4 * sigma
