import numpy as np
import pytest

import koutlab.validate
from koutlab import BoundEvaluation, ParameterError
from koutlab.validate import SuiteResult, check_union_bound_soundness, run_suites


def test_run_suites_rejects_unknown_level():
    with pytest.raises(ParameterError):
        run_suites("medium")


def test_suite_result_defaults():
    r = SuiteResult("name", True, "detail")
    assert r.flags == ()


@pytest.mark.parametrize("d", [1, 3])
def test_deleted_union_bound_dominates_sampled_tail(d):
    # P[n-d-cmax >= x] against union_bound_sum_deleted at n=30, mu=0.5, K=2
    # for x = 1..(30-d)//3, within C07's 4 sigma, on one worker
    result = check_union_bound_soundness(trials=100_000, seed=20240819, point=60 + d, d=d)
    print(result.detail)
    assert result.name == "deleted-union-bound-soundness"
    assert result.detail.count("x=") == (30 - d) // 3
    assert result.passed, result.detail


def test_deleted_union_bound_check_sees_a_bound_below_the_tail(monkeypatch):
    # a bound of 0 lies below every sampled tail that is not 0
    def zero(n, mu, k, d, x):
        return BoundEvaluation(0.0, 0.0, np.zeros(1), x, "log")

    monkeypatch.setattr(koutlab.validate, "union_bound_sum_deleted", zero)
    result = check_union_bound_soundness(trials=2000, seed=1, point=0, d=1)
    assert not result.passed
    assert "x=1: " in result.detail and " > 0.00e+00" in result.detail
