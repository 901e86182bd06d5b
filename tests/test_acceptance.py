"""Acceptance gate: ten end-to-end criteria, one test each.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Each test prints its measured figures; tolerances and
runtime caps are asserted inline.
"""

import math
import time
from itertools import combinations

import numpy as np

from koutlab.bounds import (er_giant_fraction, heuristic_giant_lower_bound,
                            mean_degree)
from koutlab.component_analysis import (connected_components,
                                        cut_range_implication)
from koutlab.experiments import (ExperimentConfig, collect_cmax,
                                 coupling_experiment, run_point, run_sweep,
                                 trial_stream)
from koutlab.graph_model import GraphParams, construct_r_type, two_type_params
from koutlab.oracle import (exact_cut_probability,
                            exact_cut_probability_deleted,
                            exhaustive_event_probability, union_bound_sum)

SEED = 20240819


def test_c01_oracle_exactness_against_enumeration():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in (4, 5, 6):
        for k in (2, 3):
            if k >= n:
                continue
            for mu in (0.25, 0.5, 0.75):
                for d in (0, 1):
                    for r in range(1, n - d):
                        subset = frozenset(range(r))
                        if d == 0:
                            enum = exhaustive_event_probability(
                                n, mu, k, 0, lambda g: g.is_cut(subset))
                            closed = exact_cut_probability(n, mu, k, r)
                        else:
                            joint = exhaustive_event_probability(
                                n, mu, k, d,
                                lambda g: not (subset & g.deleted)
                                and g.is_cut(subset))
                            enum = joint * math.comb(n, d) / math.comb(n - r, d)
                            closed = exact_cut_probability_deleted(
                                n, mu, k, d, r)
                        worst = max(worst, abs(closed - enum))
                        cases += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: {cases} grid points, worst |closed - enum| = "
          f"{worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 60.0


def test_c02_cut_range_implication_holds_everywhere():
    t0 = time.perf_counter()
    params = two_type_params(30, 0.5, 2)
    violations = 0
    for t in range(10_000):
        g = construct_r_type(params, trial_stream(SEED, 1, t))
        for x in range(1, 11):
            if not cut_range_implication(g, x).holds:
                violations += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: 10000 graphs x 10 thresholds, {violations} "
          f"violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 30.0


def test_c03_largest_component_band_at_n1000():
    t0 = time.perf_counter()
    params = two_type_params(1000, 0.9, 2)
    summary = run_point(params, 0, 10_000, seed=SEED, point_index=3,
                        workers=1)
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: n=1000, max_outside = {summary.max_outside} "
          f"(cap 90), {elapsed:.1f}s")
    assert summary.max_outside <= 90
    assert elapsed < 120.0


def test_c04_min_cmax_trend_in_k():
    t0 = time.perf_counter()
    mins = []
    for i, k in enumerate(range(2, 11)):
        params = two_type_params(5000, 0.9, k)
        summary = run_point(params, 0, 1000, seed=SEED, point_index=40 + i,
                            workers=1)
        mins.append(summary.min_cmax)
    inversions = [(a - b) for a, b in zip(mins, mins[1:]) if a > b]
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: min_cmax by K = {mins}, inversions = {inversions}, "
          f"{elapsed:.1f}s")
    assert len(inversions) <= 1
    assert all(gap <= 2 for gap in inversions)
    assert elapsed < 300.0


def test_c05_deleted_minimum_stays_above_heuristic_floor():
    t0 = time.perf_counter()
    records = []
    for i, mu10 in enumerate(range(1, 10)):
        mu = mu10 / 10.0
        params = two_type_params(1000, mu, 2)
        summary = run_point(params, 20, 10_000, seed=SEED,
                            point_index=50 + i, workers=1)
        floor = heuristic_giant_lower_bound(1000, mu, 2, 20)
        records.append((mu, summary.min_cmax, floor))
    elapsed = time.perf_counter() - t0
    print("criterion 5: (mu, min_cmax, floor) = "
          + ", ".join(f"({mu:.1f}, {mn}, {fl})" for mu, mn, fl in records)
          + f", {elapsed:.1f}s")
    assert all(mn >= fl for _, mn, fl in records)
    assert elapsed < 300.0


def test_c06_er_fixed_point_value():
    beta = er_giant_fraction(2.2)
    residual = abs(beta + math.exp(-beta * 2.2) - 1.0)
    print(f"criterion 6: beta(2.2) = {beta:.6f}, residual = {residual:.2e}")
    assert abs(beta - 0.8437) <= 5e-4
    assert residual < 1e-10


def test_c07_union_bound_dominates_empirical_tail():
    t0 = time.perf_counter()
    n, mu, k = 30, 0.5, 2
    trials = 1_000_000
    cm = collect_cmax(two_type_params(n, mu, k), 0, trials, seed=SEED,
                      point_index=7, workers=1)
    rows = []
    for m in range(2, 9):
        p_hat = float((cm <= n - m).mean())
        bound = union_bound_sum(n, mu, k, m).value
        sigma = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / trials)
        rows.append((m, p_hat, bound, sigma))
    elapsed = time.perf_counter() - t0
    print("criterion 7: " + ", ".join(
        f"M={m}: {p:.2e} <= {b:.2e}+4*{s:.1e}" for m, p, b, s in rows)
        + f", {elapsed:.1f}s")
    for m, p_hat, bound, sigma in rows:
        assert p_hat <= bound + 4 * sigma
    assert elapsed < 180.0


def test_c08_coupling_produces_no_violations():
    t0 = time.perf_counter()
    target = GraphParams(n=500, type_probs=(0.5, 0.3, 0.2),
                         type_selections=(1, 2, 4))
    report = coupling_experiment(target, 10_000, seed=SEED)
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: {report.trials} coupled pairs, "
          f"{report.edge_superset_violations} edge violations, "
          f"{report.cmax_violations} cmax violations, {elapsed:.1f}s")
    assert report.edge_superset_violations == 0
    assert report.cmax_violations == 0
    assert elapsed < 60.0


def test_c09_empirical_mean_degree_matches_formula():
    params = two_type_params(2000, 0.9, 2)
    rng = trial_stream(SEED, 9, 0)
    total = 0.0
    trials = 200
    for _ in range(trials):
        total += construct_r_type(params, rng).degrees().mean()
    expected = mean_degree(2000, 0.9, 2)
    print(f"criterion 9: empirical {total / trials:.6f} vs formula "
          f"{expected:.6f}")
    assert abs(total / trials - expected) <= 0.02


def test_c10_csv_bytes_independent_of_thread_count(tmp_path, monkeypatch):
    def emit(tag, threads):
        monkeypatch.setenv("KOUTLAB_THREADS", str(threads))
        conf = ExperimentConfig(sweep_param="mu",
                                sweep_values=(0.2, 0.5, 0.8), n=300, k=2,
                                trials=800, seed=SEED,
                                out=str(tmp_path / tag))
        run_sweep(conf)
        return ((tmp_path / f"{tag}.csv").read_bytes(),
                (tmp_path / f"{tag}.json").read_bytes())

    serial = emit("serial", 1)
    threaded = emit("threaded", 4)
    print(f"criterion 10: serial vs 4-worker CSV identical = "
          f"{serial[0] == threaded[0]}, JSON identical = "
          f"{serial[1] == threaded[1]}")
    assert serial[0] == threaded[0]
    assert serial[1] == threaded[1]
