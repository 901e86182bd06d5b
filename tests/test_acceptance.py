"""Acceptance gate: ten end-to-end criteria, one test each.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Each test prints its measured figures and asserts its
runtime cap.  Criteria 1, 2, 6, 7 and 8 run the check functions of
koutlab.validate, which hold their tolerances; the quick validate
suites run the same checks at smaller sizes.
"""

import time

from koutlab.bounds import heuristic_giant_lower_bound, mean_degree
from koutlab.experiments import (ExperimentConfig, run_point, run_sweep,
                                 trial_stream)
from koutlab.graph_model import construct_r_type, two_type_params
from koutlab.validate import (check_coupling, check_cut_implication,
                              check_er_fixed_point, check_oracle_agreement,
                              check_union_bound_soundness)

SEED = 20240819


def test_c01_oracle_exactness_against_enumeration():
    t0 = time.perf_counter()
    result = check_oracle_agreement(mus=(0.25, 0.5, 0.75))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: {result.detail}, {elapsed:.1f}s")
    assert result.passed
    assert elapsed < 60.0


def test_c02_cut_range_implication_holds_everywhere():
    t0 = time.perf_counter()
    result = check_cut_implication(graphs=10_000, seed=SEED, point=1)
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: {result.detail}, {elapsed:.1f}s")
    assert result.passed
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
    result = check_er_fixed_point()
    print(f"criterion 6: {result.detail}")
    assert result.passed


def test_c07_union_bound_dominates_empirical_tail():
    t0 = time.perf_counter()
    result = check_union_bound_soundness(trials=1_000_000, seed=SEED, point=7)
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: {result.detail}, {elapsed:.1f}s")
    assert result.passed
    assert elapsed < 180.0


def test_c08_coupling_produces_no_violations():
    t0 = time.perf_counter()
    result = check_coupling(n=500, pairs=10_000, seed=SEED)
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: {result.detail}, {elapsed:.1f}s")
    assert result.passed
    assert elapsed < 60.0


def test_c09_empirical_mean_degree_matches_formula():
    params = two_type_params(2000, 0.9, 2)
    rng = trial_stream(SEED, 9, 0)
    total = 0.0
    trials = 200
    for _ in range(trials):
        total += 2 * construct_r_type(params, rng).edge_count / params.n
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
