"""Self-check suites runnable from the CLI.

quick: exhaustive-oracle agreement on tiny graphs, structural
invariants (cut implications, coupling, the component labeler against
its breadth-first reference, solver residuals, geometric ratios), and
fast statistical checks of the union bound, with and without
deletions.  full: adds the 10^5-trial statistical suites, including
the large-sweep largest-component gate.

The check_* functions are the single home of acceptance criteria 1, 2,
3, 6, 7 and 8: each takes its sizes and seeds (criterion 3 takes the
cmax array its caller drew), holds the criterion's comparisons and
tolerances, and returns a SuiteResult whose detail carries the measured
figures.  run_suites calls them at quick sizes (criterion 3 only in
the full suites); tests/test_acceptance.py calls them at the
acceptance sizes.  check_log_direct is likewise the one home of the
oracle's log-vs-direct agreement, for the quick suite and the tests.

Suites either pass or fail; statistical checks may also attach flags
for marginal observations that do not constitute failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, sqrt

import numpy as np

from .bounds import (deleted_tail_bound, deleted_tail_bound_alt, er_giant_fraction,
                     mean_selections, r_class_tail_bound, tail_bound)
from .errors import ParameterError
from .component_analysis import (connected_components, connected_components_bfs,
                                 cut_range_implication)
from .experiments import _batch_sizes, collect_cmax, coupling_experiment, key_batches, trial_stream
from .graph_model import GraphParams, construct_r_type, delete_random_nodes, two_type_params
from .oracle import (exact_cut_probability, exact_cut_probability_deleted,
                     exhaustive_event_probability, union_bound_sum, union_bound_sum_deleted)

_SEED = 20240817


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    flags: tuple = ()


def check_oracle_agreement(mus=(0.5,)) -> SuiteResult:
    """Closed-form cut probabilities equal exhaustive enumeration (C01)."""
    worst = 0.0
    checked = 0
    for n in (4, 5, 6):
        for k in (2, 3):
            if k >= n:
                continue
            for mu in mus:
                for d in (0, 1):
                    for r in range(1, n - d):
                        s = frozenset(range(r))
                        if d == 0:
                            enum = exhaustive_event_probability(
                                n, mu, k, 0, lambda g: g.is_cut(s))
                            closed = exact_cut_probability(n, mu, k, r)
                        else:
                            joint = exhaustive_event_probability(
                                n, mu, k, d,
                                lambda g: not (s & g.deleted) and g.is_cut(s))
                            enum = joint * comb(n, d) / comb(n - r, d)
                            closed = exact_cut_probability_deleted(n, mu, k, d, r)
                        worst = max(worst, abs(closed - enum))
                        checked += 1
    return SuiteResult(
        name="oracle-agreement",
        passed=worst <= 1e-12,
        detail=f"{checked} grid points, worst |closed - enum| = {worst:.3e}",
    )


def check_cut_implication(graphs, seed, point) -> SuiteResult:
    """No mid-range cut implies a large component, on random graphs (C02).

    Graph t is trial t of (seed, point), sized in batches (key_batches).
    """
    params = two_type_params(30, 0.5, 2)
    rng = np.random.Generator(np.random.Philox(0))  # rekeyed before every graph
    bad = 0
    for keys in key_batches(seed, point, 0, graphs, params.n):
        for sizes in _batch_sizes(params, 0, rng, keys).tolist():
            bad += sum(not cut_range_implication(sizes, x).holds for x in range(1, 11))
    return SuiteResult(
        name="cut-range-implication",
        passed=bad == 0,
        detail=f"{graphs} graphs x 10 thresholds, {bad} violations",
    )


# criterion 3's sweep point: n=1000, mu=0.9, K=2, no deletions
OUTSIDE_GATE_PARAMS = two_type_params(1000, 0.9, 2)


def check_outside_gate(cm) -> SuiteResult:
    """No trial leaves more than 90 nodes outside its largest component (C03).

    cm holds the cmax of each trial at OUTSIDE_GATE_PARAMS.
    """
    worst_outside = OUTSIDE_GATE_PARAMS.n - int(cm.min())
    return SuiteResult(
        name="large-run-outside-gate",
        passed=worst_outside <= 90,
        detail=f"n=1000 mu=0.9 K=2, {cm.size} trials, max outside = {worst_outside}",
    )


def check_coupling(n, pairs, seed) -> SuiteResult:
    """Coupled extensions keep every edge and never shrink cmax (C08)."""
    target = GraphParams(n, (0.5, 0.3, 0.2), (1, 2, 4))
    rep = coupling_experiment(target, pairs, seed=seed)
    ok = rep.edge_superset_violations == 0 and rep.cmax_violations == 0
    return SuiteResult(
        name="coupling-monotonicity",
        passed=ok,
        detail=(f"{rep.trials} coupled pairs, {rep.edge_superset_violations} edge "
                f"violations, {rep.cmax_violations} cmax violations"),
    )


def _suite_dual_components() -> SuiteResult:
    """The component labeler and its BFS reference agree, with deletions.
    Case t draws from trial t of (_SEED + 1, point 0)."""
    mismatches = 0
    cases = 200
    for t in range(cases):
        rng = trial_stream(_SEED + 1, 0, t)
        n = int(rng.integers(3, 41))
        k = int(rng.integers(2, min(n, 5)))
        mu = float(rng.uniform(0.1, 0.9))
        g = construct_r_type(two_type_params(n, mu, k), rng)
        if rng.random() < 0.5:
            g = delete_random_nodes(g, int(rng.integers(0, n)), rng)[1]
        mismatches += connected_components(g) != connected_components_bfs(g)
    return SuiteResult(
        name="dual-component-algorithms",
        passed=mismatches == 0,
        detail=f"labeler vs BFS reference, {cases} random graphs, {mismatches} mismatches",
    )


def check_er_fixed_point() -> SuiteResult:
    """The ER giant fraction solves its fixed point, and beta(2.2) = 0.8437 (C06)."""
    worst = 0.0
    for c in (1.1, 2.2, 5.0):
        beta = er_giant_fraction(c)
        worst = max(worst, abs(beta + exp(-beta * c) - 1.0))
    b22 = er_giant_fraction(2.2)
    ok = worst < 1e-10 and abs(b22 - 0.8437) < 5e-4
    return SuiteResult(
        name="er-fixed-point",
        passed=ok,
        detail=f"beta(2.2) = {b22:.6f}, worst residual = {worst:.2e}",
    )


def _suite_geometric_ratios() -> SuiteResult:
    """Each closed-form tail shrinks by its exact geometric ratio."""
    worst = 0.0
    for mu, k in ((0.5, 2), (0.9, 2), (0.3, 5)):
        rate = mean_selections(mu, k) - 1.0
        for m in (1, 5, 20):
            ratio = tail_bound(mu, k, m + 1).value / tail_bound(mu, k, m).value
            worst = max(worst, abs(ratio - exp(-rate)))
        two = r_class_tail_bound((mu, 1.0 - mu), (1, k), 7).value
        worst = max(worst, abs(two - tail_bound(mu, k, 7).value))
    for x in (45, 60):  # above the alt threshold (1+eps)*d/(1-mu) = 40
        full = deleted_tail_bound(0.5, 3, d=10, x=x, eps=1.0).value
        alt = deleted_tail_bound_alt(0.5, d=10, x=x, eps=1.0).value
        if alt > full:
            worst = max(worst, alt - full)
    return SuiteResult(
        name="geometric-ratios",
        passed=worst < 1e-12,
        detail=f"worst deviation {worst:.2e}",
    )


def check_log_direct() -> SuiteResult:
    """Log-domain and direct float64 oracle evaluation agree to 1e-9."""
    worst = 0.0
    for n in (10, 50, 200):
        for mu in (0.25, 0.75):
            for k in (2, 3):
                for r in (1, 2, n // 3, n // 2):
                    a = exact_cut_probability(n, mu, k, r, mode="log")
                    b = exact_cut_probability(n, mu, k, r, mode="direct")
                    if b > 0:
                        worst = max(worst, abs(a - b) / b)
                ub_l = union_bound_sum(n, mu, k, 2, mode="log")
                ub_d = union_bound_sum(n, mu, k, 2, mode="direct")
                if ub_d.raw_sum > 0:
                    worst = max(worst, abs(ub_l.raw_sum - ub_d.raw_sum) / ub_d.raw_sum)
    return SuiteResult(
        name="log-vs-direct-arithmetic",
        passed=worst < 1e-9,
        detail=f"worst relative difference {worst:.2e}",
    )


def _tail_check(cm, n_eff, mu, k, trials, m_lo=5):
    """Compare empirical P[outside >= M] with the closed-form tail.

    Returns (fail_list, flag_list): beyond 5 sigma fails, between 4 and
    5 sigma flags only (the dropped o(1) terms favor the bound, so a
    marginal excursion is worth a look but not a failure).
    """
    outside = n_eff - cm
    fails, flags = [], []
    m_hi = int(outside.max()) + 2
    for m in range(m_lo, max(m_lo + 1, m_hi)):
        emp = float((outside >= m).mean())
        if emp == 0.0:
            break
        bound = min(1.0, tail_bound(mu, k, m).value)
        sigma = sqrt(emp * (1.0 - emp) / trials)
        if emp > bound + 5 * sigma:
            fails.append(f"M={m}: empirical {emp:.3g} > bound {bound:.3g} + 5 sigma")
        elif emp > bound + 4 * sigma:
            flags.append(f"M={m}: empirical {emp:.3g} within (4,5] sigma of bound {bound:.3g}")
    return fails, flags


def check_union_bound_soundness(trials, seed, point, d=0) -> SuiteResult:
    """Union-bound sums dominate the simulated small-component tail (C07).

    P[n-d-cmax >= x] may exceed union_bound_sum_deleted(n, mu, K, d, x)
    by at most 4 binomial sigma, at n=30, mu=0.5, K=2 with d random
    deletions: for x = 2..8 at d=0, and for 1 <= x <= (n-d)/3 at d > 0,
    where x or more nodes outside the largest component make a cut of
    size in [x, n-d-x].  Runs on one worker.
    """
    n, mu, k = 30, 0.5, 2
    cm = collect_cmax(two_type_params(n, mu, k), d, trials, seed,
                      point_index=point, workers=1)
    rows = []
    ok = True
    for x in range(2, 9) if d == 0 else range(1, (n - d) // 3 + 1):
        p_hat = float((n - d - cm >= x).mean())
        bound = union_bound_sum_deleted(n, mu, k, d, x).value  # union_bound_sum at d=0
        sigma = sqrt(p_hat * (1.0 - p_hat) / trials)
        within = p_hat <= bound + 4 * sigma
        ok = ok and within
        rows.append(f"{'M' if d == 0 else 'x'}={x}: {p_hat:.2e} {'<=' if within else '>'} "
                    f"{bound:.2e}+4*{sigma:.1e}")
    return SuiteResult(
        name="union-bound-soundness" if d == 0 else "deleted-union-bound-soundness",
        passed=ok,
        detail=f"{trials} trials at n={n}" + (f" d={d}" if d else "") + ": " + ", ".join(rows),
    )


def _suites_statistical_full() -> list:
    """10^5-trial suites: large-sweep gate plus desk-scale tail checks."""
    trials = 100_000
    results = []

    cm1000 = collect_cmax(OUTSIDE_GATE_PARAMS, 0, trials, _SEED + 3)
    results.append(check_outside_gate(cm1000))

    fails, flags = _tail_check(cm1000, 1000, 0.9, 2, trials)
    cm200 = collect_cmax(two_type_params(200, 0.9, 2), 0, trials, _SEED + 4)
    f2, fl2 = _tail_check(cm200, 200, 0.9, 2, trials)
    fails += f2
    flags += fl2
    results.append(SuiteResult(
        name="desk-scale-tail-dominance",
        passed=not fails,
        detail=("; ".join(fails) if fails
                else f"closed-form tails dominate at n in (200, 1000), {trials} trials"),
        flags=tuple(flags),
    ))
    return results


def run_suites(level="quick") -> list:
    """Run the validation suites; returns a list of SuiteResult."""
    if level not in ("quick", "full"):
        raise ParameterError("level must be 'quick' or 'full'")
    results = [
        check_oracle_agreement(),
        check_cut_implication(graphs=1000, seed=_SEED, point=1),
        check_coupling(n=200, pairs=1000, seed=_SEED),
        _suite_dual_components(),
        check_er_fixed_point(),
        _suite_geometric_ratios(),
        check_log_direct(),
        check_union_bound_soundness(trials=20_000, seed=_SEED + 2, point=0),
        check_union_bound_soundness(trials=20_000, seed=_SEED + 2, point=1, d=1),
    ]
    if level == "full":
        results.extend(_suites_statistical_full())
    return results
