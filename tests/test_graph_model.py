import itertools
import math

import numpy as np
import pytest

from koutlab import ParameterError
from koutlab.graph_model import (GraphParams, _class_counts, class_nodes, construct_r_type,
                                 couple_extend, delete_random_nodes, draw_trial, two_type_params,
                                 union_arcs, validate_type_distribution)


def selections(g):
    """Every node's picks, sorted, nodes in order, read from the graph's arcs."""
    src, dst = g.arcs
    order = np.lexsort((dst, src))
    return np.split(dst[order], np.cumsum(np.bincount(src, minlength=g.n))[:-1])


def test_params_validation_rejects_bad_inputs(reads_numbers):
    with pytest.raises(ParameterError):
        two_type_params(1, 0.5, 2)  # too few nodes
    with pytest.raises(ParameterError):
        two_type_params(10, 0.0, 2)  # mu must be strictly inside (0, 1)
    with pytest.raises(ParameterError):
        two_type_params(10, 1.0, 2)
    with pytest.raises(ParameterError):
        two_type_params(10, 0.5, 1)  # heavy class must select >= 2
    with pytest.raises(ParameterError):
        two_type_params(10, 0.5, 10)  # K must stay below n
    with pytest.raises(ParameterError):
        GraphParams(n=10, type_probs=(0.5, 0.5), type_selections=(2, 2))
    with pytest.raises(ParameterError):
        GraphParams(n=10, type_probs=(0.5, 0.5), type_selections=(3, 2))
    with pytest.raises(ParameterError):
        GraphParams(n=10, type_probs=(0.6, 0.5), type_selections=(1, 2))
    with pytest.raises(ParameterError):
        GraphParams(n=10, type_probs=(1.0,), type_selections=(2,))
    # each vector is read as a list: a number or a string is refused by name
    for probs, sels, name in [(0.5, (1, 2), "type_probs"), ((0.5, 0.5), 2, "type_selections"),
                              ("ab", (1, 2), "type_probs"),
                              ((0.5, 0.5), b"12", "type_selections")]:
        with pytest.raises(ParameterError, match=f"^{name} must be a list, got "):
            GraphParams(10, probs, sels)
    for index, name in enumerate(["n", "mu", "k"]):
        reads_numbers(two_type_params, (10, 0.5, 2), index, name, name != "mu")
    reads_numbers(GraphParams, (10, (0.5, 0.5), (1, 2)), 0, "n")
    reads_numbers(lambda p: validate_type_distribution((0.5, p), (1, 2)), (0.5,), 0,
                  "type_probs entry", False)
    reads_numbers(lambda k: validate_type_distribution((0.5, 0.5), (1, k)), (2,), 0,
                  "type_selections entry")


@pytest.mark.parametrize("probs", [(math.nan, 0.5), (0.5, math.nan),
                                   (math.inf, 0.5), (0.5, -math.inf)])
def test_params_validation_rejects_non_finite_probabilities(probs):
    with pytest.raises(ParameterError, match="finite"):
        GraphParams(n=30, type_probs=probs, type_selections=(1, 2))


def test_params_accepts_probabilities_within_tolerance():
    p = GraphParams(n=10, type_probs=(0.1, 0.2, 0.7 + 1e-13),
                    type_selections=(1, 2, 3))
    assert p.r == 3
    assert math.isclose(p.mean_selections, 0.1 + 0.4 + 2.1, rel_tol=1e-9)


def test_mean_selections_property():
    assert two_type_params(100, 0.9, 2).mean_selections == pytest.approx(1.1)
    assert two_type_params(100, 0.5, 4).mean_selections == pytest.approx(2.5)


def test_selection_sets_respect_construction_invariants():
    params = GraphParams(n=50, type_probs=(0.5, 0.3, 0.2),
                         type_selections=(1, 2, 4))
    for seed in range(25):
        g = construct_r_type(params, np.random.default_rng(seed))
        for i, sel in enumerate(selections(g)):
            assert len(sel) == params.type_selections[g.node_types[i]]
            assert i not in sel
            assert len(set(sel.tolist())) == len(sel)
            assert all(0 <= j < params.n for j in sel.tolist())


def test_adjacency_matches_selection_relation():
    params = two_type_params(40, 0.5, 3)
    g = construct_r_type(params, np.random.default_rng(7))
    sel = [set(s.tolist()) for s in selections(g)]
    eu, ev = g.edge_arrays()
    edges = set(zip(eu.tolist(), ev.tolist()))
    for i in range(params.n):
        for j in range(i + 1, params.n):
            assert ((i, j) in edges) == ((j in sel[i]) or (i in sel[j]))


def test_edges_are_sorted_unique_upper_pairs():
    g = construct_r_type(two_type_params(60, 0.5, 2), np.random.default_rng(3))
    eu, ev = g.edge_arrays()
    assert (eu < ev).all()
    keys = eu.astype(np.int64) * g.n + ev
    assert (np.diff(keys) > 0).all()
    assert g.edge_count == eu.size


def test_minimum_degree_is_at_least_one():
    for seed in range(20):
        g = construct_r_type(two_type_params(30, 0.9, 2),
                             np.random.default_rng(seed))
        eu, ev = g.edge_arrays()
        assert np.union1d(eu, ev).size == g.n  # every node is an edge endpoint


def test_three_nodes_with_k_two_is_always_connected():
    # with n=3 every selection reaches one of the other two nodes and a
    # heavy node grabs both, so the graph cannot split
    from koutlab.component_analysis import connected_components

    params = two_type_params(3, 0.5, 2)
    for seed in range(30):
        g = construct_r_type(params, np.random.default_rng(seed))
        assert connected_components(g).cmax == 3


def test_type_assignment_frequency():
    params = two_type_params(100_000, 0.9, 2)
    light = class_nodes(params, np.random.default_rng(11).random(params.n))[0]
    frac_light = light.size / params.n
    assert abs(frac_light - 0.9) < 0.005


def test_class_nodes_is_the_clipped_bin_search():
    params = GraphParams(n=5, type_probs=(0.1, 0.2, 0.3, 0.4), type_selections=(1, 2, 3, 4))
    cum = params.cum_probs
    x = np.concatenate([np.random.default_rng(4).random(2000), cum, np.nextafter(cum, 0),
                        [0.0, np.nextafter(1.0, 0)]])
    want = np.minimum(np.searchsorted(cum, x, side="right"), params.r - 1)
    for got in (class_nodes(params, x), class_nodes(params, x.reshape(2, -1))):
        assert len(got) == params.r
        assert all(np.array_equal(got[t], np.flatnonzero(want == t)) for t in range(params.r))
    # construct_r_type's node types are the same bins of its draw's uniforms
    for seed in range(20):
        x, _ = draw_trial(params, np.random.default_rng(seed))
        types = construct_r_type(params, np.random.default_rng(seed)).node_types
        assert types.dtype == np.int64
        assert np.array_equal(types, np.minimum(np.searchsorted(cum, x, side="right"),
                                                params.r - 1))


@pytest.mark.parametrize("params", [
    two_type_params(30, 0.5, 2),
    two_type_params(30, 0.99, 2),
    GraphParams(n=30, type_probs=(0.5, 0.3, 0.2), type_selections=(1, 2, 4)),
], ids=["mu50", "mu99", "3-class"])
def test_class_counts_keep_the_bin_rule_at_every_edge(params):
    # _class_counts sizes the classes of class_nodes for uniforms exactly on
    # each inner edge, one ulp below it and one ulp above it; a uniform on
    # edge t is of class t + 1
    rng = np.random.default_rng(6)
    for t, edge in enumerate(params.cum_probs[:-1]):
        for u, cls in ((np.nextafter(edge, 0), t), (edge, t + 1), (np.nextafter(edge, 1), t + 1)):
            same = np.full(params.n, u)
            assert _class_counts(params, same) == [params.n if c == cls else 0
                                                   for c in range(params.r)]
            mixed = np.where(rng.random(params.n) < 0.5, u, rng.random(params.n))
            for x in (same, mixed):
                assert _class_counts(params, x) == [c.size for c in class_nodes(params, x)]


def _class_by_class(params, rng):
    # the reference draw: types, then for each class one integers call of
    # shifted picks, redrawn row by row until each row is distinct
    n = params.n
    types = np.minimum(np.searchsorted(params.cum_probs, rng.random(n), side="right"),
                       params.r - 1)
    picks = {}
    for t, k in enumerate(params.type_selections):
        members = np.flatnonzero(types == t)
        if members.size == 0:
            continue
        sel = rng.integers(0, n - 1, size=(members.size, k))
        sel += sel >= members[:, None]
        while True:
            bad = [i for i, row in enumerate(sel) if len(set(row.tolist())) < k]
            if not bad:
                break
            redo = rng.integers(0, n - 1, size=(len(bad), k))
            redo += redo >= members[bad][:, None]
            sel[bad] = redo
        picks.update(zip(members.tolist(), np.sort(sel, axis=1)))
    return types, [picks[i] for i in range(n)]


@pytest.mark.parametrize("params", [
    two_type_params(30, 0.5, 2),
    two_type_params(12, 0.5, 6),  # most rows are redrawn
    GraphParams(n=40, type_probs=(0.5, 0.3, 0.2), type_selections=(1, 2, 4)),
    GraphParams(n=9, type_probs=(0.05, 0.05, 0.9), type_selections=(1, 2, 3)),  # empty classes
    GraphParams(n=25, type_probs=(0.4, 0.6), type_selections=(2, 3)),  # no single-pick class
])
def test_construction_draws_the_class_by_class_stream(params):
    for seed in range(60):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        g = construct_r_type(params, rng)
        types, picks = _class_by_class(params, ref)
        assert np.array_equal(g.node_types, types)
        assert all(np.array_equal(s, p) for s, p in zip(selections(g), picks, strict=True))
        # both leave the stream at the same place
        assert rng.integers(0, 1 << 30) == ref.integers(0, 1 << 30)


def test_graph_keeps_its_classes_as_ascending_node_lists():
    three = GraphParams(n=50, type_probs=(0.5, 0.3, 0.2), type_selections=(1, 2, 4))
    rng = np.random.default_rng(21)
    g2 = construct_r_type(two_type_params(50, 0.8, 4), rng)
    graphs = [
        construct_r_type(two_type_params(30, 0.5, 2), rng),
        construct_r_type(GraphParams(20, (0.4, 0.3, 0.3), (2, 3, 19)), rng),  # column-filled
        construct_r_type(three, rng),
        delete_random_nodes(construct_r_type(three, rng), 7, rng)[1],
        couple_extend(g2, three, rng),
    ]
    for g in graphs:
        r = g.params.r
        assert len(g.classes) == r
        assert all(np.all(np.diff(nodes) > 0) for nodes in g.classes)
        assert np.array_equal(np.sort(np.concatenate(g.classes)), np.arange(g.n))
        assert g.node_types.dtype == np.int64
        assert all(np.all(g.node_types[nodes] == t) for t, nodes in enumerate(g.classes))
        # the arcs the node types would give, class lists read off them
        nodes = [np.flatnonzero(g.node_types == t) for t in range(r)]
        for got, want in zip(g.arcs, union_arcs(g.params, nodes, g.blocks), strict=True):
            assert np.array_equal(got, want)


def test_selection_probability_matches_mean_over_ordered_pairs():
    # P[j in selections of i] = <K>/(n-1); >= 1e6 ordered pairs
    params = two_type_params(100, 0.9, 2)
    n = params.n
    p = params.mean_selections / (n - 1)
    draws = 110  # 110 * 100 * 99 ordered pairs
    hits = 0
    rng = np.random.default_rng(42)
    for _ in range(draws):
        g = construct_r_type(params, rng)
        hits += sum(len(s) for s in selections(g))
    pairs = draws * n * (n - 1)
    sigma = math.sqrt(p * (1 - p) / pairs)
    assert abs(hits / pairs - p) < 3 * sigma


def test_fixed_pair_adjacency_probability():
    # P[0 ~ 1] = 2<K>/(n-1) - (<K>/(n-1))^2
    params = two_type_params(10, 0.5, 2)
    q = params.mean_selections / (params.n - 1)
    p = 2 * q - q * q
    n, trials = params.n, 100_000
    rng = np.random.default_rng(5)
    xs, blocks = zip(*(draw_trial(params, rng) for _ in range(trials)))
    nodes = class_nodes(params, np.stack(xs))
    u, v = union_arcs(params, nodes, [np.concatenate(c) for c in zip(*blocks)],
                      np.stack([np.bincount(c // n, minlength=trials) for c in nodes], axis=1))
    pair = u % n + v % n == 1  # an arc 0->1 or 1->0 within its draw
    hits = np.unique(u[pair] // n).size
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 4 * sigma


def test_deletion_of_zero_nodes_is_identity():
    g = construct_r_type(two_type_params(25, 0.5, 2), np.random.default_rng(9))
    nodes, view = delete_random_nodes(g, 0, np.random.default_rng(1))
    assert nodes == ()
    assert view.n_effective == g.n
    assert np.array_equal(np.stack(view.edge_arrays()),
                          np.stack(g.edge_arrays()))


def test_deletion_leaves_single_survivor_at_maximum_d():
    g = construct_r_type(two_type_params(12, 0.5, 2), np.random.default_rng(2))
    nodes, view = delete_random_nodes(g, 11, np.random.default_rng(4))
    assert view.n_effective == 1
    assert view.surviving().size == 1
    eu, _ = view.edge_arrays()
    assert eu.size == 0
    assert len(nodes) == 11


def test_deletion_validates_range_and_keeps_base_intact(reads_numbers):
    g = construct_r_type(two_type_params(10, 0.5, 2), np.random.default_rng(6))
    before = g.edge_count
    with pytest.raises(ParameterError):
        delete_random_nodes(g, 10, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        delete_random_nodes(g, -1, np.random.default_rng(0))
    nodes, view = delete_random_nodes(g, 4, np.random.default_rng(0))
    assert g.edge_count == before  # base graph untouched
    assert len(nodes) == 4
    assert all(0 <= x < g.n for x in nodes)
    assert list(nodes) == sorted(nodes) and view.deleted == frozenset(nodes)
    surv = set(view.surviving().tolist())
    assert surv.isdisjoint(nodes)
    assert len(surv) == 6
    eu, ev = view.edge_arrays()
    assert all(u in surv and v in surv for u, v in zip(eu.tolist(), ev.tolist()))
    with pytest.raises(ParameterError, match="already has deleted nodes"):
        delete_random_nodes(view, 1, np.random.default_rng(1))
    # each call draws from a fresh generator, so equal reads give equal deletions
    reads_numbers(lambda g, d: delete_random_nodes(g, d, np.random.default_rng(0)), (g, 4), 1,
                  "d", same=lambda a, b: a[0] == b[0] and a[1].deleted == b[1].deleted)


_P10 = two_type_params(10, 0.5, 2)
_BASE10 = GraphParams(n=10, type_probs=(0.8, 0.2), type_selections=(1, 4))
_TARGET10 = GraphParams(n=10, type_probs=(0.5, 0.3, 0.2), type_selections=(1, 2, 4))


# (id, call of g, a graph of _P10, and g2, a graph of _BASE10) with an rng that is
# not a Generator: an int seed or None is refused, not handed to numpy
_REFUSED_RNGS = [
    ("construct-negative", lambda g, g2: construct_r_type(_P10, -1)),
    ("construct-int", lambda g, g2: construct_r_type(_P10, 7)),
    ("construct-none", lambda g, g2: construct_r_type(_P10, None)),
    ("delete-int", lambda g, g2: delete_random_nodes(g, 3, 0)),
    ("couple-str", lambda g, g2: couple_extend(g2, _TARGET10, "x")),
    ("couple-two-class-target", lambda g, g2: couple_extend(g2, _BASE10, 1)),
]


@pytest.mark.parametrize("call", [call for _, call in _REFUSED_RNGS],
                         ids=[name for name, _ in _REFUSED_RNGS])
def test_per_graph_functions_take_only_a_generator(call):
    g = construct_r_type(_P10, np.random.default_rng(1))
    g2 = construct_r_type(_BASE10, np.random.default_rng(2))
    with pytest.raises(ParameterError, match=r"^rng must be a numpy\.random\.Generator, got "):
        call(g, g2)


def test_coupling_output_contains_base_edges():
    target = GraphParams(n=200, type_probs=(0.5, 0.3, 0.2),
                         type_selections=(1, 2, 4))
    base = GraphParams(n=200, type_probs=(0.8, 0.2), type_selections=(1, 4))
    for seed in range(30):
        rng = np.random.default_rng(seed)
        g2 = construct_r_type(base, rng)
        ext = couple_extend(g2, target, rng)
        bu, bv = g2.edge_arrays()
        base_edges = set(zip(bu.tolist(), bv.tolist()))
        eu, ev = ext.edge_arrays()
        ext_edges = set(zip(eu.tolist(), ev.tolist()))
        assert base_edges <= ext_edges
        # carried-over selections keep their size; reassigned ones grow
        for i, sel in enumerate(selections(ext)):
            assert len(sel) == target.type_selections[ext.node_types[i]]
            assert i not in sel


def test_coupling_with_two_class_target_is_identity():
    base = GraphParams(n=50, type_probs=(0.7, 0.3), type_selections=(1, 3))
    rng = np.random.default_rng(8)
    g2 = construct_r_type(base, rng)
    assert couple_extend(g2, base, rng) is g2


def test_coupling_rejects_mismatched_base():
    target = GraphParams(n=50, type_probs=(0.5, 0.3, 0.2),
                         type_selections=(1, 2, 4))
    wrong_mix = GraphParams(n=50, type_probs=(0.7, 0.3), type_selections=(1, 4))
    wrong_k = GraphParams(n=50, type_probs=(0.8, 0.2), type_selections=(1, 3))
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        couple_extend(construct_r_type(wrong_mix, rng), target, rng)
    with pytest.raises(ParameterError):
        couple_extend(construct_r_type(wrong_k, rng), target, rng)
    base = GraphParams(n=50, type_probs=(0.8, 0.2), type_selections=(1, 4))
    _, view = delete_random_nodes(construct_r_type(base, rng), 3, rng)
    with pytest.raises(ParameterError, match="without deleted nodes"):
        couple_extend(view, target, rng)


def test_coupling_reproduces_target_type_frequencies():
    n = 100_000
    target = GraphParams(n=n, type_probs=(0.5, 0.3, 0.2),
                         type_selections=(1, 2, 4))
    base = GraphParams(n=n, type_probs=(0.8, 0.2), type_selections=(1, 4))
    rng = np.random.default_rng(77)
    g2 = construct_r_type(base, rng)
    ext = couple_extend(g2, target, rng)
    counts = np.bincount(ext.node_types, minlength=3) / n
    for got, want in zip(counts, target.type_probs):
        assert abs(got - want) < 0.01


def test_coupling_extension_draws_uniform_selection_sets():
    # a class-1 node's three picks, taken relative to it, are uniform over
    # the C(5, 3) = 10 subsets of {1..5}, whatever pick it kept from g2
    target = GraphParams(n=6, type_probs=(0.5, 0.3, 0.2), type_selections=(1, 3, 5))
    base = two_type_params(6, 0.8, 5)
    rng = np.random.default_rng(21)
    counts = np.zeros(1 << 6, dtype=np.int64)
    for _ in range(5000):
        ext = couple_extend(construct_r_type(base, rng), target, rng)
        rows = np.flatnonzero(ext.node_types == 1)
        sels = selections(ext)
        sel = np.array([sels[i] for i in rows], dtype=np.int64).reshape(-1, 3)
        offsets = (sel - rows[:, None]) % 6
        np.add.at(counts, (1 << offsets).sum(axis=1), 1)
    cells = [sum(1 << j for j in c) for c in itertools.combinations(range(1, 6), 3)]
    total = counts.sum()
    assert counts[cells].sum() == total
    p = 1 / len(cells)
    z = (counts[cells] - total * p) / math.sqrt(total * p * (1 - p))
    assert np.abs(z).max() < 5, z


def test_rarely_distinct_rows_are_filled_column_by_column():
    # a whole row of 19 distinct picks out of 19 has probability ~6e-8, so
    # class 2 must not be redrawn row by row; every class-2 node picks all
    params = GraphParams(n=20, type_probs=(0.4, 0.3, 0.3), type_selections=(2, 3, 19))
    assert params._fills_columns == (False, False, True)
    for seed in range(20):
        g = construct_r_type(params, np.random.default_rng(seed))
        sels = selections(g)
        for i in np.flatnonzero(g.node_types == 2).tolist():
            assert sels[i].tolist() == [j for j in range(20) if j != i]


def test_column_fill_is_uniform_over_subsets():
    # n=14, K=12: whole rows are distinct with probability ~2.7e-4, so the
    # column fill draws them; each of the 13 subsets leaves out one offset
    params = two_type_params(14, 0.1, 12)
    assert params._fills_columns == (False, True)
    rng = np.random.default_rng(17)
    counts = np.zeros(14, dtype=np.int64)
    for _ in range(1500):
        g = construct_r_type(params, rng)
        rows = np.flatnonzero(g.node_types == 1)
        sels = selections(g)
        sel = np.array([sels[i] for i in rows], dtype=np.int64).reshape(-1, 12)
        offsets = (sel - rows[:, None]) % 14  # 12 of 1..13, which sum to 91
        np.add.at(counts, 91 - offsets.sum(axis=1), 1)
    assert counts[0] == 0
    total = counts.sum()
    p = 1 / 13
    z = (counts[1:] - total * p) / math.sqrt(total * p * (1 - p))
    assert np.abs(z).max() < 5, z


def test_r_type_empirical_mean_degree():
    # 2 * (0.5*1 + 0.3*2 + 0.2*4) = 3.8 up to the O(1/n) correction
    params = GraphParams(n=2000, type_probs=(0.5, 0.3, 0.2),
                         type_selections=(1, 2, 4))
    rng = np.random.default_rng(31)
    total = 0.0
    trials = 200
    for _ in range(trials):
        total += 2 * construct_r_type(params, rng).edge_count / params.n
    assert abs(total / trials - 3.8) < 0.05
