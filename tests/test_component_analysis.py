import itertools

import numpy as np
import pytest

from koutlab import ParameterError
from koutlab.component_analysis import (ComponentReport, _reference_sizes,
                                        component_labels,
                                        connected_components,
                                        connected_components_bfs,
                                        cut_range_implication,
                                        has_cut_in_range, is_cut)
from koutlab.experiments import _sizes_per_graph
from koutlab.graph_model import (construct_r_type, delete_random_nodes,
                                 two_type_params)
from koutlab.oracle import exhaustive_event_probability


class HandGraph:
    """Minimal graph view over an explicit edge list, for hand-built cases."""

    def __init__(self, n, edges, deleted=()):
        self.n = n
        dead = set(deleted)
        self.n_effective = n - len(dead)
        self._surv = np.array([i for i in range(n) if i not in dead],
                              dtype=np.int64)
        kept = sorted((min(u, v), max(u, v)) for u, v in edges
                      if u not in dead and v not in dead)
        self._eu = np.array([u for u, _ in kept], dtype=np.int64)
        self._ev = np.array([v for _, v in kept], dtype=np.int64)

    def surviving(self):
        return self._surv

    def edge_arrays(self):
        return self._eu, self._ev

    @property
    def components(self):
        return connected_components(self)


def test_hand_built_component_partition():
    g = HandGraph(6, [(1, 2), (3, 4), (4, 5)])
    report = connected_components(g)
    assert report.component_sizes == (3, 2, 1)
    assert report.cmax == 3
    assert report.outside_count == 3
    assert report.n_effective == 6


def test_component_report_invariants_on_random_graphs():
    rng = np.random.default_rng(14)
    for _ in range(50):
        g = construct_r_type(two_type_params(40, 0.7, 2), rng)
        d = int(rng.integers(0, 20))
        view = delete_random_nodes(g, d, rng)[1] if d else g
        rep = connected_components(view)
        assert sum(rep.component_sizes) == view.n_effective
        assert rep.cmax == max(rep.component_sizes)
        assert rep.outside_count == view.n_effective - rep.cmax
        assert rep.component_sizes == tuple(sorted(rep.component_sizes,
                                                   reverse=True))


def _assert_labels_match(view, u, v):
    # component_labels over raw arcs gives the partition that the BFS
    # reference finds on the view; with labels equal along every arc, no
    # larger than the node they label and fixed by themselves, that makes
    # each label its component's smallest node
    labels = component_labels(view.n, np.asarray(u, dtype=np.int64),
                              np.asarray(v, dtype=np.int64))
    assert np.array_equal(labels[u], labels[v])
    assert (labels <= np.arange(view.n)).all()
    assert np.array_equal(labels[labels], labels)
    counts = np.bincount(labels[view.surviving()], minlength=view.n)
    sizes = tuple(sorted(counts[counts > 0].tolist(), reverse=True))
    assert sizes == connected_components_bfs(view).component_sizes
    return labels


@pytest.mark.parametrize("n,arcs", [
    (6, []),
    (5, [(2, 2), (3, 1), (1, 3), (3, 1), (4, 0)]),  # self, mutual, repeated
    (300, [(i, i - 1) for i in range(299, 0, -1)]),  # a path, hooked from its top
    (200, [(0, i) for i in range(199, 0, -1)]),      # a star on the smallest id
    (200, [(199, i) for i in range(199)]),           # a star on the largest id
    (200, [(i, 0) for i in range(1, 200)]),          # the same stars, ends swapped
    (200, [(i, 199) for i in range(198, -1, -1)]),
])
def test_component_labels_on_hand_built_arcs(n, arcs):
    u = [a for a, _ in arcs]
    v = [b for _, b in arcs]
    _assert_labels_match(HandGraph(n, arcs), u, v)


def test_component_labels_agree_with_bfs_on_random_graphs():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(3, 120))
        g = construct_r_type(two_type_params(n, 0.8, 2), rng)
        d = int(rng.integers(0, n))
        view = delete_random_nodes(g, d, rng)[1] if d else g
        _assert_labels_match(view, *view.edge_arrays())


def _labels_match_on_arcs(n, u, v, deleted=()):
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    view = HandGraph(n, zip(u.tolist(), v.tolist()), deleted)
    return _assert_labels_match(view, u, v)


@pytest.mark.parametrize("length", [18, 66, 300, 100_000])
@pytest.mark.parametrize("rising", [True, False])
@pytest.mark.parametrize("swap", [True, False])
def test_component_labels_on_monotone_chains(length, rising, swap):
    # far deeper than the jumps of one round reach: a path whose arcs come
    # from the low end first or the high end first, ends either way round,
    # with three isolated nodes above it; at 18, 66 and 300 nodes the last
    # arc drops before every node points at the root
    lo = np.arange(length - 1) if rising else np.arange(length - 2, -1, -1)
    u, v = (lo + 1, lo) if swap else (lo, lo + 1)
    _labels_match_on_arcs(length + 3, u, v)


def test_component_labels_on_random_trees_with_permuted_ids():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 400))
        child = np.arange(1, n)
        if rng.random() < 0.5:
            above = rng.integers(0, child)                            # shallow
        else:
            above = np.maximum(child - rng.integers(1, 4, n - 1), 0)  # deep
        keep = rng.random(n - 1) < 0.9                                 # a forest
        ids = rng.permutation(n)
        order = rng.permutation(int(keep.sum()))
        _labels_match_on_arcs(n, ids[child[keep]][order], ids[above[keep]][order])


def test_component_labels_on_disjoint_unions_of_different_depths():
    # graph b of the union sits on nodes b*n..b*n+n-1, as in a trial batch;
    # graph b is a path of b*9 nodes with a random forest hung below it
    rng = np.random.default_rng(5)
    n, graphs = 100, 11
    us, vs, sizes = [], [], []
    for b in range(graphs):
        child = np.arange(1, n)
        above = np.where(child < b * 9, child - 1, rng.integers(0, child))
        keep = rng.random(n - 1) < 0.95
        gu, gv = child[keep], above[keep]
        sizes.append(_reference_sizes(range(n), zip(gu.tolist(), gv.tolist())))
        ids = rng.permutation(n)
        us.append(ids[gu] + b * n)
        vs.append(ids[gv] + b * n)
    u, v = np.concatenate(us), np.concatenate(vs)
    order = rng.permutation(u.size)
    _labels_match_on_arcs(n * graphs, u[order], v[order])
    rows = _sizes_per_graph(n, n * graphs, u, v)
    assert rows.max(axis=1).tolist() == [s[0] for s in sizes]
    assert [tuple(sorted(row[row > 0].tolist(), reverse=True)) for row in rows] == sizes


@pytest.mark.parametrize("n,mu,k,d", [
    (30, 0.5, 2, 0), (30, 0.5, 2, 10), (500, 0.9, 2, 20), (500, 0.99, 2, 0),
    (1000, 0.9, 2, 200), (300, 0.5, 5, 100),
])
def test_component_labels_on_k_out_arcs_without_deleted_ends(n, mu, k, d):
    # the arcs a trial batch labels: every pick, less those with a deleted
    # end, which the batch turns into self-loops
    rng = np.random.default_rng(n + d)
    for _ in range(5):
        g = construct_r_type(two_type_params(n, mu, k), rng)
        u, v = g.arcs
        dead = rng.choice(n, size=d, replace=False)
        alive = np.ones(n, dtype=bool)
        alive[dead] = False
        keep = alive[u] & alive[v]
        labels = _labels_match_on_arcs(n, u[keep], v[keep], dead.tolist())
        assert np.array_equal(labels[dead], dead)
        assert np.array_equal(component_labels(n, u, np.where(keep, v, u)), labels)


def test_component_labels_properties():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 60))
        arcs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  max_size=2 * n))
        u = np.array([a for a, _ in arcs], dtype=np.int64)
        v = np.array([b for _, b in arcs], dtype=np.int64)
        labels = _labels_match_on_arcs(n, u, v)
        order = np.array(data.draw(st.permutations(range(len(arcs)))),
                         dtype=np.int64)
        assert np.array_equal(component_labels(n, u[order], v[order]), labels)
        assert np.array_equal(component_labels(n, v, u), labels)

    check()


def test_connected_components_agree_with_bfs():
    rng = np.random.default_rng(21)
    for _ in range(100):
        g = construct_r_type(two_type_params(35, 0.8, 2), rng)
        d = int(rng.integers(0, 12))
        view = delete_random_nodes(g, d, rng)[1] if d else g
        assert connected_components(view) == connected_components_bfs(view)


@pytest.mark.parametrize("d", [0, 1])
def test_enumerated_sizes_match_the_labeler(d):
    # every edge signature at n=5, and every deletion set: the enumerator's
    # breadth-first sizes against component_labels on the same edges
    checked = 0

    def probe(g):
        nonlocal checked
        view = HandGraph(g.n, g.edges, deleted=g.deleted)
        assert g.component_sizes == connected_components(view).component_sizes
        checked += 1
        return True

    exhaustive_event_probability(5, 0.5, 2, d, probe)
    assert checked > 0


def test_empty_view_is_rejected():
    g = HandGraph(3, [], deleted=(0, 1, 2))
    with pytest.raises(ParameterError):
        connected_components(g)
    with pytest.raises(ParameterError):
        connected_components_bfs(g)


def test_is_cut_on_hand_graph():
    g = HandGraph(6, [(1, 2), (3, 4), (4, 5)])
    assert is_cut(g, {1, 2})            # a whole component
    assert is_cut(g, {0})
    assert is_cut(g, {3, 4, 5})
    assert not is_cut(g, {3, 4})        # proper piece of a component
    assert not is_cut(g, {1})
    assert is_cut(g, {0, 1, 2})         # union of two components


def test_is_cut_validates_subset():
    g = HandGraph(4, [(0, 1), (2, 3)])
    # members are read by the shared reader: named, never truncated
    for bad in (0.5, 2.5, True, "x"):
        with pytest.raises(ParameterError, match="^subset member must be an integer"):
            is_cut(g, [0, bad])
    for member in (1.0, np.int64(1)):
        assert is_cut(g, [0, member]) is is_cut(g, [0, 1]) is True
    # the subset is read as a list: a number or a string of digits is refused
    for bad in (5, "01", b"01", np.int64(0)):
        with pytest.raises(ParameterError, match="^cut subset must be a list, got "):
            is_cut(g, bad)
    with pytest.raises(ParameterError):
        is_cut(g, set())
    with pytest.raises(ParameterError):
        is_cut(g, {0, 1, 2, 3})
    with pytest.raises(ParameterError):
        is_cut(g, {0, 7})
    gd = HandGraph(4, [(0, 1), (2, 3)], deleted=(3,))
    with pytest.raises(ParameterError):
        is_cut(gd, {3})


def test_cut_complement_symmetry_on_random_subsets():
    rng = np.random.default_rng(33)
    g = construct_r_type(two_type_params(24, 0.6, 2), rng)
    nodes = list(range(24))
    for _ in range(1000):
        size = int(rng.integers(1, 24))
        subset = set(rng.choice(nodes, size=size, replace=False).tolist())
        comp = set(nodes) - subset
        assert is_cut(g, subset) == is_cut(g, comp)


def test_whole_components_are_cuts_and_pieces_are_not():
    rng = np.random.default_rng(3)
    g = construct_r_type(two_type_params(30, 0.9, 2), rng)
    rep = connected_components(g)
    eu, ev = g.edge_arrays()
    parent = {}

    def find(i):
        while parent.setdefault(i, i) != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for u, v in zip(eu.tolist(), ev.tolist()):
        parent[find(u)] = find(v)
    groups = {}
    for i in range(30):
        groups.setdefault(find(i), set()).add(i)
    for comp in groups.values():
        if len(comp) < 30:
            assert is_cut(g, comp)
        if 1 < len(comp) < 30:
            assert not is_cut(g, set(itertools.islice(comp, len(comp) - 1)))
    assert rep.component_sizes == tuple(
        sorted((len(c) for c in groups.values()), reverse=True))


def test_has_cut_in_range_on_known_sizes(reads_numbers):
    g = HandGraph(6, [(1, 2), (3, 4), (4, 5)])  # sizes 3, 2, 1
    assert has_cut_in_range(g, 4, 5)            # 3 + 2 = 5, 3 + 1 = 4
    assert has_cut_in_range(g, 1, 1)
    assert has_cut_in_range(g, 2, 3)
    assert not has_cut_in_range(g, 6, 6)        # full set is not a proper cut
    connected = HandGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert not has_cut_in_range(connected, 1, 4)
    with pytest.raises(ParameterError):
        has_cut_in_range(g, 0, 3)
    with pytest.raises(ParameterError):
        has_cut_in_range(g, 3, 2)
    with pytest.raises(ParameterError):
        has_cut_in_range(g, 1, 7)
    reads_numbers(has_cut_in_range, (g, 2, 3), 1, "lo")
    reads_numbers(has_cut_in_range, (g, 2, 3), 2, "hi")


def _brute_force_has_cut(g, lo, hi):
    nodes = g.surviving().tolist()
    eu, ev = g.edge_arrays()
    edges = list(zip(eu.tolist(), ev.tolist()))
    for size in range(1, len(nodes)):
        if not lo <= size <= hi:
            continue
        for subset in itertools.combinations(nodes, size):
            inside = set(subset)
            if all((u in inside) == (v in inside) for u, v in edges):
                return True
    return False


def test_has_cut_in_range_matches_brute_force_enumeration():
    rng = np.random.default_rng(55)
    for _ in range(500):
        n = int(rng.integers(4, 9))
        g = construct_r_type(two_type_params(n, 0.5, 2), rng)
        d = int(rng.integers(0, n - 2))
        view = delete_random_nodes(g, d, rng)[1] if d else g
        n_eff = view.n_effective
        lo = int(rng.integers(1, n_eff + 1))
        hi = int(rng.integers(lo, n_eff + 1))
        assert has_cut_in_range(view, lo, hi) == _brute_force_has_cut(view, lo, hi)


def test_cut_range_implication_cases(reads_numbers):
    connected = HandGraph(9, [(i, i + 1) for i in range(8)]).components.component_sizes
    rec = cut_range_implication(connected, 3)
    assert rec.no_mid_cut and rec.giant_exceeds and rec.holds

    # sizes (25, 5): the size-5 component is a cut inside [4, 26], so the
    # antecedent fails and the implication holds vacuously
    edges = [(i, i + 1) for i in range(24)] + [(i, i + 1) for i in range(25, 29)]
    split = HandGraph(30, edges)
    rec = cut_range_implication(split.components.component_sizes, 4)
    assert not rec.no_mid_cut
    assert rec.holds
    # sizes in any order, with the zeros of a batched row, read the same
    assert cut_range_implication([0, 5, 0, 25, 0], 4) == rec
    rec = cut_range_implication([1, 0, 1, 28], 4)  # the largest need not come first
    assert rec.no_mid_cut and rec.giant_exceeds and rec.holds

    with pytest.raises(ParameterError):
        cut_range_implication(connected, 4)  # x above floor(n/3)
    with pytest.raises(ParameterError):
        cut_range_implication(connected, 0)
    for bad in (5, "255", None):
        with pytest.raises(ParameterError, match="^sizes must be a list, got "):
            cut_range_implication(bad, 1)
    reads_numbers(cut_range_implication, ([25, 5], 4), 1, "x")
    reads_numbers(lambda size, x: cut_range_implication([25, size], x), (5, 4), 0, "sizes entry")


def test_cut_range_implication_never_fails_on_random_graphs():
    rng = np.random.default_rng(101)
    for _ in range(300):
        g = construct_r_type(two_type_params(30, 0.5, 2), rng)
        for x in range(1, 11):
            assert cut_range_implication(g.components.component_sizes, x).holds


def test_component_report_equality_is_structural():
    assert ComponentReport((3, 2), 3, 2) == ComponentReport((3, 2), 3, 2)
    assert ComponentReport((3, 2), 3, 2) != ComponentReport((3, 1), 3, 2)
