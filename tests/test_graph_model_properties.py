"""Property tests of the sampler's repeat test and of the batch's arcs.

graph_model._rows_with_repeats marks the rows of raw picks that hold a
value twice: from a bitmask of each row's picks at n <= 65, where every
raw pick is below 64, and by sorting the rows above that.  Cases draw
rows of width 2-20 at n in {3, 40, 65, 66, 130, 5000}, as int8 where
the picks fit, as the smallest type that holds them, and as int64.
Some picks are tied to an earlier pick of their row: the same value, or
one 64 apart, which would share its bit while differing.

union_arcs decodes a batch of B draws from the engine's per-class node
lists as one graph on B*n nodes.  Cases draw 1-6 trials at n in [3, 70]
with two or three classes, the first of one or two picks, and check the
batch's arcs, class by class, against each trial's own graph
(construct_r_type on its trial_stream) moved to node b*n.  Every batch,
one trial included, passes its class counts; each graph's own arcs take
union_arcs' path without them.
"""

import numpy as np
import pytest

from koutlab import experiments
from koutlab.experiments import trial_keys, trial_stream
from koutlab.graph_model import GraphParams, _rows_with_repeats, construct_r_type, union_arcs

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _reference(sel):
    s = np.sort(sel.astype(np.int64), axis=1)
    return (s[:, 1:] == s[:, :-1]).any(axis=1).nonzero()[0]


@st.composite
def pick_rows(draw):
    n = draw(st.sampled_from([3, 40, 65, 66, 130, 5000]))
    width = draw(st.integers(2, 20))
    pick = st.integers(0, n - 2)  # raw picks lie in [0, n-1)
    rows = draw(st.lists(st.lists(pick, min_size=width, max_size=width), max_size=12))
    for row in rows:
        for j in range(1, width):
            i, tie = draw(st.integers(0, j - 1)), draw(st.sampled_from([None, 0, 64, -64]))
            if tie is not None and 0 <= row[i] + tie <= n - 2:
                row[j] = row[i] + tie
    dtypes = [np.int64, np.min_scalar_type(-n)] + ([np.int8] if n - 2 <= 127 else [])
    return np.array(rows, dtype=draw(st.sampled_from(dtypes))).reshape(len(rows), width), n


@PROPERTY
@given(pick_rows())
def test_rows_with_repeats_matches_sorting(case):
    sel, n = case
    mask = _rows_with_repeats(sel, n)
    assert mask.dtype == bool and mask.shape == (len(sel),)
    assert np.array_equal(np.flatnonzero(mask), _reference(sel))
    assert _rows_with_repeats(sel[:0], n).shape == (0,)


@st.composite
def batches(draw):
    n = draw(st.integers(3, 70))
    r = draw(st.sampled_from([2, 3] if n >= 4 else [2]))
    first = draw(st.integers(1, min(2, n - r)))  # the first class picks one or two nodes
    later = draw(st.lists(st.integers(first + 1, n - 1), min_size=r - 1, max_size=r - 1,
                          unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=r, max_size=r))
    params = GraphParams(n=n, type_probs=tuple(w / sum(weights) for w in weights),
                         type_selections=(first, *sorted(later)))
    trials, d = draw(st.integers(1, 6)), draw(st.sampled_from([0, 1]))
    return params, trials, d, draw(st.integers(0, 2**32))


@PROPERTY
@given(batches())
def test_union_arcs_of_a_batch_are_each_draws_arcs_moved(case):
    params, trials, d, seed = case
    rng = np.random.Generator(np.random.Philox(0))
    keys = trial_keys(seed, 0, 0, trials)
    nodes, blocks, counts, _ = experiments._batch_draw(params, d, rng, keys)
    assert counts.shape == (trials, params.r)
    src, dst = union_arcs(params, nodes, blocks, counts)
    graphs = [construct_r_type(params, trial_stream(seed, 0, b)) for b in range(trials)]
    want_src, want_dst = [], []
    for t in range(params.r):
        for b, g in enumerate(graphs):
            u, v = g.arcs
            mine = g.node_types[u] == t  # the graph's class-t arcs, in order
            want_src.append(u[mine] + b * params.n)
            want_dst.append(v[mine] + b * params.n)
    assert np.array_equal(src, np.concatenate(want_src))
    assert np.array_equal(dst, np.concatenate(want_dst))
