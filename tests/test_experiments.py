import concurrent.futures
import hashlib
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from koutlab import ParameterError
from koutlab import experiments
from koutlab.component_analysis import (CutRangeImplication, component_labels,
                                        connected_components, connected_components_bfs,
                                        cut_range_implication, has_cut_in_range)
from koutlab.experiments import (ExperimentConfig, collect_cmax,
                                 coupling_experiment, plausibility_floor,
                                 render_csv, resolve_workers, run_point,
                                 run_sweep, trial_keys, trial_stream)
from koutlab.graph_model import (GraphParams, class_nodes, construct_r_type, couple_extend,
                                 delete_random_nodes, draw_deleted, draw_trial,
                                 two_type_params)


def _same_stream(a, b):
    return np.array_equal(a.integers(0, 1 << 30, size=8), b.integers(0, 1 << 30, size=8))


def test_trial_streams_are_reproducible_and_independent(reads_numbers):
    a = trial_stream(99, 0, 0).integers(0, 1 << 30, size=8)
    b = trial_stream(99, 0, 0).integers(0, 1 << 30, size=8)
    c = trial_stream(99, 0, 1).integers(0, 1 << 30, size=8)
    d = trial_stream(99, 1, 0).integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    for index, name in enumerate(["master_seed", "point_index", "trial_index"]):
        reads_numbers(trial_stream, (99, 1, 5), index, name, same=_same_stream)
        # a negative coordinate is refused by name, not by numpy's SeedSequence
        with pytest.raises(ParameterError, match=f"^{name} must be a non-negative integer"):
            trial_stream(*[-1 if i == index else 1 for i in range(3)])


def test_resolve_workers_precedence(monkeypatch, reads_numbers):
    monkeypatch.delenv("KOUTLAB_THREADS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("KOUTLAB_THREADS", "3")
    assert resolve_workers() == 3
    assert resolve_workers(2) == 2  # explicit argument wins
    monkeypatch.setenv("KOUTLAB_THREADS", "oops")
    with pytest.raises(ParameterError):
        resolve_workers()
    monkeypatch.setenv("KOUTLAB_THREADS", "")
    assert resolve_workers() == 1
    reads_numbers(resolve_workers, (3,), 0, "workers")
    assert resolve_workers(-2) == 1  # clamped to one worker


def test_collect_cmax_is_schedule_independent():
    params = two_type_params(60, 0.6, 2)
    serial = collect_cmax(params, 5, 600, seed=7, workers=1)
    parallel = collect_cmax(params, 5, 600, seed=7, workers=3)
    assert np.array_equal(serial, parallel)
    assert serial.size == 600
    assert serial.min() >= 1 and serial.max() <= 55


def _per_trial_cmax(params, d, trials, seed, point_index=0):
    # the reference: one graph and one breadth-first search per trial
    out = []
    for t in range(trials):
        rng = trial_stream(seed, point_index, t)
        g = construct_r_type(params, rng)
        view = delete_random_nodes(g, d, rng)[1] if d else g
        out.append(connected_components_bfs(view).cmax)
    return np.array(out)


_BATCH_30 = experiments._BATCH_NODES // 30  # trials per labeling batch at n=30


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("params,d,trials", [
    (two_type_params(30, 0.5, 2), 0, _BATCH_30 + 17),  # crosses a batch boundary
    (two_type_params(30, 0.5, 2), 3, 300),
    (two_type_params(1000, 0.9, 2), 20, 9),
    (GraphParams(n=50, type_probs=(0.5, 0.3, 0.2), type_selections=(1, 2, 4)), 2, 300),
    (two_type_params(40, 0.5, 12), 0, 200),  # most rows are redrawn
    (two_type_params(5000, 0.9, 2), 0, 3),  # one trial a batch
    (two_type_params(5000, 0.9, 2), 20, 3),
], ids=["n30", "n30-d3", "n1000-d20", "3-class", "n40-K12", "n5000", "n5000-d20"])
def test_collect_cmax_matches_per_trial_reference(params, d, trials, workers):
    got = collect_cmax(params, d, trials, seed=31, point_index=2, workers=workers)
    assert got.dtype == np.int64
    assert np.array_equal(got, _per_trial_cmax(params, d, trials, 31, point_index=2))


def test_key_batches_cover_the_range_in_order():
    # 136 trials a batch at n=30; keys come in chunks of 4080 trials
    assert [len(k) for k in experiments.key_batches(31, 2, 0, _BATCH_30 + 17, 30)] == [136, 17]
    batches = list(experiments.key_batches(7, 1, 5, 9000, 30))
    assert max(len(k) for k in batches) == _BATCH_30
    assert np.array_equal(np.concatenate(batches), trial_keys(7, 1, 5, 9000))
    assert [len(k) for k in experiments.key_batches(7, 1, 0, 3, 5000)] == [1, 1, 1]


# class 1 is redrawn in a third of its rows, and class 2 follows it in the stream
_MIDDLE_REDRAWN = GraphParams(n=40, type_probs=(0.4, 0.3, 0.3), type_selections=(1, 6, 12))
_K5_AT_6 = two_type_params(6, 0.8, 5)  # rows distinct 3.8% of the time: falls back at d == 0
# draws of many trials a batch; those with d == 0 share their redraw rounds
_SHARED_CASES = [
    (two_type_params(30, 0.5, 2), 0, _BATCH_30 + 17),  # crosses a batch boundary
    (two_type_params(30, 0.5, 2), 3, 300),
    (GraphParams(n=50, type_probs=(0.5, 0.3, 0.2), type_selections=(1, 2, 4)), 0, 300),
    (two_type_params(40, 0.5, 12), 0, 250),  # 15% of heavy rows come out distinct
    (two_type_params(40, 0.5, 8), 3, 250),  # deletes after redraws
    (_K5_AT_6, 2, 1400),
    (two_type_params(40, 0.5, 25), 0, 200),  # a column-filled class
    (_MIDDLE_REDRAWN, 2, 250),
]
_SHARED_IDS = ["n30", "n30-d3", "3-class", "n40-K12", "n40-K8-d3", "n6-K5-d2",
               "n40-K25-columns", "3-class-middle-d2"]


def _batched_rows(params, d, trials, seed=31, point=2):
    rng = np.random.Generator(np.random.Philox(0))
    return np.concatenate([experiments._batch_sizes(params, d, rng, keys)
                           for keys in experiments.key_batches(seed, point, 0, trials, params.n)])


def _assert_rows_match_per_graph_reference(params, d, rows, seed=31, point=2):
    # each row against its own graph, drawn from its own stream and sized
    # by breadth-first search; C02 reads these rows
    for t, row in enumerate(rows):
        stream = trial_stream(seed, point, t)
        g = construct_r_type(params, stream)
        view = delete_random_nodes(g, d, stream)[1] if d else g
        dead = sorted(view.deleted)
        assert (row[dead] == 1).all()  # a deleted node is a singleton
        row = row.copy()
        row[dead] = 0
        sizes = connected_components_bfs(view).component_sizes
        assert tuple(sorted(row[row > 0].tolist(), reverse=True)) == sizes
        n_eff = view.n_effective
        for x in range(1, n_eff // 3 + 1):
            no_mid_cut = not has_cut_in_range(view, x, n_eff - x)
            giant = view.components.cmax > n_eff - x
            want = CutRangeImplication(x, no_mid_cut, giant, not no_mid_cut or giant)
            assert cut_range_implication(row.tolist(), x) == want
            assert cut_range_implication(sizes, x) == want


def _count_fallbacks(monkeypatch):
    """Why each _trial_by_trial call to come happened: "lone" for a batch
    of one trial, "by-trial" for a batch of several that shares no rounds
    (_shares_rounds), and "run-out" for a trial of a shared batch whose
    spare block ran out."""
    calls, batch = [], [0]
    by_trial, batch_draw = experiments._trial_by_trial, experiments._batch_draw

    def drawn(params, d, rng, keys):
        batch[0] = len(keys)
        return batch_draw(params, d, rng, keys)

    def counted(params, d, rng, keys):
        calls.append("run-out" if len(keys) < batch[0] else "lone" if len(keys) == 1
                     else "by-trial")
        return by_trial(params, d, rng, keys)

    monkeypatch.setattr(experiments, "_batch_draw", drawn)
    monkeypatch.setattr(experiments, "_trial_by_trial", counted)
    return calls


@pytest.mark.parametrize("params,d,trials", _SHARED_CASES, ids=_SHARED_IDS)
def test_batch_sizes_match_per_graph_reference(params, d, trials):
    rows = _batched_rows(params, d, trials)
    assert rows.shape == (trials, params.n)
    _assert_rows_match_per_graph_reference(params, d, rows)


@pytest.mark.parametrize("params,trials", [
    (two_type_params(30, 0.5, 2), 300),
    (two_type_params(40, 0.5, 12), 250),
    (two_type_params(40, 0.5, 8), 250),
], ids=["n30", "n40-K12", "n40-K8"])
def test_batch_sizes_fall_back_without_spares(monkeypatch, params, trials):
    # with empty spare blocks every trial that redraws runs out at once and
    # is drawn again through draw_trial; spares exist only for the (1, K)
    # ensemble at d == 0
    fallbacks = _count_fallbacks(monkeypatch)
    monkeypatch.setattr(experiments, "_spare_sizer", lambda params: lambda counts: 0)
    rows = _batched_rows(params, 0, trials)
    assert fallbacks and set(fallbacks) == {"run-out"}
    _assert_rows_match_per_graph_reference(params, 0, rows)


# one trial a batch (n > _BATCH_NODES / 2); the seeds of the d=7 cases
# give a trial 0 whose node 0 is deleted (155) or survives in a component
# of two (90), so the sweep bins that trial's labels
_LONE_CASES = [
    (two_type_params(2049, 0.9, 2), 0, 3, 31),
    (two_type_params(2049, 0.9, 2), 7, 2, 155),
    (two_type_params(4097, 0.9, 2), 0, 2, 31),
    (two_type_params(4097, 0.9, 2), 7, 2, 90),
    (GraphParams(n=2049, type_probs=(0.5, 0.3, 0.2), type_selections=(1, 2, 4)), 0, 3, 31),
    (GraphParams(n=2049, type_probs=(0.5, 0.3, 0.2), type_selections=(1, 2, 4)), 7, 2, 31),
]


@pytest.mark.parametrize("params,d,trials,seed", _LONE_CASES,
                         ids=["n2049", "n2049-d7", "n4097", "n4097-d7", "3-class-n2049",
                              "3-class-n2049-d7"])
def test_lone_trials_match_per_graph_reference(params, d, trials, seed):
    batches = experiments.key_batches(seed, 0, 0, trials, params.n)
    assert [len(keys) for keys in batches] == [1] * trials
    got = collect_cmax(params, d, trials, seed=seed, workers=1)
    assert got.dtype == np.int64
    assert np.array_equal(got, _per_trial_cmax(params, d, trials, seed))
    rows = _batched_rows(params, d, trials, seed, 0)
    _assert_rows_match_per_graph_reference(params, d, rows, seed, 0)
    if seed != 31:  # node 0's component holds at most half the survivors
        assert 2 * rows[0, 0] <= params.n - d


def _union_labels(n, graphs):
    """component_labels of hand-built graphs b on nodes b*n.., each given as
    (arcs, deleted nodes); an arc with a deleted end is left out."""
    u, v = [], []
    for b, (arcs, dead) in enumerate(graphs):
        kept = [(x, y) for x, y in arcs if x not in dead and y not in dead]
        u += [x + b * n for x, _ in kept]
        v += [y + b * n for _, y in kept]
    return component_labels(len(graphs) * n, np.array(u, dtype=np.int64),
                            np.array(v, dtype=np.int64))


_PATH_0_TO_4 = ([(0, 1), (1, 2), (2, 3), (3, 4)], ())
_PATH_1_TO_5 = ([(1, 2), (2, 3), (3, 4), (4, 5)], ())


@pytest.mark.parametrize("graphs,d,want,binned", [
    ([_PATH_0_TO_4], 0, [5], []),  # node 0 in the giant
    ([_PATH_1_TO_5], 0, [5], [0]),  # node 0 a singleton, the giant elsewhere
    # node 0 deleted: its arcs would have joined {1, 2} to {3, 4, 5, 6}
    ([([(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (5, 6)], (0,))], 1, [4], [0]),
    # node 0 deleted and the giant a strict majority elsewhere
    ([([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], (0,))], 1, [5], [0]),
    # exactly one row of a batch falls back
    ([_PATH_0_TO_4, _PATH_1_TO_5, ([(0, 7), (7, 6), (6, 5), (5, 4), (4, 3)], ())], 0,
     [5, 5, 6], [1]),
    # two equal halves: 2c == n - d, so node 0's half is binned
    ([([(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)], ())], 0, [4], [0]),
    ([([(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)], (6, 7))], 2, [3], [0]),
    # one survivor fewer: node 0's half is a strict majority
    ([([(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)], (7,))], 1, [4], []),
], ids=["giant-holds-0", "0-singleton", "0-deleted", "0-deleted-giant", "one-row-bins",
        "equal-halves", "equal-halves-d2", "just-past-half"])
def test_cmax_rule_on_hand_built_arcs(monkeypatch, graphs, d, want, binned):
    # the labels -> cmax step on 8-node graphs; np.bincount is spied on and
    # spoils every row outside binned, so a cmax read from such a row shows
    n = 8
    labels = _union_labels(n, graphs)
    calls, bincount = [], np.bincount

    def spied(x, minlength=0):
        calls.append(x.size)
        bins = bincount(x, minlength=minlength).reshape(-1, n)
        bins[np.setdiff1d(np.arange(len(bins)), binned)] = n + 1
        return bins.ravel()

    with monkeypatch.context() as m:
        m.setattr(np, "bincount", spied)
        got = experiments._cmax_per_graph(n, n - d, labels)
    assert got.tolist() == want
    assert len(calls) == (1 if binned else 0)
    rows = np.bincount(labels, minlength=labels.size).reshape(-1, n)
    for row, (_, dead) in zip(rows, graphs):
        row[list(dead)] = 0
    assert rows.max(axis=1).tolist() == want


# the trials of test_batch_draw_is_draw_trial that exhaust their spare blocks
_RUNS_OUT = {(_K5_AT_6, 0): 5}


def _per_trial_draws(params, d, lo, hi):
    # draw_trial and draw_deleted on trial_stream: the reference draw, with
    # each trial's class nodes (class_nodes) moved to b*n for its place b
    nodes, blocks, dead = [], [], []
    for b, t in enumerate(range(lo, hi)):
        stream = trial_stream(31, 2, t)
        x, picks = draw_trial(params, stream)
        nodes.append([c + b * params.n for c in class_nodes(params, x)])
        blocks.append(picks)
        dead.append(draw_deleted(params.n, d, stream) if d else np.empty(0, dtype=np.int64))
    return ([np.concatenate(c) for c in zip(*nodes)], [np.concatenate(c) for c in zip(*blocks)],
            np.stack(dead))


# later classes so rare that most trials draw single picks only
_LATER_RARE = GraphParams(n=30, type_probs=(0.99, 0.009999, 1e-6), type_selections=(1, 2, 3))
# heavy rows so rare that about a quarter of the 136-trial batches (5 of
# the 8 drawn here) hold no repeated one and so run no rounds
_MU99 = two_type_params(30, 0.99, 2)
# the batches that run redraw rounds (_successor_rounds: a batch with no
# repeated first row skips them), where not every batch does
_ROUNDS_RUN = {(_MU99, 0): 3}


def _shares_rounds(params, d):
    # the batches of several trials whose redraw rounds _batch_draw runs
    # together: d == 0 and the (1, K) ensemble with heavy rows redrawn whole
    return (not d and params.type_selections[0] == 1 and params.r == 2
            and not params._fills_columns[1])


@pytest.mark.parametrize("params,d,trials", _SHARED_CASES + [
    (two_type_params(1000, 0.9, 2), 20, 9),  # four trials a batch
    (two_type_params(5000, 0.9, 2), 20, 2),  # one trial a batch
    (GraphParams(n=20, type_probs=(0.4, 0.3, 0.3), type_selections=(2, 3, 19)), 1, 60),
    (GraphParams(n=20, type_probs=(0.4, 0.3, 0.3), type_selections=(2, 3, 19)), 0, 60),
    (GraphParams(n=25, type_probs=(0.4, 0.6), type_selections=(2, 3)), 0, 250),
    (_LATER_RARE, 1, 8 * _BATCH_30),
    (_MU99, 0, 8 * _BATCH_30),
    (_K5_AT_6, 0, 1400),
    # the last n whose slice table is int8, and the first int16 one, whose
    # repeat test sorts
    (two_type_params(128, 0.5, 8), 0, 96),
    (two_type_params(129, 0.5, 8), 0, 93),
], ids=_SHARED_IDS + ["n1000-d20", "n5000-d20", "k0-is-2", "k0-is-2-d0", "no-single-picks",
                      "later-rare-d1", "mu99", "n6-K5", "n128-K8-int8", "n129-K8-int16"])
def test_batch_draw_is_draw_trial(monkeypatch, params, d, trials):
    # every pick, class node list, class count and deleted node equals the
    # per-trial draw's
    fallbacks = _count_fallbacks(monkeypatch)
    rounds = []
    successor_rounds = experiments._successor_rounds
    monkeypatch.setattr(experiments, "_successor_rounds",
                        lambda *args: rounds.append(1) or successor_rounds(*args))
    rng = np.random.Generator(np.random.Philox(0))
    lo, why = 0, []
    for keys in experiments.key_batches(31, 2, 0, trials, params.n):
        why.append("lone" if len(keys) == 1 else None if _shares_rounds(params, d)
                   else "by-trial")
        nodes, blocks, counts, dead = experiments._batch_draw(params, d, rng, keys)
        want_nodes, want_blocks, want_dead = _per_trial_draws(params, d, lo, lo + len(keys))
        assert len(nodes) == params.r
        assert all(np.array_equal(a, b) for a, b in zip(nodes, want_nodes, strict=True))
        assert len(blocks) == params.r
        assert all(np.array_equal(a, b) for a, b in zip(blocks, want_blocks))
        assert dead.shape == (len(keys), d) and np.array_equal(dead, want_dead)
        if len(keys) > 1:
            assert np.array_equal(counts, np.stack([np.bincount(c // params.n, minlength=len(keys))
                                                    for c in want_nodes], axis=1))
        lo += len(keys)
    # lone trials and batches that share no rounds are drawn trial by
    # trial, and so are the trials of a shared batch whose spare block ran
    # out (4 sigma leaves few)
    runs_out = ["run-out"] * _RUNS_OUT.get((params, d), 0)
    assert sorted(fallbacks) == sorted([w for w in why if w] + runs_out)
    if not _shares_rounds(params, d):
        assert not rounds
    elif (params, d) in _ROUNDS_RUN:
        assert len(rounds) == _ROUNDS_RUN[params, d]


def _fifo_replay(trials):
    """The rounds of _redraw_repeats replayed on chosen marks: trials lists
    (h, marks), marks[s] telling whether the trial's slice s repeats, its
    first h slices being its rows.  Each round gives every row still on a
    marked slice its trial's next slice, rows in order.  Returns each
    row's last slice, as a slice of the whole table, and the trials that
    run out of slices, whose rows keep their first slices."""
    ends, failed, start = [], [], 0
    for b, (h, marks) in enumerate(trials):
        at, nxt = list(range(h)), h
        live = [i for i in at if marks[i]]
        while live:
            if nxt + len(live) > len(marks):
                failed.append(b)
                at = list(range(h))
                break
            for i in live:
                at[i], nxt = nxt, nxt + 1
            live = [i for i in live if marks[at[i]]]
        ends += [start + s for s in at]
        start += len(marks)
    return ends, failed


@pytest.mark.parametrize("trials", [
    # no first row repeats: the batch runs no round
    [(2, "..."), (0, "xx."), (3, "...x.")],
    # a trial with no marked slice beside one that redraws
    [(3, "......"), (1, "x.x.")],
    # the marked spare slice 3 goes out before row 2 takes its first redraw
    [(3, "xxxx.x...."), (2, "..x")],
    # h - 1 unmarked slices run out; h of them are just enough
    [(2, "x.xx"), (2, "x.x."), (1, "x")],
], ids=["none-repeat", "unmarked-trial", "spare-before-last-row", "runs-out"])
def test_slice_rounds_are_a_fifo_replay(trials):
    # slice s of the table is (s, s) when marked and (s, s + 1) when not,
    # so each row's last slice reads off its first pick
    marks = [m == "x" for _, ms in trials for m in ms]
    table = np.array([(s, s + (not m)) for s, m in enumerate(marks)], dtype=np.int8)
    heavy = np.array([h for h, _ in trials])
    slices = np.array([len(ms) for _, ms in trials])
    rows, failed = experiments._slice_rounds(table, heavy, slices, 100)
    ends, want_failed = _fifo_replay([(h, [m == "x" for m in ms]) for h, ms in trials])
    assert np.array_equal(rows, table[ends].ravel())
    assert np.array_equal(failed, want_failed)


class _CountingGenerator(np.random.Generator):
    # a generator that counts its random and integers calls
    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.calls = {"random": 0, "integers": 0}

    def random(self, *args, **kwargs):
        self.calls["random"] += 1
        return super().random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.calls["integers"] += 1
        return super().integers(*args, **kwargs)


@pytest.mark.parametrize("params", [two_type_params(30, 0.5, 2), two_type_params(40, 0.5, 12)],
                         ids=["n30-K2", "n40-K12"])
def test_shared_batches_make_two_calls_a_trial(monkeypatch, params):
    # a shared d = 0 batch draws each trial's uniforms and picks in one
    # random and one integers call; no batch here runs out of spare picks,
    # which would draw that trial again
    monkeypatch.setattr(experiments, "_trial_by_trial", None)
    rng = _CountingGenerator(np.random.Philox(0))
    trials = 0
    for keys in experiments.key_batches(31, 2, 0, 3 * (experiments._BATCH_NODES // params.n),
                                        params.n):
        experiments._batch_draw(params, 0, rng, keys)
        trials += len(keys)
        assert rng.calls == {"random": trials, "integers": trials}


def test_lone_trials_keep_to_draw_trial(monkeypatch):
    # a batch of one trial has no rounds to share and draws no spare block:
    # it never reaches _batch_draw, and its labels are those of the graph
    # that construct_r_type and delete_random_nodes draw from its stream
    monkeypatch.setattr(experiments, "_batch_draw", None)
    monkeypatch.setattr(experiments, "_first_rounds", None)
    params = two_type_params(40, 0.5, 12)
    rng = np.random.Generator(np.random.Philox(0))
    for d, t in itertools.product((0, 3), range(7, 12)):
        labels = experiments._batch_labels(params, d, rng, trial_keys(31, 2, t, t + 1))
        stream = trial_stream(31, 2, t)
        g = construct_r_type(params, stream)
        view = delete_random_nodes(g, d, stream)[1] if d else g
        assert np.array_equal(labels, component_labels(params.n, *view.edge_arrays()))


def test_collect_cmax_returns_on_rarely_distinct_rows():
    # class 2 picks 19 of 19; whole rows are distinct with probability ~6e-8
    params = GraphParams(n=20, type_probs=(0.4, 0.3, 0.3), type_selections=(2, 3, 19))
    got = collect_cmax(params, 0, 40, seed=1, workers=1)
    assert np.array_equal(got, _per_trial_cmax(params, 0, 40, 1))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 20240819,
                                  2**200 + 5])  # the last has more than four words
@pytest.mark.parametrize("point", [0, 1, 7])
def test_trial_keys_match_seed_sequence(seed, point):
    for lo, hi in ((0, 601), (2**32 - 4, 2**32)):
        want = [np.random.SeedSequence((seed, point, t)).generate_state(2, np.uint64)
                for t in range(lo, hi)]
        got = trial_keys(seed, point, lo, hi)
        assert got.dtype == np.uint64 and got.shape == (hi - lo, 2)
        assert np.array_equal(got, np.array(want))


def test_trial_keys_reject_out_of_range_coordinates(reads_numbers):
    for args in ((-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, 0, 2**32 + 1), (0, 0, -1, 1)):
        with pytest.raises(ParameterError):
            trial_keys(*args)
    for args, name in (((-1, 0, 0, 1), "master_seed"), ((0, -3, 0, 1), "point_index")):
        with pytest.raises(ParameterError, match=f"^{name} must be a non-negative integer, got -"):
            trial_keys(*args)
    for index, name in enumerate(["master_seed", "point_index", "lo", "hi"]):
        reads_numbers(trial_keys, (7, 1, 5, 9), index, name)


def _draws(rng):
    # every kind of call a trial makes, with an odd count of 32-bit draws
    # so that a saved half is left over between calls
    return [rng.random(7), rng.integers(0, 29, size=5), rng.integers(0, 29, size=(3, 2)),
            rng.choice(30, size=4, replace=False), rng.integers(0, 5000, size=3)]


def test_rekeyed_generator_matches_trial_stream():
    rng = np.random.Generator(np.random.Philox(0))
    for seed, point, t in ((31, 2, 0), (31, 2, 599), (2**64 + 1, 0, 5), (0, 7, 2**32 - 1)):
        _draws(rng)  # leave the previous trial's state behind
        experiments._rekey(rng, trial_keys(seed, point, t, t + 1)[0])
        got, want = _draws(rng), _draws(trial_stream(seed, point, t))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("d", [0, 3])
def test_collect_cmax_at_a_seed_beyond_64_bits(d):
    params = two_type_params(30, 0.5, 2)
    got = collect_cmax(params, d, 150, seed=2**64 + 1, point_index=1)
    assert np.array_equal(got, _per_trial_cmax(params, d, 150, 2**64 + 1, point_index=1))


def test_negative_seeds_are_rejected():
    params = two_type_params(30, 0.5, 2)
    with pytest.raises(ParameterError, match="seed"):
        collect_cmax(params, 0, 5, seed=-1)
    with pytest.raises(ParameterError, match="seed"):
        ExperimentConfig(sweep_param="mu", sweep_values=(0.5,), n=30, k=2, seed=-1)
    target = GraphParams(n=20, type_probs=(0.5, 0.3, 0.2), type_selections=(1, 2, 4))
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        coupling_experiment(target, 3, seed=-1)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("cpus,workers,trials,want", [
    (2, 64, 3000, 2),     # capped by the CPUs
    (8, 64, 600, 3),      # capped by the task count: three tasks of 256
    (8, 3, 3000, 3),      # the request stands
    (1, 64, 3000, None),  # one CPU: no pool
    (8, 64, 100, None),   # one task: no pool
])
def test_worker_count_is_bounded(monkeypatch, cpus, workers, trials, want):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    params = two_type_params(20, 0.5, 2)
    got = collect_cmax(params, 0, trials, seed=3, workers=workers)
    assert _RecordingPool.sizes == ([] if want is None else [want])
    assert np.array_equal(got, collect_cmax(params, 0, trials, seed=3, workers=1))


# sha256 of the sweep CSV and JSON bytes, recorded from the per-trial
# engine that the batched one replaced; any change to a sampled number or
# to the rendering shows up here
_SWEEP_HASHES = [
    (dict(sweep_param="mu", sweep_values=(0.2, 0.5, 0.8), n=300, k=2, trials=800),
     "91a63365ef2e7a45718d51d401ea510eca121878d16b1f23c03c77c2b12d1393",
     "88c1ed657cfe62ca471f00139d434c4f5556d886d6885aa56634938aeb599a4b"),
    (dict(sweep_param="d", sweep_values=(0, 5, 20), n=200, mu=0.7, k=2, trials=400),
     "bc536d671ac6c963e3f3437dc78b20198e7ce1f2a68e71550f755ae88e408bc5",
     "8e041e9bbabf991dc8aad2988ed554c5290b94c033fb8e44254eafe706f37a58"),
    # heavy redraws, recorded from draw_trial's own rounds before they ran on
    # the batch; every trial here is connected but for the deletions, so the
    # bytes pin little of the draw, which test_batch_draw_is_draw_trial pins
    (dict(sweep_param="K", sweep_values=(8, 12), n=40, mu=0.5, trials=300),
     "28b5306e72fdc7a6921797d090d38b1c75f7a2a91c890a74b6ffc4603a8a8915",
     "72d5f95c57fdec2601a2c29c94a06465b3ded755deac9c16a451f7cc7d5c2404"),
    (dict(sweep_param="d", sweep_values=(0, 3), n=40, mu=0.5, k=8, trials=300),
     "ed3e045a8f76d8c781f7776251a9d1bf06e780322c231288013c117cd6cfdf92",
     "feaef73fd645e108f52e16033491540b696b8a7b54017b634b0665640f8fe2c7"),
    # one trial a batch (n > _BATCH_NODES), recorded before the lone trial's
    # arcs came from per-class node lists
    (dict(sweep_param="d", sweep_values=(0, 20), n=5000, mu=0.9, k=2, trials=30),
     "98b3ce8988cfede1d1a3cb4e99e23c25d57ebf423f17705a9ebd3a930560d145",
     "ae74290c234996889037aba6cf91243f5eb5716b9e4ce7fcd186b0f93c70e833"),
    # lone trials at K in {2, 5}, recorded before a lone trial's cmax came
    # from node 0's component
    (dict(sweep_param="K", sweep_values=(2, 5), n=4097, mu=0.9, trials=30),
     "ff59bbc200d9db0da172acbaf91820f8ca4e7436d475614c9f3692e53ccd51ba",
     "6af61db268f065b44b70039659b61710654c5f5541c733c96d31d70d410d7968"),
    # column-filled heavy rows (min_cmax 14 and 15), recorded while such
    # batches still shared their redraw rounds
    (dict(sweep_param="K", sweep_values=(20, 24), n=30, mu=0.9, trials=200),
     "b6cd33664df9cf4739c5d3fb2a4c3d946d9749a9c7380ce36b98619c57b9e043",
     "7c80f2e49b62b65bc07bc2067f5c0288cd14ee2bb3d05a1cf3d5ec144ac45b7a"),
]


@pytest.mark.parametrize("conf,csv_sha,json_sha", _SWEEP_HASHES,
                         ids=["c10-mu", "d-sweep", "n40-K-sweep", "n40-K8-d-sweep",
                              "n5000-d-sweep", "n4097-K-sweep", "n30-K-columns"])
def test_sweep_bytes_match_recorded_hashes(tmp_path, conf, csv_sha, json_sha):
    run_sweep(ExperimentConfig(seed=20240819, out=str(tmp_path / "s"), **conf), workers=1)
    assert hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256((tmp_path / "s.json").read_bytes()).hexdigest() == json_sha


def test_collect_cmax_validates_inputs():
    params = two_type_params(10, 0.5, 2)
    with pytest.raises(ParameterError):
        collect_cmax(params, 0, 0, seed=1)
    with pytest.raises(ParameterError):
        collect_cmax(params, 10, 5, seed=1)
    # counts that are not integers are refused by name, never truncated
    for args, name in [((2.5, 10, 1), "d"), ((0, 10.7, 1), "trials"), ((0, True, 1), "trials"),
                       ((0, 10, 1.5), "seed"), ((0, 10, 1, 0.5), "point_index"),
                       ((False, 10, 1), "d"), ((np.float32(2.5), 10, 1), "d"),
                       ((0, np.True_, 1), "trials")]:
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            collect_cmax(params, *args)
    with pytest.raises(ParameterError, match="^point_index must be a non-negative"):
        collect_cmax(params, 0, 10, 1, -1)
    with pytest.raises(ParameterError, match="^d must be an integer"):
        run_point(params, 1.9, 3, 1)
    with pytest.raises(ParameterError, match="^trials must be an integer"):
        run_point(params, 1, 3.5, 1)
    target = GraphParams(n=20, type_probs=(0.5, 0.3, 0.2), type_selections=(1, 2, 4))
    # the coupling's seed is read by trial_keys, as its master_seed
    for args, name in [((2.5, 1), "trials"), ((True, 1), "trials"), ((3, 1.5), "master_seed")]:
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            coupling_experiment(target, *args)
    for workers in (2.5, True, "x"):
        with pytest.raises(ParameterError, match="^workers must be an integer"):
            collect_cmax(params, 0, 10, 1, workers=workers)
    want = collect_cmax(params, 0, 300, 1, workers=1)
    for workers in (1.0, np.int64(1), 2.0, np.int64(2)):
        assert np.array_equal(collect_cmax(params, 0, 300, 1, workers=workers), want)


def test_run_point_aggregates_match_trial_data():
    params = two_type_params(50, 0.8, 2)
    cm = collect_cmax(params, 4, 300, seed=11)
    s = run_point(params, 4, 300, seed=11)
    assert s.min_cmax == int(cm.min())
    assert s.max_cmax == int(cm.max())
    assert s.avg_cmax == pytest.approx(cm.mean())
    assert s.n_effective == 46
    assert s.max_outside == 46 - s.min_cmax
    assert s.min_cmax <= s.avg_cmax <= s.n_effective
    assert s.trials == 300
    assert s.wall_time >= 0.0


def test_run_point_single_trial_equals_direct_report():
    params = two_type_params(30, 0.5, 2)
    s = run_point(params, 0, 1, seed=42)
    g = construct_r_type(params, trial_stream(42, 0, 0))
    rep = connected_components(g)
    assert s.min_cmax == s.max_cmax == rep.cmax
    assert s.avg_cmax == float(rep.cmax)


def test_experiment_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(sweep_param="rho", sweep_values=(1,), n=10)
    with pytest.raises(ParameterError):
        ExperimentConfig(sweep_param="mu", sweep_values=(), n=10, k=2)
    with pytest.raises(ParameterError):
        ExperimentConfig(sweep_param="mu", sweep_values=(0.5,), n=10, k=2,
                         trials=0)
    with pytest.raises(ParameterError):  # sweep values must validate eagerly
        ExperimentConfig(sweep_param="K", sweep_values=(2, 11), n=10, mu=0.5)
    with pytest.raises(ParameterError):
        ExperimentConfig(sweep_param="d", sweep_values=(0, 10), n=10, mu=0.5,
                         k=2)
    with pytest.raises(ParameterError):
        ExperimentConfig(sweep_param="mu", sweep_values=(0.5,), n=10, k=2,
                         overlays=("nonsense",))
    with pytest.raises(ParameterError):
        ExperimentConfig(sweep_param="mu", sweep_values=(0.5,), n=10, k=2,
                         overlays=("tail",))  # overlay_m missing
    # an overlay start below 1 is refused by the bound's own rule before any trial runs
    overlays = dict(overlays=("tail", "deleted-tail"), overlay_m=2, overlay_x=30)
    for bad, rule in ((dict(overlay_m=0), "M >= 1"), (dict(overlay_m=-3), "M >= 1"),
                      (dict(overlay_x=0), "x >= 1"), (dict(overlay_x=-1), "x >= 1")):
        with pytest.raises(ParameterError, match=rule):
            ExperimentConfig(sweep_param="d", sweep_values=(0, 5), n=10, mu=0.5, k=2,
                             **(overlays | bad))
    # x = 1 misses d = 5's threshold, which the point's JSON notes instead
    conf = ExperimentConfig(sweep_param="d", sweep_values=(0, 5), n=10, mu=0.5, k=2,
                            **(overlays | dict(overlay_x=1)))
    assert conf.overlay_x == 1
    conf = ExperimentConfig(sweep_param="mu", sweep_values=[0.3, 0.6], n=10,
                            k=2, overlays=["t1"], overlay_m=2)
    assert conf.overlays == ("tail",)
    assert conf.sweep_values == (0.3, 0.6)
    # one trial count rule, the one collect_cmax keeps, refused at build time
    with pytest.raises(ParameterError, match=r"^trials must be between 1 and 2\*\*32, got "):
        ExperimentConfig(sweep_param="mu", sweep_values=(0.5,), n=10, trials=2**32 + 1)
    # a name is one value, not a list of overlay names
    with pytest.raises(ParameterError, match="^overlays must be a list, got 'tail'"):
        ExperimentConfig(sweep_param="mu", sweep_values=(0.5,), n=10, overlays="tail",
                         overlay_m=2)
    with pytest.raises(ParameterError, match="^sweep_values must be a list, got 0.5"):
        ExperimentConfig(sweep_param="mu", sweep_values=0.5, n=10)
    for out in (".", "/"):  # a directory names no file to write
        with pytest.raises(ParameterError, match="^out must be a path to a file"):
            ExperimentConfig(sweep_param="mu", sweep_values=(0.5,), n=10, out=out)
    # mu and k default to the CLI's 0.5 and 2; a seed of 1.0 reads as 1
    conf = ExperimentConfig(sweep_param="n", sweep_values=(30,), seed=1.0)
    assert (conf.mu, conf.k, conf.seed) == (0.5, 2, 1) and type(conf.seed) is int


@pytest.mark.parametrize("field, value", [("trials", True), ("seed", True), ("d", False),
                                          ("mu", True), ("overlay_eps", True)])
def test_experiment_config_refuses_booleans(field, value):
    # bool is an int subclass, so int(True) alone would pass as one trial
    conf = dict(sweep_param="K", sweep_values=(2,), n=10, mu=0.5)
    with pytest.raises(ParameterError, match=f"{field} must be"):
        ExperimentConfig(**(conf | {field: value}))
    with pytest.raises(ParameterError, match="sweep value must be"):
        ExperimentConfig(**(conf | {"sweep_values": (2, value)}))


def test_run_sweep_writes_byte_stable_files(tmp_path, monkeypatch):
    conf = ExperimentConfig(sweep_param="mu", sweep_values=(0.3, 0.7), n=40,
                            k=2, trials=50, seed=21,
                            out=str(tmp_path / "a"))
    monkeypatch.setenv("KOUTLAB_THREADS", "1")
    run_sweep(conf)
    first_csv = (tmp_path / "a.csv").read_bytes()
    first_json = (tmp_path / "a.json").read_bytes()

    conf2 = ExperimentConfig(sweep_param="mu", sweep_values=(0.3, 0.7), n=40,
                             k=2, trials=50, seed=21,
                             out=str(tmp_path / "b"))
    monkeypatch.setenv("KOUTLAB_THREADS", "4")
    run_sweep(conf2)
    assert (tmp_path / "b.csv").read_bytes() == first_csv
    assert (tmp_path / "b.json").read_bytes() == first_json

    header, row1, row2 = first_csv.decode().strip().split("\n")
    assert header == ("sweep_param,value,n,mu,K,d,trials,"
                      "avg_cmax,min_cmax,max_outside,seed")
    assert row1.startswith("mu,0.3,40,0.3,2,0,50,")
    assert row1.endswith(",21")
    assert row2.startswith("mu,0.7,40,0.7,2,0,50,")


def test_run_sweep_dataset_and_csv_rendering(tmp_path):
    conf = ExperimentConfig(sweep_param="d", sweep_values=(0, 3), n=30,
                            mu=0.5, k=2, trials=40, seed=5,
                            overlays=("heuristic",))
    summaries, dataset = run_sweep(conf)
    assert len(summaries) == 2
    assert dataset["sweep_param"] == "d"
    assert dataset["seed"] == 5
    p0, p3 = dataset["points"]
    assert p0["d"] == 0 and p3["d"] == 3
    assert p0["overlays"]["heuristic_lower_bound"] == 30
    assert p3["max_outside"] == 27 - p3["min_cmax"]
    text = render_csv(dataset)
    assert text.count("\n") == 3
    assert json.loads(json.dumps(dataset)) == dataset  # JSON-serializable


def test_run_sweep_fails_fast_on_unwritable_path(tmp_path):
    conf = ExperimentConfig(sweep_param="mu", sweep_values=(0.5,), n=2000,
                            k=2, trials=10 ** 6, seed=1,
                            out="/nonexistent-dir/x")
    with pytest.raises(ParameterError):
        run_sweep(conf)  # must error before the heavy computation starts


def test_failed_sweep_leaves_no_output(tmp_path, monkeypatch):
    (tmp_path / "x.csv").write_text("earlier run\n")
    conf = ExperimentConfig(sweep_param="mu", sweep_values=(0.3, 0.7), n=30, k=2,
                            trials=5, seed=1, out=str(tmp_path / "x"))
    real_run_point = experiments.run_point

    def fail_on_second_point(*args, **kwargs):
        if kwargs["point_index"] == 1:
            raise RuntimeError("interrupted")
        return real_run_point(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_point", fail_on_second_point)
    with pytest.raises(RuntimeError):
        run_sweep(conf)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]
    assert (tmp_path / "x.csv").read_text() == "earlier run\n"


def test_sweep_over_n_checks_the_deletion_count():
    with pytest.raises(ParameterError, match="d=20"):
        ExperimentConfig(sweep_param="n", sweep_values=(50, 10), mu=0.5, k=2, d=20, trials=5)


@pytest.mark.parametrize("axis,values", [
    ("mu", (0.1, "abc")), ("K", (2, 2.5)), ("n", (30, None)), ("d", ("x",)),
])
def test_bad_sweep_values_are_named(axis, values):
    with pytest.raises(ParameterError, match=f"{axis} sweep value"):
        ExperimentConfig(sweep_param=axis, sweep_values=values, n=30, mu=0.5, k=2)
    with pytest.raises(ParameterError, match="sweep_values"):
        ExperimentConfig(sweep_param=axis, sweep_values=5, n=30, mu=0.5, k=2)


@pytest.mark.parametrize("field,value", [
    ("n", "thirty"), ("trials", 2.5), ("seed", "x"), ("mu", None), ("overlay_m", "x"),
    ("overlay_eps", []), ("overlay_eps", float("inf")), ("overlay_eps", float("nan")),
    ("overlay_eps", 0.0),
])
def test_bad_config_fields_are_named(field, value):
    conf = dict(sweep_param="d", sweep_values=(0,), n=30, mu=0.5, k=2, overlays=("t1",),
                overlay_m=2)
    conf[field] = value
    with pytest.raises(ParameterError, match=field):
        ExperimentConfig(**conf)


def test_mu_sweep_average_is_decreasing():
    conf = ExperimentConfig(sweep_param="mu",
                            sweep_values=(0.1, 0.3, 0.5, 0.7, 0.9), n=200,
                            k=2, trials=150, seed=17)
    summaries, _ = run_sweep(conf)
    avgs = [s.avg_cmax for s in summaries]
    assert all(a >= b for a, b in zip(avgs, avgs[1:]))


def test_plausibility_floor_behaviour():
    m = plausibility_floor(1000, 0.9, 2, 10_000)
    assert isinstance(m, int) and 1 <= m <= 500
    # more trials demand a rarer excursion, so the floor can only move out
    assert plausibility_floor(1000, 0.9, 2, 100_000) >= m
    assert plausibility_floor(40, 0.5, 2, 10_000) is not None


def test_plausibility_floor_refuses_bad_trial_counts(reads_numbers):
    for trials in (0, -5, 2**32 + 1):
        with pytest.raises(ParameterError, match=r"^trials must be between 1 and 2\*\*32"):
            plausibility_floor(30, 0.5, 2, trials)
    reads_numbers(plausibility_floor, (30, 0.5, 2, 2000), 3, "trials")
    reads_numbers(plausibility_floor, (30, 0.5, 2, 2000), 0, "n")


def test_plausibility_floor_pinned_values():
    # recorded from the scalar union-bound loop before the vectorized kernel
    assert plausibility_floor(5000, 0.9, 2, 50) == 22
    assert plausibility_floor(1000, 0.9, 2, 10**4) == 49
    assert plausibility_floor(40, 0.5, 2, 10**4) == 11
    assert plausibility_floor(30, 0.5, 2, 2000) == 10
    assert plausibility_floor(30, 0.5, 2, 10**6) is None


def test_plausibility_floor_is_none_beyond_the_oracle_cap(monkeypatch):
    # a d=0 sweep past 10^6 once ran every trial and then exited 2 here
    assert isinstance(plausibility_floor(10**6, 0.9, 2, 1), int)

    def no_sum(*args):
        raise AssertionError("the union bound ran")

    monkeypatch.setattr(experiments, "union_bound_sum", no_sum)
    for n in (10**6 + 1, 10**7 + 1, 10**30):
        assert plausibility_floor(n, 0.9, 2, 1) is None


def test_coupling_experiment_reports_no_violations():
    target = GraphParams(n=150, type_probs=(0.5, 0.3, 0.2),
                         type_selections=(1, 2, 4))
    rep = coupling_experiment(target, 200, seed=13)
    assert rep.trials == 200
    assert rep.edge_superset_violations == 0
    assert rep.cmax_violations == 0
    assert rep.avg_cmax_extended >= rep.avg_cmax_base


def _coupling_reference(target, trials, seed):
    # the per-pair loop: one stream per pair, both graphs sized by BFS
    base = two_type_params(target.n, sum(target.type_probs[:-1]), target.type_selections[-1])
    edge_bad = cmax_bad = base_total = ext_total = 0
    for t in range(trials):
        rng = trial_stream(seed, 0, t)
        g2 = construct_r_type(base, rng)
        ext = couple_extend(g2, target, rng)
        edges = [set(zip(*(a.tolist() for a in g.edge_arrays()))) for g in (g2, ext)]
        edge_bad += not edges[0] <= edges[1]
        c_base = connected_components_bfs(g2).cmax
        c_ext = connected_components_bfs(ext).cmax
        cmax_bad += c_ext < c_base
        base_total += c_base
        ext_total += c_ext
    return edge_bad, cmax_bad, base_total / trials, ext_total / trials


@pytest.mark.parametrize("n, trials", [(150, 200), (4100, 3)])
def test_coupling_batches_match_per_pair_reference(n, trials):
    # 13 pairs (2n nodes each) a batch at n=150; one pair a batch above 2048 nodes
    target = GraphParams(n=n, type_probs=(0.5, 0.3, 0.2), type_selections=(1, 2, 4))
    rep = coupling_experiment(target, trials, seed=29)
    assert (rep.edge_superset_violations, rep.cmax_violations, rep.avg_cmax_base,
            rep.avg_cmax_extended) == _coupling_reference(target, trials, 29)


def test_coupling_experiment_sees_a_dropped_pick(monkeypatch):
    # an extension that loses one carried pick must be reported, so the
    # containment check is not vacuous
    def lossy(g2, target, rng):
        ext = couple_extend(g2, target, rng)
        # move the first heavy node's first pick, carried from g2, to a
        # node its row does not hold
        k = target.type_selections[-1]
        heavy = ext.blocks[-1].copy()
        heavy[0] = min(set(range(target.n - 1)) - set(heavy[:k].tolist()))
        return replace(ext, blocks=ext.blocks[:-1] + (heavy,))

    monkeypatch.setattr(experiments, "couple_extend", lossy)
    target = GraphParams(n=150, type_probs=(0.5, 0.3, 0.2), type_selections=(1, 2, 4))
    rep = coupling_experiment(target, 60, seed=13)
    assert rep.edge_superset_violations == 60


def test_coupling_experiment_two_class_target_is_trivial():
    target = two_type_params(80, 0.6, 3)
    rep = coupling_experiment(target, 50, seed=3)
    assert rep.edge_superset_violations == 0
    assert rep.cmax_violations == 0
    assert rep.avg_cmax_extended == rep.avg_cmax_base
