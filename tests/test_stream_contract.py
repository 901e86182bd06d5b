"""Property tests of the stream facts that the sweep engine's draw rests on.

The engine (experiments._batch_draw) draws the picks that draw_trial
would draw in later calls ahead of time, in one spare block per trial,
and tests each k-slice of that block for repeats before any redraw
round asks for it.  That is sound only if every pick is fixed by the
trial's Philox stream alone, whatever the sizes and int dtypes of the
calls that draw it.  These properties pin that down against numpy,
with a pure-Python decoder of the stream:

1. integers(0, m), for 2 <= m < 2**32, as int32 or int64, is 32-bit
   Lemire rejection (Lemire, ACM TOMACS 2019) over the uint32 halves of
   the raw 64-bit Philox words, low half first.
2. Two calls of sizes A and B draw what one call of A + B draws, for
   odd A (a half word is carried between the calls) and mixed dtypes.
3. random() on a fresh key is the top 53 bits of each raw word, over
   2**53.
4. choice(n, d, replace=False), for n <= 10**4, is Floyd's algorithm
   over j = n-d .. n-1, each draw 32-bit Lemire in [0, j] on the next
   halves, a repeat becoming j, then a Fisher-Yates pass that swaps
   position i with a Lemire draw in [0, i], for i = d-1 .. 1.  The
   engine's deletions (graph_model.draw_deleted) make this call right
   after a trial's picks, at any count of halves drawn before it.
5. numpy leaves Floyd's algorithm for a tail shuffle only above
   n = 10**4, where d > n // 50.

Facts 1-4 together decode a whole trial from its raw words (_trial): the
type uniforms, the picks of every class with each redraw round, and the
deletion.  That decode is the reference that any decoder of the raw
words in the engine is tested against, beside draw_trial.

Keys are Philox keys, so each case starts a fresh stream at counter 0.
"""

import numpy as np
import pytest

from koutlab import GraphParams, two_type_params
from koutlab.graph_model import draw_deleted, draw_trial

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

_MASK32 = (1 << 32) - 1
_DTYPES = [np.int32, np.int64]


def _halves(key):
    """The uint32 halves of the raw words of Philox(key), low half first."""
    bits = np.random.Philox(key=key)
    while True:
        for word in bits.random_raw(64).tolist():
            yield word & _MASK32
            yield word >> 32


def _lemire(halves, m, size):
    """size draws in [0, m) by 32-bit Lemire rejection from halves."""
    threshold = (1 << 32) % m  # (2**32 - m) % m, numpy's rejection bound
    out = []
    while len(out) < size:
        product = next(halves) * m
        if product & _MASK32 >= threshold:
            out.append(product >> 32)
    return out


def _generator(key):
    return np.random.Generator(np.random.Philox(key=key))


keys = st.integers(0, (1 << 128) - 1)
# small bounds, any bound, and bounds just above 2**31, which reject
# about half of the halves
bounds = st.one_of(st.integers(2, 64), st.integers(2, _MASK32),
                   st.integers((1 << 31) + 1, (1 << 31) + (1 << 20)))


def _bound_for(dtype, m):
    # int32 draws need m <= 2**31
    return m if dtype is np.int64 else min(m, 1 << 31)


@PROPERTY
@given(keys, bounds, st.sampled_from(_DTYPES), st.integers(1, 300))
def test_integers_are_lemire_over_raw_halves(key, m, dtype, size):
    m = _bound_for(dtype, m)
    got = _generator(key).integers(0, m, size=size, dtype=dtype).tolist()
    assert got == _lemire(_halves(key), m, size), \
        "fact 1: integers(0, m) is 32-bit Lemire over the raw words' halves, low first"


@PROPERTY
@given(keys, bounds, st.integers(0, 300), st.integers(0, 300),
       st.sampled_from(_DTYPES), st.sampled_from(_DTYPES), st.sampled_from(_DTYPES))
@hypothesis.example(7, 40, 13, 29, np.int32, np.int64, np.int32)  # odd A, mixed dtypes
def test_split_calls_draw_what_one_call_draws(key, m, a, b, dtype_a, dtype_b, dtype_ab):
    m = min(_bound_for(t, m) for t in (dtype_a, dtype_b, dtype_ab))
    rng = _generator(key)
    split = (rng.integers(0, m, size=a, dtype=dtype_a).tolist()
             + rng.integers(0, m, size=b, dtype=dtype_b).tolist())
    whole = _generator(key).integers(0, m, size=a + b, dtype=dtype_ab).tolist()
    assert split == whole, \
        "fact 2: calls of sizes A and B draw what one call of A + B draws, for any dtypes"


@PROPERTY
@given(keys, st.integers(1, 300))
def test_random_is_the_top_53_bits_of_each_raw_word(key, size):
    raw = np.random.Philox(key=key).random_raw(size)
    want = (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    assert np.array_equal(_generator(key).random(size), want), \
        "fact 3: random() on a fresh key is each raw word's top 53 bits over 2**53"


def _choice(halves, n, d):
    """choice(n, d, replace=False) from halves, by fact 4."""
    out = []
    for j in range(n - d, n):
        (v,) = _lemire(halves, j + 1, 1)
        out.append(j if v in out else v)
    for i in range(d - 1, 0, -1):
        (s,) = _lemire(halves, i + 1, 1)
        out[i], out[s] = out[s], out[i]
    return out


@st.composite
def populations(draw):
    n = draw(st.integers(2, 10**4))
    return n, draw(st.integers(0, min(n - 1, 50)))


@PROPERTY
@given(keys, populations(), st.integers(0, 300))
@hypothesis.example(7, (30, 3), 7)  # n=30 d=3 after an odd count of halves
@hypothesis.example(7, (30, 3), 8)
def test_choice_is_floyd_then_a_lemire_shuffle(key, population, before):
    n, d = population
    rng, halves = _generator(key), _halves(key)
    # a draw over the full 32-bit range takes one half each, unrejected
    drawn = rng.integers(0, 1 << 32, size=before, dtype=np.uint32).tolist()
    assert drawn == [next(halves) for _ in range(before)], \
        "fact 4: integers(0, 2**32) as uint32 takes one half a draw"
    got = rng.choice(n, size=d, replace=False).tolist()
    assert got == _choice(halves, n, d), \
        "fact 4: choice(n, d, replace=False) is Floyd, then a Lemire shuffle, on the next halves"


@pytest.mark.parametrize("n,d,floyd", [(10**4, 201, True), (10**4 + 1, 201, False)])
def test_choice_leaves_floyd_only_above_the_tail_shuffle_cutoff(n, d, floyd):
    got = _generator(7).choice(n, size=d, replace=False).tolist()
    assert (got == _choice(_halves(7), n, d)) == floyd, \
        "fact 5: numpy's tail shuffle starts above n = 10**4, where d > n // 50"


def _trial(key, params, d):
    """draw_trial(params, rng) and then draw_deleted(n, d, rng), for rng a
    fresh generator keyed by key, decoded from the raw words by facts
    1-4: (type uniforms, the flat pick list of each block, deleted)."""
    n, ks, f = params.n, params.type_selections, params._first_rows
    halves = _halves(key)
    # fact 3: each uniform is the top 53 bits of one whole word
    x = [((next(halves) | next(halves) << 32) >> 11) * 2.0 ** -53 for _ in range(n)]
    edges = params.cum_probs[:-1].tolist()
    counts = [0] * params.r
    for u in x:  # a node's class is the count of inner bin edges at or below it
        counts[sum(u >= edge for edge in edges)] += 1
    # fact 2: class 0's single picks and class f's rows share one call
    blocks = [_lemire(halves, n - 1, counts[0])] if f else []
    for t in range(f, params.r):
        k = ks[t]
        picks = _lemire(halves, n - 1, counts[t] * k)
        rows = [picks[i:i + k] for i in range(0, len(picks), k)]
        if params._fills_columns[t]:  # column by column, one pick per repeat a round
            for j in range(1, k):
                bad = [row for row in rows if row[j] in row[:j]]
                while bad:
                    for row, pick in zip(bad, _lemire(halves, n - 1, len(bad))):
                        row[j] = pick
                    bad = [row for row in bad if row[j] in row[:j]]
        else:  # every repeating row redrawn whole, in row order, a round at a time
            bad = [row for row in rows if len(set(row)) < k]
            while bad:
                picks = _lemire(halves, n - 1, len(bad) * k)
                for i, row in enumerate(bad):
                    row[:] = picks[i * k:(i + 1) * k]
                bad = [row for row in bad if len(set(row)) < k]
        blocks.append([pick for row in rows for pick in row])
    return x, blocks, _choice(halves, n, d)


def _two_type(draw):
    n = draw(st.integers(3, 40))
    return two_type_params(n, draw(st.floats(0.05, 0.95)), draw(st.integers(2, n - 1)))


ENSEMBLES = {
    # K up to n - 1: at n <= 12 a large K fills columns
    "two-type": _two_type,
    "three-class": lambda draw: GraphParams(draw(st.integers(5, 40)), (0.5, 0.3, 0.2),
                                            (1, 2, 4)),
    # no single picks, so the first call draws class 0's rows; K=19 fills columns
    "column-filled": lambda draw: GraphParams(20, (0.2, 0.3, 0.5), (2, 3, 19)),
}


@pytest.mark.parametrize("ensemble", sorted(ENSEMBLES))
@PROPERTY
@given(keys, st.data())
def test_a_whole_trial_is_one_decode_of_its_raw_words(ensemble, key, data):
    params = ENSEMBLES[ensemble](data.draw)
    d = data.draw(st.integers(0, min(params.n - 1, 5)))
    rng = _generator(key)
    x, blocks = draw_trial(params, rng)
    deleted = draw_deleted(params.n, d, rng)
    want_x, want_blocks, want_deleted = _trial(key, params, d)
    assert x.tolist() == want_x, "fact 3: the type uniforms are the first n words' top 53 bits"
    assert [block.tolist() for block in blocks] == want_blocks, \
        "facts 1-2: the picks and redraw rounds are Lemire over the halves after the uniforms"
    assert deleted.tolist() == want_deleted, \
        "fact 4: the deletion is Floyd, then a Lemire shuffle, on the halves after the picks"
