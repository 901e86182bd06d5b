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

Keys are Philox keys, so each case starts a fresh stream at counter 0.
"""

import numpy as np
import pytest

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
