"""Property tests: the sampler's repeat test against a sort-based reference.

graph_model._rows_with_repeats finds the rows of raw picks that hold a
value twice: from a bitmask of each row's picks at n <= 65, where every
raw pick is below 64, and by sorting the rows above that.  Cases draw
rows of width 2-20 at n in {3, 40, 65, 66, 130, 5000}, as int8 where
the picks fit, as the smallest type that holds them, and as int64.
Some picks are tied to an earlier pick of their row: the same value, or
one 64 apart, which would share its bit while differing.
"""

import numpy as np
import pytest

from koutlab.graph_model import _rows_with_repeats

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
    assert np.array_equal(_rows_with_repeats(sel, n), _reference(sel))
    assert _rows_with_repeats(sel[:0], n).size == 0
