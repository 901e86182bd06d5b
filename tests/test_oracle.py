import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from koutlab import ParameterError, oracle
from koutlab.experiments import collect_cmax
from koutlab.graph_model import two_type_params
from koutlab.oracle import (_UNDERFLOW_LOG, EnumeratedRealization,
                            _block_log_bounds, _cut_kernel,
                            exact_cut_probability,
                            exact_cut_probability_deleted,
                            exhaustive_event_probability, union_bound_sum,
                            union_bound_sum_deleted)
from koutlab.validate import check_log_direct


# Scalar reference for the vectorized kernel: math.lgamma log-binomials
# and one Python pass per subset size.

def _ref_log_binom(a, b):
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _ref_mix_factor(n, mu, k, m):
    single = mu * m / (n - 1)
    if m < k:
        return single
    return single + (1.0 - mu) * math.exp(
        _ref_log_binom(m, k) - _ref_log_binom(n - 1, k))


def _ref_cut_probability(n, mu, k, d, r):
    f_in = _ref_mix_factor(n, mu, k, r + d - 1)
    f_out = _ref_mix_factor(n, mu, k, n - r - 1)
    if f_in == 0.0 or f_out == 0.0:
        return 0.0
    return math.exp(r * math.log(f_in) + (n - d - r) * math.log(f_out))


def _ref_bound_terms(n, mu, k, d, lo):
    terms = []
    for r in range(lo, (n - d) // 2 + 1):
        f_in = _ref_mix_factor(n, mu, k, r + d - 1)
        f_out = _ref_mix_factor(n, mu, k, n - r - 1)
        if f_in == 0.0 or f_out == 0.0:
            terms.append(0.0)
            continue
        terms.append(math.exp(_ref_log_binom(n - d, r) + r * math.log(f_in)
                              + (n - d - r) * math.log(f_out)))
    return np.array(terms)


def _assert_matches_reference(ev, n, mu, k, d):
    ref = _ref_bound_terms(n, mu, k, d, ev.r_start)
    assert ev.terms.shape == ref.shape
    assert ((ev.terms == 0.0) == (ref == 0.0)).all()
    nz = ref > 0.0
    assert (np.abs(ev.terms[nz] - ref[nz]) <= 1e-9 * ref[nz]).all()
    assert abs(ev.raw_sum - ref.sum()) <= 1e-12 * ref.sum()


# n=9000 crosses the kernel's 4096-wide block boundary; K = n//2 + 2
# leaves the outside pool m_out = n-r-1 below K for the largest r
_GRID_N = (10, 31, 200, 9000)
_GRID_MU = (0.1, 0.5, 0.99)


def _grid_k(n):
    return (2, 3, 5, n // 2 + 2)


@pytest.mark.parametrize("n", _GRID_N)
def test_union_bound_matches_scalar_reference(n):
    for mu in _GRID_MU:
        for k in _grid_k(n):
            _assert_matches_reference(union_bound_sum(n, mu, k, 1), n, mu, k, 0)


@pytest.mark.parametrize("n", _GRID_N)
def test_deleted_union_bound_matches_scalar_reference(n):
    for mu in _GRID_MU:
        for k in _grid_k(n):
            for d in (0, 1, 3):
                ev = union_bound_sum_deleted(n, mu, k, d, 1)
                _assert_matches_reference(ev, n, mu, k, d)


def test_union_bound_matches_reference_with_many_deletions():
    # d well above the block size keeps the kernel's lgamma spans apart
    for n, mu, k, d in ((200, 0.5, 3, 150), (9000, 0.5, 5, 5000),
                        (9000, 0.1, 3, 5000)):
        ev = union_bound_sum_deleted(n, mu, k, d, 1)
        _assert_matches_reference(ev, n, mu, k, d)


def test_union_bound_beyond_float64_is_inf_and_clamped():
    # terms near r = (n-d)/2 exceed float64; the scalar loop raised here
    ev = union_bound_sum_deleted(9000, 0.5, 2, 5000, 1)
    assert ev.raw_sum == math.inf
    assert ev.value == 1.0


def _blocks(n, d, lo):
    """(start, width) of each block of subset sizes in a sum from lo."""
    hi = (n - d) // 2
    return [(a, min(a + oracle._BLOCK, hi + 1) - a)
            for a in range(lo, hi + 1, oracle._BLOCK)]


def _unskipped_terms(n, mu, k, d, lo, mode="log"):
    """The sum's terms with _cut_kernel run on every block: the skip's reference."""
    parts = []
    for a, width in _blocks(n, d, lo):
        f_in, f_out, _, log_term = (row[0] for row in _cut_kernel(n, mu, k, d, [a], width))
        if mode == "direct":
            r = np.arange(a, a + width, dtype=np.int64)
            binom = np.array([float(math.comb(n - d, b)) for b in r.tolist()])
            parts.append(binom * f_in ** r * f_out ** (n - d - r))
        else:
            with np.errstate(over="ignore"):
                parts.append(np.exp(log_term))
    return np.concatenate(parts)


def _record_kernel_calls(monkeypatch):
    """Patch the sum's kernel to record the number of starts of every call:
    a block evaluation runs one start, the bounding call two per block."""
    calls = []

    def counting_kernel(n, mu, k, d, starts, width):
        calls.append(len(starts))
        return _cut_kernel(n, mu, k, d, starts, width)

    monkeypatch.setattr(oracle, "_cut_kernel", counting_kernel)
    return calls


@pytest.mark.parametrize("n", (20_000, 30_000, 100_000))
def test_block_log_bound_covers_every_kernel_term(n):
    # every block, the first one too, is bounded by one call
    for mu in (0.1, 0.5, 0.9, 0.99):
        for k in (2, 3, 5):
            for d in (0, 7, 100):
                blocks = _blocks(n, d, 1)
                bounds = _block_log_bounds(n, mu, k, d, [a for a, _ in blocks],
                                           [a + width - 1 for a, width in blocks])
                assert bounds.shape == (len(blocks),)
                for (a, width), bound in zip(blocks, bounds):
                    log_term = _cut_kernel(n, mu, k, d, [a], width)[3]
                    assert bound >= log_term.max(), (mu, k, d, a)


# evaluated counts the blocks the kernel runs on, of 123
@pytest.mark.parametrize("mu, k, d, lo, evaluated", [
    (0.9, 2, 0, 1, 20),
    (0.9, 2, 20, 80, 20),
    (0.99, 2, 0, 1, 122),   # only the short last block is skipped
    (0.1, 3, 0, 1, 2),
])
def test_skipped_blocks_leave_the_sum_bit_identical(monkeypatch, mu, k, d, lo,
                                                    evaluated):
    n = 1_000_000
    ref = _unskipped_terms(n, mu, k, d, lo)
    calls = _record_kernel_calls(monkeypatch)
    ev = union_bound_sum_deleted(n, mu, k, d, lo)
    assert np.array_equal(ev.terms, ref)
    assert ev.raw_sum == float(ref.sum())
    assert calls == [2 * 123] + [1] * evaluated


def test_direct_mode_skips_no_block(monkeypatch):
    # at the real block size a direct sum overflows float64 before it
    # spans two blocks, so narrow the blocks to see what each mode skips
    monkeypatch.setattr(oracle, "_BLOCK", 64)
    for args in ((1000, 0.1, 5, 0, 1), (1020, 0.1, 5, 20, 1)):
        blocks = len(_blocks(args[0], args[3], args[4]))
        for mode in ("direct", "log"):
            ref = _unskipped_terms(*args, mode=mode)
            assert (ref == 0.0).any() and (ref > 0.0).any()
            calls = _record_kernel_calls(monkeypatch)
            ev = union_bound_sum_deleted(*args, mode=mode)
            assert np.array_equal(ev.terms, ref)
            assert ev.raw_sum == float(ref.sum())
            if mode == "direct":
                assert calls == [1] * blocks
            else:
                assert calls[0] == 2 * blocks and len(calls) - 1 < blocks


def test_underflow_threshold_is_below_exp_underflow():
    assert np.exp(np.float64(_UNDERFLOW_LOG)) == 0.0
    assert np.exp(np.float64(-745.0)) > 0.0


def test_cut_probabilities_match_scalar_reference():
    for n, mu, k in ((10, 0.5, 2), (200, 0.1, 3), (9000, 0.99, 5), (31, 0.5, 17)):
        for r in (1, 2, n // 3, n // 2, n - 4):
            assert exact_cut_probability(n, mu, k, r) == pytest.approx(
                _ref_cut_probability(n, mu, k, 0, r), rel=1e-12, abs=0.0)
            for d in (1, 3):
                got = exact_cut_probability_deleted(n, mu, k, d, r)
                assert got == pytest.approx(
                    _ref_cut_probability(n, mu, k, d, r), rel=1e-12, abs=0.0)


def test_single_node_cut_probability_is_exactly_zero():
    # a lone node always selects someone, so {v} can never be a cut
    for n in (5, 20, 100):
        for k in (2, 3):
            assert exact_cut_probability(n, 0.5, k, 1) == 0.0


def test_known_closed_form_value_n5():
    # n=5, r=2, mu=0.5, K=2: (1/3)^3 * (1/8)^2 = 1/1728
    value = exact_cut_probability(5, 0.5, 2, 2)
    assert value == pytest.approx(1.0 / 1728.0, abs=1e-15)


def test_cut_probability_agrees_with_enumeration_on_a_point():
    p_closed = exact_cut_probability(5, 0.5, 2, 2)
    p_enum = exhaustive_event_probability(
        5, 0.5, 2, 0, lambda g: g.is_cut({0, 1}))
    assert abs(p_closed - p_enum) < 1e-12


def test_deleted_cut_probability_agrees_with_enumeration():
    # P[S cut | S disjoint from D] recovered from the joint enumeration
    n, mu, k, d, r = 6, 0.5, 2, 1, 2
    subset = set(range(r))
    joint = exhaustive_event_probability(
        n, mu, k, d,
        lambda g: not (subset & g.deleted) and g.is_cut(subset))
    conditional = joint * math.comb(n, d) / math.comb(n - r, d)
    closed = exact_cut_probability_deleted(n, mu, k, d, r)
    assert abs(closed - conditional) < 1e-12


def test_enumerated_cut_rejects_deleted_nodes():
    # as component_analysis.is_cut does; node 0 is deleted in some outcomes
    with pytest.raises(ParameterError, match="subset of the survivors"):
        exhaustive_event_probability(4, 0.5, 2, 1, lambda g: g.is_cut({0, 1}))
    # an out-of-range node, the empty set and the whole survivor set
    for d, subset in ((0, lambda g: {0, 4}), (1, lambda g: set()), (0, lambda g: range(4)),
                      (1, lambda g: g.surviving())):
        with pytest.raises(ParameterError, match="^cut subset must be a nonempty proper "
                                                 "subset of the survivors$"):
            exhaustive_event_probability(4, 0.5, 2, d, lambda g: g.is_cut(subset(g)))


# sha256 of counts.tobytes() and sigs.tobytes() of _signature_table,
# recorded from the table built by concatenating every outcome's keys;
# (3, 2), (4, 3), (5, 4) and (6, 5), where C(deg, K) is zero for most
# degrees, from the node-by-node scatter that the subset transform replaced
_TABLE_PINS = [
    (3, 2, "53b3503a4977f9258af50ad17f70051d61def617695fdda7c7e6bb547b21dc82",
     "b35408bee8ac432986236e0b1c3ed9feae0b12fa4ab4f836b4906a30c9df410f"),
    (4, 3, "1f8b85e62603492e22499b41d6efe9d8bcded00cf4632fb66b23b07ca9bff4ad",
     "fbb297445bf69eb61003854e80a79623fe945c93098518aba67117ee802478e1"),
    (5, 4, "a709381877f8ad2b5dfd6e1aa6aa10951cf07745fecc28b4e814353b5b91224b",
     "94b4537b695af2e035b4756da91087eb621a0617606c601f1926424881109b56"),
    (6, 5, "d362260a367558b11e21230a3e7f813188517444a59d8b27927d3c7bfc5b4488",
     "028cebd263a1ea711b9d222b10b502bc35508c3fc6029ee1faf914ed9f2f5ffc"),
    (5, 2, "79b8dafe167089068cce0ec48d07de1adf91b1b63afede522a8dd34129b386fd",
     "a48e2456e5bc3c094412ea5457a1a15af4fe46ef68729be1d113332d15b8076c"),
    (6, 2, "dbdfa816b2ec4d4c0f4a06eb8a1a337c59ab5a5639e55920c4421bd6c57aea44",
     "ca8ee7fc98b53c0d039f0288328b90d42256d46dd276ce62ee068d52cfcb9b6d"),
    (6, 3, "762ed4568ad5df19cff2da95e0d3acc742a3b6e6b2d7ac60332a7d628730d6ad",
     "f5e4b25000df1dce006bf37cd0bce98dc95527524711b5e51a2e87161e5ad796"),
]


@pytest.mark.parametrize("n, k, counts_sha, sigs_sha", _TABLE_PINS)
def test_signature_table_bits_are_pinned(n, k, counts_sha, sigs_sha):
    counts, sigs = oracle._signature_table(n, k)
    assert counts.dtype == sigs.dtype == np.int64
    assert hashlib.sha256(counts.tobytes()).hexdigest() == counts_sha
    assert hashlib.sha256(sigs.tobytes()).hexdigest() == sigs_sha


def _brute_signature_table(n, k):
    """(counts, sigs) by walking every joint outcome: each node picks one
    of its n-1 pairs (a single pick) or a K-subset of them."""
    pairs = list(itertools.combinations(range(n), 2))
    tally = {}
    per_node = []
    for i in range(n):
        mine = [1 << idx for idx, p in enumerate(pairs) if i in p]
        per_node.append([(b, 1) for b in mine]
                        + [(sum(sub), 0) for sub in itertools.combinations(mine, k)])
    for outcome in itertools.product(*per_node):
        sig = 0
        for bits, _ in outcome:
            sig |= bits
        key = sig, sum(single for _, single in outcome)
        tally[key] = tally.get(key, 0) + 1
    sigs = sorted({sig for sig, _ in tally})
    counts = np.zeros((len(sigs), n + 1), dtype=np.int64)
    row = {sig: j for j, sig in enumerate(sigs)}
    for (sig, a), c in tally.items():
        counts[row[sig], a] = c
    return counts, np.array(sigs, dtype=np.int64)


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (4, 3), (5, 2)])
def test_signature_table_is_the_outcome_walk(n, k):
    counts, sigs = oracle._signature_table(n, k)
    want_counts, want_sigs = _brute_signature_table(n, k)
    assert np.array_equal(sigs, want_sigs) and np.array_equal(counts, want_counts)
    assert counts.flags.c_contiguous


def test_signature_table_peak_memory():
    # the kept n=6 table is 1.75 MB and the transform's 7 x 2**15 int64
    # array 1.8 MB; a scatter over per-node copies of the state space peaks higher
    oracle._signature_table.cache_clear()
    tracemalloc.start()
    try:
        oracle._signature_table(6, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_signature_table_cache_keeps_two_tables():
    # an n = 7 table holds ~130 MB; two serve oracle-enum's K in {2, 3}
    oracle._signature_table.cache_clear()
    for k in (2, 3, 4):
        oracle._signature_table(5, k)
    assert oracle._signature_table.cache_info().currsize == 2


def test_enumerated_cut_is_the_edge_walk():
    # the signature mask against a walk over the decoded edges, for every
    # seventh signature at n=5 and every cut of every deletion set, d <= 2
    _, sigs = oracle._signature_table(5, 2)
    for d in (0, 1, 2):
        for dset in itertools.combinations(range(5), d):
            alive = [i for i in range(5) if i not in dset]
            subsets = [set(s) for r in range(1, len(alive))
                       for s in itertools.combinations(alive, r)]
            for sig in sigs.tolist()[::7]:
                g = EnumeratedRealization(5, sig, dset)
                for s in subsets:
                    walk = not any((u in s) != (v in s) for u, v in g.edges
                                   if u in alive and v in alive)
                    assert g.is_cut(s) == walk


def test_enumerated_survivors_and_edges_are_the_plain_scans():
    # surviving() and edges read cached tuples (survivors per deletion set,
    # pairs per n); _cross_mask reads the same pairs, so the edge walk above
    # would agree with a wrong pair order
    _, sigs = oracle._signature_table(5, 2)
    for d in (0, 1, 2):
        for dset in itertools.combinations(range(5), d):
            want = tuple(i for i in range(5) if i not in dset)
            for deleted in (dset, list(dset), set(dset), frozenset(dset)):
                for sig in sigs.tolist()[::97]:
                    assert EnumeratedRealization(5, sig, deleted).surviving() == want
    for n in (5, 6):
        _, sigs = oracle._signature_table(n, 2)
        pairs = list(itertools.combinations(range(n), 2))
        for sig in sigs.tolist()[::7]:
            want = tuple(pairs[idx] for idx in range(len(pairs)) if sig >> idx & 1)
            assert EnumeratedRealization(n, sig, ()).edges == want


def test_deleted_reduces_to_plain_at_d_zero():
    for n in (6, 15, 40):
        for r in (1, 2, n // 2):
            a = exact_cut_probability_deleted(n, 0.3, 2, 0, r)
            b = exact_cut_probability(n, 0.3, 2, r)
            assert a == b


def test_cut_probability_decreasing_in_r_on_positive_support():
    # r=1 gives probability exactly 0, so monotone decrease starts at r=2
    vals = [exact_cut_probability(100, 0.5, 2, r) for r in range(2, 51)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert exact_cut_probability(100, 0.5, 2, 1) == 0.0


def test_deleted_cut_probability_nondecreasing_in_d():
    for r in (2, 5, 8):
        vals = [exact_cut_probability_deleted(20, 0.5, 2, d, r)
                for d in range(4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_cut_probability_validates_range(reads_numbers):
    with pytest.raises(ParameterError):
        exact_cut_probability(10, 0.5, 2, 0)
    with pytest.raises(ParameterError):
        exact_cut_probability(10, 0.5, 2, 10)
    with pytest.raises(ParameterError):
        exact_cut_probability(10, 1.5, 2, 3)
    with pytest.raises(ParameterError):
        exact_cut_probability(10, 0.5, 1, 3)
    with pytest.raises(ParameterError):
        exact_cut_probability_deleted(10, 0.5, 2, 3, 7)  # r > n-d-1
    with pytest.raises(ParameterError):
        exact_cut_probability_deleted(10, 0.5, 2, -1, 2)
    for index, name in enumerate(["n", "mu", "k", "r"]):
        reads_numbers(exact_cut_probability, (30, 0.5, 2, 3), index, name, name != "mu")
    for index, name in enumerate(["n", "mu", "k", "d", "r"]):
        reads_numbers(exact_cut_probability_deleted, (30, 0.5, 2, 3, 5), index, name,
                      name != "mu")


def test_union_bound_frozen_values():
    assert union_bound_sum(30, 0.5, 2, 2).value == pytest.approx(
        0.009915959580270053, rel=1e-12)
    assert union_bound_sum(30, 0.5, 2, 8).value == pytest.approx(
        9.58809e-05, rel=1e-5)
    assert union_bound_sum_deleted(30, 0.5, 2, 3, 3).value == pytest.approx(
        0.1027793674939932, rel=1e-12)


# sha256 of terms.tobytes() and repr(raw_sum) of union-bound sums, recorded
# from the kernel that bounded each block with two scalar kernel calls;
# they pin the sums' bits, skipped blocks included
_SUM_PINS = [
    (union_bound_sum, (10**6, 0.9, 2, 1), "log",
     "6ba16a195eb1db1c1faf387f0d20ccb18eb42ff1024c59ec63179b3ba8e55fa6",
     "0.19899826697234566"),
    (union_bound_sum, (10**6, 0.99, 2, 1), "log",
     "1db877b3b47e7c6a417f072463dc2d899081a900a4a245b0be367c52814f1cd1",
     "1.370695108018077"),
    (union_bound_sum, (9000, 0.5, 4502, 1), "log",
     "d7967a6f7d2dd3204ed70cc72c705e33a573aef8431b69c5bbd39e5b5cd67384", "0.0"),
    (union_bound_sum, (30, 0.5, 2, 2), "log",
     "c35edfefb8fbd94fa22ac5baf217c3b4c1d689971d1fa065dd2c1c38586cac71",
     "0.009915959580270053"),
    (union_bound_sum_deleted, (10**6, 0.9, 2, 20, 80), "log",
     "ab329693b370eb27dd1fe875f0b564be4787e8e021a01ff425b3c65d8a7cd04e",
     "0.4740401720038148"),
    (union_bound_sum_deleted, (9000, 0.5, 5, 5000, 1), "log",
     "0913108fb26ca9b225a3d52eda82aa0ce559a731027ac1e531586fc896509160",
     "2.0212477775143835e+175"),
    (union_bound_sum_deleted, (200, 0.5, 3, 150, 1), "log",
     "a0832aa35f26ada12f749c3ace9843a990c058ee649292670f5372dd370d1e42",
     "1924683298.9737163"),
    (union_bound_sum, (1000, 0.1, 5, 1), "direct",
     "a5dc59e038686a5c15336bac5f4bba6a8f545bf8696fee60b9b88a736555a329",
     "4.994198025552781e-07"),
    (union_bound_sum_deleted, (1020, 0.1, 5, 20, 1), "direct",
     "c17a037f814e24a4c64721eb73b0f9a074fdcb6ee556e7bf45f4d236df8e7fe0",
     "0.021628902550800546"),
]


@pytest.mark.parametrize("func, args, mode, terms_sha, raw", _SUM_PINS,
                         ids=[f"{case[0].__name__}-{case[2]}-{'-'.join(map(str, case[1]))}"
                              for case in _SUM_PINS])
def test_union_bound_bits_are_pinned(func, args, mode, terms_sha, raw):
    ev = func(*args, mode=mode)
    assert hashlib.sha256(ev.terms.tobytes()).hexdigest() == terms_sha
    assert repr(ev.raw_sum) == raw


def test_cut_probability_bits_are_pinned():
    cases = [
        (exact_cut_probability, (5, 0.5, 2, 2), "log", "0.0005787037037037044"),
        (exact_cut_probability, (1000, 0.9, 2, 10), "log", "2.1703406670794297e-26"),
        (exact_cut_probability, (1000, 0.9, 2, 10), "direct", "2.170340667079427e-26"),
        (exact_cut_probability, (10**6, 0.9, 2, 3), "log", "2.1511314795144123e-19"),
        (exact_cut_probability, (200, 0.25, 3, 66), "direct", "1.0775593420156157e-119"),
        (exact_cut_probability_deleted, (10**6, 0.9, 2, 20, 5), "log",
         "1.9217047360624962e-26"),
        (exact_cut_probability_deleted, (9000, 0.5, 5, 5000, 3), "log",
         "0.0005177831625199301"),
        (exact_cut_probability_deleted, (30, 0.9, 3, 4, 5), "direct",
         "9.024450614080123e-06"),
    ]
    for func, args, mode, value in cases:
        assert repr(func(*args, mode=mode)) == value, (func.__name__, args, mode)


def test_union_bound_evaluation_structure():
    ev = union_bound_sum(30, 0.5, 2, 2)
    assert ev.r_start == 2
    assert ev.terms.size == 30 // 2 - 2 + 1
    assert (ev.terms >= 0).all()
    assert 0.0 <= ev.value <= 1.0
    assert ev.value <= ev.terms.sum() + 1e-15
    assert ev.raw_sum == pytest.approx(float(ev.terms.sum()), rel=1e-12)
    assert ev.arithmetic_mode == "log"


def test_union_bound_clamps_but_preserves_raw_sum():
    ev = union_bound_sum(60, 0.99, 2, 1)
    assert ev.raw_sum > 1.0
    assert ev.value == 1.0


def test_union_bound_monotone_in_m_k_and_mu():
    by_m = [union_bound_sum(40, 0.5, 2, m).raw_sum for m in range(1, 15)]
    assert all(a >= b for a, b in zip(by_m, by_m[1:]))
    by_k = [union_bound_sum(40, 0.5, k, 3).raw_sum for k in (2, 3, 4, 5)]
    assert all(a > b for a, b in zip(by_k, by_k[1:]))
    by_mu = [union_bound_sum(40, mu, 2, 3).raw_sum
             for mu in (0.25, 0.5, 0.75, 0.9)]
    assert all(a < b for a, b in zip(by_mu, by_mu[1:]))


def test_deleted_union_bound_nondecreasing_in_d():
    vals = [union_bound_sum_deleted(30, 0.5, 2, d, 3).raw_sum
            for d in range(5)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert union_bound_sum_deleted(30, 0.5, 2, 0, 3).raw_sum == \
        union_bound_sum(30, 0.5, 2, 3).raw_sum


def test_direct_mode_refuses_binomials_beyond_float64():
    # C(3000, 1500) ~ 1e901 has no float64 value
    with pytest.raises(ParameterError, match="exceeds float64"):
        union_bound_sum(3000, 0.5, 2, 1, mode="direct")
    with pytest.raises(ParameterError, match="exceeds float64"):
        union_bound_sum_deleted(3000, 0.5, 2, 20, 1, mode="direct")


def _same_sum(a, b):
    return (a.raw_sum == b.raw_sum and a.terms.tobytes() == b.terms.tobytes()
            and type(a.r_start) is type(b.r_start) is int and a.r_start == b.r_start)


def test_union_bound_validates_limits(reads_numbers):
    with pytest.raises(ParameterError):
        union_bound_sum(30, 0.5, 2, 0)
    with pytest.raises(ParameterError):
        union_bound_sum(30, 0.5, 2, 16)
    with pytest.raises(ParameterError):
        union_bound_sum_deleted(30, 0.5, 2, 4, 14)  # x > (n-d)/2
    with pytest.raises(ParameterError):
        union_bound_sum(30, 0.5, 2, 3, mode="fancy")
    for index, name in enumerate(["n", "mu", "k", "m"]):
        reads_numbers(union_bound_sum, (30, 0.5, 2, 2), index, name, name != "mu", _same_sum)
    for index, name in enumerate(["n", "mu", "k", "d", "x"]):
        reads_numbers(union_bound_sum_deleted, (30, 0.5, 2, 3, 3), index, name, name != "mu",
                      _same_sum)


def test_log_domain_survives_huge_n():
    ev = union_bound_sum(1_000_000, 0.9, 2, 10)
    assert np.isfinite(ev.raw_sum)
    assert ev.raw_sum > 0.0
    big = union_bound_sum(5000, 0.9, 2, 60)
    assert big.value == pytest.approx(5.176349720329502e-07, rel=1e-9)
    assert big.value < 1.0


def test_log_and_direct_modes_agree():
    result = check_log_direct()
    assert result.passed, result.detail


def test_enumeration_connected_probability_forced_case():
    p = exhaustive_event_probability(3, 0.5, 2, 0, lambda g: g.is_connected)
    assert p == pytest.approx(1.0, abs=1e-15)
    p = exhaustive_event_probability(3, 0.25, 2, 0, lambda g: g.is_connected)
    assert p == pytest.approx(1.0, abs=1e-15)


def test_enumeration_refuses_large_n(reads_numbers):
    with pytest.raises(ParameterError):
        exhaustive_event_probability(8, 0.5, 2, 0, lambda g: True)
    for index, name in enumerate(["n", "mu", "k", "d"]):
        reads_numbers(exhaustive_event_probability,
                      (4, 0.5, 2, 1, lambda g: not (g.deleted & {0, 1}) and g.is_cut({0, 1})),
                      index, name, name != "mu")


def test_enumeration_probabilities_are_normalized():
    assert exhaustive_event_probability(5, 0.5, 2, 0, lambda g: True) == \
        pytest.approx(1.0, abs=1e-15)
    assert exhaustive_event_probability(5, 0.5, 2, 1, lambda g: True) == \
        pytest.approx(1.0, abs=1e-15)
    assert exhaustive_event_probability(5, 0.5, 2, 0, lambda g: False) == 0.0


def test_enumerated_realization_exposes_graph_queries():
    seen = {"components": 0}

    def probe(g):
        assert isinstance(g, EnumeratedRealization)
        sizes = g.component_sizes
        assert sum(sizes) == 5 - len(g.deleted)
        assert g.cmax == max(sizes)
        seen["components"] += 1
        return g.cmax >= 4

    p = exhaustive_event_probability(5, 0.5, 2, 1, probe)
    assert 0.0 < p < 1.0
    assert seen["components"] > 0


def test_enumeration_matches_monte_carlo_on_giant_event():
    # P[cmax >= n-1] at n=5: enumeration vs 150k simulated draws, 4 sigma
    n, mu, k = 5, 0.5, 2
    p_exact = exhaustive_event_probability(
        n, mu, k, 0, lambda g: g.cmax >= n - 1)
    trials = 150_000
    cm = collect_cmax(two_type_params(n, mu, k), 0, trials, 2024)
    hits = int((cm >= n - 1).sum())
    sigma = math.sqrt(p_exact * (1 - p_exact) / trials)
    assert abs(hits / trials - p_exact) < 4 * sigma
