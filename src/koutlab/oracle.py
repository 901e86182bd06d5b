"""Exact finite-n probabilities for cut events, and tiny-n enumeration.

The closed forms here give the probability that a fixed r-node subset
is a cut (no edge to its complement), optionally after deleting d
uniformly random nodes, together with the union-bound sums over all
subset sizes in [M, n/2], for n up to 10^6.  Everything is evaluated in
log domain by default so n up to 10^6 neither overflows nor underflows;
a direct float64 mode exists for cross-checking at small n.  Both modes
inherit relative error from cancellation between math.lgamma
log-factorials: against 40-digit mpmath, union_bound_sum(n, 0.9, 2, 1)
is off by 4e-9 at n=5000, 1.1e-6 at 10^5 and 1.1e-4 at 10^6, and a cut
probability by 2.2e-4 at 10^6.  Past 10^6 the error grows to percents
(2.7% and 2% at 10^7), so every closed-form query refuses n > 10^6.
Every per-r term comes from one vectorized kernel, _cut_kernel, run on
blocks of consecutive subset sizes.  Log mode first bounds every block
of the union bound with one kernel call at the block ends, then
evaluates only the blocks whose terms do not provably underflow to 0.0,
so its output is the same as evaluating every block; direct mode skips
nothing.

exhaustive_event_probability enumerates every joint selection outcome
(and every deletion set) on graphs of at most 7 nodes, aggregating
exact integer counts by undirected edge signature, an integer bitmask
over the node pairs that predicates read directly, so any predicate's
probability can be computed exactly.  It exists to validate the closed
forms, whose per-node factorization is not obvious at first sight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from math import comb, exp, lgamma

import numpy as np

from .component_analysis import _reference_sizes
from .errors import ParameterError

_MAX_ENUM_NODES = 7
_MAX_CLOSED_FORM_N = 10**6  # where the lgamma error is still ~1e-4 (see above)


def _check_common(n, mu, k):
    if n > _MAX_CLOSED_FORM_N:
        raise ParameterError(
            f"closed-form oracle queries are limited to n <= {_MAX_CLOSED_FORM_N}")
    if not 0.0 < mu < 1.0:
        raise ParameterError("mu must lie strictly inside (0, 1)")
    if not 2 <= k < n:
        raise ParameterError("need 2 <= K < n")


def _check_mode(mode):
    if mode not in ("log", "direct"):
        raise ParameterError("mode must be 'log' or 'direct'")


# r values per kernel block: bounds the lgamma spans' memory at large n
_BLOCK = 4096


def _lgamma_rows(starts, size):
    """Row i holds math.lgamma(starts[i] + j) for j in range(size).

    Arguments below 1 give nan.  Rows that overlap or touch are read from
    one contiguous span, so each integer is evaluated once.
    """
    rows = np.full((len(starts), size), np.nan)
    order = sorted(range(len(starts)), key=starts.__getitem__)
    groups = [[order[0]]]
    for i in order[1:]:
        if starts[i] <= starts[groups[-1][-1]] + size:
            groups[-1].append(i)
        else:
            groups.append([i])
    for group in groups:
        lo, hi = max(starts[group[0]], 1), starts[group[-1]] + size
        if hi <= lo:
            continue
        span = np.fromiter(map(lgamma, range(lo, hi)), float, hi - lo)
        for i in group:
            skip = max(lo - starts[i], 0)
            if skip < size:
                rows[i, skip:] = span[starts[i] + skip - lo:starts[i] + size - lo]
    return rows


def _cut_kernel(n, mu, k, d, starts, width):
    """The per-r pieces of P[a fixed r-subset of the n-d survivors is a cut].

    Row i covers the width subset sizes from starts[i] up.  Each of the
    n-d-r surviving outside nodes must select entirely outside the subset
    (pool m_out = n-r-1) and each of the r inside nodes entirely inside it
    or the deleted set (pool m_in = r+d-1), so the probability is
    f_in**r * f_out**(n-d-r), where f(m) is the type-marginalized chance
    that a node's whole selection set lands in a given m-node pool:
    mu * m/(n-1) + (1-mu) * C(m,K)/C(n-1,K), with C(m,K) = 0 for m < K.

    Returns (f_in, f_out, log_power, log_term), one row per start:
    log_power is r*log f_in + (n-d-r)*log f_out (-inf where a factor is 0)
    and log_term is log C(n-d, r) + r*log f_in + (n-d-r)*log f_out, summed
    left to right; the order fixes the last bits of the union-bound
    terms.  Every log-factorial is math.lgamma of an integer, read from
    spans that evaluate each integer once.
    """
    r = np.array(starts, dtype=np.int64)[:, None] + np.arange(width)
    lg = _lgamma_rows([a + i for i in (1, d, d - k) for a in starts]
                      + [n - a - width + i for i in (1, 1 - k, 2 - d) for a in starts],
                      width).reshape(6, len(starts), width)
    lg_r, lg_in, lg_in_k = lg[:3]                   # r+1, m_in+1, m_in-k+1
    lg_out, lg_out_k, lg_rest = lg[3:, :, ::-1]     # m_out+1, m_out-k+1, n-d-r+1
    lg_k = lgamma(k + 1)
    lb_pool = lgamma(n) - lg_k - lgamma(n - k)  # log C(n-1, K)

    def mix(m, lg_m, lg_m_k):
        single = mu * m / (n - 1)
        # math.exp, not np.exp: numpy's SIMD exp can differ by an ulp, and
        # f_out**(n-d-r) multiplies that relative error by up to n
        ratio = np.fromiter(map(exp, (lg_m - lg_k - lg_m_k - lb_pool).ravel().tolist()),
                            float, r.size).reshape(r.shape)
        return np.where(m >= k, single + (1.0 - mu) * ratio, single)

    f_in = mix(r + d - 1, lg_in, lg_in_k)
    f_out = mix(n - r - 1, lg_out, lg_out_k)
    with np.errstate(divide="ignore"):
        log_in, log_out = r * np.log(f_in), (n - d - r) * np.log(f_out)
    log_binom = lgamma(n - d + 1) - lg_r - lg_rest
    return f_in, f_out, log_in + log_out, log_binom + log_in + log_out


def _cut_probability(n, mu, k, d, r, mode):
    _check_mode(mode)
    f_in, f_out, log_power, _ = _cut_kernel(n, mu, k, d, [r], 1)
    if mode == "direct":
        return float(f_in[0, 0] ** r * f_out[0, 0] ** (n - d - r))
    return exp(log_power[0, 0])


def exact_cut_probability(n, mu, k, r, mode="log") -> float:
    """P[a fixed r-node subset is a cut] for the two-type ensemble.

    Each of the n-r outside nodes must select entirely outside the
    subset (pool n-r-1) and each of the r inside nodes entirely inside
    (pool r-1); independence across nodes gives a product of powers.
    """
    n, k, r = int(n), int(k), int(r)
    _check_common(n, mu, k)
    if not 1 <= r <= n - 1:
        raise ParameterError("need 1 <= r <= n-1")
    return _cut_probability(n, mu, k, 0, r, mode)


def exact_cut_probability_deleted(n, mu, k, d, r, mode="log") -> float:
    """P[a fixed r-node surviving subset is a cut after deleting d nodes].

    Conditional on a fixed deletion set disjoint from the subset (by
    exchangeability the value does not depend on which one).  Inside
    nodes may select the subset or the deleted pool (r+d-1 candidates);
    the n-d-r surviving outside nodes must avoid the subset entirely.
    """
    n, k, d, r = int(n), int(k), int(d), int(r)
    _check_common(n, mu, k)
    if d < 0:
        raise ParameterError("deletion count must be nonnegative")
    if not 1 <= r <= n - d - 1:
        raise ParameterError("need 1 <= r <= n-d-1")
    return _cut_probability(n, mu, k, d, r, mode)


# ---------------------------------------------------------------------------
# union-bound sums


@dataclass(frozen=True, eq=False)
class BoundEvaluation:
    """A union-bound sum: clamped value plus its per-r contributions.

    value is clamped to [0, 1]; raw_sum keeps the unclamped total (inf
    once it exceeds float64) and terms[i] is the contribution of subset
    size r_start + i.
    """

    value: float
    raw_sum: float
    terms: np.ndarray
    r_start: int
    arithmetic_mode: str


def union_bound_sum(n, mu, k, m, mode="log") -> BoundEvaluation:
    """Sum over r in [M, n/2] of C(n,r) * P[an r-subset is a cut].

    Upper-bounds the probability that some cut of size in [M, n-M]
    exists, hence (for M <= n/3) that more than M nodes lie outside the
    largest component.
    """
    n, k, m = int(n), int(k), int(m)
    _check_common(n, mu, k)
    if not 1 <= m <= n // 2:
        raise ParameterError("need 1 <= M <= floor(n/2)")
    return _bound_sum(n, mu, k, d=0, lo=m, mode=mode)


def union_bound_sum_deleted(n, mu, k, d, x, mode="log") -> BoundEvaluation:
    """Deleted-graph version: sum over r in [x, (n-d)/2] of
    C(n-d,r) * P[an r-subset of the survivors is a cut]."""
    n, k, d, x = int(n), int(k), int(d), int(x)
    _check_common(n, mu, k)
    if d < 0 or d >= n:
        raise ParameterError("need 0 <= d < n")
    if not 1 <= x <= (n - d) // 2:
        raise ParameterError("need 1 <= x <= floor((n-d)/2)")
    return _bound_sum(n, mu, k, d=d, lo=x, mode=mode)


def _binomials(a, r):
    """C(a, r) as float64 for each r; direct mode's exact counts."""
    try:
        return np.array([float(comb(a, b)) for b in r.tolist()])
    except OverflowError:
        raise ParameterError(
            f"C({a}, r) exceeds float64 in direct mode; use log mode") from None


# np.exp gives exactly 0.0 below about -745.13; the margin covers the
# kernel's lgamma error (about 1e-4 in log_term at n=10^6) many times over
_UNDERFLOW_LOG = -800.0


def _block_log_bounds(n, mu, k, d, starts, ends):
    """Upper bounds on _cut_kernel's log_term over each block [a, b] of
    subset sizes, a in starts and b in ends, from one kernel call at every
    b and a.  Needs b <= (n-d)/2, so that C(n-d, r) <= C(n-d, b).  f_in
    rises with r and is at most 1, so f_in(r)**r <= f_in(b)**a; f_out
    falls with r, so f_out(r)**(n-d-r) <= f_out(a)**(n-d-b)."""
    f_in, f_out, _, _ = _cut_kernel(n, mu, k, d, ends + starts, 1)
    a, b = np.array(starts), np.array(ends)
    log_binom = [lgamma(n - d + 1) - lgamma(e + 1) - lgamma(n - d - e + 1) for e in ends]
    with np.errstate(divide="ignore"):
        return log_binom + a * np.log(f_in[:b.size, 0]) + (n - d - b) * np.log(f_out[b.size:, 0])


def _bound_sum(n, mu, k, d, lo, mode):
    """Direct mode evaluates every block.  Log mode leaves at 0.0 each
    block whose _block_log_bounds entry shows that every term underflows,
    so its output matches the unskipped sum bit for bit."""
    _check_mode(mode)
    hi = (n - d) // 2
    starts = list(range(lo, hi + 1, _BLOCK))
    ends = [min(a + _BLOCK, hi + 1) - 1 for a in starts]
    keep = (_block_log_bounds(n, mu, k, d, starts, ends) >= _UNDERFLOW_LOG
            if mode == "log" else [True] * len(starts))
    terms = np.zeros(hi - lo + 1)
    for a, b in compress(zip(starts, ends), keep):
        f_in, f_out, _, log_term = _cut_kernel(n, mu, k, d, [a], b - a + 1)
        block = terms[a - lo:b - lo + 1]
        if mode == "direct":
            r = np.arange(a, b + 1, dtype=np.int64)
            block[:] = _binomials(n - d, r) * f_in[0] ** r * f_out[0] ** (n - d - r)
        else:
            with np.errstate(over="ignore"):
                block[:] = np.exp(log_term[0])
    raw = float(terms.sum())
    return BoundEvaluation(value=min(max(raw, 0.0), 1.0), raw_sum=raw,
                           terms=terms, r_start=lo, arithmetic_mode=mode)


# ---------------------------------------------------------------------------
# exhaustive tiny-n enumeration


class EnumeratedRealization:
    """One realized undirected graph plus a deletion set, for predicates.

    sig is the graph's edge signature over all n nodes: bit idx is set
    when the idx-th pair of combinations(range(n), 2) is an edge.  edges
    decodes it into (u, v) pairs with u < v.  Queries (components, cuts)
    are answered on the subgraph induced by the surviving nodes.
    """

    __slots__ = ("n", "sig", "deleted", "_sizes")

    def __init__(self, n, sig, deleted=frozenset()):
        self.n = n
        self.sig = sig
        self.deleted = frozenset(deleted)
        self._sizes = None

    @property
    def edges(self):
        return tuple(p for idx, p in enumerate(combinations(range(self.n), 2))
                     if self.sig >> idx & 1)

    def surviving(self):
        return tuple(i for i in range(self.n) if i not in self.deleted)

    @property
    def component_sizes(self):
        if self._sizes is None:
            self._sizes = _reference_sizes(self.surviving(), self.edges)
        return self._sizes

    @property
    def cmax(self):
        return self.component_sizes[0]

    @property
    def is_connected(self):
        return len(self.component_sizes) == 1

    def is_cut(self, subset):
        # checked on every call, not cached with the mask: cached, a d=0 call
        # at n=6 can end within the 20 ms sampling period of perfbench's
        # SpeedSampler, which then fails on it
        s = frozenset(subset)
        survivors = set(self.surviving())
        if not s or not s <= survivors or len(s) == len(survivors):
            raise ParameterError("cut subset must be a nonempty proper subset of the survivors")
        return not self.sig & _cross_mask(self.n, s, self.deleted)


@lru_cache(maxsize=1024)
def _cross_mask(n, subset, deleted):
    """The signature bits of the survivor pairs with exactly one end in
    subset: subset is a cut iff a signature holds none of them."""
    return sum(1 << idx for idx, (u, v) in enumerate(combinations(range(n), 2))
               if u not in deleted and v not in deleted and (u in subset) != (v in subset))


@lru_cache(maxsize=8)
def _signature_table(n, k):
    """Aggregate all joint selection outcomes by undirected edge signature.

    Returns (counts, sigs): counts[j, a] is the exact number of joint
    outcomes with edge signature sigs[j] (bits as in EnumeratedRealization)
    and a single-pick nodes.  Outcomes are accumulated node by node over
    the (signature, a) state space, one outcome at a time into a dense
    array, so the cost is states x outcomes-per-node x n rather than the
    full product space, and memory is a few dense arrays (0.56 GB at n=7,
    K=3).
    """
    bit = {}
    for idx, (u, v) in enumerate(combinations(range(n), 2)):
        bit[u, v] = bit[v, u] = 1 << idx
    na = n + 1
    size = na << n * (n - 1) // 2

    # float64 holds the counts exactly: totals stay far below 2**53
    counts = np.zeros(size)
    counts[0] = 1.0
    for i in range(n):
        # node i picks one pair bit (a single pick) or K distinct ones,
        # whose sum is their union
        picks = [bit[i, j] for j in range(n) if j != i]
        outcomes = [(b, 1) for b in picks] + [(sum(sub), 0) for sub in combinations(picks, k)]
        support = np.flatnonzero(counts)
        vals = counts[support]
        sig_part, a_part = support // na, support % na
        counts = np.zeros(size)
        for bits, single in outcomes:
            counts += np.bincount((sig_part | bits) * na + a_part + single,
                                  weights=vals, minlength=size)

    counts = counts.reshape(-1, na)
    sigs = np.flatnonzero(counts.sum(axis=1))
    return counts[sigs].astype(np.int64), sigs


def _type_count_weights(n, k, mu):
    # exact weight of one joint outcome having a single-pick nodes
    w_single = Fraction(mu) / (n - 1)
    w_multi = (1 - Fraction(mu)) / comb(n - 1, k)
    return [w_single ** a * w_multi ** (n - a) for a in range(n + 1)]


def exhaustive_event_probability(n, mu, k, d, predicate) -> float:
    """Exact probability of a predicate over realized graphs.

    Enumerates the full outcome space: per-node selections (either one
    of the n-1 single picks or one of the C(n-1,k) k-subsets, weighted
    by mu and 1-mu) and, when d > 0, every size-d deletion set with
    uniform weight.  The predicate receives an EnumeratedRealization.
    Exact integer counts and rational weights keep the result accurate
    to float64 rounding.  Refuses n > 7: the state space is the budget.
    """
    n, k, d = int(n), int(k), int(d)
    if n > _MAX_ENUM_NODES:
        raise ParameterError(f"exhaustive enumeration is limited to n <= {_MAX_ENUM_NODES}")
    _check_common(n, mu, k)
    if not 0 <= d < n:
        raise ParameterError("need 0 <= d < n")

    counts, sigs = _signature_table(n, k)
    weights = _type_count_weights(n, k, mu)
    total = Fraction(0)
    for dset in combinations(range(n), d):
        dfrozen = frozenset(dset)
        mask = np.fromiter((bool(predicate(EnumeratedRealization(n, sig, dfrozen)))
                            for sig in sigs.tolist()), dtype=bool, count=len(sigs))
        per_a = counts[mask].sum(axis=0)
        for a, c in enumerate(per_a.tolist()):
            if c:
                total += c * weights[a]
    return float(total / comb(n, d))
