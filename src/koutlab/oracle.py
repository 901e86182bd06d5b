"""Exact finite-n probabilities for cut events, and tiny-n enumeration.

The closed forms here give the probability that a fixed r-node subset
is a cut (no edge to its complement), optionally after deleting d
uniformly random nodes, together with the union-bound sums over all
subset sizes in [M, n/2].  Everything is evaluated in log domain by
default so n up to 10^6 neither overflows nor underflows; a direct
float64 mode exists for cross-checking at small n.  Log mode inherits
about 1e-4 relative error at n=10^6 (about 4e-9 at n=5000) from
cancellation between math.lgamma log-factorials; each per-r term comes
from one vectorized kernel, _cut_kernel.

exhaustive_event_probability enumerates every joint selection outcome
(and every deletion set) on graphs of at most 7 nodes, aggregating
exact integer counts by undirected edge signature, so any predicate's
probability can be computed exactly.  It exists to validate the closed
forms, whose per-node factorization is not obvious at first sight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, exp, lgamma

import numpy as np

from .errors import ParameterError

_MAX_ENUM_NODES = 7


def _check_common(n, mu, k):
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


def _cut_kernel(n, mu, k, d, r):
    """The per-r pieces of P[a fixed r-subset of the n-d survivors is a cut].

    r is a block of consecutive int64 subset sizes.  Each of the n-d-r
    surviving outside nodes must select entirely outside the subset (pool
    m_out = n-r-1) and each of the r inside nodes entirely inside it or
    the deleted set (pool m_in = r+d-1), so the probability is
    f_in**r * f_out**(n-d-r), where f(m) is the type-marginalized chance
    that a node's whole selection set lands in a given m-node pool:
    mu * m/(n-1) + (1-mu) * C(m,K)/C(n-1,K), with C(m,K) = 0 for m < K.

    Returns (f_in, f_out, log_power, log_term): log_power is
    r*log f_in + (n-d-r)*log f_out (-inf where a factor is 0) and
    log_term is log C(n-d, r) + r*log f_in + (n-d-r)*log f_out, summed
    left to right; the order fixes the last bits of the union-bound
    terms.  Every log-factorial is math.lgamma of an integer, read from
    spans that evaluate each integer once.
    """
    size = r.size
    a = int(r[0])
    b = a + size
    lg = _lgamma_rows([a + 1, a + d, a + d - k,
                       n - b + 1, n - b + 1 - k, n - d - b + 2], size)
    lg_r, lg_in, lg_in_k = lg[:3]                # r+1, m_in+1, m_in-k+1
    lg_out, lg_out_k, lg_rest = lg[3:, ::-1]     # m_out+1, m_out-k+1, n-d-r+1
    lg_k = lgamma(k + 1)
    lb_pool = lgamma(n) - lg_k - lgamma(n - k)  # log C(n-1, K)

    def mix(m, lg_m, lg_m_k):
        single = mu * m / (n - 1)
        # math.exp, not np.exp: numpy's SIMD exp can differ by an ulp, and
        # f_out**(n-d-r) multiplies that relative error by up to n
        ratio = np.fromiter(map(exp, (lg_m - lg_k - lg_m_k - lb_pool).tolist()),
                            float, size)
        return np.where(m >= k, single + (1.0 - mu) * ratio, single)

    f_in = mix(r + d - 1, lg_in, lg_in_k)
    f_out = mix(n - r - 1, lg_out, lg_out_k)
    with np.errstate(divide="ignore"):
        log_in, log_out = r * np.log(f_in), (n - d - r) * np.log(f_out)
    log_binom = lgamma(n - d + 1) - lg_r - lg_rest
    return f_in, f_out, log_in + log_out, log_binom + log_in + log_out


def _cut_probability(n, mu, k, d, r, mode):
    _check_mode(mode)
    f_in, f_out, log_power, _ = _cut_kernel(n, mu, k, d,
                                            np.array([r], dtype=np.int64))
    if mode == "direct":
        return float(f_in[0] ** r * f_out[0] ** (n - d - r))
    return exp(log_power[0])


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


def _bound_sum(n, mu, k, d, lo, mode):
    _check_mode(mode)
    hi = (n - d) // 2
    terms = np.empty(hi - lo + 1)
    for a in range(lo, hi + 1, _BLOCK):
        r = np.arange(a, min(a + _BLOCK, hi + 1), dtype=np.int64)
        f_in, f_out, _, log_term = _cut_kernel(n, mu, k, d, r)
        block = terms[a - lo:a - lo + r.size]
        if mode == "direct":
            block[:] = _binomials(n - d, r) * f_in ** r * f_out ** (n - d - r)
        else:
            with np.errstate(over="ignore"):
                block[:] = np.exp(log_term)
    raw = float(terms.sum())
    return BoundEvaluation(value=min(max(raw, 0.0), 1.0), raw_sum=raw,
                           terms=terms, r_start=lo, arithmetic_mode=mode)


# ---------------------------------------------------------------------------
# exhaustive tiny-n enumeration


class EnumeratedRealization:
    """One realized undirected graph plus a deletion set, for predicates.

    edges is a tuple of (u, v) pairs with u < v over all n nodes;
    queries (components, cuts) are answered on the subgraph induced by
    the surviving nodes.
    """

    __slots__ = ("n", "edges", "deleted", "_sizes")

    def __init__(self, n, edges, deleted=frozenset()):
        self.n = n
        self.edges = edges
        self.deleted = frozenset(deleted)
        self._sizes = None

    def surviving(self):
        return tuple(i for i in range(self.n) if i not in self.deleted)

    @property
    def component_sizes(self):
        if self._sizes is None:
            parent = list(range(self.n))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            dead = self.deleted
            for u, v in self.edges:
                if u in dead or v in dead:
                    continue
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[rv] = ru
            sizes = {}
            for i in self.surviving():
                root = find(i)
                sizes[root] = sizes.get(root, 0) + 1
            self._sizes = tuple(sorted(sizes.values(), reverse=True))
        return self._sizes

    @property
    def cmax(self):
        return self.component_sizes[0]

    @property
    def is_connected(self):
        return len(self.component_sizes) == 1

    def is_cut(self, subset):
        s = frozenset(subset) - self.deleted
        survivors = set(self.surviving())
        if not s or not s <= survivors or len(s) == len(survivors):
            raise ParameterError("cut subset must be a nonempty proper subset of the survivors")
        dead = self.deleted
        for u, v in self.edges:
            if u in dead or v in dead:
                continue
            if (u in s) != (v in s):
                return False
        return True


@lru_cache(maxsize=8)
def _signature_table(n, k):
    """Aggregate all joint selection outcomes by undirected edge signature.

    Returns (counts, sigs, edge_lists): counts[j, a] is the exact number
    of joint outcomes with edge signature sigs[j] and a single-pick
    nodes; edge_lists[j] decodes sigs[j] into (u, v) pairs.  Outcomes
    are accumulated node by node over the (signature, a) state space, so
    the cost is states x outcomes-per-node x n rather than the full
    product space.
    """
    pairs = list(combinations(range(n), 2))
    pair_bit = {p: 1 << idx for idx, p in enumerate(pairs)}
    na = n + 1
    nsig = 1 << len(pairs)

    outcomes = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        node_out = [(pair_bit[(min(i, j), max(i, j))], 1) for j in others]
        for sub in combinations(others, k):
            bits = 0
            for j in sub:
                bits |= pair_bit[(min(i, j), max(i, j))]
            node_out.append((bits, 0))
        outcomes.append(node_out)

    # float64 holds the counts exactly: totals stay far below 2**53
    counts = np.zeros(nsig * na)
    counts[0] = 1.0
    for node_out in outcomes:
        support = np.flatnonzero(counts)
        vals = counts[support]
        sig_part = support // na
        a_part = support % na
        keys = np.concatenate(
            [((sig_part | eb) * na + a_part + single) for eb, single in node_out]
        )
        weights = np.tile(vals, len(node_out))
        counts = np.bincount(keys, weights=weights, minlength=nsig * na)

    counts = counts.reshape(nsig, na)
    sigs = np.flatnonzero(counts.sum(axis=1))
    edge_lists = []
    for sig in sigs.tolist():
        edge_lists.append(tuple(p for idx, p in enumerate(pairs) if sig >> idx & 1))
    return counts[sigs].astype(np.int64), sigs, tuple(edge_lists)


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

    counts, _, edge_lists = _signature_table(n, k)
    weights = _type_count_weights(n, k, mu)
    total = Fraction(0)
    for dset in combinations(range(n), d):
        dfrozen = frozenset(dset)
        mask = np.fromiter(
            (bool(predicate(EnumeratedRealization(n, edges, dfrozen)))
             for edges in edge_lists),
            dtype=bool, count=len(edge_lists),
        )
        per_a = counts[mask].sum(axis=0)
        for a, c in enumerate(per_a.tolist()):
            if c:
                total += c * weights[a]
    return float(total / comb(n, d))
