"""Construction of random K-out graphs with heterogeneous node types.

Each of n nodes independently becomes type-i with probability mu_i and
selects K_i distinct other nodes uniformly at random (K_1 < ... < K_r).
An undirected edge joins i and j when either selected the other.  The
module also implements uniform random node deletion, returning a view
of the induced subgraph on the survivors, and a coupling that extends a
two-type draw to an r-type draw without removing any edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError

PROB_TOL = 1e-12
MIX_TOL = 1e-9  # tolerance when matching a coupling's combined light-class mass


def as_generator(rng):
    """Accept a numpy Generator, an integer seed, or None (OS entropy)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def validate_type_distribution(type_probs, type_selections):
    """Validate (mu_1..mu_r, K_1 < ... < K_r) and return them as tuples."""
    probs = tuple(float(p) for p in type_probs)
    sels = tuple(int(k) for k in type_selections)
    if len(probs) < 2 or len(probs) != len(sels):
        raise ParameterError(
            "need r >= 2 type probabilities matched with r selection counts"
        )
    if any(p <= 0.0 for p in probs):
        raise ParameterError("every type probability must be strictly positive")
    if abs(sum(probs) - 1.0) > PROB_TOL:
        raise ParameterError(f"type probabilities must sum to 1 within {PROB_TOL}")
    if sels[0] < 1:
        raise ParameterError("selection counts must be positive")
    if any(b <= a for a, b in zip(sels, sels[1:])):
        raise ParameterError("selection counts must be strictly increasing")
    return probs, sels


@dataclass(frozen=True)
class GraphParams:
    """Ensemble parameters: node count, type probabilities, selection counts."""

    n: int
    type_probs: tuple[float, ...]
    type_selections: tuple[int, ...]

    def __post_init__(self):
        probs, sels = validate_type_distribution(self.type_probs, self.type_selections)
        object.__setattr__(self, "type_probs", probs)
        object.__setattr__(self, "type_selections", sels)
        object.__setattr__(self, "n", int(self.n))
        if self.n < 2:
            raise ParameterError("need at least two nodes")
        if sels[-1] >= self.n:
            raise ParameterError("largest selection count must be below n")

    @property
    def r(self) -> int:
        return len(self.type_probs)

    @cached_property
    def cum_probs(self) -> np.ndarray:
        """Cumulative type probabilities, the bins of the type draw (read-only)."""
        cum = np.cumsum(self.type_probs)
        cum.flags.writeable = False
        return cum

    @property
    def mean_selections(self) -> float:
        """Average number of selections a node makes, sum(mu_i * K_i)."""
        return sum(p * k for p, k in zip(self.type_probs, self.type_selections))


def two_type_params(n, mu, k) -> GraphParams:
    """The two-class ensemble: probability mu of one pick, else k picks."""
    if not 0.0 < float(mu) < 1.0:
        raise ParameterError("mu must lie strictly inside (0, 1)")
    if int(k) < 2:
        raise ParameterError("the heavy-class selection count must be at least 2")
    return GraphParams(n=n, type_probs=(float(mu), 1.0 - float(mu)), type_selections=(1, int(k)))


# ---------------------------------------------------------------------------
# realized graphs


@dataclass(frozen=True, eq=False)
class KoutGraph:
    """A realized graph: per-node types, selection sets, derived edges.

    Selection sets are stored in CSR form; node i's (sorted) picks are
    sel_flat[sel_indptr[i]:sel_indptr[i+1]].  Instances are immutable;
    edges and adjacency are derived lazily and cached.
    """

    params: GraphParams
    node_types: np.ndarray
    sel_indptr: np.ndarray
    sel_flat: np.ndarray

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def n_effective(self) -> int:
        return self.params.n

    def surviving(self) -> np.ndarray:
        return np.arange(self.n)

    def selection_set(self, i) -> np.ndarray:
        """The nodes selected by node i, as a sorted array view."""
        return self.sel_flat[self.sel_indptr[i]:self.sel_indptr[i + 1]]

    @cached_property
    def _edges(self):
        src = np.repeat(np.arange(self.n), np.diff(self.sel_indptr))
        a = np.minimum(src, self.sel_flat)
        b = np.maximum(src, self.sel_flat)
        key = np.unique(a * np.int64(self.n) + b)
        return key // self.n, key % self.n

    def edge_arrays(self):
        """Undirected edges as parallel arrays (u, v), u < v, lexsorted."""
        return self._edges

    @property
    def edge_count(self) -> int:
        return int(self._edges[0].size)

    @cached_property
    def _adjacency(self):
        u, v = self._edges
        ends = np.concatenate([u, v])
        other = np.concatenate([v, u])
        order = np.lexsort((other, ends))
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=self.n), out=indptr[1:])
        return indptr, other[order]

    def neighbors(self, i) -> np.ndarray:
        """Sorted neighbor list of node i."""
        indptr, flat = self._adjacency
        return flat[indptr[i]:indptr[i + 1]]

    def degrees(self) -> np.ndarray:
        u, v = self._edges
        return np.bincount(u, minlength=self.n) + np.bincount(v, minlength=self.n)

    def has_edge(self, i, j) -> bool:
        nb = self.neighbors(i)
        pos = int(np.searchsorted(nb, j))
        return pos < nb.size and nb[pos] == j


@dataclass(frozen=True)
class DeletionSpec:
    """A realized uniform node deletion: d removed node ids."""

    d: int
    nodes: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class InducedSubgraph:
    """View of a KoutGraph restricted to the survivors of a deletion.

    Original node ids are kept; nothing is re-indexed and the base
    graph is never modified.
    """

    base: KoutGraph
    deleted: frozenset

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def n_effective(self) -> int:
        return self.base.n - len(self.deleted)

    @cached_property
    def _alive(self):
        mask = np.ones(self.base.n, dtype=bool)
        if self.deleted:
            mask[list(self.deleted)] = False
        return mask

    def surviving(self) -> np.ndarray:
        return np.flatnonzero(self._alive)

    @cached_property
    def _edges(self):
        u, v = self.base.edge_arrays()
        keep = self._alive[u] & self._alive[v]
        return u[keep], v[keep]

    def edge_arrays(self):
        return self._edges


# ---------------------------------------------------------------------------
# construction


def types_from_uniforms(params: GraphParams, x) -> np.ndarray:
    """Node types from the type draw's uniforms x (any shape).

    A node's type is the number of inner bin edges (all of cum_probs but
    the last) at or below its uniform: the index of its bin, with a
    uniform past a last edge that rounds below 1 kept in the last class.
    """
    types = np.zeros(np.shape(x), dtype=np.int64)
    for edge in params.cum_probs[:-1]:
        types += x >= edge
    return types


def assign_types(params: GraphParams, rng) -> np.ndarray:
    """Independent per-node type draw: index i with probability mu_i."""
    return types_from_uniforms(params, as_generator(rng).random(params.n))


def _rows_with_repeats(sel) -> np.ndarray:
    # indices of the rows of sel that hold some value twice
    if sel.shape[1] == 2:
        return (sel[:, 0] == sel[:, 1]).nonzero()[0]
    s = np.sort(sel, axis=1)
    return (s[:, 1:] == s[:, :-1]).any(axis=1).nonzero()[0]


def _redraw_repeats(rng, rows, n):
    """Redraw, in place, every row of raw picks that holds a value twice.

    Accepting the first all-distinct draw of a row keeps it uniform over
    the k-subsets.  Rows are checked before the self-avoiding shift,
    which is monotone within a row and so keeps repeats as they are.
    """
    bad = _rows_with_repeats(rows)
    while bad.size:
        redo = rng.integers(0, n - 1, size=(bad.size, rows.shape[1]))
        rows[bad] = redo
        bad = bad[_rows_with_repeats(redo)]


def draw_trial(params: GraphParams, rng):
    """One graph's randomness, drawn from rng in the order every sampler uses.

    Returns (x, blocks).  x = rng.random(n) are the uniforms of the type
    draw (see types_from_uniforms).  blocks[t] holds the k_t picks of
    each class-t node, nodes in order, row by row; a pick is raw, in
    [0, n-1), and node i's pick p is node p + (p >= i).  Each class with
    k >= 2 picks is drawn and then redrawn until its rows are distinct
    before the next class is drawn.  Selection counts increase, so only
    class 0 can make single picks; they never repeat, so they are drawn
    by the same integers call as class 1's, which draws the same numbers
    as two calls because calls with one bound consume the stream in turn.
    """
    n, ks = params.n, params.type_selections
    x = rng.random(n)
    above = [n] + [np.count_nonzero(x >= e) for e in params.cum_probs[:-1]] + [0]
    sizes = [(above[t] - above[t + 1]) * k for t, k in enumerate(ks)]
    joint = ks[0] == 1
    blocks = []
    for t in range(int(joint), len(ks)):
        lead = sizes[0] if joint and t == 1 else 0
        size = lead + sizes[t]
        raw = rng.integers(0, n - 1, size=size) if size else np.empty(0, dtype=np.int64)
        if joint and t == 1:
            blocks.append(raw[:lead])
            raw = raw[lead:]
        _redraw_repeats(rng, raw.reshape(-1, ks[t]), n)
        blocks.append(raw)
    return x, blocks


def union_arcs(params: GraphParams, x, blocks) -> tuple[np.ndarray, np.ndarray]:
    """The raw arcs (src, pick) of B draws, as one graph on B*n nodes.

    x is the (B, n) stack of the draws' uniforms and blocks[t] the
    concatenation, in draw order, of their class-t blocks (draw_trial);
    node i of draw b is node b*n + i.  Arcs come class by class and are
    not deduplicated: repeated and mutual picks do not change the
    components.
    """
    n = params.n
    types = types_from_uniforms(params, x).ravel()
    src, dst = [], []
    for t, (k, pick) in enumerate(zip(params.type_selections, blocks)):
        node = np.flatnonzero(types == t)
        if k > 1:
            node = np.repeat(node, k)
        local = node % n
        src.append(node)
        dst.append(pick + (pick >= local) + (node - local))
    return np.concatenate(src), np.concatenate(dst)


def construct_r_type(params: GraphParams, rng) -> KoutGraph:
    """Draw one graph from the r-class ensemble."""
    x, blocks = draw_trial(params, as_generator(rng))
    types = types_from_uniforms(params, x)
    ks = params.type_selections
    indptr = np.zeros(params.n + 1, dtype=np.int64)
    np.cumsum(np.asarray(ks, dtype=np.int64)[types], out=indptr[1:])
    flat = np.empty(int(indptr[-1]), dtype=np.int64)
    for t, (k, block) in enumerate(zip(ks, blocks)):
        members = np.flatnonzero(types == t)
        sel = block.reshape(-1, k)
        sel = sel + (sel >= members[:, None])
        flat[indptr[members][:, None] + np.arange(k)] = np.sort(sel, axis=1)
    return KoutGraph(params=params, node_types=types, sel_indptr=indptr, sel_flat=flat)


def construct_two_type(params: GraphParams, rng) -> KoutGraph:
    """Two-class specialization; same draw protocol as construct_r_type."""
    if params.r != 2:
        raise ParameterError("two-type construction needs exactly two classes")
    if params.type_selections[0] != 1:
        raise ParameterError("two-type construction requires a single-pick light class")
    return construct_r_type(params, rng)


def delete_random_nodes(g: KoutGraph, d, rng):
    """Remove d uniformly random nodes; returns (DeletionSpec, induced view)."""
    d = int(d)
    if not 0 <= d < g.n:
        raise ParameterError("deletion count must satisfy 0 <= d < n")
    rng = as_generator(rng)
    chosen = np.sort(rng.choice(g.n, size=d, replace=False))
    spec = DeletionSpec(d=d, nodes=tuple(int(x) for x in chosen))
    return spec, InducedSubgraph(base=g, deleted=frozenset(spec.nodes))


def couple_extend(g2: KoutGraph, target: GraphParams, rng) -> KoutGraph:
    """Extend a two-type draw to an r-type draw without losing edges.

    Each type-1 node of g2 is reassigned to class i < r with probability
    mu_i / (sum of those mu_i); a node landing in class i then picks
    K_i - 1 additional distinct nodes, avoiding only its own earlier
    picks.  The output contains every edge of g2 and is distributed as
    the r-class ensemble with the target parameters.
    """
    if g2.params.r != 2:
        raise ParameterError("coupling starts from a two-type graph")
    if g2.n != target.n:
        raise ParameterError("node counts of base graph and target must match")
    if target.type_selections[0] != 1:
        raise ParameterError("coupling requires the lightest target class to make one pick")
    if g2.params.type_selections != (1, target.type_selections[-1]):
        raise ParameterError("base selection counts must be (1, K_r) for the target's K_r")
    mu_tilde = sum(target.type_probs[:-1])
    if abs(g2.params.type_probs[0] - mu_tilde) > MIX_TOL:
        raise ParameterError(
            "base type-1 probability must equal the target's combined light-class mass"
        )
    if target.r == 2:
        return g2
    rng = as_generator(rng)
    n, r = target.n, target.r

    light = np.flatnonzero(g2.node_types == 0)
    cum = np.cumsum(target.type_probs[:-1]) / mu_tilde
    drawn = np.searchsorted(cum, rng.random(light.size), side="right")
    drawn = np.minimum(drawn, r - 2)
    new_types = np.full(n, r - 1, dtype=np.int64)
    new_types[light] = drawn

    ks = target.type_selections
    additions = {}
    for i in light[drawn >= 1].tolist():
        have = set(g2.selection_set(i).tolist())
        need = ks[int(new_types[i])] - 1
        picks = []
        while len(picks) < need:
            c = int(rng.integers(0, n - 1))
            c += c >= i
            if c in have:
                continue
            have.add(c)
            picks.append(c)
        additions[i] = picks

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.asarray(ks, dtype=np.int64)[new_types], out=indptr[1:])
    flat = np.empty(int(indptr[-1]), dtype=np.int64)
    # carry the original picks over, then append and sort the additions
    src = np.repeat(np.arange(n), np.diff(g2.sel_indptr))
    rank = np.arange(src.size) - g2.sel_indptr[src]
    flat[indptr[src] + rank] = g2.sel_flat
    old_count = np.diff(g2.sel_indptr)
    for i, picks in additions.items():
        lo = int(indptr[i] + old_count[i])
        flat[lo:lo + len(picks)] = picks
        flat[indptr[i]:indptr[i + 1]].sort()
    return KoutGraph(params=target, node_types=new_types, sel_indptr=indptr, sel_flat=flat)
