"""Construction of random K-out graphs with heterogeneous node types.

Each of n nodes independently becomes type-i with probability mu_i and
selects K_i distinct other nodes uniformly at random (K_1 < ... < K_r).
An undirected edge joins i and j when either selected the other.  The
module also implements uniform random node deletion, which marks nodes
deleted in a copy of the graph and returns them sorted beside it, and a
coupling that extends a two-type draw to an r-type draw without
removing any edge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import isfinite, prod

import numpy as np

from .component_analysis import ComponentReport, connected_components
from .errors import ParameterError

PROB_TOL = 1e-12
MIX_TOL = 1e-9  # tolerance when matching a coupling's combined light-class mass
_ROW_ACCEPT_MIN = 1e-3  # below this whole-row acceptance, draw_trial redraws single picks


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
    if not all(isfinite(p) for p in probs):
        raise ParameterError("every type probability must be a finite number")
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
    def _fills_columns(self) -> tuple[bool, ...]:
        """Per class, whether a row of k uniform picks, all distinct with
        probability (n-1)!/((n-1-k)! (n-1)^k), is too rarely distinct to redraw whole."""
        return tuple(prod(1.0 - j / (self.n - 1) for j in range(k)) < _ROW_ACCEPT_MIN
                     for k in self.type_selections)

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
    """A realized graph, kept as its draw.

    node_types and blocks are draw_trial's: blocks[t] holds the raw picks
    of the class-t nodes, nodes in order, row by row (see union_arcs).
    deleted holds the nodes a deletion removed (delete_random_nodes);
    original node ids are kept and nothing is re-indexed.  Instances are
    immutable; arcs, edges and components are derived on first use and
    cached.  A node's selection set is its arcs' heads.
    """

    params: GraphParams
    node_types: np.ndarray
    blocks: tuple
    deleted: frozenset = frozenset()

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def n_effective(self) -> int:
        return self.params.n - len(self.deleted)

    @cached_property
    def _alive(self) -> np.ndarray:
        alive = np.ones(self.n, dtype=bool)
        alive[list(self.deleted)] = False
        return alive

    def surviving(self) -> np.ndarray:
        return np.flatnonzero(self._alive)

    @cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every pick as an arc (node, picked node), class by class (union_arcs)."""
        return union_arcs(self.params, self.node_types, self.blocks)

    @cached_property
    def sel_flat(self) -> np.ndarray:
        """Every node's picks, sorted, nodes in order (read-only)."""
        src, dst = self.arcs
        flat = np.sort(src * np.int64(self.n) + dst) % self.n
        flat.flags.writeable = False
        return flat

    @cached_property
    def _edges(self):
        src, dst = self.arcs
        if self.deleted:
            keep = self._alive[src] & self._alive[dst]
            src, dst = src[keep], dst[keep]
        key = np.unique(np.minimum(src, dst) * np.int64(self.n) + np.maximum(src, dst))
        return key // self.n, key % self.n

    def edge_arrays(self):
        """Undirected edges among the survivors as parallel arrays (u, v),
        u < v, lexsorted."""
        return self._edges

    @property
    def edge_count(self) -> int:
        return int(self._edges[0].size)

    @cached_property
    def components(self) -> ComponentReport:
        """connected_components of the survivors, labeled on first use and kept."""
        return connected_components(self)


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


def _distinct_columns(rng, rows, n):
    """Make every row of raw picks distinct, in place: from column 1 on,
    each pick that repeats an earlier one of its row is redrawn until it
    does not.  Rows end uniform over the k-subsets, as with _redraw_repeats,
    and no pick needs more than n-1 redraws in expectation."""
    for j in range(1, rows.shape[1]):
        bad = (rows[:, :j] == rows[:, j:j + 1]).any(axis=1).nonzero()[0]
        while bad.size:
            rows[bad, j] = rng.integers(0, n - 1, size=bad.size)
            bad = bad[(rows[bad, :j] == rows[bad, j:j + 1]).any(axis=1)]


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
    A class whose whole rows are rarely distinct (GraphParams._fills_columns)
    redraws single picks instead (_distinct_columns).
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
        redraw = _distinct_columns if params._fills_columns[t] else _redraw_repeats
        redraw(rng, raw.reshape(-1, ks[t]), n)
        blocks.append(raw)
    return x, blocks


def draw_deleted(n, d, rng) -> np.ndarray:
    """The d distinct nodes of 0..n-1 that a trial deletes, in draw order.

    The single home of the deletion draw: delete_random_nodes and the
    sweep engine both make this one call right after draw_trial, so
    they consume the same stream.
    """
    return rng.choice(n, size=d, replace=False)


def union_arcs(params: GraphParams, types, blocks) -> tuple[np.ndarray, np.ndarray]:
    """The arcs (src, picked node) of B draws, as one graph on B*n nodes.

    types is the (B, n) stack of the draws' node types (types_from_uniforms)
    and blocks[t] the concatenation, in draw order, of their class-t blocks
    (draw_trial); node i of draw b is node b*n + i.  This is the one place
    that applies the self-avoiding shift.  Arcs come class by class and are
    not deduplicated: repeated and mutual picks do not change the
    components.
    """
    n = params.n
    types = np.ravel(types)
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
    return KoutGraph(params, types_from_uniforms(params, x), tuple(blocks))


def delete_random_nodes(g: KoutGraph, d, rng):
    """Remove d uniformly random nodes; returns (the removed nodes as a
    sorted tuple, the graph with those nodes deleted)."""
    if g.deleted:
        raise ParameterError("the graph already has deleted nodes")
    d = int(d)
    if not 0 <= d < g.n:
        raise ParameterError("deletion count must satisfy 0 <= d < n")
    nodes = tuple(sorted(draw_deleted(g.n, d, as_generator(rng)).tolist()))
    return nodes, replace(g, deleted=frozenset(nodes))


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
    if g2.deleted:
        raise ParameterError("coupling starts from a graph without deleted nodes")
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
    drawn = np.minimum(np.searchsorted(cum, rng.random(light.size), side="right"), r - 2)
    types = np.full(n, r - 1, dtype=np.int64)
    types[light] = drawn
    blocks = []
    for t, k in enumerate(target.type_selections[:-1]):
        kept = g2.blocks[0][drawn == t]  # each class-t node's raw pick from g2
        rows = np.column_stack([kept, rng.integers(0, n - 1, size=(kept.size, k - 1))])
        _distinct_columns(rng, rows, n)
        blocks.append(rows.ravel())
    blocks.append(g2.blocks[1])
    return KoutGraph(target, types, tuple(blocks))
