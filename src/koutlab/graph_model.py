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
from math import inf, isfinite, prod

import numpy as np

from .component_analysis import ComponentReport, connected_components
from .errors import ParameterError, _generator, _items, _number

PROB_TOL = 1e-12
MIX_TOL = 1e-9  # tolerance when matching a coupling's combined light-class mass
_ROW_ACCEPT_MIN = 1e-3  # below this whole-row acceptance, draw_trial redraws single picks


def validate_type_distribution(type_probs, type_selections):
    """Validate (mu_1..mu_r, K_1 < ... < K_r) and return them as tuples."""
    probs = tuple(_number(p, float, "type_probs entry") for p in _items(type_probs, "type_probs"))
    sels = tuple(_number(k, int, "type_selections entry")
                 for k in _items(type_selections, "type_selections"))
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
        object.__setattr__(self, "n", _number(self.n, int, "n"))
        if self.n < 2:
            raise ParameterError("need at least two nodes")
        if sels[-1] >= self.n:
            raise ParameterError("largest selection count must be below n")

    @property
    def r(self) -> int:
        return len(self.type_probs)

    @cached_property
    def _first_rows(self) -> int:
        """The class whose rows draw_trial's first integers call draws: 1
        when class 0 makes single picks, which join that call, else 0."""
        return int(self.type_selections[0] == 1)

    @cached_property
    def _row_accept(self) -> tuple[float, ...]:
        """Per class, the probability (n-1)!/((n-1-k)! (n-1)^k) that a row
        of k uniform raw picks is all distinct."""
        return tuple(prod(1.0 - j / (self.n - 1) for j in range(k)) for k in self.type_selections)

    @cached_property
    def _fills_columns(self) -> tuple[bool, ...]:
        """Per class, whether its rows are too rarely distinct to redraw whole."""
        return tuple(p < _ROW_ACCEPT_MIN for p in self._row_accept)

    @cached_property
    def cum_probs(self) -> np.ndarray:
        """Cumulative type probabilities, the bins of the type draw (read-only)."""
        cum = np.cumsum(self.type_probs)
        cum.flags.writeable = False
        return cum

    @cached_property
    def _inner_edges(self) -> tuple[float, ...]:
        """The inner bin edges of the type draw, all of cum_probs but the last."""
        return tuple(self.cum_probs[:-1].tolist())

    @property
    def mean_selections(self) -> float:
        """Average number of selections a node makes, sum(mu_i * K_i)."""
        return sum(p * k for p, k in zip(self.type_probs, self.type_selections))


def _read_mu(mu) -> float:
    """mu read as a number and checked: the one home of 0 < mu < 1."""
    mu = _number(mu, float, "mu")
    if not 0.0 < mu < 1.0:
        raise ParameterError("mu must lie strictly inside (0, 1)")
    return mu


def _read_mu_k(mu, k, n=inf) -> tuple[float, int]:
    """The two-class ensemble's mu and K, read and checked: the one home
    of K >= 2 and, for the callers that pass n, of K < n."""
    mu, k = _read_mu(mu), _number(k, int, "k")
    if k < 2:
        raise ParameterError("need K >= 2")
    if k >= n:
        raise ParameterError("need K < n")
    return mu, k


def _read_d(d, n) -> int:
    """A deletion count read and checked: the one home of 0 <= d < n."""
    d = _number(d, int, "d")
    if not 0 <= d < n:
        raise ParameterError(f"need 0 <= d < n, got d={d} and n={n}")
    return d


def two_type_params(n, mu, k) -> GraphParams:
    """The two-class ensemble: probability mu of one pick, else k picks."""
    mu, k = _read_mu_k(mu, k)
    return GraphParams(n=n, type_probs=(mu, 1.0 - mu), type_selections=(1, k))


# ---------------------------------------------------------------------------
# realized graphs


@dataclass(frozen=True, eq=False)
class KoutGraph:
    """A realized graph, kept as its draw.

    classes and blocks are draw_trial's: classes[t] lists the class-t
    nodes in ascending order, as class_nodes bins them, and blocks[t]
    holds their raw picks, nodes in order, row by row.  arcs decodes the
    picks of each class's nodes with union_arcs; node_types, each node's
    class, is read off classes.  deleted holds the nodes a deletion
    removed (delete_random_nodes); original node ids are kept and nothing
    is re-indexed.  Instances are immutable; node_types, arcs, edges and
    components are derived on first use and cached.  A node's selection
    set is its arcs' heads.
    """

    params: GraphParams
    classes: tuple
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
    def node_types(self) -> np.ndarray:
        """Each node's class, as int64 (read-only)."""
        types = np.empty(self.n, dtype=np.int64)
        for t, nodes in enumerate(self.classes):
            types[nodes] = t
        types.flags.writeable = False
        return types

    @cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every pick as an arc (node, picked node), class by class (union_arcs)."""
        return union_arcs(self.params, self.classes, self.blocks)

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


def class_nodes(params: GraphParams, x) -> list[np.ndarray]:
    """The nodes of each class, from the type draw's uniforms x (any shape).

    The one bin rule: a node's type is the number of inner bin edges (all
    of cum_probs but the last) at or below its uniform, so a uniform past
    a last edge that rounds below 1 stays in the last class.  Entry t
    lists, in order, the flat indices of x of type t: with x the (B, n)
    uniforms of B draws, node i of draw b is b*n + i.  A uniform at or
    above an inner edge is above every earlier one, so class t is the
    uniforms at or above edge t-1 and not at or above edge t.
    """
    x = np.ravel(x)
    above = [x >= edge for edge in params._inner_edges]
    inner = [(lo ^ hi).nonzero()[0] for lo, hi in zip(above, above[1:])]
    return [(~above[0]).nonzero()[0], *inner, above[-1].nonzero()[0]]


def _rows_with_repeats(sel, n) -> np.ndarray:
    """The mask of the rows of sel, raw picks in [0, n-1), that hold some
    value twice.

    A row of two picks is compared directly.  At n <= 65 every pick is
    below 64, so each row ORs together its bits 1 << p, and a row of k
    picks whose mask has k bits set is distinct.  Above that, where
    picks could share a bit without being equal, each row is sorted, as
    int16 at least: numpy sorts 1-byte rows several times slower.
    """
    k = sel.shape[1]
    if k == 2:
        return sel[:, 0] == sel[:, 1]
    if n > 65:
        s = np.sort(sel.astype(np.promote_types(sel.dtype, np.int16), copy=False), axis=1)
        return (s[:, 1:] == s[:, :-1]).any(axis=1)
    bits = sel.T.astype(np.uint64, order="C")  # one contiguous row per column
    np.left_shift(1, bits, out=bits)
    return np.bitwise_count(np.bitwise_or.reduce(bits, axis=0)) < k


def _redraw_repeats(rng, rows, n):
    """Redraw from rng, in place, every row of raw picks in [0, n-1) that
    holds a value twice: each round gives the repeating rows new picks,
    in row order, until none repeats.  Accepting the first all-distinct
    draw of a row keeps it uniform over the k-subsets.  Rows are checked
    before the self-avoiding shift, which is monotone within a row and
    so keeps repeats as they are.
    """
    bad = _rows_with_repeats(rows, n).nonzero()[0]
    while bad.size:
        redo = rng.integers(0, n - 1, size=(bad.size, rows.shape[1]))
        rows[bad] = redo
        bad = bad[_rows_with_repeats(redo, n)]


def _distinct_columns(rng, rows, n):
    """Make every row of raw picks in [0, n-1) distinct, in place: from
    column 1 on, each pick that repeats an earlier one of its row is
    redrawn from rng, rows in order, until it does not.  Rows end
    uniform over the k-subsets, as with _redraw_repeats, and no pick
    needs more than n-1 redraws in expectation."""
    for j in range(1, rows.shape[1]):
        bad = (rows[:, :j] == rows[:, j:j + 1]).any(axis=1).nonzero()[0]
        while bad.size:
            rows[bad, j] = rng.integers(0, n - 1, size=bad.size)
            bad = bad[(rows[bad, :j] == rows[bad, j:j + 1]).any(axis=1)]


def _class_counts(params: GraphParams, x) -> list[int]:
    """The class sizes of class_nodes(params, x), counted without listing the nodes."""
    # Python ints in a plain loop: numpy scalars and comprehensions cost more
    counts, rest = [], params.n
    for edge in params._inner_edges:
        above = int(np.count_nonzero(x >= edge))
        counts.append(rest - above)
        rest = above
    return counts + [rest]


def draw_trial(params: GraphParams, rng):
    """One graph's randomness, drawn from rng in the order every sampler uses.

    Returns (x, blocks).  x = rng.random(n) are the uniforms of the type
    draw; class_nodes bins them into each class's nodes.  blocks[t] holds
    the k_t picks of each class-t node, nodes in order, row by row; a
    pick is raw, in [0, n-1), and node i's pick p is node p + (p >= i).
    Each class with k >= 2 picks is drawn and then redrawn until its rows
    are distinct before the next class is drawn.  Selection counts
    increase, so only class 0 can make single picks; they never repeat,
    so they open the integers call of class 1 (GraphParams._first_rows),
    which draws the same numbers as two calls because calls with one
    bound consume the stream in turn.  A class whose whole rows are
    rarely distinct (GraphParams._fills_columns) redraws single picks
    instead (_distinct_columns).

    The same fact lets the sweep engine (experiments._first_rounds) draw
    the redraws of a (1, K) trial whose heavy rows are redrawn whole in
    its first integers call, as a spare block after the first draw.  From
    the heavy rows on, those calls are whole K-slices, one slice table a
    batch, on which the engine runs the redraw rounds of the whole batch
    when no node is deleted (experiments._slice_rounds): its picks equal
    these.  Both mark repeating rows with _rows_with_repeats.  This
    function is the engine's reference, and draws every other batch
    (deletions, other ensembles), each trial whose spare runs out, each
    lone trial and each construct_r_type graph.
    """
    n, ks, f = params.n, params.type_selections, params._first_rows
    x = rng.random(n)
    counts = _class_counts(params, x)
    blocks = []
    for t in range(f, params.r):
        lead = counts[0] if t == f == 1 else 0  # class 0's single picks open class 1's call
        size = lead + counts[t] * ks[t]
        raw = rng.integers(0, n - 1, size=size) if size else np.empty(0, dtype=np.int64)
        if t == f == 1:
            blocks.append(raw[:lead])
        rows = raw[lead:]
        fill = _distinct_columns if params._fills_columns[t] else _redraw_repeats
        fill(rng, rows.reshape(-1, ks[t]), n)
        blocks.append(rows)
    return x, blocks


def draw_deleted(n, d, rng) -> np.ndarray:
    """The d distinct nodes of 0..n-1 that a trial deletes, in draw order.

    The single home of the deletion draw: delete_random_nodes and the
    sweep engine both make this one call right after draw_trial, so
    they consume the same stream.
    """
    return rng.choice(n, size=d, replace=False)


def union_arcs(params: GraphParams, nodes, blocks, counts=None) -> tuple[np.ndarray, np.ndarray]:
    """The arcs (src, picked node) of B draws, as one graph on B*n nodes.

    nodes[t] lists the class-t nodes of the draws (class_nodes), node i
    of draw b being node b*n + i, draw by draw, and blocks[t] the
    concatenation, in draw order, of their class-t blocks (draw_trial).
    counts, the (B, r) class sizes of the draws, places each draw's picks
    at its offset b*n; it is None for one draw, which needs no offset.
    This is the one place that applies the self-avoiding shift: node i
    picks p + (p >= i), and with the offset o = b*n that is q + (q >= src)
    for q = p + o and src = i + o, applied in place to the concatenated
    blocks.  Arcs come class by class and are not deduplicated: repeated
    and mutual picks do not change the components.
    """
    ks = params.type_selections
    src = np.concatenate([np.repeat(node, k) if k > 1 else node for k, node in zip(ks, nodes)])
    dst = np.concatenate(blocks, dtype=np.int64)
    if counts is not None:
        starts = np.arange(0, len(counts) * params.n, params.n)
        # arcs run class by class, and within a class draw by draw
        dst += np.repeat(np.tile(starts, params.r), (counts * ks).T.ravel())
    dst += dst >= src
    return src, dst


def construct_r_type(params: GraphParams, rng) -> KoutGraph:
    """Draw one graph from the r-class ensemble with the Generator rng."""
    x, blocks = draw_trial(params, _generator(rng))
    return KoutGraph(params, tuple(class_nodes(params, x)), tuple(blocks))


def delete_random_nodes(g: KoutGraph, d, rng):
    """Remove d uniformly random nodes, drawn with the Generator rng; returns
    (the removed nodes as a sorted tuple, the graph with those nodes deleted)."""
    if g.deleted:
        raise ParameterError("the graph already has deleted nodes")
    nodes = tuple(sorted(draw_deleted(g.n, _read_d(d, g.n), _generator(rng)).tolist()))
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
    _generator(rng)
    if target.r == 2:
        return g2
    n, r = target.n, target.r

    light = g2.classes[0]
    cum = np.cumsum(target.type_probs[:-1]) / mu_tilde
    drawn = np.minimum(np.searchsorted(cum, rng.random(light.size), side="right"), r - 2)
    classes, blocks = [], []
    for t, k in enumerate(target.type_selections[:-1]):
        mine = drawn == t
        kept = g2.blocks[0][mine]  # each class-t node's raw pick from g2
        rows = np.column_stack([kept, rng.integers(0, n - 1, size=(kept.size, k - 1))])
        _distinct_columns(rng, rows, n)
        classes.append(light[mine])
        blocks.append(rows.ravel())
    return KoutGraph(target, (*classes, g2.classes[1]), (*blocks, g2.blocks[1]))
