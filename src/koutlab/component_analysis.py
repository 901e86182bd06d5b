"""Connected components, largest-component statistics, and cut detection.

Functions here accept any graph exposing n, n_effective, surviving()
and edge_arrays(), such as a KoutGraph with or without deleted nodes.
has_cut_in_range also reads the graph's components, its
ComponentReport, which a KoutGraph labels once and keeps;
cut_range_implication reads component sizes alone.  A cut is a
nonempty proper subset of the surviving nodes with no edge to its
complement.  The cuts are exactly the nonempty proper unions of whole
components, so the subset-sum test behind both is exact.

Two labelers live here.  component_labels sizes every realized graph:
the batched trials and connected_components, and so every cut query
above.  It works on raw arc arrays, so many graphs are labeled in one
call, in rounds of one hook and a fixed number of pointer jumps, and it
returns only once every arc lies inside one tree; each label is the
smallest node id of its component.  _reference_sizes is a plain
breadth-first search; it sizes the exhaustive enumerator's tiny graphs
and, as connected_components_bfs, is the reference the vectorized
labeler is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _ints, _items, _number


@dataclass(frozen=True)
class ComponentReport:
    """Component size multiset plus largest-component statistics."""

    component_sizes: tuple[int, ...]  # sorted descending
    cmax: int
    outside_count: int

    @property
    def n_effective(self) -> int:
        return sum(self.component_sizes)


# Pointer jumps per hook round; a fixed count, not a jump to convergence.
_JUMPS = 2


def component_labels(size, u, v) -> np.ndarray:
    """Component label of every node 0..size-1 under the arcs (u, v).

    A node's label is the smallest node id in its component.  Vectorized
    hook-and-shortcut (Shiloach & Vishkin, J. Algorithms 1982): a round
    hooks the larger end of every live arc onto the smaller, jumps
    pointers _JUMPS times, moves both ends of each arc to where they now
    point and drops the arcs whose ends meet.  With no arc live, pointers
    jump until each node points at its root, and the original arcs that
    do not lie inside one tree are live again: a round can hook a node
    that is no longer a root and so split its old tree.  On return every
    tree joins connected nodes and is closed under the arcs, so the trees
    are the components, and since parent[x] <= x throughout each root is
    its component's minimum.  Repeated, mutual and self arcs are harmless.
    """
    parent = np.arange(size)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    while True:
        if lo.size:
            np.minimum.at(parent, hi, lo)
            for _ in range(_JUMPS):
                parent = parent[parent]
            lo, hi = parent[lo], parent[hi]
        else:
            while True:
                jumped = parent[parent]
                if np.array_equal(jumped, parent):
                    break
                parent = jumped
            lo, hi = parent[u], parent[v]
            if np.array_equal(lo, hi):
                return parent
        live = np.flatnonzero(lo != hi)  # index gathers beat a mixed boolean mask
        lo, hi = lo[live], hi[live]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)


def _reference_sizes(nodes, pairs) -> tuple[int, ...]:
    """Component sizes, largest first, of the subgraph that the edge
    pairs induce on nodes; pairs with an end outside nodes are skipped.

    The pure-Python breadth-first reference.  It serves the exhaustive
    enumerator, whose graphs are too small for component_labels' numpy
    calls to pay off, and the cross-checks of component_labels.
    """
    adj = {i: [] for i in nodes}
    for u, v in pairs:
        if u in adj and v in adj:
            adj[u].append(v)
            adj[v].append(u)
    seen = set()
    sizes = []
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        for node in queue:  # the list grows while it is read: a FIFO queue
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        sizes.append(len(queue))
    return tuple(sorted(sizes, reverse=True))


def _surviving(g) -> np.ndarray:
    surv = g.surviving()
    if surv.size == 0:
        raise ParameterError("component analysis needs at least one node")
    return surv


def connected_components(g) -> ComponentReport:
    """Exact component partition of a graph view, via component_labels."""
    surv = _surviving(g)
    counts = np.bincount(component_labels(g.n, *g.edge_arrays())[surv])
    sizes = tuple(sorted(counts[counts > 0].tolist(), reverse=True))
    return ComponentReport(sizes, sizes[0], int(surv.size) - sizes[0])


def connected_components_bfs(g) -> ComponentReport:
    """Breadth-first reference for connected_components, kept for cross-checks."""
    surv = _surviving(g)
    eu, ev = g.edge_arrays()
    sizes = _reference_sizes(surv.tolist(), zip(eu.tolist(), ev.tolist()))
    return ComponentReport(sizes, sizes[0], int(surv.size) - sizes[0])


def is_cut(g, subset) -> bool:
    """True iff no edge joins the subset to the rest of the surviving nodes."""
    s = {_number(x, int, "subset member") for x in _items(subset, "cut subset")}
    if not s:
        raise ParameterError("cut subset must be nonempty")
    surv = g.surviving()
    alive = np.zeros(g.n, dtype=bool)
    alive[surv] = True
    if any(not (0 <= x < g.n) or not alive[x] for x in s):
        raise ParameterError("cut subset must contain only surviving nodes")
    if len(s) == surv.size:
        raise ParameterError("cut subset must be a proper subset of the surviving nodes")
    eu, ev = g.edge_arrays()
    inside = np.zeros(g.n, dtype=bool)
    inside[list(s)] = True
    return not bool((inside[eu] != inside[ev]).any())


def _sizes_reach_range(sizes, lo, hi, n_eff) -> bool:
    # subset-sum reachability over component sizes, bitset DP; a cut is a
    # proper nonempty union of components, so cap the window at n_eff - 1
    hi_eff = min(hi, n_eff - 1)
    if hi_eff < lo:
        return False
    reach = 1
    for s in sizes:
        reach |= reach << s
    window = (reach >> lo) & ((1 << (hi_eff - lo + 1)) - 1)
    return window != 0


def has_cut_in_range(g, lo, hi) -> bool:
    """True iff the graph has a cut whose size lies in [lo, hi]."""
    lo, hi = _ints(lo=lo, hi=hi)
    n_eff = g.n_effective
    if not 1 <= lo <= hi <= n_eff:
        raise ParameterError("need 1 <= lo <= hi <= surviving node count")
    sizes = g.components.component_sizes
    return _sizes_reach_range(sizes, lo, hi, n_eff)


@dataclass(frozen=True)
class CutRangeImplication:
    """Both sides of the mid-range-cut implication for one graph and x."""

    x: int
    no_mid_cut: bool      # antecedent: no cut with size in [x, n_eff - x]
    giant_exceeds: bool   # consequent: cmax > n_eff - x
    holds: bool


def cut_range_implication(sizes, x) -> CutRangeImplication:
    """Evaluate: no cut with size in [x, n_eff - x] implies cmax > n_eff - x.

    sizes are the component sizes of one graph's surviving nodes, in any
    order (a graph's components.component_sizes, or a row of the batched
    sizes, whose zeros are skipped); n_eff is their sum.  Test harness for
    the structural fact that a largest component of size <= n_eff - x
    would itself be (part of) a cut in that range.  Requires
    1 <= x <= floor(n_eff / 3) so the range is nonempty and the
    implication is the meaningful one.
    """
    x = _number(x, int, "x")
    sizes = [_number(s, int, "sizes entry") for s in _items(sizes, "sizes") if s]
    n_eff = sum(sizes)
    if not 1 <= x <= n_eff // 3:
        raise ParameterError("need 1 <= x <= floor(surviving node count / 3)")
    no_mid_cut = not _sizes_reach_range(sizes, x, n_eff - x, n_eff)
    giant_exceeds = max(sizes) > n_eff - x
    return CutRangeImplication(
        x=x,
        no_mid_cut=no_mid_cut,
        giant_exceeds=giant_exceeds,
        holds=(not no_mid_cut) or giant_exceeds,
    )
