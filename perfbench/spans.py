"""Spans, a counting random generator, and the traced trial replay.

Everything here drives koutlab through its public functions only.  A
span is (name, start, end, parent, trial): parent is the index of the
enclosing span, trial the trial id within its sweep point (None for
spans that belong to no trial).  Spans stay in memory and are written
out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from koutlab import (connected_components, connected_components_bfs,
                     construct_r_type, delete_random_nodes, trial_stream)

clock = time.perf_counter


class Tracer:
    """Spans kept in memory as lists [name, start, end, parent, trial]."""

    def __init__(self):
        self.spans = []

    def add(self, name, start, end, parent=None, trial=None) -> int:
        self.spans.append([name, start, end, parent, trial])
        return len(self.spans) - 1

    def open(self, name, parent=None, trial=None) -> int:
        return self.add(name, clock(), None, parent, trial)

    def close(self, idx) -> float:
        end = clock()
        self.spans[idx][2] = end
        return end - self.spans[idx][1]

    def total(self, name) -> float:
        """Summed duration of every span with this name."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def count(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def write(self, path):
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [{"name": name, "start_us": round((start - t0) * 1e6, 3),
                 "end_us": round((end - t0) * 1e6, 3), "parent": parent, "trial": trial}
                for name, start, end, parent, trial in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, separators=(",", ":"))
            fh.write("\n")


class CountingGenerator(np.random.Generator):
    """A trial's generator that counts its `integers` calls and rows.

    It draws from the bit generator of koutlab's own trial_stream, and
    every call defers to Generator.integers with unchanged arguments, so
    the stream (and every sampled graph) is exactly the one collect_cmax
    sees.  construct_r_type accepts it as a plain Generator.
    """

    @classmethod
    def wrap(cls, stream: np.random.Generator):
        rng = cls(stream.bit_generator)
        rng.calls = rng.rows = rng.multi_rows = 0
        return rng

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        shape = (1,) if size is None else size if isinstance(size, tuple) else (size,)
        self.calls += 1
        self.rows += shape[0]
        if len(shape) > 1 and shape[1] > 1:  # rows of a k >= 2 class face the redraw test
            self.multi_rows += shape[0]
        return super().integers(low, high, size=size, dtype=dtype, endpoint=endpoint)


@dataclass
class PointCounts:
    """Per-point totals gathered by replay_point."""

    trials: int = 0
    nodes: int = 0
    draw_calls: int = 0
    rows: int = 0
    multi_rows: int = 0
    multi_nodes: int = 0
    arcs: int = 0
    unique_edges: int = 0
    components: int = 0
    busy: float = 0.0  # seconds inside the trial spans
    bfs_checked: int = 0
    bfs_mismatches: int = 0


def replay_point(params, d, seed, point_index, trials, tracer, parent=None, bfs_every=0):
    """Replay one sweep point's trials through the layer calls, with spans.

    The calls and their order are collect_cmax's: stream, construction,
    optional deletion, then labeling; the edge dedupe is given its own
    span by asking for the edge arrays before labeling (the result is
    cached on the graph, so labeling does not pay it again).  Every
    bfs_every-th trial is also labeled by connected_components_bfs,
    outside the trial span.  Returns (cmax per trial, PointCounts).
    """
    cmax = np.empty(trials, dtype=np.int64)
    counts = PointCounts(trials=trials, nodes=trials * params.n)
    heavy = np.asarray(params.type_selections) >= 2
    add = tracer.add
    for t in range(trials):
        trial_span = tracer.open("experiments.trial", parent, t)
        s0 = clock()
        stream = trial_stream(seed, point_index, t)
        s1 = clock()
        rng = CountingGenerator.wrap(stream)
        s1c = clock()
        g = construct_r_type(params, rng)
        s2 = clock()
        drawn = (rng.calls, rng.rows, rng.multi_rows)
        view = g
        if d:
            _, view = delete_random_nodes(g, d, rng)
        s3 = clock()
        view.edge_arrays()
        s4 = clock()
        report = connected_components(view)
        s5 = clock()
        counts.busy += tracer.close(trial_span)
        add("experiments.trial_stream", s0, s1, trial_span, t)
        add("graph_model.construct", s1c, s2, trial_span, t)
        if d:
            add("graph_model.delete", s2, s3, trial_span, t)
        add("graph_model.edges", s3, s4, trial_span, t)
        add("component_analysis.label", s4, s5, trial_span, t)

        cmax[t] = report.cmax
        counts.draw_calls += drawn[0]
        counts.rows += drawn[1]
        counts.multi_rows += drawn[2]
        counts.multi_nodes += int(heavy[g.node_types].sum())
        counts.arcs += int(g.sel_flat.size)
        counts.unique_edges += g.edge_count
        counts.components += len(report.component_sizes)
        if bfs_every and t % bfs_every == 0:
            counts.bfs_checked += 1
            counts.bfs_mismatches += connected_components_bfs(view) != report
    return cmax, counts
