"""Monte-Carlo sweeps over ensemble parameters with reproducible seeding.

Every trial draws its randomness from an independent counter-based
stream keyed by (master seed, sweep point index, trial index), so
results are bitwise identical no matter how trials are scheduled or
how many workers run them.  Aggregates are integer sums, minima and
maxima, which are order-independent; emitted CSV and JSON are therefore
byte-stable for a given config and seed.  Wall-clock timings stay in
memory only and are never written to the emitted files.
"""

from __future__ import annotations

import errno
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .component_analysis import component_labels
from .errors import ParameterError, _ints, _items, _number, _seeds, _trial_count
from .graph_model import (GraphParams, _class_counts, _read_d,
                          _rows_with_repeats, class_nodes, construct_r_type, couple_extend,
                          draw_deleted, draw_trial, two_type_params, union_arcs)
from . import bounds
from .bounds import _KIND_ALIASES
from .oracle import _MAX_CLOSED_FORM_N, union_bound_sum

THREADS_ENV = "KOUTLAB_THREADS"

_SWEEP_AXES = ("mu", "K", "d", "n")
_OVERLAYS = ("heuristic", "tail", "deleted-tail")


def resolve_workers(workers=None) -> int:
    """Explicit argument wins, then the KOUTLAB_THREADS env var, then 1."""
    if workers is not None:
        return max(1, _number(workers, int, "workers"))
    raw = os.environ.get(THREADS_ENV)
    if raw is None or raw.strip() == "":
        return 1
    return max(1, _number(raw, int, THREADS_ENV))


def trial_stream(master_seed, point_index, trial_index) -> np.random.Generator:
    """The independent random stream of one trial.

    Counter-based (Philox) and keyed by the full coordinate tuple, so
    any single trial can be reproduced in isolation.
    """
    ss = np.random.SeedSequence(entropy=tuple(_seeds(
        master_seed=master_seed, point_index=point_index, trial_index=trial_index)))
    return np.random.Generator(np.random.Philox(ss))


# SeedSequence's mixing constants (numpy/random/bit_generator.pyx), for
# trial_keys
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = 0xCA01F9DD, 0x4973F715, 16
_POOL_SIZE = 4


def _words(value):
    # SeedSequence's uint32 words of a non-negative integer, least first
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def trial_keys(master_seed, point_index, lo, hi) -> np.ndarray:
    """The Philox keys of trial t's stream (trial_stream) at (master_seed,
    point_index), for t in lo..hi-1, as a (hi - lo, 2) uint64 array.

    A fresh Philox starts at counter 0 under the key that SeedSequence's
    generate_state(2, np.uint64) derives, so its stream is fixed by the
    key alone.  This runs that derivation (hashmix and mix over uint32
    words) once for the whole range: the words of the seed and the point
    are shared, and t is the last word, a uint32 array.  Each step works
    on Python ints and uint32 arrays alike, masked to 32 bits.
    """
    master_seed, point_index = _seeds(master_seed=master_seed, point_index=point_index)
    lo, hi = _ints(lo=lo, hi=hi)
    if not 0 <= lo <= hi <= 1 << 32:
        raise ParameterError("trial indices must lie in [0, 2**32)")
    entropy = _words(master_seed) + _words(point_index) + [np.arange(lo, hi, dtype=np.uint32)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    words = []
    hash_const = _INIT_B
    for word in pool:  # generate_state: four uint32 words make the two uint64s
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        words.append(np.asarray(word ^ (word >> _XSHIFT), dtype=np.uint64))
    keys = np.empty((hi - lo, 2), dtype=np.uint64)
    keys[:, 0] = words[0] | words[1] << np.uint64(32)
    keys[:, 1] = words[2] | words[3] << np.uint64(32)
    return keys


_ZEROS4 = np.zeros(4, dtype=np.uint64)
# The state _rekey sets, reused: the setter copies its values.
_FRESH = {"bit_generator": "Philox", "state": {"counter": _ZEROS4, "key": None},
          "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _rekey(rng, key):
    """Reset rng's Philox to the state a new Philox keyed by key starts in:
    counter 0, an empty output buffer, no saved 32-bit half."""
    _FRESH["state"]["key"] = key
    rng.bit_generator.state = _FRESH


# Trials are labeled together in batches of at most this many nodes (one
# trial when n is larger): enough to amortize numpy's per-call cost at
# small n, small enough that a batch's arrays add no measurable memory.
_BATCH_NODES = 4096
# Keys are derived for at most about this many trials at a time.
_KEY_CHUNK = 4096


def key_batches(master_seed, point_index, lo, hi, n):
    """The trial_keys of trials lo..hi-1, in batches of at most _BATCH_NODES
    nodes at n nodes a trial (one trial a batch when n is larger).

    The one loop of the sweep, the coupling and C02: each rekeys one
    generator per trial (_rekey), so trial t draws exactly what
    trial_stream gives for (master_seed, point_index, t)."""
    step = max(1, _BATCH_NODES // n)
    chunk = step * max(1, _KEY_CHUNK // step)
    for a in range(lo, hi, chunk):
        keys = trial_keys(master_seed, point_index, a, min(a + chunk, hi))
        for b in range(0, len(keys), step):
            yield keys[b:b + step]


# A trial's spare block holds the expected count of the picks its heavy
# rows take after their first draw plus this many standard deviations of
# that count (and one row more, _spare_sizer).
_SPARE_SIGMAS = 4


@lru_cache(maxsize=16)
def _spare_sizer(params):
    """The size of a trial's spare block (_first_rounds) as a function of
    its count of heavy rows, the class-1 rows of the (1, K) ensemble: the
    picks those rows take after draw_trial's first call, that is their
    redraws, whether or not they repeat.  A row is redrawn whole until it
    is distinct, so it draws Geometric(p) rows of k picks, p its
    GraphParams._row_accept: k/p - k picks after its first k in mean,
    k²(1-p)/p² in variance.  The size is the mean plus _SPARE_SIGMAS
    standard deviations, plus one row: the need comes in rows, and at
    small means the deviations fall short of the next one.  It is rounded
    up to whole rows, k-slices, so that a batch's heavy rows and spare
    blocks line up as one table of slices.  Sizes are kept by count."""
    k, p = params.type_selections[1], params._row_accept[1]
    mean, variance = k / p - k, k * k * (1 - p) / (p * p)

    @lru_cache(maxsize=4096)
    def size(rows):
        need = k + math.ceil(rows * mean + _SPARE_SIGMAS * math.sqrt(rows * variance))
        return -(-need // k) * k  # whole k-slices
    return size


# _slice_rounds tests this many slices for repeats at a time, so that the
# test's temporaries do not grow with the batch's table
_SLICE_CHUNK = 2048


def _slice_rounds(table, heavy, slices, n):
    """_redraw_repeats on the heavy rows of a batch's slice table
    (_first_rounds), where trial b holds slices[b] consecutive slices: its
    heavy[b] first rows, then its spare block.  Returns the heavy rows,
    trial by trial, as one flat block, and the trials whose spare block
    ran out, whose rows are left as first drawn.

    Each slice is tested for a repeat once.  A round gives each repeating
    row the next slice of its trial, a trial's rows in row order, and
    keeps the rows whose new slice is marked (repeats), still in row
    order.  So a trial's slices go out in table order, and the row of its
    j-th marked slice, counting its first rows, takes its slice h + j
    next.  A batch with no marked first row runs no round.
    """
    marked = np.empty(len(table), dtype=bool)
    for a in range(0, len(table), _SLICE_CHUNK):
        marked[a:a + _SLICE_CHUNK] = _rows_with_repeats(table[a:a + _SLICE_CHUNK], n)
    start = np.cumsum(slices) - slices
    # each row's slice, its first row to begin with
    cursor = np.repeat(start - np.cumsum(heavy) + heavy, heavy) + np.arange(heavy.sum())
    live = marked[cursor].nonzero()[0]
    # live is empty when no first row repeats, and then no trial runs out
    failed = _successor_rounds(marked, cursor, live, heavy, start, slices) if live.size else live
    return table[cursor].ravel(), failed


def _successor_rounds(marked, cursor, live, heavy, start, slices):
    """_slice_rounds' rounds: move the cursor of each row in live to its
    slice's successor until it sits on an unmarked slice.  Each row ends
    on an unmarked slice of its own, so a trial with fewer than h
    unmarked slices runs out; its rows stay put.  Returns those trials."""
    seen = np.concatenate(([0], np.cumsum(marked)))  # seen[s]: marked slices before s
    failed = slices - (seen[start + slices] - seen[start]) < heavy
    # the j-th marked slice s of a row's trial, j = seen[s] - seen[start],
    # is followed by the trial's slice h + j, that is after + seen[s]
    after = np.repeat(start + heavy - seen[start], heavy)
    live = live[~np.repeat(failed, heavy)[live]]
    while live.size:
        cursor[live] = at = after[live] + seen[cursor[live]]
        live = live[marked[at]]
    return failed.nonzero()[0]


def _trial_by_trial(params, d, rng, keys):
    """_batch_draw's result drawn trial by trial: per key, rekey, draw_trial
    and, with d > 0, draw_deleted.  Each class's blocks are concatenated in
    trial order; the (B, r) class counts come from their sizes."""
    xs, picks = [], []
    dead = np.empty((len(keys), d), dtype=np.int64)
    for b, key in enumerate(keys):
        _rekey(rng, key)
        x, blocks = draw_trial(params, rng)
        xs.append(x)
        picks.append(blocks)
        if d:
            dead[b] = draw_deleted(params.n, d, rng)
    counts = np.array([[block.size for block in blocks] for blocks in picks])
    blocks = [np.concatenate(c) for c in zip(*picks)]
    return class_nodes(params, np.concatenate(xs)), blocks, counts // params.type_selections, dead


def _first_rounds(params, rng, keys):
    """_batch_draw's loop over the trials of a (1, K) batch.  Returns
    (nodes, heads, counts, table, slices): each class's nodes (class_nodes
    on the batch's uniforms), the single picks, the (B, 2) class sizes,
    the batch's slice table and each trial's count of slices in it.  A
    trial is rekeyed, draws its uniforms, counts its h heavy rows and
    makes one int32 integers call: draw_trial's first n + h(K-1) picks,
    then its spare block.  From offset n - h on, that call is whole
    K-slices, so its tails from there make the table, in the least int
    dtype that holds a raw pick."""
    n, k, size = params.n, params.type_selections[1], _spare_sizer(params)
    xs, heavy, calls = [], [], []
    for key in keys:
        _rekey(rng, key)
        x = rng.random(n)
        h = _class_counts(params, x)[1]
        xs.append(x)
        heavy.append(h)
        calls.append(rng.integers(0, n - 1, size=n + h * (k - 1) + size(h), dtype=np.int32))
    heads = np.concatenate([c[:n - h] for c, h in zip(calls, heavy)])
    tails = [c[n - h:] for c, h in zip(calls, heavy)]
    h = np.array(heavy)
    return (class_nodes(params, np.concatenate(xs)), heads, np.stack([n - h, h], axis=1),
            np.concatenate(tails, dtype=np.min_scalar_type(-n)).reshape(-1, k),
            np.array([t.size for t in tails]) // k)


def _batch_draw(params, d, rng, keys):
    """draw_trial and draw_deleted for the trials with these keys, drawn
    as they draw them, with the redraw rounds run on the whole batch for
    the sweep's ensemble when d == 0.

    Returns (nodes, blocks, counts, dead), union_arcs' input and the
    (B, d) deleted nodes: each class's nodes as flat ids b*n + i, trial
    by trial, worked out once for the batch from its type uniforms
    (class_nodes), each class's picks concatenated in trial order, and
    the (B, r) class counts.

    Rounds are shared only for the two-class (1, K) ensemble whose heavy
    rows are redrawn whole (not GraphParams._fills_columns), the one
    that sweeps sample, and only at d == 0.  Every other batch is drawn
    trial by trial (_trial_by_trial): with d > 0 each trial's deleted
    nodes must be drawn from its stream right after the picks it used.

    A shared batch has one generator serve every trial (_first_rounds).
    Calls with one bound consume the stream in turn, whatever their size
    and int dtype, so the picks draw_trial would draw after its first
    integers call are the next ones of the stream, and the same call
    draws them as the trial's spare block: its expected need plus
    _SPARE_SIGMAS standard deviations, sized from its count of heavy rows
    and rounded up to whole k-slices (_spare_sizer).  The heavy rows and
    spare blocks of the batch make one table of k-slices, each tested
    for a repeat once, and the rounds only move each repeating row's
    cursor along the table (_slice_rounds).  A trial whose spare block
    runs out is drawn again trial by trial.
    """
    if d or params.r > 2 or not params._first_rows or params._fills_columns[1]:
        return _trial_by_trial(params, d, rng, keys)
    k = params.type_selections[1]
    nodes, heads, counts, table, slices = _first_rounds(params, rng, keys)
    rows, failed = _slice_rounds(table, counts[:, 1], slices, params.n)
    for b in failed:
        _, exact, _, _ = _trial_by_trial(params, 0, rng, keys[b:b + 1])
        at = counts[:b, 1].sum() * k
        rows[at:at + exact[1].size] = exact[1]
    return nodes, [heads, rows], counts, np.empty((len(keys), 0), dtype=np.int64)


def _batch_labels(params, d, rng, keys) -> np.ndarray:
    """component_labels of the trials with these keys as one disjoint union,
    trial b's node i being node b*n + i and each deleted node a singleton.
    A lone trial (n > 2048) has no rounds to share: it is drawn by
    draw_trial, binned by class_nodes, and draws its deletion by
    draw_deleted.  Other batches are drawn by _batch_draw."""
    n, nodes = params.n, len(keys) * params.n
    if len(keys) == 1:
        _rekey(rng, keys[0])
        x, blocks = draw_trial(params, rng)
        u, v = union_arcs(params, class_nodes(params, x), blocks)
        dead = draw_deleted(n, d, rng) if d else None
    else:
        *draw, dead = _batch_draw(params, d, rng, keys)
        u, v = union_arcs(params, *draw)
        dead = dead + np.arange(0, nodes, n)[:, None]
    if d:  # an arc with a deleted end becomes a self-loop
        cut = np.zeros(nodes, dtype=bool)
        cut[dead] = True
        np.copyto(v, u, where=cut[u] | cut[v])
    return component_labels(nodes, u, v)


def _batch_sizes(params, d, rng, keys) -> np.ndarray:
    """Row b, entry i: the size of trial b's component whose smallest node is i, else 0,
    binned from _batch_labels (a deleted node has size 1).  C02 reads these rows."""
    labels = _batch_labels(params, d, rng, keys)
    return np.bincount(labels, minlength=labels.size).reshape(-1, params.n)


def _cmax_per_graph(n, survivors, labels) -> np.ndarray:
    """The cmax of each graph b, on nodes b*n.., of a union with these
    component_labels and this many survivors a graph.  Node b*n is graph
    b's smallest node, so its label is b*n; let c count the labels equal
    to it.  A component holding more than half the survivors is the unique
    largest, so where 2c > survivors, c is the cmax; the rest are binned."""
    rows = labels.reshape(-1, n)
    giant = rows == rows[:, :1]  # a lone row counts faster flat
    cmax = giant.sum(axis=1) if len(rows) > 1 else np.array([np.count_nonzero(giant)])
    if 2 * cmax.min() <= survivors:
        small = 2 * cmax <= survivors
        cmax[small] = np.bincount(labels, minlength=labels.size).reshape(-1, n)[small].max(axis=1)
    return cmax


def _run_block(args):
    """The cmax of trials lo..hi-1 of one point, batch by batch: read from
    node 0's component, binned where it is no strict majority (_cmax_per_graph)."""
    params, d, master_seed, point_index, lo, hi = args
    rng = np.random.Generator(np.random.Philox(0))  # rekeyed before every trial
    return np.concatenate([_cmax_per_graph(params.n, params.n - d,
                                           _batch_labels(params, d, rng, keys))
                           for keys in key_batches(master_seed, point_index, lo, hi, params.n)])


def _pool_size(workers, tasks) -> int:
    """Processes for a pool: the request, capped by the task count and the CPUs."""
    return max(1, min(workers, tasks, os.cpu_count() or 1))


def collect_cmax(params, d, trials, seed, point_index=0, workers=None) -> np.ndarray:
    """Largest-component size of every trial, in trial order."""
    d = _read_d(d, params.n)
    trials = _trial_count(trials)
    seed, point_index = _seeds(seed=seed, point_index=point_index)
    workers = _pool_size(resolve_workers(workers), trials)
    size = max(256, -(-trials // (workers * 4)))
    tasks = [
        (params, d, seed, point_index, lo, min(lo + size, trials))
        for lo in range(0, trials, size)
    ]
    workers = _pool_size(workers, len(tasks))
    if workers == 1:
        return _run_block((params, d, seed, point_index, 0, trials))
    from concurrent.futures import ProcessPoolExecutor  # ~15 ms of import, paid by pools only
    with ProcessPoolExecutor(max_workers=workers) as pool:
        blocks = list(pool.map(_run_block, tasks))
    return np.concatenate(blocks)


@dataclass(frozen=True)
class TrialSummary:
    """Aggregate largest-component statistics of one sweep point."""

    sweep_value: object
    avg_cmax: float
    min_cmax: int
    max_cmax: int
    max_outside: int
    trials: int
    n_effective: int
    wall_time: float


def run_point(params, d, trials, seed, point_index=0, workers=None,
              sweep_value=None) -> TrialSummary:
    """Run `trials` independent draws at one parameter point and aggregate."""
    t0 = time.perf_counter()
    d, trials = _ints(d=d, trials=trials)
    cm = collect_cmax(params, d, trials, seed, point_index=point_index, workers=workers)
    n_eff = params.n - d
    mn = int(cm.min())
    return TrialSummary(
        sweep_value=sweep_value,
        avg_cmax=int(cm.sum()) / trials,
        min_cmax=mn,
        max_cmax=int(cm.max()),
        max_outside=n_eff - mn,
        trials=trials,
        n_effective=n_eff,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: an axis, its values, fixed parameters, and outputs.

    sweep_param is one of "mu", "K", "d", "n"; the matching field below
    is ignored and the others stay fixed across points.  Overlays add
    bound curves to the emitted JSON: "heuristic" (giant-size floor),
    "tail" (needs overlay_m), "deleted-tail" (needs overlay_x; uses
    overlay_eps).
    """

    sweep_param: str
    sweep_values: tuple
    n: int = 0
    mu: float = 0.5
    k: int = 2
    d: int = 0
    trials: int = 10_000
    seed: int = 0
    out: str | None = None
    overlays: tuple = ()
    overlay_m: int | None = None
    overlay_x: int | None = None
    overlay_eps: float = 1.0

    def __post_init__(self):
        if self.sweep_param not in _SWEEP_AXES:
            raise ParameterError(f"sweep_param must be one of {_SWEEP_AXES}")
        values = _items(self.sweep_values, "sweep_values")
        if not values:
            raise ParameterError("sweep needs at least one value")
        object.__setattr__(self, "sweep_values", values)
        fields = [("n", int), ("k", int), ("d", int), ("mu", float), ("overlay_eps", float)]
        fields += [(name, int) for name in ("overlay_m", "overlay_x")
                   if getattr(self, name) is not None]
        for name, kind in fields:
            object.__setattr__(self, name, _number(getattr(self, name), kind, name))
        object.__setattr__(self, "trials", _trial_count(self.trials))
        object.__setattr__(self, "seed", _seeds(seed=self.seed)[0])
        if not 0.0 < self.overlay_eps < math.inf:
            raise ParameterError(f"overlay_eps must be a finite number > 0, "
                                 f"got {self.overlay_eps!r}")
        if self.out is not None and (not isinstance(self.out, (str, os.PathLike))
                                     or not Path(self.out).name):
            raise ParameterError(f"out must be a path to a file, got {self.out!r}")
        names = []
        for name in _items(self.overlays, "overlays"):
            names.append(_KIND_ALIASES.get(name, name) if isinstance(name, str) else name)
            if names[-1] not in _OVERLAYS:
                raise ParameterError(f"unknown overlay {name!r}")
        object.__setattr__(self, "overlays", tuple(names))
        if "tail" in names and self.overlay_m is None:
            raise ParameterError("the tail overlay needs overlay_m")
        if "deleted-tail" in names and self.overlay_x is None:
            raise ParameterError("the deleted-tail overlay needs overlay_x")
        _, params, _ = self.resolve_points()[0]  # every sweep value must validate
        mu, k = params.type_probs[0], params.type_selections[-1]
        if self.overlay_m is not None:  # the bounds are the one home of M >= 1 and x >= 1
            bounds.tail_bound(mu, k, self.overlay_m)
        if self.overlay_x is not None:  # at d = 0 every x >= 1 clears the threshold
            bounds.deleted_tail_bound(mu, k, 0, self.overlay_x, self.overlay_eps)

    def resolve_points(self):
        """(value, GraphParams, d) for every sweep value, validated."""
        axis = self.sweep_param
        points = []
        for v in self.sweep_values:
            v = _number(v, float if axis == "mu" else int, f"{axis} sweep value")
            params = two_type_params(v if axis == "n" else self.n, v if axis == "mu" else self.mu,
                                     v if axis == "K" else self.k)
            points.append((v, params, _read_d(v if axis == "d" else self.d, params.n)))
        return points


def plausibility_floor(n, mu, k, trials):
    """Smallest M whose union-bound tail drops below 1/(10*trials), or None.

    At that threshold the expected number of trials with more than M
    nodes outside the largest component is under 0.1, so seeing
    min_cmax < n - M is genuinely surprising; sweeps flag (never fail)
    such points.  None also beyond the oracle's n cap, where the union
    bound is not evaluated.
    """
    n, trials = _number(n, int, "n"), _trial_count(trials)
    if n > _MAX_CLOSED_FORM_N:
        return None
    ev = union_bound_sum(n, mu, k, 1)
    suffix = np.cumsum(ev.terms[::-1])[::-1]
    hits = np.flatnonzero(suffix < 0.1 / trials)
    if hits.size == 0:
        return None
    return int(hits[0]) + ev.r_start


def _num_text(v):
    """A number as every output prints it: a float by repr, so it reads back exactly."""
    return repr(v) if isinstance(v, float) else str(v)


CSV_HEADER = "sweep_param,value,n,mu,K,d,trials,avg_cmax,min_cmax,max_outside,seed"


def render_csv(dataset) -> str:
    """The canonical CSV rendering of a sweep dataset (byte-stable)."""
    rows = [CSV_HEADER]
    for p in dataset["points"]:
        rows.append(",".join([
            dataset["sweep_param"], _num_text(p["value"]), str(p["n"]),
            _num_text(p["mu"]), str(p["K"]), str(p["d"]), str(p["trials"]),
            _num_text(p["avg_cmax"]), str(p["min_cmax"]), str(p["max_outside"]),
            str(dataset["seed"]),
        ]))
    return "".join(row + "\n" for row in rows)


def render_json(dataset) -> str:
    """The canonical JSON rendering of a sweep dataset (byte-stable)."""
    return json.dumps(dataset, indent=2, sort_keys=True) + "\n"


def _overlay_values(config, params, d):
    mu = params.type_probs[0]
    k = params.type_selections[-1]
    out = {}
    for name in config.overlays:
        if name == "heuristic":
            out["heuristic_lower_bound"] = bounds.heuristic_giant_lower_bound(params.n, mu, k, d)
        elif name == "tail":
            b = bounds.tail_bound(mu, k, config.overlay_m)
            out["tail_bound"] = {"M": config.overlay_m, "value": b.value}
        else:
            entry = out["deleted_tail_bound"] = {"x": config.overlay_x, "eps": config.overlay_eps}
            try:
                entry["value"] = bounds.deleted_tail_bound(mu, k, d, config.overlay_x,
                                                           config.overlay_eps).value
            except ParameterError as err:
                entry.update(value=None, note=str(err))
    return out


@contextmanager
def _staged(paths):
    """The one writer of output files.  Opens a .part file beside each path;
    the block appends one text per path to the yielded list.  Only when the
    block ends cleanly are the texts written and the .parts renamed over the
    paths; otherwise each .part is removed and no path is touched.  An OSError
    of these steps, or a path that is a directory, is a ParameterError."""
    parts = [Path(f"{path}.part") for path in paths]
    handles, texts = [], []
    try:
        try:
            for path in filter(os.path.isdir, paths):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            for part in parts:
                handles.append(open(part, "w", encoding="utf-8"))
        except OSError as err:
            raise ParameterError(f"cannot write output: {err}") from None
        yield texts
        try:
            for handle, text in zip(handles, texts, strict=True):
                handle.write(text)
                handle.close()
            for part, path in zip(parts, paths):
                os.replace(part, path)
        except OSError as err:
            raise ParameterError(f"cannot write output: {err}") from None
    except BaseException:
        for handle, part in zip(handles, parts):
            handle.close()
            part.unlink(missing_ok=True)
        raise


def _out_paths(out):
    """A sweep's CSV and JSON targets for its base path out: one trailing
    .csv or .json is stripped, then both suffixes are appended."""
    base = Path(out)
    base = base.with_suffix("") if base.suffix in (".csv", ".json") else base
    return [Path(f"{base}.csv"), Path(f"{base}.json")]


def run_sweep(config: ExperimentConfig, workers=None):
    """Run every sweep point; emit CSV (and a JSON mirror) when out is set.

    Returns (summaries, dataset) where dataset is the JSON-ready dict.
    The outputs are staged before any computation, so an unwritable path
    fails fast, and a sweep that fails leaves no output file behind.
    """
    points = config.resolve_points()
    paths = [] if config.out is None else _out_paths(config.out)
    with _staged(paths) as texts:
        summaries, dataset = _sweep(config, points, workers)
        if paths:
            texts += [render_csv(dataset), render_json(dataset)]
    return summaries, dataset


def _sweep(config, points, workers):
    summaries = []
    json_points = []
    for idx, (value, params, d) in enumerate(points):
        summary = run_point(params, d, config.trials, config.seed,
                            point_index=idx, workers=workers, sweep_value=value)
        summaries.append(summary)
        mu = params.type_probs[0]
        k = params.type_selections[-1]
        flags = []
        if d == 0:
            floor = plausibility_floor(params.n, mu, k, config.trials)
            if floor is not None and summary.min_cmax < params.n - floor:
                flags.append(
                    f"min_cmax {summary.min_cmax} fell below the plausibility "
                    f"floor {params.n - floor}"
                )
        point = {
            "value": value, "n": params.n, "mu": mu, "K": k, "d": d,
            "trials": config.trials, "avg_cmax": summary.avg_cmax,
            "min_cmax": summary.min_cmax, "max_cmax": summary.max_cmax,
            "max_outside": summary.max_outside,
        }
        overlays = _overlay_values(config, params, d)
        if overlays:
            point["overlays"] = overlays
        if flags:
            point["flags"] = flags
        json_points.append(point)

    dataset = {
        "sweep_param": config.sweep_param,
        "seed": config.seed,
        "trials": config.trials,
        "points": json_points,
    }
    return summaries, dataset


# ---------------------------------------------------------------------------
# coupling


@dataclass(frozen=True)
class CouplingReport:
    """Outcome of paired two-type / r-type draws via the edge coupling."""

    trials: int
    edge_superset_violations: int
    cmax_violations: int
    avg_cmax_base: float
    avg_cmax_extended: float


def coupling_experiment(target: GraphParams, trials, seed) -> CouplingReport:
    """Draw matched pairs (two-type base, coupled r-type extension) and
    count violations of edge containment and of cmax monotonicity, which
    must both come out 0: the extension never removes an edge.  Arcs are
    checked, which covers edges.  Pair t draws what trial_stream gives
    for (seed, 0, t) from one rekeyed generator (key_batches).  Pairs are
    labeled in batches and read as the sweep reads them (_cmax_per_graph).
    """
    if target.r < 2:
        raise ParameterError("coupling target needs at least two classes")
    trials = _trial_count(trials)  # key_batches reads the seed before any pair is drawn
    n = target.n
    base_params = two_type_params(n, sum(target.type_probs[:-1]), target.type_selections[-1])
    rng = np.random.Generator(np.random.Philox(0))  # rekeyed before every pair
    edge_bad, cmax = 0, []
    for keys in key_batches(seed, 0, 0, trials, 2 * n):
        graphs = []  # pair b's base graph is graphs[2b], its extension graphs[2b+1]
        for pair in keys:
            _rekey(rng, pair)
            graphs.append(construct_r_type(base_params, rng))
            graphs.append(couple_extend(graphs[-1], target, rng))
        nodes = len(graphs) * n  # node i of graphs[g] is node g*n + i
        arcs = [g.arcs for g in graphs]
        offset = np.repeat(np.arange(0, nodes, n), [src.size for src, _ in arcs])
        u = np.concatenate([src for src, _ in arcs]) + offset
        v = np.concatenate([dst for _, dst in arcs]) + offset
        cmax.append(_cmax_per_graph(n, n, component_labels(nodes, u, v)))
        # a base arc must come back n nodes on, in its extension; a node's
        # picks are distinct, so no arc repeats and isin skips its dedupe
        key = u * nodes + v
        base = u // n % 2 == 0
        kept = np.isin(key[base] + n * (nodes + 1), key[~base], assume_unique=True)
        edge_bad += np.unique(u[base][~kept] // (2 * n)).size
    c_base, c_ext = np.concatenate(cmax).reshape(-1, 2).T
    return CouplingReport(
        trials=trials,
        edge_superset_violations=edge_bad,
        cmax_violations=int(np.count_nonzero(c_ext < c_base)),
        avg_cmax_base=int(c_base.sum()) / trials,
        avg_cmax_extended=int(c_ext.sum()) / trials,
    )
