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

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .component_analysis import component_labels
from .errors import ParameterError
from .graph_model import (GraphParams, construct_r_type, couple_extend, draw_deleted,
                          draw_trial, two_type_params, types_from_uniforms, union_arcs)
from . import bounds
from .bounds import _KIND_ALIASES
from .oracle import _MAX_CLOSED_FORM_N, union_bound_sum

THREADS_ENV = "KOUTLAB_THREADS"

_SWEEP_AXES = ("mu", "K", "d", "n")
_OVERLAYS = ("heuristic", "tail", "deleted-tail")


def resolve_workers(workers=None) -> int:
    """Explicit argument wins, then the KOUTLAB_THREADS env var, then 1."""
    if workers is not None:
        return max(1, int(workers))
    raw = os.environ.get(THREADS_ENV)
    if raw is None or raw.strip() == "":
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ParameterError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None


def trial_stream(master_seed, point_index, trial_index) -> np.random.Generator:
    """The independent random stream of one trial.

    Counter-based (Philox) and keyed by the full coordinate tuple, so
    any single trial can be reproduced in isolation.
    """
    ss = np.random.SeedSequence(
        entropy=(int(master_seed), int(point_index), int(trial_index))
    )
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
    master_seed, point_index, lo, hi = int(master_seed), int(point_index), int(lo), int(hi)
    if master_seed < 0 or point_index < 0:
        raise ParameterError("seeds and point indices must be non-negative")
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


def _rekey(rng, key):
    """Reset rng's Philox to the state a new Philox keyed by key starts in:
    counter 0, an empty output buffer, no saved 32-bit half."""
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS4, "key": key},
        "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


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


def _batch_sizes(params, d, rng, keys) -> np.ndarray:
    """Component sizes of the trials with these keys, labeled as one disjoint union.

    One generator serves every trial: it is rekeyed, then draws the
    trial (draw_trial) and, with d > 0, the deleted nodes (draw_deleted).
    Everything else runs on the whole batch; trial b's nodes are offset
    by b*n.  Row b, entry i of the (B, n) result is the size of trial b's
    component whose smallest node is i, and 0 where i is not the
    smallest; a deleted node is left a singleton, size 1.
    """
    n = params.n
    xs, blocks, dead = [], [], []
    for key in keys:
        _rekey(rng, key)
        x, picks = draw_trial(params, rng)
        xs.append(x)
        blocks.append(picks)
        if d:
            dead.append(draw_deleted(n, d, rng))
    u, v = union_arcs(params, types_from_uniforms(params, np.stack(xs)),
                      [np.concatenate(c) for c in zip(*blocks)])
    nodes = len(keys) * n
    if d:
        alive = np.ones(nodes, dtype=bool)
        starts = np.arange(len(keys), dtype=np.int64) * n
        alive[(np.stack(dead) + starts[:, None]).ravel()] = False
        keep = alive[u] & alive[v]
        # a deleted node is left a singleton, never larger than a survivor's component
        u, v = u[keep], v[keep]
    return _sizes_per_graph(n, nodes, u, v)


def _sizes_per_graph(n, nodes, u, v) -> np.ndarray:
    """_batch_sizes' rows for a union of graphs b on nodes b*n.. with arcs (u, v)."""
    return np.bincount(component_labels(nodes, u, v), minlength=nodes).reshape(-1, n)


def _run_block(args):
    params, d, master_seed, point_index, lo, hi = args
    rng = np.random.Generator(np.random.Philox(0))  # rekeyed before every trial
    return np.concatenate([_batch_sizes(params, d, rng, keys).max(axis=1)
                           for keys in key_batches(master_seed, point_index, lo, hi, params.n)])


def _pool_size(workers, tasks) -> int:
    """Processes for a pool: the request, capped by the task count and the CPUs."""
    return max(1, min(workers, tasks, os.cpu_count() or 1))


def collect_cmax(params, d, trials, seed, point_index=0, workers=None) -> np.ndarray:
    """Largest-component size of every trial, in trial order."""
    trials = int(trials)
    if not 1 <= trials <= 1 << 32:
        raise ParameterError("need between 1 and 2**32 trials")
    if not 0 <= int(d) < params.n:
        raise ParameterError("deletion count must satisfy 0 <= d < n")
    if int(seed) < 0:
        raise ParameterError("seed must be a non-negative integer")
    workers = _pool_size(resolve_workers(workers), trials)
    size = max(256, -(-trials // (workers * 4)))
    tasks = [
        (params, int(d), seed, point_index, lo, min(lo + size, trials))
        for lo in range(0, trials, size)
    ]
    workers = _pool_size(workers, len(tasks))
    if workers == 1:
        return _run_block((params, int(d), seed, point_index, 0, trials))
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
    cm = collect_cmax(params, d, trials, seed, point_index=point_index, workers=workers)
    n_eff = params.n - int(d)
    mn = int(cm.min())
    return TrialSummary(
        sweep_value=sweep_value,
        avg_cmax=int(cm.sum()) / trials,
        min_cmax=mn,
        max_cmax=int(cm.max()),
        max_outside=n_eff - mn,
        trials=int(trials),
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
    mu: float = 0.0
    k: int = 0
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
        values = self.sweep_values
        if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
            raise ParameterError(f"sweep_values must be a list of values, got {values!r}")
        values = tuple(values)
        if not values:
            raise ParameterError("sweep needs at least one value")
        object.__setattr__(self, "sweep_values", values)
        fields = [("n", int), ("k", int), ("d", int), ("trials", int), ("seed", int),
                  ("mu", float), ("overlay_eps", float)]
        fields += [(name, int) for name in ("overlay_m", "overlay_x")
                   if getattr(self, name) is not None]
        for name, kind in fields:
            object.__setattr__(self, name, _number(getattr(self, name), kind, name))
        if self.trials < 1:
            raise ParameterError("need at least one trial per point")
        if self.seed < 0:
            raise ParameterError("seed must be a non-negative integer")
        if not 0.0 < self.overlay_eps < math.inf:
            raise ParameterError(f"overlay_eps must be a finite number > 0, "
                                 f"got {self.overlay_eps!r}")
        if self.out is not None and not isinstance(self.out, (str, os.PathLike)):
            raise ParameterError(f"out must be a path, got {self.out!r}")
        if not hasattr(self.overlays, "__iter__"):
            raise ParameterError(f"overlays must be a list of names, got {self.overlays!r}")
        names = []
        for name in self.overlays:
            names.append(_KIND_ALIASES.get(name, name) if isinstance(name, str) else name)
            if names[-1] not in _OVERLAYS:
                raise ParameterError(f"unknown overlay {name!r}")
        object.__setattr__(self, "overlays", tuple(names))
        if "tail" in names and self.overlay_m is None:
            raise ParameterError("the tail overlay needs overlay_m")
        if "deleted-tail" in names and self.overlay_x is None:
            raise ParameterError("the deleted-tail overlay needs overlay_x")
        self.resolve_points()  # every sweep value must validate

    def resolve_points(self):
        """(value, GraphParams, d) for every sweep value, validated."""
        axis = self.sweep_param
        points = []
        for v in self.sweep_values:
            v = _number(v, float if axis == "mu" else int, f"{axis} sweep value")
            n = v if axis == "n" else self.n
            d = v if axis == "d" else self.d
            params = two_type_params(n, v if axis == "mu" else self.mu,
                                     v if axis == "K" else self.k)
            if not 0 <= d < n:
                raise ParameterError(f"deletion count d={d} must satisfy 0 <= d < n={n}")
            points.append((v, params, d))
        return points


def _number(value, kind, what):
    """value as kind (int or float); a ParameterError names what otherwise.

    A bool is refused: true and false are not counts or probabilities."""
    try:
        number = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (kind is int and isinstance(value, float) and number != value):
        raise ParameterError(f"{what} must be {'an integer' if kind is int else 'a number'}, "
                             f"got {value!r}")
    return number


def plausibility_floor(n, mu, k, trials):
    """Smallest M whose union-bound tail drops below 1/(10*trials), or None.

    At that threshold the expected number of trials with more than M
    nodes outside the largest component is under 0.1, so seeing
    min_cmax < n - M is genuinely surprising; sweeps flag (never fail)
    such points.  None also beyond the oracle's n cap, where the union
    bound is not evaluated.
    """
    if n > _MAX_CLOSED_FORM_N:
        return None
    ev = union_bound_sum(n, mu, k, 1)
    suffix = np.cumsum(ev.terms[::-1])[::-1]
    hits = np.flatnonzero(suffix < 0.1 / trials)
    if hits.size == 0:
        return None
    return int(hits[0]) + ev.r_start


def _csv_num(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


CSV_HEADER = "sweep_param,value,n,mu,K,d,trials,avg_cmax,min_cmax,max_outside,seed"


def render_csv(dataset) -> str:
    """The canonical CSV rendering of a sweep dataset (byte-stable)."""
    rows = [CSV_HEADER]
    for p in dataset["points"]:
        rows.append(",".join([
            dataset["sweep_param"], _csv_num(p["value"]), str(p["n"]),
            _csv_num(p["mu"]), str(p["K"]), str(p["d"]), str(p["trials"]),
            _csv_num(p["avg_cmax"]), str(p["min_cmax"]), str(p["max_outside"]),
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
            try:
                b = bounds.deleted_tail_bound(mu, k, d, config.overlay_x, config.overlay_eps)
                out["deleted_tail_bound"] = {
                    "x": config.overlay_x, "eps": config.overlay_eps, "value": b.value,
                }
            except ParameterError as err:
                out["deleted_tail_bound"] = {
                    "x": config.overlay_x, "eps": config.overlay_eps,
                    "value": None, "note": str(err),
                }
    return out


@contextmanager
def _staged(paths):
    """Text handles on a .part file beside each path.  When the block
    ends cleanly each .part replaces its path; when it raises, every
    .part is removed and no path is touched."""
    parts = [path.with_name(path.name + ".part") for path in paths]
    handles = []
    try:
        try:
            for part in parts:
                handles.append(open(part, "w", encoding="utf-8"))
        except OSError as err:
            raise ParameterError(f"cannot write output: {err}") from None
        yield handles
        for handle in handles:
            handle.close()
        for part, path in zip(parts, paths):
            os.replace(part, path)
    except BaseException:
        for handle, part in zip(handles, parts):
            handle.close()
            part.unlink(missing_ok=True)
        raise


def run_sweep(config: ExperimentConfig, workers=None):
    """Run every sweep point; emit CSV (and a JSON mirror) when out is set.

    Returns (summaries, dataset) where dataset is the JSON-ready dict.
    The outputs are staged before any computation, so an unwritable path
    fails fast, and a sweep that fails leaves no output file behind.
    """
    points = config.resolve_points()
    paths = []
    if config.out is not None:
        base = Path(config.out)
        if base.suffix in (".csv", ".json"):
            base = base.with_suffix("")
        paths = [base.with_suffix(".csv"), base.with_suffix(".json")]
    with _staged(paths) as handles:
        summaries, dataset = _sweep(config, points, workers)
        for handle, render in zip(handles, (render_csv, render_json)):
            handle.write(render(dataset))
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
    count violations of edge containment and of cmax monotonicity.
    Both counts must come out 0: the extension never removes an edge.
    Containment is checked on arcs, which implies it for edges.  Pair t
    draws what trial_stream gives for (seed, 0, t), from one rekeyed
    generator (key_batches); pairs are labeled in batches.
    """
    if target.r < 2:
        raise ParameterError("coupling target needs at least two classes")
    trials = int(trials)
    if trials < 1:
        raise ParameterError("need at least one trial")
    if int(seed) < 0:
        raise ParameterError("seed must be a non-negative integer")
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
        cmax.append(_sizes_per_graph(n, nodes, u, v).max(axis=1))
        # a base arc must come back n nodes on, in its extension
        key = np.sort(u * nodes + v)
        u = key // nodes
        base = u // n % 2 == 0
        want = key[base] + n * (nodes + 1)
        kept = key[np.minimum(np.searchsorted(key, want), key.size - 1)] == want
        edge_bad += np.unique(u[base][~kept] // (2 * n)).size
    c_base, c_ext = np.concatenate(cmax).reshape(-1, 2).T
    return CouplingReport(
        trials=trials,
        edge_superset_violations=edge_bad,
        cmax_violations=int(np.count_nonzero(c_ext < c_base)),
        avg_cmax_base=int(c_base.sum()) / trials,
        avg_cmax_extended=int(c_ext.sum()) / trials,
    )
