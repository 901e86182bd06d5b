"""The benchmark's workloads: what each one runs, times and checks.

Every workload drives koutlab from outside, through public functions
only.  end_to_end() times the workload with tracing off; per_layer()
replays the same work through the layer calls with spans.  Both check
the program's outputs: an operation is one sweep point or one oracle
call, and it fails when its check mismatches (one that raises aborts
the run).  Inputs are a function of the seed alone.
"""

from __future__ import annotations

import csv
import io
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import comb, exp, lgamma, log
from pathlib import Path
from typing import Callable

import numpy as np

from koutlab import (ExperimentConfig, collect_cmax, exact_cut_probability,
                     exact_cut_probability_deleted, exhaustive_event_probability,
                     plausibility_floor, run_sweep, union_bound_sum,
                     union_bound_sum_deleted)
from koutlab.experiments import render_csv, render_json

from spans import Tracer, clock, replay_point

RUN_PY = Path(__file__).with_name("run.py")
SETUP_REPEATS = 5       # fresh interpreters per run; setup_s is their median
MATH_REF_S = 0.00134    # seconds of math_kernel() on the reference machine
SET_REF_S = 0.00121     # seconds of set_kernel() on the reference machine
SAMPLE_PERIOD_S = 0.02  # wall time between two speed samples
MIN_ROUNDS = 2          # timed rounds per run, even when --seconds runs out first
BFS_EVERY = 97          # every 97th replayed trial is also labeled by BFS
POOL_PROBES = 5         # pool start-up samples on a multi-worker workload

# Every per-layer metric and its unit.  A traced run reports all of them;
# a layer that the workload never calls reads 0.
PER_LAYER = {
    "experiments.trial_stream.us": "us",
    "graph_model.construct.us": "us",
    "graph_model.construct.rows_per_node": "rows/node",
    "graph_model.construct.accept_ratio": "ratio",
    "graph_model.construct.draw_calls": "calls/trial",
    "graph_model.delete.us": "us",
    "graph_model.edges.us": "us",
    "graph_model.edges.unique_ratio": "ratio",
    "component_analysis.label.us": "us",
    "component_analysis.label.components": "count",
    "experiments.plausibility_floor.s": "s",
    "experiments.render.s": "s",
    "experiments.collect_cmax.pool_start_s": "s",
    "experiments.collect_cmax.fanout_efficiency": "ratio",
    "oracle.union_bound.terms": "count",
    "oracle.union_bound.us_per_term": "us",
    "oracle.enum.table_s": "s",
    "oracle.enum.signatures": "count",
    "oracle.enum.us_per_signature": "us",
    "trace.overhead_frac": "frac",
}


def capped_workers(requested) -> int:
    """The benchmark never asks for more workers than the machine has CPUs."""
    return max(1, min(int(requested), os.cpu_count() or 1))


median = statistics.median


def rel_err(a, b) -> float:
    return abs(a - b) / abs(b)


@dataclass
class Outcome:
    """Operations attempted and failed, metrics, and details for the record."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    @classmethod
    def traced(cls):
        out = cls(tracer=Tracer())
        for name in PER_LAYER:
            out.metric(name, 0.0)
        return out

    def record(self, ok, count, why):
        self.attempted += count
        if not ok:
            self.failed += count
            print(f"perfbench: check failed: {why}", file=sys.stderr)

    def metric(self, name, value, unit=None):
        self.metrics[name] = {"value": float(value), "unit": unit or PER_LAYER[name]}


def peak_rss_mb() -> float:
    """Larger of this process's and its children's max RSS (Linux reports KiB)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def speed_kernel() -> float:
    """Wall seconds of a fixed ~1 ms kernel that runs no koutlab code, so
    it measures only how fast the machine is at the moment.  It mixes
    small numpy calls, a scalar lgamma/exp/log loop and dict and integer
    operations: the mix of a trial's hot path.  The sweeps and the
    set-up probes are rescaled by it."""
    t0 = clock()
    rng = np.random.Generator(np.random.Philox(1))
    for _ in range(8):
        picks = np.sort(rng.integers(0, 60, size=(30, 2)), axis=1)
        parent = list(range(64))
        for x in np.unique(picks[:, 0]).tolist():
            parent[x % 64] = x // 64
    terms = np.zeros(200)
    for r in range(1, 200):
        terms[r] = exp(lgamma(r + 1) - 2 * lgamma(r / 2 + 1) + r * log(0.3 + r * 1e-5))
    table, acc = {}, 0
    for i in range(700):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += i * i % 7
    return clock() - t0


def math_kernel() -> float:
    """Wall seconds of a fixed ~1 ms scalar loop shaped like the
    union-bound sum: per term, lgamma differences, exp and log of Python
    floats and a store into a float64 array.  It runs no koutlab code.
    The host's slow and fast phases move a pure-Python float loop
    differently from the mixed speed_kernel(); this one follows the
    union-bound calls closely."""
    t0 = clock()
    n, terms = 10**6, np.zeros(500)
    for r in range(2, 500):
        f_in = 0.9 * r / (n - 1) + 0.1 * exp(lgamma(r + 1) - lgamma(r - 1) - 27.6)
        terms[r] = exp(lgamma(n + 1) - lgamma(r + 1) - lgamma(n - r + 1)
                       + r * log(f_in) + (n - r) * log(0.5 + 1e-7 * r))
    return clock() - t0


_SET_EDGES = ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (1, 2), (2, 5))


def set_kernel() -> float:
    """Wall seconds of a fixed ~1 ms loop shaped like the enumeration's
    cut predicate: frozenset and set building, membership tests over an
    edge tuple, and a few Fraction sums.  It runs no koutlab code, and
    follows the enumeration calls more closely than speed_kernel()."""
    t0 = clock()
    hits = 0
    for j in range(240):
        dead = frozenset((j % 6,)) if j & 1 else frozenset()
        subset = frozenset((0, 1, 2)) - dead
        survivors = set(tuple(i for i in range(6) if i not in dead))
        cut = bool(subset) and subset <= survivors
        for u, v in _SET_EDGES:
            if u in dead or v in dead:
                continue
            if (u in subset) != (v in subset):
                cut = False
                break
        hits += cut
    total, w = Fraction(0), Fraction(9, 50)
    for a in range(14):
        total += (a + 1) * w ** (a % 7)
    return clock() - t0


@dataclass(frozen=True)
class Speed:
    """A speed kernel and its seconds on the reference machine, the one
    on which speed_kernel() takes 0.8 ms."""

    kernel: Callable[[], float]
    ref_s: float


MIXED = Speed(speed_kernel, 0.0008)
SCALAR_MATH = Speed(math_kernel, MATH_REF_S)
SET_LOGIC = Speed(set_kernel, SET_REF_S)


class SpeedSampler:
    """Times a speed kernel every SAMPLE_PERIOD_S of wall time, from a
    SIGALRM handler, while the block runs.

    On a shared host the machine's speed drifts by tens of percent within
    a second, so samples taken before and after a task miss the phase the
    task ran in.  Samples taken inside it see the same phase.  The
    handler runs between bytecodes of the main thread, so it cannot
    disturb koutlab's state; its own time is taken out of the task's.
    """

    def __init__(self, kernel=speed_kernel):
        self.kernel = kernel
        self.samples = []  # (start, seconds) of each kernel run
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a kernel run that overran the period is not nested
            return
        self._busy = True
        t0 = clock()
        self.samples.append((t0, self.kernel()))
        self._busy = False

    def __enter__(self):
        self.kernel()  # its first run imports lazily; the handler must not
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def inside(self, t0, t1) -> list:
        """Kernel seconds of the samples that started in [t0, t1)."""
        return [sec for start, sec in self.samples if t0 <= start < t1]

    def kernel_s(self, t0, t1) -> float:
        """Mean kernel seconds over [t0, t1), or over the whole block when
        no sample started inside."""
        return statistics.mean(self.inside(t0, t1) or [sec for _, sec in self.samples])


def calibrated(tasks, speed: Speed = MIXED) -> list:
    """Run each task() under a SpeedSampler of the given kernel.  A task
    returns (t0, t1, *rest), the bounds of its timed region in this
    process; each becomes (seconds at reference speed, mean kernel
    seconds, *rest).

    The timed region's wall time, less the sampler's own time inside it,
    is rescaled to the reference machine, on which the kernel takes
    speed.ref_s.
    """
    results = []
    for task in tasks:
        with SpeedSampler(speed.kernel) as sampler:
            t0, t1, *rest = task()
        busy = t1 - t0 - sum(sampler.inside(t0, t1))
        kernel = sampler.kernel_s(t0, t1)
        results.append((busy * speed.ref_s / kernel, kernel, *rest))
    return results


def position_medians(times, width) -> list:
    """times lists rounds of `width` operations each, in order; the
    median of each position over the rounds.  Positions differ in cost,
    so a median taken per position does not depend on how many rounds
    each position got."""
    return [median(times[j::width]) for j in range(width)]


def measure_setup(name, seed) -> list:
    """Seconds, at reference speed, of fresh interpreters that each import
    koutlab, validate the workload's inputs and make its first (warm-up)
    call.  The sampler runs in this process while the child works, so its
    time is not taken out of the child's."""
    times = []
    for _ in range(SETUP_REPEATS):
        with SpeedSampler() as sampler:
            t0 = clock()
            subprocess.run([sys.executable, str(RUN_PY), "--workload", name,
                            "--seed", str(seed), "--probe"],
                           check=True, timeout=120, stdout=subprocess.DEVNULL)
            t1 = clock()
        times.append((t1 - t0) * MIXED.ref_s / sampler.kernel_s(t0, t1))
    return times


def round_indices(seconds, min_rounds=MIN_ROUNDS):
    """0, 1, 2, ... until `seconds` have passed since the first one (at
    least min_rounds of them).  The clock is read as each index is asked
    for, so a round always runs to its end."""
    deadline = clock() + seconds
    i = 0
    while i < min_rounds or clock() < deadline:
        yield i
        i += 1


# ---------------------------------------------------------------------------
# Monte-Carlo sweeps


@dataclass(frozen=True)
class McWorkload:
    """A sweep run through run_sweep, as a user of `koutlab sweep` runs it.

    Timed rounds run on one worker.  With workers > 1 the sweep also runs
    once on a process pool, whose output must equal the serial bytes, and
    the traced run measures the pool's start-up and fan-out.  Timing the
    pool itself is left out: on a shared 2-CPU host its round-to-round
    spread (~16%) stays wider than any bound the benchmark could keep.
    """

    name: str
    sweep_param: str
    sweep_values: tuple
    n: int
    mu: float
    k: int
    trials: int
    workers: int

    def config(self, seed, out=None) -> ExperimentConfig:
        return ExperimentConfig(sweep_param=self.sweep_param, sweep_values=self.sweep_values,
                                n=self.n, mu=self.mu, k=self.k, trials=self.trials,
                                seed=seed, out=out)

    def warm_up(self, seed):
        _, params, d = self.config(seed).resolve_points()[0]
        collect_cmax(params, d, 8, seed, workers=1)

    def end_to_end(self, seed, seconds, out_dir: Path) -> Outcome:
        out = Outcome()
        workers = capped_workers(self.workers)
        setup = measure_setup(self.name, seed)
        base = out_dir / f"{self.name}-sweep"
        config = self.config(seed, out=str(base))
        points = config.resolve_points()
        self.warm_up(seed)

        def one_round(_):
            t0 = clock()
            _, dataset = run_sweep(config, workers=1)
            return t0, clock(), dataset, _read_outputs(base)

        rounds = calibrated(partial(one_round, i) for i in round_indices(seconds))
        _, _, dataset, first = rounds[0]
        for i, (_, _, _, got) in enumerate(rounds[1:], 1):
            out.record(got == first, len(points), f"round {i}: output bytes differ from round 0")
        replays = [replay_point(params, d, seed, idx, self.trials, Tracer(), bfs_every=BFS_EVERY)
                   for idx, (_, params, d) in enumerate(points)]
        _check_points(out, points, dataset, first[0], replays)
        if workers > 1:
            pool_base = out_dir / f"{self.name}-pool"
            run_sweep(self.config(seed, out=str(pool_base)), workers=workers)
            out.record(_read_outputs(pool_base) == first, len(points),
                       f"{workers}-worker output differs from the serial rounds")

        sweep_s = median(r[0] for r in rounds)
        trials = self.trials * len(points)
        out.metric("op_ms", sweep_s / trials * 1e3, "ms")
        out.metric("setup_s", median(setup), "s")
        out.detail.update(workers=workers, trials_per_s=trials / sweep_s, rounds=len(rounds),
                          cal_s=median(r[1] for r in rounds), setup_s_all=setup,
                          op_s_all=[r[0] / trials for r in rounds])
        return out

    def per_layer(self, seed, seconds, out_dir: Path) -> Outcome:
        out = Outcome.traced()
        workers = capped_workers(self.workers)
        base = out_dir / f"{self.name}-sweep"
        config = self.config(seed, out=str(base))
        points = config.resolve_points()
        _, dataset = run_sweep(config, workers=workers)
        csv_bytes = _read_outputs(base)[0]

        if workers > 1:  # the pool's fixed cost: one trial on the pool, less one without
            _, params, d = points[0]
            probes = []
            for _ in range(POOL_PROBES):
                t0 = clock()
                collect_cmax(params, d, 1, seed, workers=workers)
                t1 = clock()
                collect_cmax(params, d, 1, seed, workers=1)
                probes.append((t1 - t0) - (clock() - t1))
            out.metric("experiments.collect_cmax.pool_start_s", median(probes))

        def one_round(_):
            """Untraced collect_cmax per point (serial, and on the pool when the
            workload has one), then the traced replay of the same trials."""
            tracer = Tracer()
            sweep = tracer.open("experiments.sweep")
            serial, replays, ratios, terms = [], [], [], 0
            for idx, (_, params, d) in enumerate(points):
                if workers > 1:
                    t0 = clock()
                    pooled = collect_cmax(params, d, self.trials, seed, point_index=idx,
                                          workers=workers)
                    tracer.add("experiments.collect_cmax.parallel", t0, clock(), sweep)
                # the untraced run and its traced replay back to back, so that
                # both see the same phase of a shared host
                t0 = clock()
                serial.append(collect_cmax(params, d, self.trials, seed, point_index=idx,
                                           workers=1))
                t1 = clock()
                tracer.add("experiments.collect_cmax.serial", t0, t1, sweep)
                if workers > 1:
                    out.record((pooled == serial[-1]).all(), 1,
                               f"point {idx}: {workers}-worker cmax differs from serial")
                span = tracer.open("experiments.point", sweep)
                replays.append(replay_point(params, d, seed, idx, self.trials, tracer, span,
                                            bfs_every=BFS_EVERY))
                ratios.append(replays[-1][1].busy / (t1 - t0))
                if d == 0:  # run_sweep prices the plausibility floor at every d=0 point
                    mu, k = params.type_probs[0], params.type_selections[-1]
                    t0 = clock()
                    terms += union_bound_sum(params.n, mu, k, 1).terms.size
                    t1 = clock()
                    plausibility_floor(params.n, mu, k, self.trials)
                    tracer.add("oracle.union_bound", t0, t1, span)
                    tracer.add("experiments.plausibility_floor", t1, clock(), span)
                tracer.close(span)
            t0 = clock()
            render_csv(dataset)
            render_json(dataset)
            tracer.add("experiments.render", t0, clock(), sweep)
            tracer.close(sweep)
            _check_points(out, points, dataset, csv_bytes, replays, serial)
            return tracer, replays, terms, ratios

        samples = [one_round(i) for i in round_indices(seconds)]
        out.tracer, replays, terms, _ = samples[-1]
        counts = [c for _, c in replays]
        sums = {key: sum(getattr(c, key) for c in counts) for key in vars(counts[0])}
        trials = sums["trials"]
        deleting = sum(c.trials for (_, _, d), c in zip(points, counts) if d)
        ub_calls = out.tracer.count("oracle.union_bound")

        def per_call(name, calls=1):
            return median(s[0].total(name) for s in samples) / calls

        for name in ("experiments.trial_stream", "graph_model.construct", "graph_model.edges",
                     "component_analysis.label"):
            out.metric(name + ".us", per_call(name, trials) * 1e6)
        if deleting:
            out.metric("graph_model.delete.us", per_call("graph_model.delete", deleting) * 1e6)
        out.metric("graph_model.construct.rows_per_node", sums["rows"] / sums["nodes"])
        out.metric("graph_model.construct.accept_ratio", sums["multi_nodes"] / sums["multi_rows"])
        out.metric("graph_model.construct.draw_calls", sums["draw_calls"] / trials)
        out.metric("graph_model.edges.unique_ratio", sums["unique_edges"] / sums["arcs"])
        out.metric("component_analysis.label.components", sums["components"] / trials)
        out.metric("experiments.plausibility_floor.s",
                   per_call("experiments.plausibility_floor", ub_calls))
        out.metric("experiments.render.s", per_call("experiments.render"))
        serial_s = per_call("experiments.collect_cmax.serial")
        if workers > 1:
            out.metric("experiments.collect_cmax.fanout_efficiency",
                       serial_s / (workers * per_call("experiments.collect_cmax.parallel")))
        else:
            out.metric("experiments.collect_cmax.fanout_efficiency", 1.0)
        out.metric("oracle.union_bound.terms", terms / ub_calls)
        out.metric("oracle.union_bound.us_per_term", per_call("oracle.union_bound", terms) * 1e6)
        out.metric("trace.overhead_frac", median(r for s in samples for r in s[3]) - 1)
        out.detail.update(workers=workers, rounds=len(samples), bfs_checked=sums["bfs_checked"],
                          serial_trials_per_s=trials / serial_s)
        return out


def _read_outputs(base: Path):
    return base.with_suffix(".csv").read_bytes(), base.with_suffix(".json").read_bytes()


def _check_points(out: Outcome, points, dataset, csv_bytes, replays, serial=None):
    """One operation per point: its replayed aggregates must equal the
    sweep's JSON and CSV values, its BFS cross-checks must agree, and
    (when given) its replayed cmax must equal collect_cmax trial by trial."""
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    shaped = len(rows) == len(points) == len(dataset["points"])
    for idx, (_, params, d) in enumerate(points):
        cm, counts = replays[idx]
        want = {"avg_cmax": int(cm.sum()) / cm.size, "min_cmax": int(cm.min()),
                "max_cmax": int(cm.max()), "max_outside": params.n - d - int(cm.min())}
        got = dataset["points"][idx] if shaped else {}
        row = rows[idx] if shaped else {}
        ok = (shaped and all(got[key] == val for key, val in want.items())
              and row["avg_cmax"] == repr(want["avg_cmax"])
              and row["min_cmax"] == str(want["min_cmax"])
              and row["max_outside"] == str(want["max_outside"])
              and counts.bfs_mismatches == 0
              and (serial is None or bool((cm == serial[idx]).all())))
        out.record(ok, 1, f"point {idx}: replay {want} against sweep output {got} {row}")


MC_WORKLOADS = (
    # the C07 point: per-trial fixed cost (stream, construction) dominates
    McWorkload("mc-small", "mu", (0.5,), n=30, mu=0.5, k=2, trials=2000, workers=1),
    # edge dedupe and labeling dominate; the d=20 point runs deletion
    McWorkload("mc-large", "d", (0, 20), n=5000, mu=0.9, k=2, trials=50, workers=1),
    # rejection redraws dominate the draw; the only workload with a process pool
    McWorkload("mc-dense", "K", (8, 12), n=40, mu=0.5, k=8, trials=512, workers=2),
)


# ---------------------------------------------------------------------------
# the union-bound kernel at n = 10^6

UB_N = 10**6
UB_MU, UB_K, UB_M = 0.9, 2, 1
UB_D, UB_X = 20, 80  # x = 80 keeps the deleted sum below 1, so raw_sum is not clamped
UB_TOL = 1e-9
# raw_sum of union_bound_sum(10^6, 0.9, 2, 1) and of
# union_bound_sum_deleted(10^6, 0.9, 2, 20, 80), recorded from koutlab 0.1.0
# under Python 3.11 and numpy 2.4.  The inputs are fixed: per-call cost
# depends on mu (terms that underflow cost more), so a seeded mu would
# spread the timing across seeds.  The seed picks the log-vs-direct check.
UB_REF = 0.19899826697234566
UB_REF_DELETED = 0.4740401720038148


UB_CALLS = (  # (kernel, arguments, recorded raw_sum)
    (union_bound_sum, (UB_N, UB_MU, UB_K, UB_M), UB_REF),
    (union_bound_sum_deleted, (UB_N, UB_MU, UB_K, UB_D, UB_X), UB_REF_DELETED),
)


class UbWorkload:
    """union_bound_sum and union_bound_sum_deleted at n = 10^6: ~500 000 terms each."""

    name = "oracle-ub"

    @staticmethod
    def warm_up(seed):
        union_bound_sum(10**4, UB_MU, UB_K, UB_M)

    @staticmethod
    def _call(i, out: Outcome, tracer=None):
        """Call i alternates between the two kernels; returns (start, end,
        terms)."""
        fn, args, ref = UB_CALLS[i % len(UB_CALLS)]
        t0 = clock()
        ev = fn(*args)
        t1 = clock()
        if tracer is not None:
            tracer.add("oracle.union_bound", t0, t1)
        out.record(rel_err(ev.raw_sum, ref) <= UB_TOL, 1,
                   f"{fn.__name__}{args}: raw_sum {ev.raw_sum!r} != {ref!r}")
        return t0, t1, ev.terms.size

    @staticmethod
    def _log_matches_direct(seed, out: Outcome):
        rnd = random.Random(seed)
        mu = rnd.choice((0.1, 0.3, 0.5, 0.7, 0.9, 0.95))
        k, m = rnd.choice((2, 3, 4, 5)), rnd.choice((1, 2, 5, 10))
        d, x = rnd.choice(((5, 3), (20, 10)))
        for args, fn in (((200, mu, k, m), union_bound_sum),
                         ((200, mu, k, d, x), union_bound_sum_deleted)):
            in_log, direct = fn(*args).raw_sum, fn(*args, mode="direct").raw_sum
            out.record(rel_err(in_log, direct) <= UB_TOL, 2,
                       f"{fn.__name__}{args}: log {in_log!r} != direct {direct!r}")

    def end_to_end(self, seed, seconds, out_dir) -> Outcome:
        out = Outcome()
        setup = measure_setup(self.name, seed)
        self.warm_up(seed)
        calls = calibrated((partial(self._call, j, out)
                            for _ in round_indices(seconds) for j in range(len(UB_CALLS))),
                           SCALAR_MATH)
        # a round calls each kernel once; ub_eval_s is the mean of the two
        # kernels' median call
        ub_eval_s = statistics.mean(position_medians([c[0] for c in calls], len(UB_CALLS)))
        self._log_matches_direct(seed, out)
        out.metric("op_ms", ub_eval_s * 1e3, "ms")
        out.metric("setup_s", median(setup), "s")
        out.detail.update(ub_eval_s=ub_eval_s, calls=len(calls),
                          cal_s=median(c[1] for c in calls), setup_s_all=setup,
                          op_s_all=[c[0] for c in calls])
        return out

    def per_layer(self, seed, seconds, out_dir) -> Outcome:
        out = Outcome.traced()
        self.warm_up(seed)
        pairs = [(self._call(i, out), self._call(i, out, out.tracer))
                 for i in round_indices(seconds, len(UB_CALLS))]
        terms = sum(traced[2] for _, traced in pairs)
        out.metric("oracle.union_bound.terms", terms / len(pairs))
        out.metric("oracle.union_bound.us_per_term",
                   out.tracer.total("oracle.union_bound") / terms * 1e6)
        out.metric("trace.overhead_frac", _overhead(
            (u[1] - u[0], t[1] - t[0]) for u, t in pairs))
        return out


def _overhead(walls) -> float:
    """Traced over untraced time, minus 1, from (untraced, traced) wall
    times of the same work."""
    untraced, traced = zip(*walls)
    return sum(traced) / sum(untraced) - 1


# ---------------------------------------------------------------------------
# exhaustive enumeration at n = 6


ENUM_N = 6
ENUM_KS = (2, 3)
ENUM_MUS = (0.25, 0.5, 0.75)
ENUM_TOL = 1e-12
# (k, d, r) of every call in a round: the C01 cut grid at n = 6, K in
# {2, 3}, d in {0, 1} and every subset size, so every round does the same work
ENUM_GRID = tuple((k, d, r) for k in ENUM_KS for d in (0, 1) for r in range(1, ENUM_N - d))


class _CountingPredicate:
    """The cut predicate of C01, counting how often enumeration asks it."""

    def __init__(self, subset, deleted):
        self.subset, self.deleted, self.calls = subset, deleted, 0

    def __call__(self, g):
        self.calls += 1
        if self.deleted:
            return not (self.subset & g.deleted) and g.is_cut(self.subset)
        return g.is_cut(self.subset)


class EnumWorkload:
    """exhaustive_event_probability over the C01 cut grid at n = 6, d in {0, 1}."""

    name = "oracle-enum"

    @staticmethod
    def mus(seed):
        """mu of each round, in turn: the C01 values in a seeded order."""
        mus = list(ENUM_MUS)
        random.Random(seed).shuffle(mus)
        return mus

    def warm_up(self, seed):
        """First call per selection count; each builds its signature table cold."""
        for k in ENUM_KS:
            self._call(k, 0.5, 1, 0, Outcome())

    @staticmethod
    def _call(k, mu, r, d, out: Outcome):
        """One checked call; returns (start, end, predicate calls)."""
        subset = frozenset(range(r))
        predicate = _CountingPredicate(subset, d)
        t0 = clock()
        p = exhaustive_event_probability(ENUM_N, mu, k, d, predicate)
        t1 = clock()
        if d:
            enum = p * comb(ENUM_N, d) / comb(ENUM_N - r, d)
            closed = exact_cut_probability_deleted(ENUM_N, mu, k, d, r)
        else:
            enum, closed = p, exact_cut_probability(ENUM_N, mu, k, r)
        out.record(abs(enum - closed) <= ENUM_TOL, 1,
                   f"enumeration {enum!r} != closed form {closed!r} at k={k} mu={mu} "
                   f"r={r} d={d}")
        return t0, t1, predicate.calls

    def _round(self, mu, out: Outcome, tracer=None):
        """The whole grid for one mu; returns (mean wall per call,
        predicate calls)."""
        walls, asked = 0.0, 0
        for k, d, r in ENUM_GRID:
            t0, t1, n_asked = self._call(k, mu, r, d, out)
            if tracer is not None:
                tracer.add("oracle.enum", t0, t1)
            walls += t1 - t0
            asked += n_asked
        return walls / len(ENUM_GRID), asked

    def end_to_end(self, seed, seconds, out_dir) -> Outcome:
        out = Outcome()
        setup = measure_setup(self.name, seed)
        self.warm_up(seed)
        mus = self.mus(seed)
        calls = calibrated((partial(self._call, k, mus[i % len(mus)], r, d, out)
                            for i in round_indices(seconds) for k, d, r in ENUM_GRID),
                           SET_LOGIC)
        # the calls of a round differ in cost; enum_eval_s is the mean over
        # the grid of each call's median over the rounds
        enum_eval_s = statistics.mean(position_medians([c[0] for c in calls], len(ENUM_GRID)))
        out.metric("op_ms", enum_eval_s * 1e3, "ms")
        out.metric("setup_s", median(setup), "s")
        out.detail.update(enum_eval_s=enum_eval_s, rounds=len(calls) // len(ENUM_GRID),
                          cal_s=median(c[1] for c in calls), setup_s_all=setup,
                          op_s_all=[c[0] for c in calls])
        return out

    def per_layer(self, seed, seconds, out_dir) -> Outcome:
        out = Outcome.traced()
        tables, signatures = [], []
        for k in ENUM_KS:  # the first call per k builds its table; the second reuses it
            c0, c1, _ = self._call(k, 0.5, 1, 0, out)
            w0, w1, n_asked = self._call(k, 0.5, 1, 0, out)
            tables.append((c1 - c0) - (w1 - w0))
            signatures.append(n_asked)  # a d=0 call asks once per signature
        mus = self.mus(seed)
        pairs = [(self._round(mus[i % len(mus)], out),
                  self._round(mus[i % len(mus)], out, out.tracer))
                 for i in round_indices(seconds, 1)]
        out.metric("oracle.enum.table_s", median(tables))
        out.metric("oracle.enum.signatures", median(signatures))
        out.metric("oracle.enum.us_per_signature",
                   out.tracer.total("oracle.enum") / sum(t[1] for _, t in pairs) * 1e6)
        out.metric("trace.overhead_frac", _overhead((u[0], t[0]) for u, t in pairs))
        out.detail.update(rounds=len(pairs))
        return out


WORKLOADS = {w.name: w for w in (*MC_WORKLOADS, UbWorkload(), EnumWorkload())}
