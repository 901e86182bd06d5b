"""Property tests: every invalid CLI input exits 2 with a named condition.

Each case runs `koutlab sample`, `oracle`, `bounds` or `sweep` with
exactly one invalid input, and checks that the command exits 2, prints
nothing on stdout and prints `parameter error: <condition>` on stderr,
with no traceback.  `sweep` also reads config files holding one
malformed line, or one value of a type its key does not take.  Flag values are passed as `--flag=value`, so argparse reads
a leading minus as part of the value.  Cases draw n <= 40 (an `oracle
--r` query may draw an n beyond the oracle's cap, which sizes no array) and
at most 5 trials on one worker, so none builds a large graph, runs long or
starts a process pool.  Each command that takes `--out` also runs with an
output path it cannot write: in a missing directory, onto a directory, or
with a rename that fails; it must exit 2 and create or change no file.
A valid but huge trial count, and `validate` with a level it does not know, run with the expensive call patched to
raise, so a missing check fails the test instead of running it.  Worker
counts up to 10^30 run 1200-trial sweeps at n=10 (five tasks, enough to
ask for four workers) against a stand-in pool that records the size it
is asked for and maps in process, on a machine patched to report four
CPUs.
"""

import io
import keyword
import math
import re
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import cache

import numpy as np
import pytest

from koutlab import cli, experiments, validate

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@pytest.fixture(autouse=True, scope="module")
def _one_worker():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("KOUTLAB_THREADS", "1")
        yield


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_named_rejection(argv, condition=r"\S.*"):
    code, out, err = run(argv)
    assert code == 2 and out == "", (argv, code, out, err)
    assert re.fullmatch(rf"parameter error: {condition}\n", err, re.S), (argv, err)
    assert "Traceback" not in err


def flags(**values):
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]


nodes = st.integers(4, 40)
bad_mu = st.floats(max_value=0.0) | st.floats(min_value=1.0) | st.just(math.nan)
small_k = st.integers(-3, 1)
negative = st.integers(-10**20, -1)
garbage = st.text(alphabet="abcx;,", min_size=1)  # never a number list


@st.composite
def bad_vectors(draw):
    """--mu-vec/--k-vec pairs that no r-class ensemble accepts."""
    kind = draw(st.sampled_from(["sum", "order", "token", "length"]))
    if kind == "sum":
        probs = draw(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=3)
                     .filter(lambda p: abs(sum(p) - 1.0) > 1e-3))
        return ",".join(map(repr, probs)), ",".join(str(k) for k in range(1, len(probs) + 1))
    if kind == "order":
        a = draw(st.integers(-2, 5))
        return "0.5,0.5", f"{a},{draw(st.integers(-3, a))}"
    if kind == "token":
        return draw(garbage), "1,2"
    return "0.5,0.5", "1,2,3"


SAMPLE_KINDS = ["mu", "k", "n", "d", "seed", "half", "vectors"]


@st.composite
def invalid_sample(draw, kind):
    n = draw(nodes)
    base = ["sample", "--seed=1"]
    if kind == "mu":
        return base + flags(n=n, mu=draw(bad_mu))
    if kind == "k":
        return base + flags(n=n, k=draw(small_k | st.integers(n, 45)))
    if kind == "n":
        return base + flags(n=draw(st.integers(-5, 2)))
    if kind == "d":
        return base + flags(n=n, d=draw(st.integers(-5, -1) | st.integers(n, 45)))
    if kind == "seed":
        return ["sample"] + flags(n=n, seed=draw(negative))
    if kind == "half":
        return base + flags(n=n, **{draw(st.sampled_from(["mu_vec", "k_vec"])): "1"})
    mu_vec, k_vec = draw(bad_vectors())
    return base + flags(n=n, mu_vec=mu_vec, k_vec=k_vec)


ORACLE_KINDS = ["no-n", "queries", "r", "r-deleted", "r-beyond-int64", "m", "m-deleted",
                "x", "x-deleted", "mu", "k"]


@st.composite
def invalid_oracle(draw, kind):
    n = draw(nodes)
    if kind == "no-n":
        return ["oracle", "--r=1"]
    base = ["oracle"] + flags(n=n)
    if kind == "queries":
        chosen = draw(st.sampled_from([(), ("r", "m"), ("r", "x"), ("m", "x"), ("r", "m", "x")]))
        return base + flags(**{q: 1 for q in chosen})
    if kind == "r":
        return base + flags(r=draw(st.integers(-5, 0) | st.integers(n, 45)))
    if kind == "r-deleted":
        d = draw(st.integers(1, n + 5))
        return base + flags(d=d, r=draw(st.integers(-5, 0) | st.integers(max(1, n - d), 45)))
    if kind == "r-beyond-int64":  # a valid query beyond the closed forms' n cap
        query = flags(n=draw(st.integers(10**6 + 1, 10**30)), r=draw(st.integers(1, 5)))
        return ["oracle"] + query + flags(d=draw(st.integers(0, 3)))
    if kind == "m":
        return base + flags(m=draw(st.integers(-5, 0) | st.integers(n // 2 + 1, 45)))
    if kind == "m-deleted":
        return base + flags(m=1, d=draw(st.integers(-5, -1) | st.integers(1, 45)))
    if kind == "x":
        return base + flags(d=draw(st.integers(-5, -1) | st.integers(n, 45)), x=1)
    if kind == "x-deleted":
        d = draw(st.integers(0, n - 1))
        return base + flags(d=d, x=draw(st.integers(-5, 0) | st.integers((n - d) // 2 + 1, 45)))
    if kind == "mu":
        return base + flags(mu=draw(bad_mu), r=1)
    return base + flags(k=draw(small_k | st.integers(n, 45)), r=1)


BOUNDS_KINDS = ["unknown", "missing", "tail", "deleted-tail", "deleted-tail-alt", "r-class",
                "er", "heuristic", "mean-degree"]


@st.composite
def invalid_bounds(draw, kind):
    if kind == "unknown":
        name = draw(st.text(min_size=1).filter(
            lambda s: s not in cli._BOUND_KINDS and s not in cli._KIND_ALIASES))
        return ["bounds", f"--kind={name}"]
    if kind == "missing":
        name = draw(st.sampled_from(sorted(cli._BOUND_KINDS)))
        given_flags = list(cli._BOUND_KINDS[name].requires)
        given_flags.remove(draw(st.sampled_from(given_flags)))
        values = {"--m": "5", "--x": "500", "--c": "2.0", "--n": "30",
                  "--mu-vec": "0.5,0.5", "--k-vec": "1,2"}
        return ["bounds", f"--kind={name}"] + [f"{f}={values[f]}" for f in given_flags]
    base = ["bounds", f"--kind={kind}"]
    if kind == "tail":
        bad = draw(st.sampled_from(["mu", "k", "m"]))
        good = {"mu": 0.5, "k": 2, "m": 5}
        good[bad] = draw({"mu": bad_mu, "k": small_k, "m": st.integers(-5, 0)}[bad])
        return base + flags(**good)
    if kind == "deleted-tail":
        d = draw(st.integers(1, 20))
        bad = draw(st.sampled_from(["eps", "x", "d"]))
        if bad == "eps":  # checked before x
            return base + flags(mu=0.5, k=2, d=d, x=500,
                                eps=draw(st.floats(max_value=0.0) | st.sampled_from(
                                    [math.nan, math.inf])))
        if bad == "x":  # at mu=0.5, K=2, eps=1 the threshold is x > 4d
            return base + flags(mu=0.5, k=2, d=d, x=draw(st.integers(-5, 4 * d)))
        return base + flags(mu=0.5, k=2, d=draw(st.integers(-20, -1)), x=500)
    if kind == "deleted-tail-alt":
        if draw(st.booleans()):
            return base + flags(mu=draw(bad_mu), d=2, x=500)
        d = draw(st.integers(1, 20))  # at mu=0.5, eps=1 the threshold is x > 4d
        return base + flags(mu=0.5, d=d, x=draw(st.integers(-5, 4 * d)))
    if kind == "r-class":
        if draw(st.booleans()):
            return base + flags(mu_vec="0.5,0.5", k_vec="1,2", m=draw(st.integers(-5, 0)))
        mu_vec, k_vec = draw(bad_vectors())
        return base + flags(mu_vec=mu_vec, k_vec=k_vec, m=5)
    if kind == "er":
        return base + flags(c=draw(st.floats(max_value=1.0) | st.sampled_from(
            [math.nan, math.inf])))
    if kind == "heuristic":
        n = draw(st.integers(-5, 40))
        return base + flags(n=n, d=draw(st.integers(-5, -1) | st.integers(max(n, 0), 45)))
    n = draw(nodes)
    if draw(st.booleans()):
        return base + flags(n=n, k=draw(st.integers(n, 45)))
    return base + flags(n=n, mu=draw(bad_mu))


SWEEP_KINDS = ["missing", "values", "no-n", "trials", "seed", "d", "mu", "mu-values",
               "k-values", "n-values"]


@st.composite
def invalid_sweep(draw, kind):
    good = {"sweep_param": "mu", "sweep_values": "0.5", "n": 30, "trials": 3, "seed": 1}
    if kind == "missing":
        del good[draw(st.sampled_from(["sweep_param", "sweep_values"]))]
    elif kind == "values":
        good["sweep_values"] = draw(garbage)
    elif kind == "no-n":
        del good["n"]
        good["sweep_param"] = draw(st.sampled_from(["mu", "K", "d"]))
        good["sweep_values"] = "2"
    elif kind == "trials":
        good["trials"] = draw(st.integers(-5, 0))
    elif kind == "seed":
        good["seed"] = draw(negative)
    elif kind == "d":
        good["d"] = draw(st.integers(-5, -1) | st.integers(30, 45))
    elif kind == "mu":
        good.update(sweep_param="K", sweep_values="2", mu=draw(bad_mu))
    elif kind == "mu-values":
        good["sweep_values"] = repr(draw(st.floats(max_value=0.0, allow_infinity=False)
                                         | st.floats(min_value=1.0, allow_infinity=False)))
    elif kind == "k-values":
        good.update(sweep_param="K", sweep_values=str(draw(small_k | st.integers(30, 45))))
    else:
        good.update(sweep_param="n", sweep_values=str(draw(st.integers(-5, 2))))
    return ["sweep"] + flags(**good)


@pytest.mark.parametrize("invalid, kind", [(invalid_sample, k) for k in SAMPLE_KINDS]
                         + [(invalid_oracle, k) for k in ORACLE_KINDS]
                         + [(invalid_bounds, k) for k in BOUNDS_KINDS]
                         + [(invalid_sweep, k) for k in SWEEP_KINDS])
@PROPERTY
@given(data=st.data())
def test_invalid_input_exits_two_with_a_condition(invalid, kind, data):
    assert_named_rejection(data.draw(invalid(kind)))


# text on one line: no control, line or paragraph separator, no surrogate
line_text = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp", "Cs")))
config_key = st.sampled_from(sorted(cli._CONFIG_KEYS))
identifier = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,12}", fullmatch=True).filter(
    lambda s: not keyword.iskeyword(s))


LINE_KINDS = ["unknown-key", "no-assignment", "syntax", "name", "null", "unhashable", "nested"]


@st.composite
def malformed_line(draw, kind):
    """(line, condition pattern) for a config line load_config_file rejects."""
    expected = re.escape("expected `key = value`")
    if kind == "unknown-key":
        key = draw(identifier.filter(lambda s: s not in cli._CONFIG_KEYS))
        return f"{key} = 1", "unknown key"
    if kind == "no-assignment":
        return f"{draw(config_key)} {draw(st.integers())}", expected
    if kind == "syntax":  # '?' is no Python token
        return f"{draw(config_key)} = ?{draw(line_text)}", expected
    if kind == "name":
        name = draw(identifier.filter(lambda s: s.lower() not in ("true", "false")))
        return f"{draw(config_key)} = {name}", "cannot parse value"
    if kind == "null":
        return f"{draw(config_key)} = 1\x00{draw(line_text)}", expected
    if kind == "unhashable":  # a literal that literal_eval fails on with TypeError
        return f"{draw(config_key)} = {{[{draw(st.integers())}]: 1}}", "cannot parse value"
    # near or past the parser's depth limit (RecursionError, MemoryError)
    return (f"{draw(config_key)} = {'-' * draw(st.integers(3000, 8000))}1",
            f"({expected}|cannot parse value)")


valid_line = st.sampled_from(["", "   ", "# note", "n = 30", "trials = 3  # few",
                              'sweep_param = "mu"', "sweep_values = [0.5]"])


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("configs") / "sweep.conf"


@pytest.mark.parametrize("kind", LINE_KINDS)
@PROPERTY
@given(before=st.lists(valid_line, max_size=3), after=st.lists(valid_line, max_size=2),
       data=st.data())
def test_malformed_config_line_exits_two_naming_its_line(config_path, kind, before, after, data):
    line, condition = data.draw(malformed_line(kind))
    config_path.write_text("\n".join(before + [line] + after) + "\n", encoding="utf-8")
    where = re.escape(f"{config_path}:{len(before) + 1}: ")
    assert_named_rejection(["sweep", f"--config={config_path}"],
                           where + condition + ".*")


# literals that no config key takes: true/false, nested lists and int-keyed dicts
wrong_type = (st.booleans()
              | st.lists(st.lists(st.integers(), max_size=2), min_size=1, max_size=2)
              | st.dictionaries(st.integers(), st.integers(), min_size=1, max_size=2))


@pytest.mark.parametrize("key", sorted(cli._CONFIG_KEYS))
@PROPERTY
@given(value=wrong_type)
def test_config_value_of_the_wrong_type_exits_two(config_path, key, value):
    lines = ['sweep_param = "mu"', "sweep_values = [0.5]", "n = 30", "trials = 3",
             f"{key} = {value!r}"]
    config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_named_rejection(["sweep", f"--config={config_path}"])


@PROPERTY
@given(trials=st.integers(2**32 + 1, 10**30), d=st.integers(0, 3))
def test_sweep_with_too_many_trials_exits_two(trials, d):
    def no_trials(*args):
        raise AssertionError("a trial block ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_run_block", no_trials)
        assert_named_rejection(["sweep"] + flags(sweep_param="d", sweep_values=d, n=30,
                                                 trials=trials, seed=1),
                               re.escape(f"trials must be between 1 and 2**32, got {trials}"))


# one valid run of each command that takes --out
OUT_RUNS = {
    "sample": ["sample"] + flags(n=10, seed=1),
    "bounds": ["bounds"] + flags(kind="er", c=2.2),
    "oracle": ["oracle"] + flags(n=30, m=2),
    "sweep": ["sweep"] + flags(sweep_param="mu", sweep_values=0.5, n=30, trials=3, seed=1),
}


def _snapshot(root):
    """Every path under root with its kind, bytes and modification time."""
    return {path: (path.is_dir() or path.read_bytes(), path.stat().st_mtime_ns)
            for path in root.rglob("*")}


@pytest.fixture
def out_dir(tmp_path):
    """A directory holding a directory d (with a file in it), and the
    directories s.csv and j.json beside a file j.csv."""
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "kept").write_text("kept")
    (tmp_path / "s.csv").mkdir()
    (tmp_path / "j.json").mkdir()
    (tmp_path / "j.csv").write_text("old")
    return tmp_path


# a sweep's --out is a base: onto a directory, its .csv (s) or only its .json (j) is one
@pytest.mark.parametrize("command, target",
                         [(command, "missing/x") for command in sorted(OUT_RUNS)]
                         + [(command, "d") for command in sorted(OUT_RUNS) if command != "sweep"]
                         + [("sweep", "s"), ("sweep", "j")])
def test_unwritable_out_exits_two_and_touches_no_file(out_dir, command, target):
    before = _snapshot(out_dir)
    assert_named_rejection(OUT_RUNS[command] + [f"--out={out_dir / target}"],
                           "cannot write output: .+")
    assert _snapshot(out_dir) == before


@pytest.mark.parametrize("command", sorted(OUT_RUNS))
def test_a_failed_rename_exits_two_and_leaves_no_part_file(out_dir, command):
    def no_rename(*args):
        raise PermissionError(1, "Operation not permitted")

    before = _snapshot(out_dir)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments.os, "replace", no_rename)
        assert_named_rejection(OUT_RUNS[command] + [f"--out={out_dir / 'r'}"],
                               "cannot write output: .*Operation not permitted")
    assert _snapshot(out_dir) == before


@PROPERTY
@given(level=st.text().filter(lambda s: s not in ("quick", "full")))
def test_validate_with_an_unknown_level_exits_two(level):
    # argparse refuses the choice with its usage error, before any suite runs
    def no_suites(*args):
        raise AssertionError("a suite ran")

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validate, "run_suites", no_suites)
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_:
            cli.main(["validate", f"--level={level}"])
    assert exit_.value.code == 2 and out.getvalue() == ""
    assert "error: argument --level: invalid choice" in err.getvalue()
    assert "Traceback" not in err.getvalue()


class _SizedPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


CPUS = 4  # os.cpu_count() while a worker count is tested
# 1200 trials make five tasks of 256, so any request of four or more
# workers asks for the whole (patched) machine
POOL_SWEEP = ["sweep"] + flags(sweep_param="mu", sweep_values=0.5, n=10, k=2, trials=1200,
                               seed=1)
POOL_PARAMS = experiments.two_type_params(10, 0.5, 2)


@cache
def _serial_cmax():
    """collect_cmax's serial result for the pool cases, computed once."""
    return experiments.collect_cmax(POOL_PARAMS, 0, 1200, seed=1, workers=1)


@contextmanager
def sized_pool(threads="1"):
    """The pool sizes asked for inside the block, with CPUS CPUs and
    KOUTLAB_THREADS set to threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments.os, "cpu_count", lambda: CPUS)
        mp.setattr(experiments, "ProcessPoolExecutor", _SizedPool)
        mp.setattr(_SizedPool, "sizes", [])
        mp.setenv(experiments.THREADS_ENV, threads)
        yield _SizedPool.sizes


huge_count = st.integers(-10**30, 10**30) | st.integers(2, 10**30)


@PROPERTY
@given(workers=huge_count, form=st.sampled_from(["{}", " {} ", "\t{}\n"]))
def test_huge_thread_counts_start_a_bounded_pool(workers, form):
    with sized_pool(form.format(workers)) as sizes:
        code, out, err = run(POOL_SWEEP)
    assert code == 0 and out.startswith("sweep_param,value,") and "Traceback" not in err
    assert sizes == ([min(workers, CPUS)] if workers >= 2 else [])


@PROPERTY
@given(value=garbage | st.just("1e3") | st.just("2.5"))
def test_non_integer_thread_counts_exit_two(value):
    with sized_pool(value) as sizes:
        assert_named_rejection(POOL_SWEEP, re.escape(f"{experiments.THREADS_ENV} must be an "
                                                      f"integer, got {value!r}"))
    assert sizes == []


def test_sweep_has_no_workers_flag():
    # the worker count comes from KOUTLAB_THREADS alone: argparse refuses
    # the flag with its usage error, before any trial runs
    out, err = io.StringIO(), io.StringIO()
    with (sized_pool("64") as sizes, redirect_stdout(out), redirect_stderr(err),
          pytest.raises(SystemExit) as exit_):
        cli.main(POOL_SWEEP + [f"--workers={10**30}"])
    assert exit_.value.code == 2 and out.getvalue() == ""
    assert "error: unrecognized arguments: --workers" in err.getvalue()
    assert "Traceback" not in err.getvalue() and sizes == []


@PROPERTY
@given(workers=huge_count)
def test_huge_worker_arguments_start_a_bounded_pool(workers):
    # an explicit workers= argument wins over KOUTLAB_THREADS
    with sized_pool("64") as sizes:
        got = experiments.collect_cmax(POOL_PARAMS, 0, 1200, seed=1, workers=workers)
    assert sizes == ([min(workers, CPUS)] if workers >= 2 else [])
    assert np.array_equal(got, _serial_cmax())
