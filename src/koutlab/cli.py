"""Command-line front end.

Subcommands: sample (draw one graph and report its components), sweep
(Monte-Carlo parameter sweeps emitting CSV/JSON), bounds (closed-form
bound tables), oracle (exact finite-n cut probabilities and union
bounds), validate (self-check suites).

Exit codes: 0 success, 2 parameter error, 3 validation failure,
141 when the output pipe is closed early.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import secrets
import sys

import numpy as np

from . import __version__, bounds, oracle
from .component_analysis import connected_components
from .errors import ParameterError
from .experiments import ExperimentConfig, render_csv, render_json, run_sweep
from .graph_model import GraphParams, construct_r_type, delete_random_nodes, two_type_params

_CONFIG_KEYS = {
    "sweep_param", "sweep_values", "n", "mu", "k", "d", "trials", "seed",
    "out", "overlays", "overlay_m", "overlay_x", "overlay_eps", "format",
}

_BOUND_KINDS = {
    "tail": "tail", "t1": "tail",
    "deleted-tail": "deleted-tail", "t2": "deleted-tail",
    "deleted-tail-alt": "deleted-tail-alt", "alt": "deleted-tail-alt",
    "r-class": "r-class", "rclass": "r-class",
    "er": "er",
    "heuristic": "heuristic",
    "mean-degree": "mean-degree",
}


# ---------------------------------------------------------------------------
# config files: flat key-value documents


def _strip_comment(line):
    out = []
    quote = None
    for ch in line:
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "#":
            break
        out.append(ch)
    return "".join(out)


def _parse_value(text, where):
    text = text.strip()
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        raise ParameterError(f"{where}: cannot parse value {text!r}") from None
    if isinstance(value, tuple):
        value = list(value)
    return value


def load_config_file(path) -> dict:
    """Read a flat key-value config: one `key = value` per line.

    Values follow TOML-style scalar syntax: quoted strings, integers,
    floats, true/false, and flat [a, b, c] lists; '#' starts a comment.
    """
    data = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as err:
        raise ParameterError(f"cannot read config file: {err}") from None
    for lineno, raw in enumerate(lines, 1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        key, eq, rhs = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ParameterError(f"{path}:{lineno}: expected `key = value`")
        if key not in _CONFIG_KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        data[key] = _parse_value(rhs, f"{path}:{lineno}")
    return data


# ---------------------------------------------------------------------------
# shared flag handling


def _vec(text, kind, flag):
    try:
        return tuple(kind(tok) for tok in str(text).split(","))
    except ValueError:
        raise ParameterError(f"{flag} expects a comma-separated list of numbers, "
                             f"got {text!r}") from None


def _sweep_value(token):
    return float(token) if ("." in token or "e" in token.lower()) else int(token)


def _resolve_seed(seed):
    # a missing seed is drawn once and echoed so the run stays reproducible
    if seed is None:
        return secrets.randbits(63)
    if not isinstance(seed, int) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _graph_params(args) -> GraphParams:
    if (args.mu_vec is None) != (args.k_vec is None):
        raise ParameterError("--mu-vec and --k-vec must be given together")
    if args.n is None:
        raise ParameterError("--n is required")
    if args.mu_vec is not None:
        return GraphParams(
            n=args.n,
            type_probs=_vec(args.mu_vec, float, "--mu-vec"),
            type_selections=_vec(args.k_vec, int, "--k-vec"),
        )
    return two_type_params(args.n, args.mu, args.k)


def _write_stdout(text):
    """Write text to stdout in full, or raise BrokenPipeError.

    An unbuffered stdout (python -u, PYTHONUNBUFFERED) has a raw FileIO
    under its text layer, and the text layer drops the rest of a short
    write, such as the one a pipe makes when its reader closes.  Writing
    the bytes here, and looping on the count written, makes the next
    write after the reader closes fail with EPIPE instead.
    """
    stream = sys.stdout
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(text)
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        data = data[buffer.write(data):]
    buffer.flush()


def _emit(text, out_path):
    if out_path is None:
        _write_stdout(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    params = _graph_params(args)
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    g = construct_r_type(params, rng)
    deleted = ()
    view = g
    if args.d:
        spec, view = delete_random_nodes(g, args.d, rng)
        deleted = spec.nodes
    report = connected_components(view)
    eu, ev = g.edge_arrays()
    if args.format == "json":
        payload = {
            "n": params.n,
            "type_probs": list(params.type_probs),
            "type_selections": list(params.type_selections),
            "d": args.d,
            "seed": seed,
            "node_types": g.node_types.tolist(),
            "deleted": list(deleted),
            "edges": [[int(u), int(v)] for u, v in zip(eu, ev)],
            "component_sizes": list(report.component_sizes),
            "cmax": report.cmax,
            "outside_count": report.outside_count,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [
            f"# sample n={params.n} mu={','.join(repr(p) for p in params.type_probs)}"
            f" K={','.join(str(k) for k in params.type_selections)}"
            f" d={args.d} seed={seed}",
            "# types " + " ".join(str(int(t)) for t in g.node_types),
            "# deleted " + (" ".join(str(x) for x in deleted) if deleted else "-"),
            "# component_sizes " + " ".join(str(s) for s in report.component_sizes),
            f"# cmax {report.cmax} outside {report.outside_count}",
        ]
        lines += [f"{int(u)} {int(v)}" for u, v in zip(eu, ev)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    conf = load_config_file(args.config) if args.config else {}
    overrides = {
        "sweep_param": args.sweep_param, "n": args.n, "mu": args.mu, "k": args.k,
        "d": args.d, "trials": args.trials, "seed": args.seed, "out": args.out,
        "format": args.format,
    }
    if args.sweep_values is not None:
        overrides["sweep_values"] = _vec(args.sweep_values, _sweep_value, "--sweep-values")
    for key, value in overrides.items():
        if value is not None:
            conf[key] = value
    fmt = conf.pop("format", "csv")
    if fmt not in ("csv", "json"):
        raise ParameterError("format must be csv or json")
    if "sweep_param" not in conf or "sweep_values" not in conf:
        raise ParameterError("a sweep needs sweep_param and sweep_values (config file or flags)")
    conf.setdefault("mu", 0.5)
    conf.setdefault("k", 2)
    if conf["sweep_param"] != "n" and "n" not in conf:
        raise ParameterError(f"a sweep over {conf['sweep_param']} needs --n")
    conf["seed"] = _resolve_seed(conf.get("seed"))
    if "overlays" in conf and isinstance(conf["overlays"], str):
        conf["overlays"] = [conf["overlays"]]
    config = ExperimentConfig(**conf)
    summaries, dataset = run_sweep(config)
    if config.out is None:
        _write_stdout(render_json(dataset) if fmt == "json" else render_csv(dataset))
    else:
        _write_stdout(
            f"wrote {len(summaries)} sweep points (seed {config.seed}) to "
            f"{config.out}.csv and {config.out}.json\n"
        )
    return 0


def _num(v):
    return repr(v) if isinstance(v, float) else str(v)


def _finite_or_none(v):
    return v if math.isfinite(v) else None


def _bound_rows(args, kind):
    if kind == "tail":
        if args.m is None:
            raise ParameterError("--m is required for the tail bound")
        rows = [(("M", m), bounds.tail_bound(args.mu, args.k, m)) for m in args.m]
    elif kind == "deleted-tail":
        if args.x is None:
            raise ParameterError("--x is required for the deleted tail bound")
        rows = [(("x", x), bounds.deleted_tail_bound(args.mu, args.k, args.d, x, args.eps))
                for x in args.x]
    elif kind == "deleted-tail-alt":
        if args.x is None:
            raise ParameterError("--x is required for the single-tail deleted bound")
        rows = [(("x", x), bounds.deleted_tail_bound_alt(args.mu, args.d, x, args.eps))
                for x in args.x]
    elif kind == "r-class":
        if args.mu_vec is None or args.k_vec is None:
            raise ParameterError("--mu-vec and --k-vec are required for the r-class bound")
        if args.m is None:
            raise ParameterError("--m is required for the r-class bound")
        probs = _vec(args.mu_vec, float, "--mu-vec")
        sels = _vec(args.k_vec, int, "--k-vec")
        rows = [(("M", m), bounds.r_class_tail_bound(probs, sels, m)) for m in args.m]
    else:
        raise ParameterError(f"unhandled bound kind {kind!r}")
    return rows


def cmd_bounds(args) -> int:
    kind = _BOUND_KINDS.get(args.kind)
    if kind is None:
        raise ParameterError(f"unknown bound kind {args.kind!r}")
    if kind == "er":
        if args.c is None:
            raise ParameterError("--c is required for the er comparison")
        beta = bounds.er_giant_fraction(args.c)
        if args.format == "json":
            _emit(json.dumps({"kind": "er", "c": args.c, "beta": beta}) + "\n", args.out)
        else:
            _emit(f"er giant-component fraction: c={_num(args.c)} beta={beta:.10f}\n", args.out)
        return 0
    if kind == "heuristic":
        if args.n is None:
            raise ParameterError("--n is required for the heuristic bound")
        value = bounds.heuristic_giant_lower_bound(args.n, args.mu, args.k, args.d)
        if args.format == "json":
            payload = {"kind": "heuristic", "n": args.n, "mu": args.mu, "K": args.k,
                       "d": args.d, "value": value, "heuristic": True}
            _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
        else:
            _emit(f"heuristic giant-size floor (not a proved bound): {value}\n", args.out)
        return 0
    if kind == "mean-degree":
        if args.n is None:
            raise ParameterError("--n is required for the mean degree")
        value = bounds.mean_degree(args.n, args.mu, args.k)
        if args.format == "json":
            payload = {"kind": "mean-degree", "n": args.n, "mu": args.mu,
                       "K": args.k, "value": value}
            _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
        else:
            _emit(f"mean degree: {value!r}\n", args.out)
        return 0

    rows = _bound_rows(args, kind)
    if args.format == "json":
        payload = {
            "kind": kind,
            "inputs": rows[0][1].inputs,
            "regime_notes": list(rows[0][1].regime_notes),
            "rows": [{label: value, "value": b.value, "components": b.components}
                     for (label, value), b in rows],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [f"kind={kind} " + " ".join(
            f"{key}={_num(val)}" for key, val in rows[0][1].inputs.items()
            if key not in ("M", "x"))]
        for (label, value), b in rows:
            lines.append(f"{label}={value}  value={b.value!r}")
        lines.append("notes: " + "; ".join(rows[0][1].regime_notes))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_oracle(args) -> int:
    if args.n is None:
        raise ParameterError("--n is required")
    chosen = [k for k, v in (("--r", args.r), ("--m", args.m), ("--x", args.x))
              if v is not None]
    if len(chosen) != 1:
        raise ParameterError("give exactly one of --r (cut probability), "
                             "--m (union bound), --x (deleted union bound)")
    if args.r is not None:
        if args.d:
            value = oracle.exact_cut_probability_deleted(
                args.n, args.mu, args.k, args.d, args.r, mode=args.mode)
            desc = f"cut probability n={args.n} mu={_num(args.mu)} K={args.k} d={args.d} r={args.r}"
        else:
            value = oracle.exact_cut_probability(
                args.n, args.mu, args.k, args.r, mode=args.mode)
            desc = f"cut probability n={args.n} mu={_num(args.mu)} K={args.k} r={args.r}"
        if args.format == "json":
            _emit(json.dumps({"n": args.n, "mu": args.mu, "K": args.k, "d": args.d,
                              "r": args.r, "mode": args.mode, "value": value},
                             sort_keys=True) + "\n", args.out)
        else:
            _emit(f"{desc} [{args.mode}]: {value!r}\n", args.out)
        return 0
    if args.m is not None:
        ev = oracle.union_bound_sum(args.n, args.mu, args.k, args.m, mode=args.mode)
        label, low = "M", args.m
    else:
        ev = oracle.union_bound_sum_deleted(args.n, args.mu, args.k, args.d, args.x,
                                            mode=args.mode)
        label, low = "x", args.x
    if args.format == "json":
        # strict JSON has no Infinity: a sum or term beyond float64 is null
        payload = {"n": args.n, "mu": args.mu, "K": args.k, "d": args.d, label: low,
                   "mode": ev.arithmetic_mode, "value": ev.value,
                   "raw_sum": _finite_or_none(ev.raw_sum),
                   "terms": [_finite_or_none(t) for t in ev.terms.tolist()],
                   "r_start": ev.r_start}
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        _emit(
            f"union bound n={args.n} mu={_num(args.mu)} K={args.k} d={args.d} "
            f"{label}={low} [{ev.arithmetic_mode}]: value={ev.value!r} "
            f"raw_sum={ev.raw_sum!r} terms={ev.terms.size}\n",
            args.out,
        )
    return 0


def cmd_validate(args) -> int:
    from .validate import run_suites

    results = run_suites(args.level)
    failed = 0
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
        for flag in res.flags:
            print(f"  FLAG {res.name}: {flag}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} suites passed ({args.level})")
    return 0 if failed == 0 else 3


# ---------------------------------------------------------------------------
# parser


def _add_common_model_flags(sub):
    sub.add_argument("--n", type=int, default=None, help="node count")
    sub.add_argument("--mu", type=float, default=0.5,
                     help="light-class probability (default 0.5)")
    sub.add_argument("--k", type=int, default=2,
                     help="heavy-class selection count (default 2)")
    sub.add_argument("--mu-vec", default=None,
                     help="comma-separated class probabilities (r classes)")
    sub.add_argument("--k-vec", default=None,
                     help="comma-separated class selection counts")
    sub.add_argument("--d", type=int, default=0, help="deleted node count (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koutlab",
        description="Random K-out graphs with typed nodes: sampling, sweeps, and bounds.",
    )
    parser.add_argument("--version", action="version", version=f"koutlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sample = subs.add_parser("sample", help="draw one graph and report components")
    _add_common_model_flags(sample)
    sample.add_argument("--seed", type=int, default=None)
    sample.add_argument("--out", default=None, help="output file (default stdout)")
    sample.add_argument("--format", choices=("text", "json"), default="text")
    sample.set_defaults(func=cmd_sample)

    sweep = subs.add_parser("sweep", help="Monte-Carlo sweep over one parameter")
    sweep.add_argument("--config", default=None, help="flat key-value config file")
    sweep.add_argument("--sweep-param", choices=("mu", "K", "d", "n"), default=None)
    sweep.add_argument("--sweep-values", default=None,
                       help="comma-separated sweep values")
    sweep.add_argument("--n", type=int, default=None)
    sweep.add_argument("--mu", type=float, default=None)
    sweep.add_argument("--k", type=int, default=None)
    sweep.add_argument("--d", type=int, default=None)
    sweep.add_argument("--trials", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", default=None,
                       help="output base path; .csv and .json are appended")
    sweep.add_argument("--format", choices=("csv", "json"), default=None,
                       help="stdout format when --out is not given (default csv)")
    sweep.set_defaults(func=cmd_sweep)

    bnd = subs.add_parser("bounds", help="closed-form bound tables")
    bnd.add_argument("--kind", required=True,
                     help="tail|deleted-tail|deleted-tail-alt|r-class|er|heuristic|mean-degree "
                          "(aliases: t1, t2, alt, rclass)")
    _add_common_model_flags(bnd)
    bnd.add_argument("--m", type=int, nargs="+", default=None,
                     help="tail start(s) M for tail / r-class bounds")
    bnd.add_argument("--x", type=int, nargs="+", default=None,
                     help="tail start(s) x for deleted bounds")
    bnd.add_argument("--eps", type=float, default=1.0)
    bnd.add_argument("--c", type=float, default=None, help="mean degree for --kind er")
    bnd.add_argument("--out", default=None)
    bnd.add_argument("--format", choices=("text", "json"), default="text")
    bnd.set_defaults(func=cmd_bounds)

    orc = subs.add_parser("oracle", help="exact finite-n cut probabilities and union bounds")
    _add_common_model_flags(orc)
    orc.add_argument("--r", type=int, default=None, help="fixed cut size")
    orc.add_argument("--m", type=int, default=None, help="union-bound lower limit M")
    orc.add_argument("--x", type=int, default=None,
                     help="deleted union-bound lower limit x")
    orc.add_argument("--mode", choices=("log", "direct"), default="log")
    orc.add_argument("--out", default=None)
    orc.add_argument("--format", choices=("text", "json"), default="text")
    orc.set_defaults(func=cmd_oracle)

    val = subs.add_parser("validate", help="run self-check suites")
    val.add_argument("--level", choices=("quick", "full"), default="quick")
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as err:
        print(f"parameter error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); redirect stdout to
        # devnull so the interpreter's exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
