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
import dataclasses
import json
import math
import os
import secrets
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, bounds, oracle
from .bounds import _KIND_ALIASES
from .component_analysis import connected_components
from .errors import ParameterError, _seeds
from .experiments import (ExperimentConfig, _num_text, _out_paths, _staged, render_csv,
                          render_json, run_sweep, trial_stream)
from .graph_model import GraphParams, construct_r_type, delete_random_nodes, two_type_params

# a config file sets ExperimentConfig's fields, plus the stdout format
_CONFIG_KEYS = {field.name for field in dataclasses.fields(ExperimentConfig)} | {"format"}


# ---------------------------------------------------------------------------
# config files: flat key-value documents


def load_config_file(path) -> dict:
    """Read a flat key-value config: one `key = value` per line.

    Each line is read by Python's parser and must be one assignment to
    a known key; '#' starts a comment.  Values are literals: quoted
    strings, integers, floats, true/false (in any case) and flat
    [a, b, c] lists (a tuple becomes a list).
    """
    data = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ParameterError(f"cannot read config file: {err}") from None
    for lineno, line in enumerate(lines, 1):
        where, line = f"{path}:{lineno}", line.strip()
        try:
            body = ast.parse(line).body
        except (SyntaxError, ValueError, RecursionError, MemoryError):
            body = None  # not Python: a null byte is a ValueError, deep nesting the last two
        match body:
            case []:  # blank or comment
                continue
            case [ast.Assign(targets=[ast.Name(id=key)], value=node)]:
                if key not in _CONFIG_KEYS:
                    raise ParameterError(f"{where}: unknown key {key!r}")
            case _:
                raise ParameterError(f"{where}: expected `key = value`")
        if isinstance(node, ast.Name) and node.id.lower() in ("true", "false"):
            data[key] = node.id.lower() == "true"
            continue
        try:
            value = ast.literal_eval(node)
        except (ValueError, TypeError):  # TypeError: an unhashable set item or dict key
            raise ParameterError(f"{where}: cannot parse value "
                                 f"{ast.get_source_segment(line, node)!r}") from None
        data[key] = list(value) if isinstance(value, tuple) else value
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
    return secrets.randbits(63) if seed is None else _seeds(seed=seed)[0]


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
        with _staged([out_path]) as texts:
            texts.append(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    params = _graph_params(args)
    seed = _resolve_seed(args.seed)
    rng = trial_stream(seed, 0, 0)  # trial 0 of a sweep's first point: collect_cmax's draw
    g = construct_r_type(params, rng)
    view = delete_random_nodes(g, args.d, rng)[1] if args.d else g
    report = connected_components(view)
    payload = {
        "n": params.n,
        "type_probs": list(params.type_probs),
        "type_selections": list(params.type_selections),
        "d": args.d,
        "seed": seed,
        "node_types": g.node_types.tolist(),
        "deleted": sorted(view.deleted),
        "edges": np.column_stack(g.edge_arrays()).tolist(),
        "component_sizes": list(report.component_sizes),
        "cmax": report.cmax,
        "outside_count": report.outside_count,
    }
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join([
            f"# sample n={payload['n']} mu={','.join(map(repr, payload['type_probs']))}"
            f" K={','.join(map(str, payload['type_selections']))}"
            f" d={payload['d']} seed={payload['seed']}",
            "# types " + " ".join(map(str, payload["node_types"])),
            "# deleted " + (" ".join(map(str, payload["deleted"])) or "-"),
            "# component_sizes " + " ".join(map(str, payload["component_sizes"])),
            f"# cmax {payload['cmax']} outside {payload['outside_count']}",
        ] + [f"{u} {v}" for u, v in payload["edges"]])
    _emit(text + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    conf = load_config_file(args.config) if args.config else {}
    if args.sweep_values is not None:
        args.sweep_values = _vec(args.sweep_values, _sweep_value, "--sweep-values")
    # each flag given overrides its config key
    conf |= {key: value for key, value in vars(args).items()
             if key in _CONFIG_KEYS and value is not None}
    fmt = conf.pop("format", "csv")
    if fmt not in ("csv", "json"):
        raise ParameterError("format must be csv or json")
    if "sweep_param" not in conf or "sweep_values" not in conf:
        raise ParameterError("a sweep needs sweep_param and sweep_values (config file or flags)")
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
        paths = " and ".join(map(str, _out_paths(config.out)))
        _write_stdout(f"wrote {len(summaries)} sweep points (seed {config.seed}) to {paths}\n")
    return 0


def _finite_or_none(v):
    return v if math.isfinite(v) else None


def _tail_table(label, bound):
    """evaluate() of an asymptotic bound taken at each tail start of --m or --x."""
    def evaluate(kind, a):
        rows = [(start, bound(a, start)) for start in getattr(a, label.lower())]
        first = rows[0][1]
        lines = [f"kind={kind} " + " ".join(f"{key}={_num_text(val)}" for key, val in
                                             first.inputs.items() if key not in ("M", "x"))]
        lines += [f"{label}={start}  value={b.value!r}" for start, b in rows]
        lines.append("notes: " + "; ".join(first.regime_notes))
        payload = {
            "kind": kind,
            "inputs": first.inputs,
            "regime_notes": list(first.regime_notes),
            "rows": [{label: start, "value": b.value, "components": b.components}
                     for start, b in rows],
        }
        return "\n".join(lines), json.dumps(payload, indent=2, sort_keys=True)
    return evaluate


def _er(kind, a):
    beta = bounds.er_giant_fraction(a.c)
    # unlike the other kinds, er's JSON keys print in insertion order
    return (f"er giant-component fraction: c={_num_text(a.c)} beta={beta:.10f}",
            json.dumps({"kind": kind, "c": a.c, "beta": beta}))


def _heuristic(kind, a):
    value = bounds.heuristic_giant_lower_bound(a.n, a.mu, a.k, a.d)
    payload = {"kind": kind, "n": a.n, "mu": a.mu, "K": a.k, "d": a.d, "value": value,
               "heuristic": True}
    return (f"heuristic giant-size floor (not a proved bound): {value}",
            json.dumps(payload, sort_keys=True))


def _mean_degree(kind, a):
    value = bounds.mean_degree(a.n, a.mu, a.k)
    payload = {"kind": kind, "n": a.n, "mu": a.mu, "K": a.k, "value": value}
    return f"mean degree: {value!r}", json.dumps(payload, sort_keys=True)


class _BoundKind(NamedTuple):
    requires: tuple  # flags that must be given, checked in this order
    evaluate: Callable  # (kind, args) -> (text, json), each printed with a newline


_BOUND_KINDS = {
    "tail": _BoundKind(("--m",), _tail_table(
        "M", lambda a, m: bounds.tail_bound(a.mu, a.k, m))),
    "deleted-tail": _BoundKind(("--x",), _tail_table(
        "x", lambda a, x: bounds.deleted_tail_bound(a.mu, a.k, a.d, x, a.eps))),
    "deleted-tail-alt": _BoundKind(("--x",), _tail_table(
        "x", lambda a, x: bounds.deleted_tail_bound_alt(a.mu, a.d, x, a.eps))),
    "r-class": _BoundKind(("--mu-vec", "--k-vec", "--m"), _tail_table(
        "M", lambda a, m: bounds.r_class_tail_bound(
            _vec(a.mu_vec, float, "--mu-vec"), _vec(a.k_vec, int, "--k-vec"), m))),
    "er": _BoundKind(("--c",), _er),
    "heuristic": _BoundKind(("--n",), _heuristic),
    "mean-degree": _BoundKind(("--n",), _mean_degree),
}


def cmd_bounds(args) -> int:
    kind = _KIND_ALIASES.get(args.kind, args.kind)
    if kind not in _BOUND_KINDS:
        raise ParameterError(f"unknown bound kind {args.kind!r}")
    spec = _BOUND_KINDS[kind]
    for flag in spec.requires:
        if getattr(args, flag[2:].replace("-", "_")) is None:
            raise ParameterError(f"{flag} is required for --kind {kind}")
    text, json_text = spec.evaluate(kind, args)
    _emit((json_text if args.format == "json" else text) + "\n", args.out)
    return 0


def cmd_oracle(args) -> int:
    if args.n is None:
        raise ParameterError("--n is required")
    chosen = [k for k, v in (("--r", args.r), ("--m", args.m), ("--x", args.x))
              if v is not None]
    if len(chosen) != 1:
        raise ParameterError("give exactly one of --r (cut probability), "
                             "--m (union bound), --x (deleted union bound)")
    model = f"n={args.n} mu={_num_text(args.mu)} K={args.k}"
    payload = {"n": args.n, "mu": args.mu, "K": args.k, "d": args.d, "mode": args.mode}
    if args.r is not None:
        if args.d:
            value = oracle.exact_cut_probability_deleted(
                args.n, args.mu, args.k, args.d, args.r, mode=args.mode)
            model += f" d={args.d}"
        else:
            value = oracle.exact_cut_probability(args.n, args.mu, args.k, args.r, mode=args.mode)
        payload.update(r=args.r, value=value)
        text = f"cut probability {model} r={args.r} [{args.mode}]: {value!r}"
    else:
        if args.m is not None:
            if args.d:
                raise ParameterError("--m takes no --d; use --x for the deleted union bound")
            ev = oracle.union_bound_sum(args.n, args.mu, args.k, args.m, mode=args.mode)
            label, low = "M", args.m
        else:
            ev = oracle.union_bound_sum_deleted(args.n, args.mu, args.k, args.d, args.x,
                                                mode=args.mode)
            label, low = "x", args.x
        payload.update({label: low, "value": ev.value, "raw_sum": _finite_or_none(ev.raw_sum),
                        "terms": ev.terms, "r_start": ev.r_start})
        text = (f"union bound {model} d={args.d} {label}={low} [{args.mode}]: "
                f"value={ev.value!r} raw_sum={ev.raw_sum!r} terms={ev.terms.size}")
    if args.format == "json":
        # strict JSON has no Infinity: a sum or term beyond float64 is null;
        # the terms array is listed only here, where it is printed
        text = json.dumps(payload, sort_keys=True,
                          default=lambda a: [_finite_or_none(t) for t in a.tolist()])
    _emit(text + "\n", args.out)
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
                     help="|".join(_BOUND_KINDS) + " (aliases: " + ", ".join(_KIND_ALIASES) + ")")
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
