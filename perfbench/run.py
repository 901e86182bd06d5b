"""koutlab's benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 15 --trace 0

Workloads: mc-small, mc-large, mc-dense, oracle-ub, oracle-enum (see
perfbench/README.md).  The package is imported from src/ of the same
checkout, never from an installed copy.  With --trace 0 the run prints
the end-to-end metrics, timed with tracing off; with --trace 1 it
replays the workload through the layer calls and prints the per-layer
metrics, and writes its spans to perfbench/out/.  Either way the last
line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it records the environment and workload details.
--probe imports, validates and makes the workload's first call, then
exits; the benchmark times such fresh interpreters for setup_s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def git_rev(root: Path):
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    even where there is no git checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "koutlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workers) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "workers": workers, "machine": platform.machine(),
        "git_rev": git_rev(ROOT), "src_sha256": src_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "koutlab" / "__init__.py").is_file():
        print(f"perfbench: no koutlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import koutlab

    if Path(koutlab.__file__).resolve().parent != SRC / "koutlab":
        print(f"perfbench: imported koutlab from {koutlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe:
        workload.warm_up(args.seed)
        return 0

    OUT.mkdir(exist_ok=True)
    if args.trace:
        outcome = workload.per_layer(args.seed, args.seconds, OUT)
        outcome.tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.json")
    else:
        outcome = workload.end_to_end(args.seed, args.seconds, OUT)
        outcome.metric("peak_rss_mb", workloads.peak_rss_mb(), "MB")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "env": environment(outcome.detail.get("workers", 1)), "detail": outcome.detail}
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": outcome.metrics}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**record, **result}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
