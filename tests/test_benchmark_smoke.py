"""Smoke runs of the benchmark workloads.

Each runs `perfbench/run.py` for one second and checks that it exits 0
and that its last stdout line reports `"correct": true`.  The
Monte-Carlo workloads check their cmax values against a per-trial
replay that calls trial_stream, construct_r_type, delete_random_nodes,
the graph's sel_flat, edge_arrays(), edge_count and node_types, and
both component labelers, so a renamed or removed name fails here
first.  The oracle workloads check union_bound_sum against recorded
sums and exhaustive_event_probability against the closed forms; the
benchmark samples each call's speed every 20 ms, so a call that
becomes shorter than that fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["mc-small", "mc-large", "oracle-ub", "oracle-enum"])
def test_benchmark_workload_runs_and_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
