"""Self-checks of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

from koutlab import collect_cmax, two_type_params  # noqa: E402
from spans import Tracer, replay_point  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_replay_draws_the_stream_collect_cmax_draws():
    # K=6 of 11 makes the sampler redraw rows; d=3 adds the deletion draw
    params = two_type_params(12, 0.4, 6)
    cm, counts = replay_point(params, 3, 5, 2, 40, Tracer(), bfs_every=1)
    assert np.array_equal(cm, collect_cmax(params, 3, 40, 5, point_index=2, workers=1))
    assert counts.multi_rows > counts.multi_nodes  # redraws were counted
    assert counts.bfs_checked == 40 and counts.bfs_mismatches == 0


def test_worker_request_is_capped_at_the_cpu_count():
    assert workloads.capped_workers(10**6) == (os.cpu_count() or 1)
    assert workloads.capped_workers(1) == 1
    assert all(workloads.capped_workers(w.workers) <= (os.cpu_count() or 1)
               for w in workloads.MC_WORKLOADS)


def test_speed_sampler_rescales_a_task_and_disarms_afterwards():
    handler = signal.getsignal(signal.SIGALRM)

    def task():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        return t0, time.perf_counter(), "done"

    for speed in (workloads.MIXED, workloads.SCALAR_MATH, workloads.SET_LOGIC):
        [(ref_s, kernel_s, rest)] = workloads.calibrated([task], speed)
        assert rest == "done" and ref_s > 0 and kernel_s > 0
        assert signal.getsignal(signal.SIGALRM) is handler
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_position_medians_take_each_position_of_a_round_apart():
    assert workloads.position_medians([1, 10, 3, 30, 2, 20], 2) == [2, 20]


def test_every_workload_and_metric_is_defined():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(workloads.PER_LAYER)
    assert all(workloads.PER_LAYER[m["name"]] == m["unit"] for m in BENCHMARK["per_layer"])


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    tiny = workloads.McWorkload("tiny", "d", (0, 2), n=20, mu=0.5, k=3, trials=30, workers=1)
    out = tiny.per_layer(seed=4, seconds=0, out_dir=tmp_path)
    assert out.failed == 0 and out.attempted > 0
    assert set(out.metrics) == set(workloads.PER_LAYER)
    assert out.metrics["graph_model.delete.us"]["value"] > 0


def test_end_to_end_line_has_every_end_to_end_metric():
    proc = _run(["--workload", "mc-small", "--seed", "3", "--seconds", "0", "--trace", "0"],
                ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "mc-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
