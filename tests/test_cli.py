import io
import json
import os
import subprocess
import sys

import pytest

import koutlab.validate
from koutlab.cli import load_config_file, main
from koutlab.errors import ParameterError
from koutlab.validate import SuiteResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_text_output(capsys):
    code, out, err = run_cli(capsys, "sample", "--n", "3", "--k", "2",
                             "--seed", "7")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0].startswith("# sample n=3 ")
    assert "seed=7" in lines[0]
    assert "# cmax 3 outside 0" in out  # n=3, K=2 is always connected
    edges = [tuple(map(int, ln.split())) for ln in lines
             if not ln.startswith("#")]
    assert all(u < v for u, v in edges)
    assert edges == sorted(edges)


def test_sample_with_deletions_reports_survivors(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "1000", "--mu", "0.9",
                           "--k", "2", "--d", "20", "--seed", "1")
    assert code == 0
    sizes_line = next(ln for ln in out.split("\n")
                      if ln.startswith("# component_sizes"))
    sizes = [int(tok) for tok in sizes_line.split()[2:]]
    assert sum(sizes) == 980
    deleted_line = next(ln for ln in out.split("\n")
                        if ln.startswith("# deleted"))
    assert len(deleted_line.split()) == 2 + 20


def test_sample_json_round_trips(capsys, tmp_path):
    out_path = tmp_path / "g.json"
    code, out, _ = run_cli(capsys, "sample", "--n", "12", "--k", "3",
                           "--seed", "9", "--format", "json",
                           "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["n"] == 12
    assert payload["seed"] == 9
    assert len(payload["node_types"]) == 12
    assert sum(payload["component_sizes"]) == 12
    assert all(u < v for u, v in payload["edges"])


def test_sample_r_class_flags(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "40",
                           "--mu-vec", "0.5,0.3,0.2", "--k-vec", "1,2,4",
                           "--seed", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["type_selections"] == [1, 2, 4]
    assert set(payload["node_types"]) <= {0, 1, 2}


def test_sample_random_seed_is_echoed(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "5", "--k", "2")
    assert code == 0
    assert "seed=" in out.split("\n")[0]


def test_sample_rejects_half_vector(capsys):
    code, _, err = run_cli(capsys, "sample", "--n", "10",
                           "--mu-vec", "0.5,0.5")
    assert code == 2
    assert "k-vec" in err


def test_sweep_stdout_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--sweep-param", "mu",
                           "--sweep-values", "0.3,0.6", "--n", "50",
                           "--k", "2", "--trials", "20", "--seed", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("sweep_param,value,n,mu,K,d,trials,"
                        "avg_cmax,min_cmax,max_outside,seed")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "mu"
    assert lines[1].split(",")[-1] == "3"


def test_sweep_stdout_json(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--sweep-param", "K",
                           "--sweep-values", "2,3", "--n", "30",
                           "--mu", "0.5", "--trials", "10", "--seed", "2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [p["K"] for p in payload["points"]] == [2, 3]
    assert payload["seed"] == 2


def test_sweep_config_file_with_flag_override(capsys, tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text(
        "# comment line\n"
        'sweep_param = "mu"\n'
        "sweep_values = [0.2, 0.8]\n"
        "n = 40\n"
        "k = 2\n"
        "trials = 15\n"
        "seed = 10\n"
    )
    code, out, _ = run_cli(capsys, "sweep", "--config", str(conf),
                           "--trials", "5")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert all(row.split(",")[6] == "5" for row in rows)  # flag wins
    assert all(row.split(",")[-1] == "10" for row in rows)


def test_sweep_config_errors(capsys, tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("mystery = 3\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(bad))
    assert code == 2 and "mystery" in err

    malformed = tmp_path / "malformed.conf"
    malformed.write_text("n 40\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(malformed))
    assert code == 2 and "key = value" in err

    code, _, err = run_cli(capsys, "sweep", "--config",
                           str(tmp_path / "absent.conf"))
    assert code == 2

    code, _, err = run_cli(capsys, "sweep", "--sweep-param", "mu",
                           "--sweep-values", "0.5", "--n", "30",
                           "--trials", "5", "--seed", "1",
                           "--out", "/nonexistent-dir/base")
    assert code == 2 and "cannot write" in err


@pytest.mark.parametrize("command", [
    ["sweep", "--sweep-param", "mu", "--sweep-values", "0.5", "--n", "30", "--trials", "5"],
    ["sample", "--n", "10"],
])
def test_negative_seed_exits_two(capsys, command):
    code, out, err = run_cli(capsys, *command, "--seed", "-1")
    assert code == 2 and out == ""
    assert "seed must be a non-negative integer" in err


def test_seed_beyond_64_bits_is_kept(capsys):
    seed = str(2**64 + 1)
    code, out, _ = run_cli(capsys, "sweep", "--sweep-param", "mu", "--sweep-values", "0.5",
                           "--n", "30", "--trials", "5", "--seed", seed)
    assert code == 0 and out.strip().split("\n")[1].endswith("," + seed)
    code, out, _ = run_cli(capsys, "sample", "--n", "10", "--seed", seed)
    assert code == 0 and f"seed={seed}" in out


def test_bad_sweep_values_exit_two(capsys, tmp_path):
    code, out, err = run_cli(capsys, "sweep", "--sweep-param", "mu",
                             "--sweep-values", "0.1,abc", "--n", "30")
    assert code == 2 and out == ""
    assert "--sweep-values" in err and "abc" in err
    conf = tmp_path / "scalar.conf"
    conf.write_text('sweep_param = "mu"\nsweep_values = 5\nn = 30\n')
    code, out, err = run_cli(capsys, "sweep", "--config", str(conf))
    assert code == 2 and out == ""
    assert "sweep_values must be a list" in err


def test_failed_sweep_writes_no_files(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--sweep-param", "n", "--sweep-values", "50,10",
                           "--d", "20", "--trials", "5", "--out", str(tmp_path / "X"))
    assert code == 2 and "d=20" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_requires_axis(capsys):
    code, _, err = run_cli(capsys, "sweep", "--n", "30", "--trials", "5")
    assert code == 2
    assert "sweep_param" in err


def test_config_parser_values(tmp_path):
    conf = tmp_path / "t.conf"
    conf.write_text(
        'sweep_param = "d"  # trailing comment\n'
        "sweep_values = [0, 5, 10]\n"
        "overlays = [\"heuristic\"]\n"
        "overlay_eps = 0.5\n"
        "out = \"results#1\"\n"  # hash inside quotes survives
    )
    data = load_config_file(str(conf))
    assert data["sweep_param"] == "d"
    assert data["sweep_values"] == [0, 5, 10]
    assert data["overlays"] == ["heuristic"]
    assert data["overlay_eps"] == 0.5
    assert data["out"] == "results#1"
    bad = tmp_path / "b.conf"
    bad.write_text("n = ???\n")
    with pytest.raises(ParameterError):
        load_config_file(str(bad))


def test_bounds_er(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--kind", "er", "--c", "2.2")
    assert code == 0
    assert "0.8437" in out


def test_bounds_tail_alias_and_value(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--kind", "t1", "--mu", "0.9",
                           "--k", "2", "--m", "60")
    assert code == 0
    assert "0.02604" in out
    assert "o(1)" in out  # regime notes printed


def test_bounds_deleted_threshold_error(capsys):
    code, _, err = run_cli(capsys, "bounds", "--kind", "t2", "--mu", "0.9",
                           "--k", "2", "--d", "20", "--eps", "1", "--x", "400")
    assert code == 2
    assert "400" in err
    code, out, _ = run_cli(capsys, "bounds", "--kind", "t2", "--mu", "0.9",
                           "--k", "2", "--d", "20", "--eps", "1", "--x", "401")
    assert code == 0
    assert "x=401" in out


def test_bounds_heuristic_is_labeled(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--kind", "heuristic",
                           "--n", "1000", "--mu", "0.9", "--k", "2",
                           "--d", "20")
    assert code == 0
    assert "780" in out
    assert "heuristic" in out.lower()


def test_bounds_r_class_requires_vectors(capsys):
    code, _, err = run_cli(capsys, "bounds", "--kind", "rclass", "--m", "10")
    assert code == 2
    code, out, _ = run_cli(capsys, "bounds", "--kind", "rclass",
                           "--mu-vec", "0.5,0.3,0.2", "--k-vec", "1,2,4",
                           "--m", "10")
    assert code == 0
    assert "0.005493" in out


def test_bounds_json_format(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--kind", "tail", "--mu", "0.5",
                           "--k", "2", "--m", "2", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "tail"
    assert len(payload["rows"]) == 2
    assert payload["regime_notes"]


def test_bounds_unknown_kind(capsys):
    code, _, err = run_cli(capsys, "bounds", "--kind", "nope")
    assert code == 2


def test_oracle_cut_probability(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "5", "--mu", "0.5",
                           "--k", "2", "--r", "2")
    assert code == 0
    assert repr(1.0 / 1728.0)[:12] in out


def test_oracle_union_bounds(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "30", "--mu", "0.5",
                           "--k", "2", "--m", "2")
    assert code == 0
    assert "0.009915959580270053" in out
    code, out, _ = run_cli(capsys, "oracle", "--n", "30", "--mu", "0.5",
                           "--k", "2", "--d", "3", "--x", "3")
    assert code == 0
    assert "0.1027793674939932" in out


def test_oracle_requires_exactly_one_query(capsys):
    code, _, err = run_cli(capsys, "oracle", "--n", "30")
    assert code == 2
    code, _, err = run_cli(capsys, "oracle", "--n", "30", "--r", "2",
                           "--m", "2")
    assert code == 2


def test_oracle_direct_mode_overflow_exits_two(capsys):
    code, out, err = run_cli(capsys, "oracle", "--n", "3000", "--m", "1",
                             "--mode", "direct")
    assert code == 2 and out == ""
    assert "exceeds float64" in err and "log mode" in err
    assert "Traceback" not in err


def test_oracle_json_includes_terms(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "20", "--mu", "0.5",
                           "--k", "2", "--m", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["r_start"] == 3
    assert len(payload["terms"]) == 10 - 3 + 1


def test_oracle_json_is_strict_beyond_float64(capsys):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    code, out, _ = run_cli(capsys, "oracle", "--n", "9000", "--mu", "0.5", "--k", "2",
                           "--d", "5000", "--x", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out, parse_constant=reject)
    assert payload["value"] == 1.0
    assert payload["raw_sum"] is None
    assert None in payload["terms"]
    assert all(t is None or t >= 0.0 for t in payload["terms"])


def test_validate_failure_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(
        koutlab.validate, "run_suites",
        lambda level="quick": [SuiteResult("stub", False, "forced failure")])
    code, out, _ = run_cli(capsys, "validate")
    assert code == 3
    assert "FAIL stub" in out


def test_validate_pass_exits_zero(capsys, monkeypatch):
    monkeypatch.setattr(
        koutlab.validate, "run_suites",
        lambda level="quick": [SuiteResult("stub", True, "ok", ("note",))])
    code, out, _ = run_cli(capsys, "validate")
    assert code == 0
    assert "PASS stub" in out
    assert "FLAG stub: note" in out


def test_validate_rejects_unknown_level():
    with pytest.raises(SystemExit):  # argparse rejects bad choices
        main(["validate", "--level", "medium"])


def test_argparse_errors_use_exit_code_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_broken_pipe_exits_quietly():
    # a consumer like `| head` hangs up early; the CLI must not traceback.
    # n=10000 emits well over the 64 KiB pipe buffer, so the writer blocks
    proc = subprocess.Popen(
        [sys.executable, "-m", "koutlab", "sample",
         "--n", "10000", "--k", "2", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.read(64)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert "Traceback" not in stderr


@pytest.mark.parametrize("unbuffered", [True, False])
def test_broken_pipe_exits_141_with_either_stdout_buffering(unbuffered):
    # with PYTHONUNBUFFERED set, stdout's binary layer is a raw FileIO whose
    # short write the text layer would drop; the CLI must still see EPIPE
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "koutlab", "sample",
         "--n", "10000", "--k", "2", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.read(64)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert "Traceback" not in stderr


def test_output_reaches_a_stdout_without_a_byte_layer(monkeypatch):
    # callers may swap sys.stdout for a text-only stream such as StringIO
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["sample", "--n", "5", "--k", "2", "--seed", "3"]) == 0
    assert out.getvalue().startswith("# sample n=5 ")
