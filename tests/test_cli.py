import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import koutlab
import koutlab.validate
from koutlab.cli import load_config_file, main
from koutlab.errors import ParameterError
from koutlab.experiments import collect_cmax, trial_stream
from koutlab.graph_model import GraphParams, construct_r_type, delete_random_nodes, two_type_params
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


def test_sample_with_k_one_below_n_returns():
    # 19 distinct picks out of 19 are drawn column by column, not by
    # redrawing whole rows that are distinct with probability ~1e-8
    proc = subprocess.run(
        [sys.executable, "-m", "koutlab", "sample", "--n", "20", "--k", "19", "--seed", "1"],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "# cmax 20 outside 0" in proc.stdout


def test_sample_rejects_half_vector(capsys):
    code, _, err = run_cli(capsys, "sample", "--n", "10",
                           "--mu-vec", "0.5,0.5")
    assert code == 2
    assert "k-vec" in err


def test_sample_rejects_non_finite_type_probability(capsys):
    code, out, err = run_cli(capsys, "sample", "--n", "30", "--mu-vec", "nan,0.5",
                             "--k-vec", "1,2", "--seed", "1")
    assert code == 2 and out == ""
    assert "finite" in err


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


def test_config_seed_of_one_point_zero_runs_as_seed_one(capsys, tmp_path):
    conf = tmp_path / "seed.conf"
    conf.write_text('sweep_param = "mu"\nsweep_values = [0.5]\nn = 30\ntrials = 5\nseed = 1.0\n')
    code, out, err = run_cli(capsys, "sweep", "--config", str(conf))
    assert code == 0 and err == ""
    code, want, _ = run_cli(capsys, "sweep", "--sweep-param", "mu", "--sweep-values", "0.5",
                            "--n", "30", "--trials", "5", "--seed", "1")
    assert code == 0 and out == want and out.strip().endswith(",1")


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


@pytest.mark.parametrize("out, stem", [("run.v1", "run.v1"), ("run.csv", "run"),
                                       ("run.json", "run"), ("run.csv.json", "run.csv")])
def test_sweep_out_appends_both_suffixes(capsys, tmp_path, out, stem):
    # one trailing .csv or .json is stripped; any other suffix is kept
    code, text, _ = run_cli(capsys, "sweep", "--sweep-param", "mu", "--sweep-values", "0.5",
                            "--n", "30", "--trials", "5", "--seed", "1",
                            "--out", str(tmp_path / out))
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{stem}.csv", f"{stem}.json"]
    assert text == (f"wrote 1 sweep points (seed 1) to {tmp_path / stem}.csv and "
                    f"{tmp_path / stem}.json\n")


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


def test_config_lines_are_python_assignments(tmp_path):
    conf = tmp_path / "t.conf"
    conf.write_text(
        "  format = TRUE\n"
        "sweep_values = 1, 2  # a tuple becomes a list\n"
        'out = "a\\"#b"\n'  # an escaped quote does not end the string
    )
    assert load_config_file(str(conf)) == {
        "format": True, "sweep_values": [1, 2], "out": 'a"#b'}
    for lineno, line in enumerate(["n = 3; d = 2", "n = {[1]: 2}", "n: int = 3"], 2):
        bad = tmp_path / "bad.conf"
        bad.write_text("# fine\n" * (lineno - 1) + line + "\n")
        with pytest.raises(ParameterError, match=re.escape(f"{bad}:{lineno}: ")):
            load_config_file(str(bad))


def test_config_file_that_is_not_utf8_exits_two(capsys, tmp_path):
    conf = tmp_path / "latin1.conf"
    conf.write_bytes(b'out = "caf\xe9"\n')
    code, out, err = run_cli(capsys, "sweep", "--config", str(conf))
    assert code == 2 and out == ""
    assert "cannot read config file" in err


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


@pytest.mark.parametrize("argv, condition", [
    (["--kind", "er", "--c", "nan"], "1 < c < inf"),
    (["--kind", "er", "--c", "inf"], "1 < c < inf"),
    (["--kind", "er", "--c", "nan", "--format", "json"], "1 < c < inf"),
    (["--kind", "deleted-tail", "--mu", "0.5", "--k", "2", "--d", "2",
      "--x", "50", "--eps", "nan"], "0 < eps < inf"),
    (["--kind", "deleted-tail-alt", "--mu", "0.5", "--d", "2", "--x", "50",
      "--eps", "inf"], "0 < eps < inf"),
])
def test_bounds_reject_non_finite_inputs(capsys, argv, condition):
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert code == 2 and out == ""
    assert condition in err


def test_bounds_heuristic_rejects_deletions_outside_the_graph(capsys):
    for n, d in (("10", "20"), ("10", "10"), ("-5", "3")):
        code, out, err = run_cli(capsys, "bounds", "--kind", "heuristic",
                                 "--n", n, "--d", d)
        assert code == 2 and out == ""
        assert "need 0 <= d < n" in err


# sha256 of `koutlab bounds` stdout for every canonical kind and the t1 and
# rclass aliases, recorded from the hand-written renderer the kind table
# replaced
_BOUNDS_STDOUT_HASHES = [
    (["--kind", "tail", "--mu", "0.9", "--k", "2", "--m", "10", "60"],
     "23c9bb87879b25ccc8884718007ddaccc18ebd5e2a2ee6e2b0a02b4ec4172fe1",
     "9e7f0d550d0c574086e03c22fc954f65a9873a5f0394404caf761f20daba68cb"),
    (["--kind", "t1", "--mu", "0.5", "--k", "3", "--m", "5"],
     "c1c18c9dc25bc6335cd540b6a0fc6635d73e961e9a70b430cac345f34c8603f9",
     "759d1d075cc0b4164a99d05943846325a58b1242697a77aea75242fbb600b234"),
    (["--kind", "deleted-tail", "--mu", "0.9", "--k", "2", "--d", "20", "--eps", "1",
      "--x", "401", "500"],
     "6f9351ab530c4dab7ad26d07b8044e83b43f75afa54fe93b81e5c4135bc45656",
     "9661dd003472b0b9c3f6e4293b52bc6695c9c1f9f87e8bddf669b55b16495bf7"),
    (["--kind", "deleted-tail-alt", "--mu", "0.5", "--d", "10", "--eps", "1",
      "--x", "45", "60"],
     "9797458d23672f64b0db33ef7c2033b046e8809460c4933d77d827aaf7ee219e",
     "84e615a512092747b9efcbf78a0312b2d328d1f951ce8e3f1e9332f567b19939"),
    (["--kind", "r-class", "--mu-vec", "0.5,0.3,0.2", "--k-vec", "1,2,4",
      "--m", "10", "20"],
     "ade6720da1695169c16393ed2e72809fb98c9aa4a6d79ef88f0fb009f3af226a",
     "bff69bd58623458940b90f77febb12dfa41836b44f4f7c06b63883c51045c6be"),
    (["--kind", "rclass", "--mu-vec", "0.4,0.6", "--k-vec", "1,3", "--m", "7"],
     "8e43fad218ee53a4f5ddd14e42f9e4da34432cda059bbcee9b1c8527abb2aad5",
     "164ba3aa3c047ba920a2f2ebcc22f4dca99cdc7f21dabb5fa812b18dc728c128"),
    (["--kind", "er", "--c", "2.2"],
     "67a57ce20d143ff4ed640a49a4f67ba8c227b43df3be0dad66c85f1879c0c2de",
     "e6ce9d94e9294ecf5fa14eac74f89cb43a1d9f1860937831409fabadcd67ce2d"),
    (["--kind", "heuristic", "--n", "1000", "--mu", "0.9", "--k", "2", "--d", "20"],
     "af44715783b34bdcac4af6b0f9e9ed92b63aa8a38295447d7fffa7284b1f3d4e",
     "3558e6a683bcf6f337bfbab254179e40186832ff7626fc9e1bd3db870d37d373"),
    (["--kind", "mean-degree", "--n", "2000", "--mu", "0.9", "--k", "2"],
     "da578106646e9976dc36fdc31dff42413feb3bf7fca65e795601c2f0597ff333",
     "f383d64b35e8fab1cebdb188a32c02eb8c4fd0a9db102db27766c0bc928a59b6"),
]


@pytest.mark.parametrize("argv, text_sha, json_sha", _BOUNDS_STDOUT_HASHES,
                         ids=[case[0][1] for case in _BOUNDS_STDOUT_HASHES])
def test_bounds_stdout_bytes_are_pinned(capsys, argv, text_sha, json_sha):
    for fmt, sha in (("text", text_sha), ("json", json_sha)):
        code, out, err = run_cli(capsys, "bounds", *argv, "--format", fmt)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == sha, out


# sha256 of `koutlab oracle` and `koutlab sample` stdout (text, then json),
# recorded from the renderers that kept a separate text and json branch per
# query: cut probability with and without --d, union bound, deleted union
# bound (the last one beyond float64), each in log and direct mode; the
# sample ones since sample draws trial 0 of its seed's point 0
_QUERY_STDOUT_HASHES = [
    (["oracle", "--n", "30", "--mu", "0.5", "--k", "2", "--r", "3"],
     "2a091b84d0fa76af3ae0724ae4be639587f44c74da87ba38597e96d8df28ac4e",
     "85d5d53172910d13300bfa8acf23b37c27729f37b01aa6be7729d566de1c7c79"),
    (["oracle", "--n", "30", "--mu", "0.5", "--k", "2", "--r", "3", "--mode", "direct"],
     "b141394d9be3a3020c32fe2e0370aae16754bc9ea32d33389fac1242d26a056c",
     "6641710dd7ab9a0a1b41cb0bc34d677c35bc1b76facac6502a8ffdab4aabcd06"),
    (["oracle", "--n", "30", "--mu", "0.9", "--k", "3", "--d", "4", "--r", "5"],
     "d28886eb25fd64b3f6d6afa45a0551bfbac07df426da71a4d7d7ea06f5f122a4",
     "b9e4112c73eb4ce1cc5117f2761ead262f6b229ad3cb1816e72533a7d95d1ad2"),
    (["oracle", "--n", "30", "--mu", "0.9", "--k", "3", "--d", "4", "--r", "5",
      "--mode", "direct"],
     "bbce262e24a707a310dffc07abf947d5442f7835e10dd12a1a46b83090f39f4d",
     "d9c760e301e7872f2b5d10d94c9313cc737314331e3d8b45b881e3f72c31e2bf"),
    (["oracle", "--n", "30", "--mu", "0.5", "--k", "2", "--m", "2"],
     "4e0641ab6b6636ef96591afe026c85bb5f7caff4cf03c812a26290b12e3a43fb",
     "c18f8d56f586d9a8b5809aadc1bdb1f3a66c91e8e45be9fb2395b4a04dfe4d77"),
    (["oracle", "--n", "30", "--mu", "0.5", "--k", "2", "--m", "2", "--mode", "direct"],
     "6069019ec22c22c1ef071fd2cf6499a1dcca198673681dae85d904b4ee69799c",
     "2947a50d5ff5af9766a206fdce1525cdb9dd476067ac6e84d3c17990bc5820e0"),
    (["oracle", "--n", "30", "--mu", "0.5", "--k", "2", "--d", "3", "--x", "3"],
     "758ea409b597a5909ca122f0c499f1ea904656fc95a26a3ad285ef663511c5ee",
     "47a6cf8f1ea8808ccb05662f9382016be0223202d59034357f5380b762f07705"),
    (["oracle", "--n", "30", "--mu", "0.5", "--k", "2", "--d", "3", "--x", "3",
      "--mode", "direct"],
     "e83c9ace09a14b14c2cade34e9a3444a47f7cbb64bf82c490459dc5e46f603ed",
     "4070591d23d75a7c1f56443cc71e42f4941ac38618673638ee65c20a841032b5"),
    (["oracle", "--n", "9000", "--mu", "0.5", "--k", "2", "--d", "5000", "--x", "1"],
     "7859490050931d37fe6967a8b11530eca68151fc448712d4ac19a0c95ecdac74",
     "8b580ac8490a68ef4f4641465411564de95b6cf83ceecd1aa072c8982a964182"),
    (["sample", "--n", "12", "--k", "3", "--seed", "9"],
     "fb3b2b284978016b5263505fb29154053dc734d79eb52630a47db0829145bc4c",
     "299edaf8ae27a55829582770cf8d31e126bd53a9875e6ed52e6aa063b624dacf"),
    (["sample", "--n", "40", "--mu", "0.9", "--k", "2", "--d", "5", "--seed", "1"],
     "942e9136c5110bf0b6ea05412d6899a6547aa0f54e1374b4ab0288a7d852ee32",
     "f06de7c00ab3e63c955b8f3097cd66ea8b1d5a59e40e8c230b1dcf9ff7843815"),
    (["sample", "--n", "40", "--mu-vec", "0.5,0.3,0.2", "--k-vec", "1,2,4", "--seed", "4"],
     "dd719356d72b0454925a3657bb11cf4a6dac23b1927c63e14875f87af768fcc7",
     "80fb30d6c8369ec607729666a59707db07a675042e33b6c8574a05a065266916"),
]


@pytest.mark.parametrize("argv, text_sha, json_sha", _QUERY_STDOUT_HASHES,
                         ids=["-".join(tok.lstrip("-") for tok in case[0][:1] + case[0][-4:])
                              for case in _QUERY_STDOUT_HASHES])
def test_oracle_and_sample_stdout_bytes_are_pinned(capsys, argv, text_sha, json_sha):
    for fmt, sha in (("text", text_sha), ("json", json_sha)):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == sha, out


# the pinned sample argvs, each with its ensemble, d and seed
_SAMPLE_CASES = [
    (["sample", "--n", "12", "--k", "3", "--seed", "9"], two_type_params(12, 0.5, 3), 0, 9),
    (["sample", "--n", "40", "--mu", "0.9", "--k", "2", "--d", "5", "--seed", "1"],
     two_type_params(40, 0.9, 2), 5, 1),
    (["sample", "--n", "40", "--mu-vec", "0.5,0.3,0.2", "--k-vec", "1,2,4", "--seed", "4"],
     GraphParams(40, (0.5, 0.3, 0.2), (1, 2, 4)), 0, 4),
]


@pytest.mark.parametrize("argv, params, d, seed", _SAMPLE_CASES,
                         ids=[f"n{p.n}-d{d}-seed{s}" for _, p, d, s in _SAMPLE_CASES])
def test_sample_is_a_sweeps_first_trial(capsys, argv, params, d, seed):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cmax"] == collect_cmax(params, d, 1, seed)[0]
    rng = trial_stream(seed, 0, 0)
    g = construct_r_type(params, rng)
    assert payload["node_types"] == g.node_types.tolist()
    assert payload["deleted"] == (list(delete_random_nodes(g, d, rng)[0]) if d else [])


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oracle_union_bound_rejects_deletions(capsys, fmt):
    code, out, err = run_cli(capsys, "oracle", "--n", "100", "--m", "5", "--d", "10",
                             "--format", fmt)
    assert code == 2 and out == ""
    assert "--m takes no --d" in err and "--x" in err


def test_oracle_direct_mode_overflow_exits_two(capsys):
    code, out, err = run_cli(capsys, "oracle", "--n", "3000", "--m", "1",
                             "--mode", "direct")
    assert code == 2 and out == ""
    assert "exceeds float64" in err and "log mode" in err
    assert "Traceback" not in err


def test_oracle_union_bound_beyond_the_n_cap_exits_two(capsys, monkeypatch):
    # the cap is checked before any array is sized by n; a kernel that
    # raises keeps a missing check from evaluating a huge sum
    def no_kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(koutlab.oracle, "_cut_kernel", no_kernel)
    for query in (["--m", "1"], ["--d", "3", "--x", "1"]):
        code, out, err = run_cli(capsys, "oracle", "--n", "1000001", *query)
        assert code == 2 and out == ""
        assert err == "parameter error: closed-form oracle queries are limited to n <= 1000000\n"
    with pytest.raises(AssertionError, match="the kernel ran"):
        koutlab.oracle.union_bound_sum(10**6, 0.9, 2, 1)


def test_oracle_cut_probability_beyond_int64_exits_two(capsys):
    # past 10^6 the lgamma-based factors lose accuracy (2% off at 10^7);
    # n = 10^20 once tracebacked with an OverflowError in the kernel
    condition = "closed-form oracle queries are limited to n <= 1000000"
    for n, query in ((10**6 + 1, []), (10**10, []), (10**20, []), (2**63, []),
                     (10**20, ["--d", "2"])):
        code, out, err = run_cli(capsys, "oracle", "--n", str(n), "--mu", "0.5", "--k", "2",
                                 "--r", "3", *query)
        assert code == 2 and out == ""
        assert err == f"parameter error: {condition}\n"
    proc = subprocess.run(
        [sys.executable, "-m", "koutlab", "oracle", "--n", str(10**20), "--mu", "0.5",
         "--k", "2", "--r", "3"], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and condition in proc.stderr
    code, out, _ = run_cli(capsys, "oracle", "--n", str(10**6), "--mu", "0.5", "--k", "2",
                           "--r", "3")
    assert code == 0
    assert out.startswith("cut probability n=1000000 mu=0.5 K=2 r=3 [log]: ")


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


def test_validate_quick_runs_every_suite(capsys):
    code, out, _ = run_cli(capsys, "validate", "--level", "quick")
    assert code == 0
    passed = [line.split(":")[0] for line in out.splitlines()
              if line.startswith("PASS ")]
    assert passed == [
        "PASS oracle-agreement", "PASS cut-range-implication",
        "PASS coupling-monotonicity", "PASS dual-component-algorithms",
        "PASS er-fixed-point", "PASS geometric-ratios",
        "PASS log-vs-direct-arithmetic", "PASS union-bound-soundness",
        "PASS deleted-union-bound-soundness",
    ]
    assert "9/9 suites passed (quick)" in out


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


def test_readme_python_runs_and_exports_resolve():
    # every python block of the README runs, and no exported name is stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert [name for name in koutlab.__all__ if not hasattr(koutlab, name)] == []
