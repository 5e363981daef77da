"""CLI contract tests: flags, config files, exit codes, output shapes.

Commands run in-process through ``octocache.cli.main`` with stdout/stderr
captured by pytest's capsys.
"""

import argparse
import os
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from octocache import ConfigError, cli
from octocache.cli import OPTIONS, build_parser, main, parse_size

CANONICAL_CFG = """\
num_bs = 2
edge_delay_ms = 10, 20
cdn_delay_ms = 100
peer_delay_model = uturn-sum
files = 3
popularity = 0.5, 0.3, 0.2
capacity_cloud = 1
capacity_edge = 1
users_per_bs = 1
"""


def run_cli(*argv):
    return main(list(argv))


def data_lines(out):
    return [l for l in out.strip().split("\n") if l and not l.startswith("#")]


# ------------------------------------------------------------------- sizes

def test_parse_size():
    assert parse_size("0.4TB") == 400_000_000_000
    assert parse_size("20MB") == 20_000_000
    assert parse_size("1.5 gb") == 1_500_000_000
    assert parse_size("12345") == 12345
    with pytest.raises(Exception):
        parse_size("lots")
    for text in ("inf", "nan", "infTB", "-inf", "1e400", "1e300TB"):
        with pytest.raises(ConfigError):
            parse_size(text)


# ---------------------------------------------------------------- simulate

def test_simulate_single_row(capsys):
    code = run_cli("simulate", "--policy", "eo", "--files", "100",
                   "--requests", "1500", "--bs", "3",
                   "--cache-total", "4GB", "--seed", "42")
    out = capsys.readouterr().out
    assert code == 0
    rows = data_lines(out)
    assert rows[0].startswith("policy,axis_value,seed,")
    fields = rows[1].split(",")
    assert fields[0] == "eo" and fields[2] == "42"
    assert int(fields[3]) == 1200  # 80% of requests evaluated
    # resolved config and child seeds echoed
    assert "# " in out and "seed_topology=" in out


def test_simulate_zero_budget_zero_hits(capsys):
    code = run_cli("simulate", "--policy", "eo", "--files", "50",
                   "--requests", "500", "--cache-total", "0", "--seed", "1")
    assert code == 0
    fields = data_lines(capsys.readouterr().out)[1].split(",")
    assert float(fields[4]) == 0.0  # hit_ratio
    assert int(fields[10]) == int(fields[3])  # every request from the CDN


def test_simulate_missing_policy_exits_1(capsys):
    code = run_cli("simulate", "--files", "10", "--cache-total", "1GB")
    err = capsys.readouterr().err
    assert code == 1
    assert "usage" in err and "--policy" in err


def test_simulate_unknown_flag_exits_1(capsys):
    assert run_cli("simulate", "--belicy", "eo") == 1


def test_simulate_json_format(capsys):
    import json
    code = run_cli("simulate", "--policy", "ecnc", "--files", "40",
                   "--requests", "400", "--cache-total", "2GB",
                   "--format", "json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["policy"] == "ecnc"
    assert "hit_ratio" in payload["rows"][0]


def test_simulate_determinism_byte_identical(capsys):
    argv = ("simulate", "--policy", "octopus", "--files", "60",
            "--requests", "800", "--cache-total", "2GB", "--seed", "9")
    run_cli(*argv)
    first = capsys.readouterr().out
    run_cli(*argv)
    assert capsys.readouterr().out == first


def test_simulate_with_trace(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("timestamp,user_id,content_id\n" +
                     "\n".join(f"{i},u{i % 4},c{i % 6}" for i in range(50)) + "\n",
                     encoding="utf-8")
    code = run_cli("simulate", "--policy", "lru", "--trace", str(trace),
                   "--bs", "2", "--cache-total", "1GB")
    assert code == 0
    fields = data_lines(capsys.readouterr().out)[1].split(",")
    assert int(fields[3]) == 40


def test_simulate_trace_io_error_exits_2(capsys):
    code = run_cli("simulate", "--policy", "lru", "--trace", "/nope/missing.csv",
                   "--cache-total", "1GB")
    assert code == 2


# ------------------------------------------------------------------- sweep

def test_sweep_cross_product_rows(capsys):
    code = run_cli("sweep", "--axis", "cache-total",
                   "--values", "1GB,2GB,4GB",
                   "--policies", "octopus,ecnc,eo",
                   "--files", "80", "--requests", "600", "--seed", "5")
    assert code == 0
    rows = data_lines(capsys.readouterr().out)
    assert len(rows) == 1 + 9  # header + 3 policies x 3 values
    assert rows[1].split(",")[0] == "octopus"


def test_sweep_alpha_axis_rows(capsys):
    code = run_cli("sweep", "--axis", "zipf-alpha", "--values", "0.6,0.7,0.8",
                   "--policies", "exmpc,lfu,lru", "--files", "60",
                   "--requests", "500", "--cache-total", "1GB")
    assert code == 0
    rows = data_lines(capsys.readouterr().out)
    assert len(rows) == 1 + 9


def test_sweep_cache_total_axis_echoes_no_budget(capsys):
    sizes = ("--files", "40", "--requests", "300", "--policies", "eo,lru")
    assert run_cli("sweep", "--axis", "cache-total", "--values", "1GB,2GB",
                   *sizes) == 0
    out = capsys.readouterr().out
    assert "cache_total=" not in out
    # each cell sets its own budget: a --cache-total changes no data row
    assert run_cli("sweep", "--axis", "cache-total", "--values", "1GB,2GB",
                   "--cache-total", "5GB", *sizes) == 0
    assert data_lines(capsys.readouterr().out) == data_lines(out)


def test_sweep_header_leaves_out_what_every_cell_sets(tmp_path, capsys):
    def sweep(*argv):
        assert run_cli("sweep", *argv, "--files", "40", "--requests", "300") == 0
        return capsys.readouterr().out

    # each cell sets its own budget, so explicit capacities shape no row
    budgets = ("--axis", "cache-total", "--values", "1GB,2GB", "--policies", "eo")
    plain = sweep(*budgets)
    caps = _write(tmp_path, "caps.cfg", "capacity_cloud = 0\ncapacity_edge = 0\n")
    assert sweep(*budgets, "--config", caps) == plain
    assert sweep(*budgets, "--cache-total", "5GB") == plain
    alphas = ("--axis", "zipf-alpha", "--values", "0.6,0.8", "--policies", "eo",
              "--cache-total", "1GB")
    plain = sweep(*alphas)
    assert sweep(*alphas, "--zipf-alpha", "0.3") == plain
    assert sweep(*alphas, "--policy", "lru") == plain
    policies = ("--axis", "policy", "--values", "eo,lru", "--cache-total", "1GB")
    plain = sweep(*policies)
    assert sweep(*policies, "--policy", "ecnc", "--policies", "lfu") == plain
    assert "cache_total=1000000000" in plain.split("\n")[1]


def test_sweep_policy_flag_stands_in_for_policies(capsys):
    budgets = ("--axis", "cache-total", "--values", "1GB,2GB", "--files", "40",
               "--requests", "300")
    assert run_cli("sweep", *budgets, "--policies", "eo") == 0
    want = data_lines(capsys.readouterr().out)
    assert run_cli("sweep", *budgets, "--policy", "eo") == 0
    assert data_lines(capsys.readouterr().out) == want


def test_sweep_empty_values_exits_1(capsys):
    code = run_cli("sweep", "--axis", "cache-total", "--values", "",
                   "--policies", "eo", "--files", "10")
    assert code == 1


def test_sweep_jobs_flag(capsys):
    code = run_cli("sweep", "--axis", "zipf-alpha", "--values", "0.6,0.8",
                   "--policies", "eo", "--files", "40", "--requests", "300",
                   "--cache-total", "1GB", "--jobs", "2")
    assert code == 0
    assert len(data_lines(capsys.readouterr().out)) == 3


# --------------------------------------------------------------- gen-trace

def test_gen_trace_roundtrip(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run_cli("gen-trace", "--files", "30", "--requests", "200",
                   "--users", "10", "--seed", "3", "--out", str(out))
    assert code == 0
    code = run_cli("validate-trace", "--trace", str(out))
    assert code == 0
    stats = dict(line.split("=") for line in
                 capsys.readouterr().out.strip().split("\n"))
    assert stats["events"] == "200"
    assert stats["malformed_lines"] == "0"
    assert int(stats["files"]) <= 30


def test_gen_trace_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("gen-trace", "--files", "20", "--requests", "100", "--users", "5",
            "--seed", "8", "--out", str(a))
    run_cli("gen-trace", "--files", "20", "--requests", "100", "--users", "5",
            "--seed", "8", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------- validate-trace

def test_validate_trace_missing_file_exits_2(capsys):
    assert run_cli("validate-trace", "--trace", "/nope/missing.csv") == 2


def test_validate_trace_garbage_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,u,a\nzzz\nyyy\nxxx\n", encoding="utf-8")
    assert run_cli("validate-trace", "--trace", str(bad)) == 2


# ------------------------------------------------------------------ oracle

def test_oracle_canonical_ratio_one(tmp_path, capsys):
    cfg = tmp_path / "canonical.cfg"
    cfg.write_text(CANONICAL_CFG, encoding="utf-8")
    code = run_cli("oracle", "--config", str(cfg))
    assert code == 0
    out = capsys.readouterr().out
    values = dict(line.split("=") for line in data_lines(out))
    assert float(values["pcd_utility"]) == pytest.approx(170.0)
    assert float(values["optimal_utility"]) == pytest.approx(170.0)
    assert float(values["ratio"]) == pytest.approx(1.0)
    # a --bs that agrees with the edge delays is accepted
    assert run_cli("oracle", "--config", str(cfg), "--bs", "2") == 0


def test_oracle_trials_batch(capsys):
    code = run_cli("oracle", "--trials", "30", "--seed", "12")
    assert code == 0
    values = dict(line.split("=") for line in
                  data_lines(capsys.readouterr().out))
    assert values["trials"] == "30"
    assert float(values["min_ratio"]) >= 0.5
    assert float(values["mean_ratio"]) >= float(values["min_ratio"])


def test_oracle_trials_header_echoes_only_what_the_batch_reads(tmp_path, capsys):
    def batch(*extra):
        assert run_cli("oracle", "--trials", "5", "--seed", "12", *extra) == 0
        return capsys.readouterr().out.split("\n")

    plain = batch()
    assert plain[1] == "# seed=12 trials=5"
    # instance keys of a config file are ignored and not echoed
    cfg = _write(tmp_path, "canonical.cfg", CANONICAL_CFG)
    assert batch("--config", cfg) == plain
    out = tmp_path / "ratios.txt"
    assert run_cli("oracle", "--trials", "5", "--seed", "12", "--out", str(out)) == 0
    lines = out.read_text(encoding="utf-8").split("\n")
    assert lines[1] == f"# out={out} seed=12 trials=5"
    assert lines[2:] == plain[2:]


def test_header_bs_is_the_count_the_edge_delays_give(tmp_path, capsys):
    # edge_delay_ms lists two BSs and neither --bs nor num_bs is given
    cfg = _write(tmp_path, "delays.cfg",
                 "edge_delay_ms = 10, 20\ncdn_delay_ms = 100\n")
    assert run_cli("simulate", "--config", cfg, "--policy", "eo", "--files", "50",
                   "--requests", "200", "--users", "20",
                   "--cache-total", "1GB") == 0
    header = capsys.readouterr().out.split("\n")[1].split()
    assert "bs=2" in header and "bs=7" not in header
    assert run_cli("oracle", "--config", cfg, "--files", "3",
                   "--cache-total", "200MB") == 0
    header = capsys.readouterr().out.split("\n")[1].split()
    assert "bs=2" in header and "bs=7" not in header


def test_oracle_oversized_exits_3(capsys):
    code = run_cli("oracle", "--bs", "3", "--files", "200",
                   "--cache-total", "0.01TB")
    assert code == 3
    assert "enumeration bound" in capsys.readouterr().err


# ------------------------------------------------------------- config file

def test_config_file_flags_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("policy = eo\nfiles = 50\nrequests = 400\n"
                   "cache-total = 1GB\nseed = 2\n", encoding="utf-8")
    code = run_cli("simulate", "--config", str(cfg))
    assert code == 0
    first = data_lines(capsys.readouterr().out)[1].split(",")
    assert first[0] == "eo"
    # the flag must win over the config value
    code = run_cli("simulate", "--config", str(cfg), "--policy", "ecnc")
    assert code == 0
    assert data_lines(capsys.readouterr().out)[1].split(",")[0] == "ecnc"


def test_config_file_byte_order_mark_is_skipped(tmp_path, capsys):
    cfg = tmp_path / "canonical.cfg"
    outputs = []
    for encoding in ("utf-8", "utf-8-sig"):  # without, then with a BOM
        cfg.write_text(CANONICAL_CFG, encoding=encoding)
        assert run_cli("oracle", "--config", str(cfg)) == 0
        outputs.append(capsys.readouterr().out)
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0] == outputs[1]


def test_config_file_blank_and_comment_lines_are_skipped(tmp_path, capsys):
    cfg = tmp_path / "canonical.cfg"
    commented = ("# the worked instance\n\n"
                 + CANONICAL_CFG.replace("\n", "\n   \n  # two BSs\n", 2))
    outputs = []
    for text in (CANONICAL_CFG, commented):
        cfg.write_text(text, encoding="utf-8")
        assert run_cli("oracle", "--config", str(cfg)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_config_file_unknown_key_exits_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("polycy = eo\n", encoding="utf-8")
    assert run_cli("simulate", "--config", str(cfg)) == 1


def test_out_file_writing(tmp_path):
    out = tmp_path / "rows.csv"
    code = run_cli("simulate", "--policy", "eo", "--files", "30",
                   "--requests", "300", "--cache-total", "1GB",
                   "--out", str(out))
    assert code == 0
    assert out.read_text(encoding="utf-8").count("\n") >= 2


# ------------------------------------------------------ exit-code contract

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SMALL = ("--files", "30", "--requests", "300", "--cache-total", "1GB")


@pytest.mark.parametrize("argv", [
    ("simulate", "--policy", "eo", "--files", "30", "--requests", "300",
     "--cache-total", "inf"),
    ("simulate", "--policy", "eo", *SMALL, "--file-size-mb", "inf"),
    ("simulate", "--policy", "eo", *SMALL, "--zipf-alpha", "nan"),
    ("sweep", "--axis", "cache-total", "--values", "1GB,infTB",
     "--policies", "eo", "--files", "30", "--requests", "300"),
    ("sweep", "--axis", "zipf-alpha", "--values", "0.6,0.8",
     "--policies", "eo", *SMALL, "--jobs", "-2"),
    ("simulate", "--policy", "eo", *SMALL, "--out", "{tmp}/missing/rows.csv"),
    ("gen-trace", "--files", "30", "--requests", "30", "--users", "3",
     "--out", "{tmp}/missing/trace.csv"),
    ("oracle", "--config", "{num_bs_mismatch}"),
    ("oracle", "--config", "{nan_popularity}"),
    ("oracle", "--config", "{nan_edge_delay}"),
    # 10^18 files: the first array asks for 8 EB and fails at once
    ("simulate", "--policy", "eo", "--files", "1000000000000000000",
     "--requests", "10", "--cache-total", "1GB"),
    ("gen-trace", "--files", "1000000000000000000", "--requests", "3"),
    ("oracle", "--files", "1000000000000000000", "--cache-total", "1GB"),
    ("sweep", "--axis", "policy", "--values", "eo", "--files",
     "1000000000000000000", "--requests", "10", "--cache-total", "1GB"),
])
def test_bad_input_exits_1_without_traceback(argv, tmp_path, capsys):
    configs = {
        "num_bs_mismatch": CANONICAL_CFG.replace("num_bs = 2", "num_bs = 3"),
        "nan_popularity": CANONICAL_CFG.replace("0.5, 0.3", "nan, 0.3"),
        "nan_edge_delay": CANONICAL_CFG.replace("10, 20", "10, nan"),
    }
    paths = {name: _write(tmp_path, name + ".cfg", text)
             for name, text in configs.items()}
    argv = [arg.format(tmp=tmp_path, **paths) for arg in argv]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,named", [
    (("oracle", "--trials", "-2", "--files", "3"), "--trials"),
    (("oracle", "--trials", "0", "--files", "3"), "--trials"),
    (("oracle", "--config", "{users_per_bs_negative}"), "users_per_bs"),
    (("oracle", "--config", "{users_per_bs_zero}"), "users_per_bs"),
    (("oracle", "--config", "{canonical}", "--bs", "5"), "--bs"),
    (("simulate", "--policy", "eo", "--config", "{canonical}", "--bs", "3",
      "--requests", "100"), "--bs"),
    (("oracle", "--config", "{capacity_edge_three}"), "capacity_edge"),
    (("simulate", "--policy", "eo", "--config", "{popularity_only}", "--files", "5",
      "--cache-total", "1GB", "--requests", "100"), "popularity"),
    (("simulate", "--policy", "eo", *SMALL, "--bs", "0"), "--bs"),
    (("simulate", "--policy", "eo", *SMALL, "--users", "0"), "--users"),
    (("oracle", "--bs", "2", "--files", "0", "--cache-total", "200MB"), "--files"),
    (("gen-trace", "--files", "5", "--requests", "-3"), "--requests"),
    (("gen-trace", "--files", "5", "--requests", str(2**63)), "--requests"),
    (("simulate", "--policy", "eo", *SMALL, "--cloud-edge-ratio", "-1"),
     "--cloud-edge-ratio"),
    (("simulate", "--policy", "eo", *SMALL, "--cache-total=-1GB"), "--cache-total"),
    (("simulate", "--policy", "eo", *SMALL, "--zipf-alpha", "-1"), "--zipf-alpha"),
    (("simulate", "--policy", "eo", *SMALL, "--file-size-mb", "1e-7"),
     "--file-size-mb"),
    (("simulate", "--policy", "eo", "--config", "{format_xml}", *SMALL), "format"),
    (("simulate", "--policy", "eo", "--config", "{nul_trace}", *SMALL), "trace"),
    # a --trials batch draws every instance at random and reads none of these
    *((("oracle", "--trials", "5", flag, value), flag) for flag, value in (
        ("--bs", "3"), ("--files", "5"), ("--file-size-mb", "10"),
        ("--cache-total", "1TB"), ("--cloud-edge-ratio", "2"),
        ("--zipf-alpha", "1"))),
    # only a cache-total axis supplies the budget
    (("sweep", "--axis", "zipf-alpha", "--values", "0.6,0.8", "--policies", "eo",
      "--files", "40", "--requests", "300"), "--cache-total"),
    (("sweep", "--axis", "policy", "--values", "eo,lru", "--files", "40",
      "--requests", "300"), "--cache-total"),
    # a lone capacity_cloud would be ignored beside the budget
    (("simulate", "--policy", "eo", "--config", "{cloud_only}", "--files", "40",
      "--requests", "300", "--cache-total", "1GB"), "capacity_cloud"),
    (("oracle", "--config", "{cloud_only}", "--files", "3",
      "--cache-total", "200MB"), "capacity_cloud"),
    # a sweep needs an axis, and on a cache-total or zipf-alpha axis a policy
    (("sweep", "--values", "1GB", "--policies", "eo", "--files", "40"), "--axis"),
    (("sweep", "--axis", "cache-total", "--values", "1GB", "--files", "40",
      "--requests", "300"), "--policies"),
    # the topology keys of a config file
    (("oracle", "--config", "{no_cdn_delay}", "--files", "3",
      "--cache-total", "200MB"), "cdn_delay_ms"),
    (("oracle", "--config", "{explicit_without_matrix}", "--files", "3",
      "--cache-total", "200MB"), "peer_delay_ms"),
    (("oracle", "--config", "{unknown_peer_model}", "--files", "3",
      "--cache-total", "200MB"), "peer_delay_model"),
    # a lone capacity_edge is as incomplete as a lone capacity_cloud
    (("simulate", "--policy", "eo", "--config", "{edge_only}", "--files", "40",
      "--requests", "300", "--cache-total", "1GB"), "capacity_cloud"),
    (("oracle", "--config", "{canonical}", "--files", "4"), "popularity"),
    (("oracle", "--bs", "2", "--files", "3"), "--cache-total"),
    (("validate-trace",), "--trace"),
])
def test_bad_instance_input_exits_1_naming_it(argv, named, tmp_path, capsys):
    configs = {
        "canonical": CANONICAL_CFG,
        "popularity_only": "popularity = 0.5, 0.3, 0.2\n",
        "users_per_bs_negative": CANONICAL_CFG.replace("users_per_bs = 1",
                                                       "users_per_bs = -2"),
        "users_per_bs_zero": CANONICAL_CFG.replace("users_per_bs = 1",
                                                   "users_per_bs = 0"),
        "capacity_edge_three": CANONICAL_CFG.replace("capacity_edge = 1",
                                                     "capacity_edge = 1, 1, 1"),
        "cloud_only": "capacity_cloud = 0\n",
        "format_xml": "format = xml\n",
        "nul_trace": "trace = a\0b.csv\n",
        "no_cdn_delay": "edge_delay_ms = 10, 20\n",
        "explicit_without_matrix": "edge_delay_ms = 10, 20\ncdn_delay_ms = 100\n"
                                   "peer_delay_model = explicit\n",
        "unknown_peer_model": "edge_delay_ms = 10, 20\ncdn_delay_ms = 100\n"
                              "peer_delay_model = mesh\n",
        "edge_only": "capacity_edge = 0\n",
    }
    paths = {name: _write(tmp_path, name + ".cfg", text)
             for name, text in configs.items()}
    assert run_cli(*[arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and named in err and "Traceback" not in err


def test_non_utf8_trace_exits_2(tmp_path, capsys):
    trace = tmp_path / "latin1.csv"
    trace.write_bytes(b"1,u1,caf\xe9\n2,u2,b\n")
    assert run_cli("validate-trace", "--trace", str(trace)) == 2
    assert run_cli("simulate", "--policy", "eo", "--trace", str(trace),
                   "--cache-total", "1GB") == 2
    assert "trace error" in capsys.readouterr().err


def test_out_file_echoes_undecodable_trace_name(tmp_path):
    trace = tmp_path / os.fsdecode(b"\xff.csv")
    trace.write_text("\n".join(f"{i},u{i % 4},c{i % 6}" for i in range(50)) + "\n",
                     encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert run_cli("simulate", "--policy", "lru", "--trace", str(trace),
                   "--cache-total", "1GB", "--out", str(out)) == 0
    assert os.fsencode(str(trace)) in out.read_bytes()


def test_validate_trace_counts_nan_timestamp_malformed(tmp_path, capsys):
    rows = [f"{t},u{t},c{t}" for t in range(3, 12)]
    trace = _write(tmp_path, "t.csv", "\n".join(["nan,u,c"] + rows) + "\n")
    assert run_cli("validate-trace", "--trace", trace) == 0
    stats = dict(line.split("=") for line in
                 capsys.readouterr().out.strip().split("\n"))
    assert stats["malformed_lines"] == "1" and stats["events"] == "9"


def test_oracle_zipf_alpha_zero_is_uniform(tmp_path, capsys):
    def utilities(*extra):
        assert run_cli("oracle", "--bs", "2", "--files", "4", "--cache-total",
                       "200MB", "--cloud-edge-ratio", "1", *extra) == 0
        values = dict(line.split("=") for line in
                      data_lines(capsys.readouterr().out))
        return values["pcd_utility"], values["optimal_utility"]

    cfg = _write(tmp_path, "uniform.cfg", "popularity = 0.25, 0.25, 0.25, 0.25\n")
    assert utilities("--zipf-alpha", "0") == utilities("--config", cfg)


def test_internal_value_error_is_not_a_config_error(monkeypatch, capsys):
    def fail(config):
        raise ValueError("internal fault")
    monkeypatch.setattr(cli, "run_experiment", fail)
    with pytest.raises(ValueError, match="internal fault"):
        run_cli("simulate", "--policy", "eo", *SMALL)
    assert "config error" not in capsys.readouterr().err


# ------------------------------------------------------ options by subcommand

@pytest.mark.parametrize("argv", [
    ("gen-trace", "--files", "5", "--requests", "10", "--format", "json"),
    ("validate-trace", "--trace", "t.csv", "--bs", "3"),
    ("simulate", "--policy", "eo", *SMALL, "--jobs", "2"),
])
def test_flag_of_another_subcommand_exits_1(argv, capsys):
    assert run_cli(*argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_header_echoes_only_options_read(tmp_path, capsys):
    cfg = _write(tmp_path, "canonical.cfg", CANONICAL_CFG)
    assert run_cli("oracle", "--config", cfg) == 0
    header = " ".join(l for l in capsys.readouterr().out.split("\n")
                      if l.startswith("#"))
    for key in ("requests=", "users=", "warmup_frac=", "format=", "jobs="):
        assert key not in header
    assert "users_per_bs=1" in header


def test_config_key_of_another_subcommand_is_ignored(tmp_path, capsys):
    cfg = _write(tmp_path, "canonical.cfg", CANONICAL_CFG)
    assert run_cli("simulate", "--config", cfg, "--policy", "eo",
                   "--requests", "200") == 0
    assert "users_per_bs" not in capsys.readouterr().out


def readme_options():
    """README's list of the options each subcommand reads: the command,
    then its flags and its config-only keys."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    listed = readme.split("### Options by subcommand\n", 1)[1].split("\n#", 1)[0]
    items = re.findall(r"^- `([\w-]+)`: (.*(?:\n  .*)*)", listed, flags=re.M)
    return {command: re.findall(r"`([\w-]+)`", text) for command, text in items}


def test_readme_option_list_equals_the_parser():
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    listed = readme_options()
    assert sorted(listed) == sorted(subcommands)
    pairs = 0
    for command, sub in subcommands.items():
        flags = {s for action in sub._actions for s in action.option_strings}
        flags -= {"-h", "--help"}
        pairs += len(flags)
        keys = {key for option in OPTIONS if command in option.commands
                for key in option.keys}
        config_only = keys - {flag[2:].replace("-", "_") for flag in flags}
        assert len(listed[command]) == len(set(listed[command]))
        assert set(listed[command]) == flags | config_only, command
    assert pairs == 54


# ------------------------------------------------------------ fuzzed argv

_SIZES = ("--files", "50", "--requests", "200", "--users", "20")
# A valid small run per command. Fuzzed flags come after it and win; no
# value in the pool raises a size above these (the pool's integers are
# small and its other values do not parse as integers).
_BASE = {
    "simulate": ("--config", "{config}", *_SIZES, "--cache-total", "1GB",
                 "--policy", "octopus"),
    "sweep": ("--config", "{config}", *_SIZES, "--cache-total", "1GB",
              "--jobs", "1", "--axis", "cache-total", "--values", "1GB,2GB",
              "--policies", "eo,lru"),
    "gen-trace": ("--config", "{config}", *_SIZES),
    "oracle": ("--config", "{config}", "--trials", "3"),
    "validate-trace": ("--config", "{config}", "--trace", "{trace}"),
}
# Hostile values, a few valid ones so that runs reach the simulator, and
# placeholders for paths: a missing directory, an existing directory, and
# the fuzzed trace and config files.
_NUMBERS = ("nan", "inf", "-inf", "-2", "0", "1", "2", "0.5", "1e400", "",
            "\u0661", "\u221e", "1GB", "infTB")
_PATHS = ("{missing}", "{dir}", "{trace}", "{config}", "", "\u00e9t\u00e9")
_NAMES = ("eo", "octopus", "lru", "csv", "json", "explicit", "cache-total",
          "zipf-alpha", "policy", "nan", "", "1,nan", "10, 20", "eo,,lru",
          "\u00e9t\u00e9")
_POOLS = {"--config": _PATHS, "--trace": _PATHS, "--out": _PATHS,
          "--format": _NAMES, "--policy": _NAMES, "--policies": _NAMES,
          "--axis": _NAMES, "--values": _NAMES + _NUMBERS}
# the flags each subcommand accepts and every config key, from the
# declarations the parser is built from
_FLAGS = {command: ("--config",) + tuple(option.flag_spelling for option in OPTIONS
                                         if option.flag and command in option.commands)
          for command in _BASE}
_CONFIG_KEYS = sorted(key for option in OPTIONS for key in option.keys)
_TRACE_LINES = ("1,u1,a", "2,u2,b", "3,u1,a", "nan,u3,c", "inf,u4,a",
                "-inf,u1,b", "x", "", "4,\u00fc,\u221e",
                "timestamp,user_id,content_id")


def _flag_and_value(flag):
    return st.tuples(st.just(flag), st.sampled_from(_POOLS.get(flag, _NUMBERS)))


@st.composite
def _cli_inputs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = draw(st.lists(st.sampled_from(_FLAGS[command]).flatmap(
        _flag_and_value), max_size=3))
    config = draw(st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS),
                                     st.sampled_from(_NUMBERS + _NAMES + _PATHS)),
                           max_size=3))
    trace = draw(st.one_of(
        st.binary(max_size=300),
        st.lists(st.sampled_from(_TRACE_LINES), max_size=200).map(
            lambda lines: "\n".join(lines).encode("utf-8"))))
    return command, flags, config, trace


def _run_fuzz_case(command, flags, config, trace, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative --out values land here
    paths = {"missing": str(tmp_path / "missing" / "x"), "dir": str(tmp_path),
             "trace": str(tmp_path / "trace.csv"),
             "config": str(tmp_path / "fuzz.cfg")}
    (tmp_path / "trace.csv").write_bytes(trace)
    (tmp_path / "fuzz.cfg").write_text(
        "".join(f"{key} = {value.format(**paths)}\n" for key, value in config),
        encoding="utf-8")
    argv = [command, *_BASE[command]]
    for flag, value in flags:
        argv += [flag, value]
    return main([arg.format(**paths) for arg in argv])


@pytest.mark.parametrize("command", sorted(_BASE))
def test_fuzz_base_run_exits_0(command, tmp_path, monkeypatch, capsys):
    trace = "\n".join(_TRACE_LINES[:3]).encode("utf-8")
    assert _run_fuzz_case(command, [], [], trace, tmp_path, monkeypatch) == 0


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_cli_inputs())
def test_fuzzed_argv_keeps_exit_code_contract(inputs, tmp_path, monkeypatch,
                                              capsys):
    command, flags, config, trace = inputs
    assert _run_fuzz_case(command, flags, config, trace, tmp_path,
                          monkeypatch) in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
