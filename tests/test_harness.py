"""Metrics, security sweep, and CLI tests."""

import argparse
import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from codedsm import harness, simnet
from codedsm.field import ConfigurationError
from codedsm.harness import (
    CSV_COLUMNS,
    CSV_SCHEMA,
    MetricsRecord,
    SweepReport,
    build_parser,
    compute_metrics,
    read_csv,
    run_cli,
    sweep_security,
    write_csv,
)
from codedsm.simnet import (
    CONFIG_KEYS,
    EventLog,
    ExperimentConfig,
    deployment,
    derive_sizes,
    run_experiment,
)

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# security sweep
# ---------------------------------------------------------------------------

def test_sweep_full_replication_breaks_past_minority():
    report = sweep_security(ExperimentConfig("full", 5, 3))
    assert report.beta == 2  # (5-1)//2
    assert report.witness["b"] == 3
    assert report.witness["clause"] in ("liveness", "correctness")


def test_sweep_partial_replication_targeted_group():
    report = sweep_security(ExperimentConfig("partial", 6, 2))
    assert report.beta == 1  # group size 3, (3-1)//2
    assert report.witness["b"] == 2
    # the witness concentrates faults inside one replica group
    groups = [set(range(0, 3)), set(range(3, 6))]
    placed = set(report.witness["placement"])
    assert any(placed <= g for g in groups)


def test_sweep_coded_matches_decoding_bound():
    report = sweep_security(ExperimentConfig("csm", 10, 3, 2))
    assert report.beta == 2  # 2b+1 <= 10 - 2*(3-1)
    assert report.witness["b"] == 3


def test_sweep_is_deterministic():
    a = sweep_security(ExperimentConfig("csm", 8, 2, 2, seed=5))
    b = sweep_security(ExperimentConfig("csm", 8, 2, 2, seed=5))
    assert a == b


@pytest.mark.parametrize("setting,beta", [("sync", 3), ("psync", 2)])
def test_delegated_sweep_reports_the_direct_sweep(setting, beta):
    direct = ExperimentConfig("csm", 8, 2, 1, setting=setting)
    report = sweep_security(direct)
    assert report.beta == beta
    assert sweep_security(dataclasses.replace(direct, delegate=True)) == \
        report


def test_sweep_refuses_large_networks():
    with pytest.raises(ConfigurationError, match="20 nodes"):
        sweep_security(ExperimentConfig("full", 21, 1))


def test_sweep_without_a_witness_reports_every_node(monkeypatch, capsys):
    # no strategy in the catalog breaks anything, so no b up to N does
    monkeypatch.setattr(harness, "SWEEP_STRATEGIES", ("none",))
    config = ExperimentConfig(protocol="full", n_nodes=3, k_machines=1)
    assert sweep_security(config) == SweepReport(3, None)
    assert run_cli(["sweep", "full:3:1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "full N=3 K=1 d=1: beta = 3",
        "  no violating run found up to b = N",
    ]


def test_design_tolerance_formulas():
    def beta(protocol, n, k, setting="sync", b=0):
        config = ExperimentConfig(protocol, n, k, setting=setting)
        machine, k, _, _ = derive_sizes(config)
        return deployment(config, machine, k, b).beta

    assert beta("full", 5, 3) == 2
    assert beta("full", 12, 1) == 5
    assert beta("partial", 12, 3) == 1
    assert beta("partial", 12, 3, "psync") == 1
    assert beta("full", 10, 1, "psync") == 3
    assert beta("csm", 10, 3, b=2) == 2


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _metrics(protocol, **kw):
    base = dict(protocol=protocol, n_nodes=12, k_machines=3,
                machine="bank", fault_fraction=Fraction(1, 4), rounds=4,
                seed=9)
    base.update(kw)
    return compute_metrics(run_experiment(ExperimentConfig(**base)))


def test_storage_efficiency_by_protocol():
    assert _metrics("full").gamma == 1
    assert _metrics("partial").gamma == 3
    assert _metrics("csm", k_machines=6, degree=1).gamma == 6


def test_full_replication_throughput_independent_of_n():
    lams = {_metrics("full", n_nodes=n, fault_fraction=Fraction(1, n)).lam
            for n in (5, 10, 15)}
    assert len(lams) == 1  # exactly 1/c(f), no drift at all


def test_metrics_of_violated_run_marked_invalid():
    rec = _metrics("full", n_nodes=5, b=3, adversary="corrupt",
                   fault_fraction=Fraction(0))
    assert not rec.valid
    assert rec.violations > 0
    assert rec.lam == 0.0


def test_coded_metrics_row_fields():
    rec = _metrics("csm", k_machines=6, degree=1, b=3)
    assert rec.beta == 3  # explicit budget is the design tolerance
    assert rec.ops_rho > 0 and rec.ops_psi > 0 and rec.ops_chi > 0
    row = rec.row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[CSV_COLUMNS.index("fault_fraction")] == "1/4"


def test_csv_round_trip(tmp_path):
    rec = _metrics("partial")
    path = tmp_path / "m.csv"
    write_csv(path, [rec])
    text = path.read_text()
    assert text.splitlines()[0] == f"# schema: {CSV_SCHEMA}"
    assert text.splitlines()[1] == ",".join(CSV_COLUMNS)
    (row,) = read_csv(path)
    assert row["protocol"] == "partial"
    assert row["gamma"] == "3"
    assert MetricsRecord(**{**rec.__dict__}) == rec


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_writes_csv_and_log(tmp_path, capsys):
    code = run_cli(["run", "--protocol", "csm", "--n", "10", "--mu", "1/5",
                    "--d", "2", "--rounds", "3", "--seed", "7",
                    "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "metrics.csv").exists()
    assert (tmp_path / "csm_n10_seed7.jsonl").exists()
    (row,) = read_csv(tmp_path / "metrics.csv")
    assert row["N"] == "10" and row["K"] == "3"
    assert "ok" in capsys.readouterr().out


def test_cli_rows_reproduce_bit_exactly(tmp_path):
    args = ["run", "--compare", "full,partial,csm", "--n", "12", "--k",
            "3", "--d", "1", "--mu", "1/4", "--rounds", "4", "--seed",
            "3"]
    run_cli(args + ["--out", str(tmp_path / "a")])
    run_cli(args + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
           (tmp_path / "b" / "metrics.csv").read_bytes()


def test_cli_comparison_reproduces_storage_table(tmp_path):
    run_cli(["run", "--compare", "full,partial,csm", "--n", "12", "--k",
             "3", "--d", "1", "--mu", "1/4", "--rounds", "4",
             "--out", str(tmp_path)])
    rows = {r["protocol"]: r for r in read_csv(tmp_path / "metrics.csv")}
    assert (rows["full"]["gamma"], rows["full"]["beta"]) == ("1", "5")
    assert (rows["partial"]["gamma"], rows["partial"]["beta"]) == ("3", "1")
    assert (rows["csm"]["gamma"], rows["csm"]["beta"]) == ("6", "3")
    assert rows["csm"]["K"] == "6"


@pytest.mark.parametrize("flags", [["--n", "12", "--b", "3"],
                                   ["--n", "10", "--mu", "1/4"]])
def test_cli_comparison_sizes_coded_k_as_a_csm_run(tmp_path, flags):
    # one sizing rule: the coded row is the csm run with the same flags
    flags = [*flags, "--d", "1", "--rounds", "2"]
    assert run_cli(["run", "--compare", "full,csm", *flags,
                    "--out", str(tmp_path / "c")]) == 0
    assert run_cli(["run", "--protocol", "csm", *flags,
                    "--out", str(tmp_path / "p")]) == 0
    rows = {r["protocol"]: r for r in read_csv(tmp_path / "c" / "metrics.csv")}
    (alone,) = read_csv(tmp_path / "p" / "metrics.csv")
    assert rows["csm"] == alone
    assert rows["full"]["K"] == alone["K"] == "6"
    log = f"csm_n{flags[1]}_seed0.jsonl"
    assert (tmp_path / "c" / log).read_bytes() == \
        (tmp_path / "p" / log).read_bytes()


def test_cli_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--out", str(tmp_path)])  # no protocol selection
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--protocol", "csm", "--compare", "full",
                 "--n", "5", "--out", str(tmp_path)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--compare", "full,raft", "--n", "5",
                 "--out", str(tmp_path)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--protocol", "csm", "--out", str(tmp_path)])
    assert exc.value.code == 2  # missing --n


@pytest.mark.parametrize("flags, share", [(["--b", "2"], "1/6"),
                                          (["--b", "2", "--mu", "1/3"], "1/6"),
                                          (["--mu", "1/4"], "1/4")])
def test_cli_reports_the_fault_fraction_that_sized_the_run(tmp_path, flags,
                                                           share):
    # b/N where --b sets the budget, else the given mu
    assert run_cli(["run", "--protocol", "csm", "--n", "12", "--d", "1",
                    "--rounds", "1", *flags, "--out", str(tmp_path)]) == 0
    (row,) = read_csv(tmp_path / "metrics.csv")
    assert row["fault_fraction"] == share
    assert _header(tmp_path / "csm_n12_seed0.jsonl")["mu"] == share


def test_cli_flags_violations_with_diagnostic_exit(tmp_path, capsys):
    code = run_cli(["run", "--protocol", "full", "--n", "5", "--k", "2",
                    "--b", "3", "--adversary", "corrupt", "--rounds", "3",
                    "--out", str(tmp_path)])
    assert code == 3
    assert "VIOLATED" in capsys.readouterr().out
    (row,) = read_csv(tmp_path / "metrics.csv")
    assert int(row["violations"]) > 0


def test_cli_sweep_beta_overrides_design_value(tmp_path):
    run_cli(["run", "--protocol", "csm", "--n", "10", "--k", "3",
             "--d", "2", "--b", "2", "--rounds", "3", "--sweep-beta",
             "--out", str(tmp_path)])
    (row,) = read_csv(tmp_path / "metrics.csv")
    assert row["beta"] == "2"


def test_cli_sweep_beta_sweeps_the_run_delegated_decoding(tmp_path,
                                                          monkeypatch):
    real = simnet.delegated_decode
    in_sweep = []
    calls = []

    def sweep(*args, **kwargs):
        in_sweep.append(True)
        try:
            return real_sweep(*args, **kwargs)
        finally:
            in_sweep.pop()

    def decode(*args):
        calls.append(bool(in_sweep))
        return real(*args)

    real_sweep = harness.sweep_security
    monkeypatch.setattr(harness, "sweep_security", sweep)
    monkeypatch.setattr(simnet, "delegated_decode", decode)
    assert run_cli(["run", "--protocol", "csm", "--n", "8", "--k", "2",
                    "--d", "1", "--delegate", "--rounds", "2",
                    "--sweep-beta", "--out", str(tmp_path)]) == 0
    assert calls.count(False) == 2   # the run's own rounds
    assert True in calls
    (row,) = read_csv(tmp_path / "metrics.csv")
    assert row["beta"] == "3"


def test_cli_sweep_beta_sweeps_the_run_field(tmp_path):
    # the bit-counter machine exists only over GF(2^m)
    code = run_cli(["run", "--protocol", "csm", "--machine", "boolcounter",
                    "--field", "binary:8", "--n", "12", "--mu", "1/10",
                    "--rounds", "2", "--sweep-beta", "--out", str(tmp_path)])
    assert code == 0
    (row,) = read_csv(tmp_path / "metrics.csv")
    assert row["beta"] == "1"
    report = sweep_security(ExperimentConfig(
        "csm", 12, 5, 2, "boolcounter", "binary:8"))
    assert report.witness == {"b": 2, "placement": [0, 1],
                              "strategy": "withhold", "clause": "liveness",
                              "round": 0}


def test_cli_reads_config_file_with_flag_overrides(tmp_path):
    cfg = ExperimentConfig(protocol="csm", n_nodes=10, degree=2,
                           fault_fraction=Fraction(1, 5), rounds=3,
                           seed=1)
    path = tmp_path / "exp.cfg"
    path.write_text(cfg.to_text())
    run_cli(["run", "--protocol", "csm", "--config", str(path),
             "--seed", "4", "--out", str(tmp_path / "o")])
    (row,) = read_csv(tmp_path / "o" / "metrics.csv")
    assert row["seed"] == "4"
    assert row["N"] == "10"
    assert row["fault_fraction"] == "1/5"


def test_cli_takes_protocol_from_config_alone(tmp_path):
    cfg = ExperimentConfig(protocol="csm", n_nodes=10, degree=2,
                           fault_fraction=Fraction(1, 5), rounds=3,
                           seed=1)
    path = tmp_path / "exp.cfg"
    path.write_text(cfg.to_text())
    assert run_cli(["run", "--config", str(path),
                    "--out", str(tmp_path / "a")]) == 0
    run_cli(["run", "--protocol", "csm", "--config", str(path),
             "--out", str(tmp_path / "b")])
    log = "csm_n10_seed1.jsonl"
    assert (tmp_path / "a" / log).read_bytes() == \
        (tmp_path / "b" / log).read_bytes()


def _write_cfg(tmp_path, **kw):
    base = dict(protocol="csm", n_nodes=10, degree=2,
                fault_fraction=Fraction(1, 5), rounds=2, seed=5)
    base.update(kw)
    path = tmp_path / "exp.cfg"
    path.write_text(ExperimentConfig(**base).to_text())
    return path


def _header(path):
    return EventLog.from_jsonl(path.read_text()).of("header")[0]


def test_cli_given_flag_beats_file_even_at_its_default(tmp_path):
    path = _write_cfg(tmp_path)
    run_cli(["run", "--config", str(path), "--seed", "0",
             "--out", str(tmp_path / "o")])
    (row,) = read_csv(tmp_path / "o" / "metrics.csv")
    assert row["seed"] == "0"
    assert (tmp_path / "o" / "csm_n10_seed0.jsonl").exists()


def test_cli_boolean_flag_bare_or_with_value(tmp_path):
    path = _write_cfg(tmp_path, degree=1, delegate=True)
    run_cli(["run", "--config", str(path), "--delegate", "false",
             "--out", str(tmp_path / "a")])
    assert _header(tmp_path / "a" / "csm_n10_seed5.jsonl")["delegate"] is False
    path = _write_cfg(tmp_path, degree=1)
    run_cli(["run", "--config", str(path), "--delegate",
             "--out", str(tmp_path / "b")])
    assert _header(tmp_path / "b" / "csm_n10_seed5.jsonl")["delegate"] is True


@pytest.mark.parametrize("line", ["n = four", "delegate = maybe", "mu = x",
                                  "eps = e", "rounds = 0"])
def test_cli_refuses_bad_config_values(tmp_path, line):
    path = _write_cfg(tmp_path)
    path.write_text(path.read_text() + line + "\n")
    for protocol in ([], ["--protocol", "csm"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--config", str(path), *protocol,
                     "--out", str(tmp_path / "o")])
        assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--n", "four"], ["--mu", "x"],
                                   ["--eps", "e"], ["--delegate", "maybe"],
                                   ["--poly-mode", "bogus"],
                                   ["--setting", "eventually"]])
def test_cli_refuses_unreadable_flags(tmp_path, flags):
    argv = ["run", "--protocol", "csm", "--n", "10", "--d", "2",
            "--rounds", "2", *flags, "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2


def test_cli_refuses_missing_config_file(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--b", "-1"], ["--b", "11"],
                                   ["--mu", "-1"]])
def test_cli_refuses_fault_budget_outside_node_count(tmp_path, flags):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--protocol", "full", "--n", "10", *flags,
                 "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["run", "--compare", "full,partial", "--n", "10", "--mu", "1/10",
     "--d", "1", "--rounds", "2"],
    ["run", "--compare", "full,csm", "--n", "12", "--mu", "1/4", "--d", "1",
     "--delegate", "--eps", "7"],
    ["scale", "8", "24", "--protocol", "full", "--k", "1", "--sweep-beta"],
])
def test_cli_refuses_every_row_before_any_row_runs(tmp_path, argv):
    # the first row would run; a later one cannot
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert not list(out.glob("*.jsonl"))
    assert not (out / "metrics.csv").exists()


def test_security_sweep_reports_breaking_points():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "codedsm", "sweep", "full:5:3", "partial:6:2",
         "csm:10:3:2"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    assert proc.stdout.splitlines() == [
        "full N=5 K=3 d=1: beta = 2",
        "  broken at b=3 by withhold on nodes [0, 1, 2] (liveness)",
        "partial N=6 K=2 d=1: beta = 1",
        "  broken at b=2 by withhold on nodes [0, 1] (liveness)",
        "csm N=10 K=3 d=2: beta = 2",
        "  broken at b=3 by withhold on nodes [0, 1, 2] (liveness)",
    ]


def test_sweep_takes_the_field_and_machine_flags(capsys):
    assert run_cli(["sweep", "--field", "binary:8", "--machine",
                    "boolcounter", "csm:12:5"]) == 0
    report = sweep_security(ExperimentConfig(
        "csm", 12, 5, machine="boolcounter", field_spec="binary:8"))
    w = report.witness
    assert capsys.readouterr().out.splitlines() == [
        f"csm N=12 K=5 d=2: beta = {report.beta}",
        f"  broken at b={w['b']} by {w['strategy']} on nodes "
        f"{w['placement']} ({w['clause']})",
    ]


def test_sweep_config_file_needs_no_protocol_or_n(tmp_path, capsys):
    # every deployment spells protocol and N, so the file need not
    path = tmp_path / "seed.cfg"
    path.write_text("seed = 3\n")
    assert run_cli(["sweep", "--config", str(path), "csm:8:2"]) == 0
    from_file = capsys.readouterr().out
    assert run_cli(["sweep", "--seed", "3", "csm:8:2"]) == 0
    assert capsys.readouterr().out == from_file
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--config", str(path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "protocol and n" in capsys.readouterr().err


@pytest.mark.parametrize("deployment", ["csm:10", "csm:ten:3", "full:21:1"])
def test_sweep_refuses_bad_deployments(deployment):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", deployment])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--rounds", "3"], ["--rounds=3"]])
def test_sweep_names_a_flag_it_does_not_take(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", *flags, "full:5:3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rounds" in capsys.readouterr().err


def test_sweep_parses_every_deployment_before_sweeping(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "full:5:3", "csm:ten:3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "bad value 'ten' for n" in err


@pytest.mark.parametrize("flags", [["--mu", "1/4"], ["--b", "2"],
                                   ["--adversary", "corrupt"],
                                   ["--rounds", "3"]])
def test_sweep_refuses_the_settings_it_does_not_read(flags, tmp_path,
                                                     capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", *flags, "full:5:3"])
    assert exc.value.code == 2
    # a config file holding them is still accepted, and they change nothing
    path = tmp_path / "exp.cfg"
    path.write_text(f"{flags[0][2:]} = {flags[1]}\n")
    capsys.readouterr()
    assert run_cli(["sweep", "--config", str(path), "full:5:3"]) == 0
    from_file = capsys.readouterr().out
    assert run_cli(["sweep", "full:5:3"]) == 0
    assert capsys.readouterr().out == from_file


def test_each_subcommand_takes_the_config_flags_it_reads():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {f for a in p._actions for f in a.option_strings}
             for name, p in sub.choices.items()}
    keys = {c.flag for c in CONFIG_KEYS}
    spelled = {"--protocol", "--n", "--k", "--d"}
    unread = {"--mu", "--b", "--adversary", "--rounds"}
    assert flags["sweep"] == keys - spelled - unread | {
        "--config", "-h", "--help"}
    assert flags["run"] == keys | {"--config", "-h", "--help", "--compare",
                                   "--sweep-beta", "--out"}
    assert flags["scale"] == flags["run"] - {"--n"}


# ---------------------------------------------------------------------------
# scale
# ---------------------------------------------------------------------------

def _scale_table(out):
    """The lines `codedsm scale` prints after its status lines."""
    lines = out.splitlines()
    return lines[[ln.startswith("wrote ") for ln in lines].index(True) + 1:]


def test_scale_prints_one_row_per_size(tmp_path, capsys):
    code = run_cli(["scale", "16", "--compare", "csm,full", "--mu", "1/4",
                    "--d", "1", "--delegate", "--poly-mode", "fast",
                    "--seed", "7", "--rounds", "1", "--out", str(tmp_path)])
    assert code == 0
    header, *rows = _scale_table(capsys.readouterr().out)
    assert header.split() == ["N", "K", "lambda_csm", "lambda_full"]
    assert len(rows) == 1 and rows[0].split()[0] == "16"


def test_scale_rows_are_the_run_rows_at_each_size(tmp_path):
    flags = ["--compare", "csm,full", "--mu", "1/4", "--d", "1",
             "--adversary", "corrupt", "--rounds", "2", "--seed", "3"]
    assert run_cli(["scale", "8", "12", *flags,
                    "--out", str(tmp_path / "s")]) == 0
    scaled = read_csv(tmp_path / "s" / "metrics.csv")
    assert [(r["protocol"], r["N"]) for r in scaled] == [
        ("csm", "8"), ("full", "8"), ("csm", "12"), ("full", "12")]
    for n in (8, 12):
        out = tmp_path / f"r{n}"
        assert run_cli(["run", "--n", str(n), *flags,
                        "--out", str(out)]) == 0
        assert read_csv(out / "metrics.csv") == \
            [r for r in scaled if r["N"] == str(n)]
        for protocol in ("csm", "full"):
            log = f"{protocol}_n{n}_seed3.jsonl"
            assert (tmp_path / "s" / log).read_bytes() == \
                (out / log).read_bytes()


def test_scale_refuses_n_and_bad_sizes(tmp_path):
    for argv in (["scale", "16", "--n", "16"], ["scale", "sixteen"],
                 ["scale", "0"], ["scale"]):
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--protocol", "full", "--out", str(tmp_path)])
        assert exc.value.code == 2
