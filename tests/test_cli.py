import csv
import json

import pytest

from navstream.cli import main
from navstream.costs import load_structure, save_structure, Structure
from navstream.errors import InfeasibleStructureError, OracleRefusalError
from navstream.evaluate import Policy
from navstream.scenario import load_scenario


@pytest.fixture
def lf_files(tmp_path):
    scenario = tmp_path / "scenario.json"
    sizes = tmp_path / "sizes.csv"
    rc = main([
        "gen", "lf", "--rows", "3", "--cols", "3",
        "--mu", "1.0", "--t-max", "2",
        "--out-scenario", str(scenario), "--out-sizes", str(sizes),
    ])
    assert rc == 0
    return scenario, sizes


def test_gen_lf_writes_valid_files(lf_files):
    scenario, sizes = lf_files
    sc = load_scenario(scenario)
    assert sc.graph.n == 9
    assert sc.graph.start == 4
    assert sc.lifetime.t_max == 2


def test_gen_lf_default_lifetime(tmp_path, capsys):
    rc = main([
        "gen", "lf", "--rows", "3", "--cols", "3",
        "--out-scenario", str(tmp_path / "s.json"),
        "--out-sizes", str(tmp_path / "z.csv"),
    ])
    assert rc == 0
    sc = load_scenario(tmp_path / "s.json")
    assert sc.lifetime.t_max == 16 // 3  # (rows+1)*(cols+1) anchors
    assert sc.lifetime.mu == pytest.approx(0.5 * sc.lifetime.t_max)


def test_gen_viewport_flow(tmp_path):
    log = tmp_path / "traj.txt"
    log.write_text("0 1 2 1\n1 2 1 0\n0 1 0\n2 1 2\n")
    rc = main([
        "gen", "viewport", "--log", str(log), "--n", "3",
        "--out-scenario", str(tmp_path / "s.json"),
        "--out-sizes", str(tmp_path / "z.csv"),
    ])
    assert rc == 0
    sc = load_scenario(tmp_path / "s.json")
    assert sc.graph.n == 3
    assert sc.lifetime.t_max == 8  # viewport defaults


@pytest.mark.parametrize("p_unit", ["-1", "0"])
def test_gen_viewport_rejects_nonpositive_p_unit(tmp_path, p_unit):
    log = tmp_path / "traj.txt"
    log.write_text("0 1 2 1\n1 2 1 0\n")
    rc = main([
        "gen", "viewport", "--log", str(log), "--n", "3", "--p-unit", p_unit,
        "--out-scenario", str(tmp_path / "s.json"),
        "--out-sizes", str(tmp_path / "z.csv"),
    ])
    assert rc == 2
    assert not (tmp_path / "z.csv").exists()


def test_plan_eval_simulate_round_trip(lf_files, tmp_path, capsys):
    scenario, sizes = lf_files
    structure = tmp_path / "structure.json"
    assert main([
        "plan", "--scenario", str(scenario), "--sizes", str(sizes),
        "--lambda", "0.5", "--out", str(structure),
    ]) == 0
    st = load_structure(structure)
    assert st.landmarks is not None

    policy = tmp_path / "policy.json"
    assert main([
        "eval", "--scenario", str(scenario), "--sizes", str(sizes),
        "--structure", str(structure), "--buffer", "flex",
        "--policy-out", str(policy),
    ]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("expected_bits")][0]
    expected = float(line.split()[1])
    assert expected > 0
    assert Policy.load(policy).buffer == "flex"

    trace = tmp_path / "trace.jsonl"
    assert main([
        "simulate", "--scenario", str(scenario), "--sizes", str(sizes),
        "--structure", str(structure), "--policy", str(policy),
        "--sessions", "5000", "--seed", "1", "--consistency-mode",
        "--trace-out", str(trace),
    ]) == 0
    out = capsys.readouterr().out
    mean = float([l for l in out.splitlines() if l.startswith("mean_bits")][0].split()[1])
    stderr = float([l for l in out.splitlines() if l.startswith("stderr_bits")][0].split()[1])
    assert abs(mean - expected) < 6 * stderr
    traces = [json.loads(l) for l in trace.read_text().splitlines()]
    assert 0 < len(traces) <= 10
    assert all(t["path"][0] == 4 for t in traces)


def test_optimize_and_sweep(lf_files, tmp_path, capsys):
    scenario, sizes = lf_files
    out = tmp_path / "refined.json"
    log_out = tmp_path / "log.json"
    assert main([
        "optimize", "--scenario", str(scenario), "--sizes", str(sizes),
        "--lambda", "0.3", "--init", "landmark",
        "--out", str(out), "--log-out", str(log_out),
    ]) == 0
    st = load_structure(out)
    assert st.validate(9) == []
    log = json.loads(log_out.read_text())
    assert set(log) == {
        "steps", "candidates_total", "candidates_pruned", "candidates_skipped"
    }

    sweep_out = tmp_path / "tradeoff.csv"
    assert main([
        "sweep", "--scenario", str(scenario), "--sizes", str(sizes),
        "--lambdas", "0.3,0.8", "--out", str(sweep_out),
    ]) == 0
    with open(sweep_out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["lambda"]) for r in rows] == [0.3, 0.8]


def test_optimize_all_i_init(lf_files, tmp_path):
    scenario, sizes = lf_files
    out = tmp_path / "refined.json"
    assert main([
        "optimize", "--scenario", str(scenario), "--sizes", str(sizes),
        "--lambda", "0.3", "--init", "all-i", "--buffer", "fixed",
        "--no-prune", "--out", str(out),
    ]) == 0
    st = load_structure(out)
    assert st.i_set == frozenset(range(9))


def test_baseline_command(lf_files, tmp_path, capsys):
    scenario, sizes = lf_files
    out = tmp_path / "baseline.json"
    assert main([
        "baseline", "--scenario", str(scenario), "--sizes", str(sizes),
        "--lambda", "0.5", "--variant", "inf-lm", "--out", str(out),
    ]) == 0
    text = capsys.readouterr().out
    assert "variant inf-lm" in text
    assert load_structure(out).validate(9) == []


def test_merge_demo(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text("10,9,11\n7,5\n")
    assert main(["merge-demo", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("3,") and lines[0].endswith(",ok")
    assert lines[1].startswith("4,") and lines[1].endswith(",ok")


def test_exit_code_invalid_input(tmp_path, capsys):
    bad = tmp_path / "scenario.json"
    bad.write_text("{not json")
    rc = main([
        "eval", "--scenario", str(bad), "--sizes", str(bad),
        "--structure", str(bad), "--buffer", "flex",
    ])
    assert rc == 2


def test_exit_code_infeasible_structure(lf_files, tmp_path):
    scenario, sizes = lf_files
    broken = tmp_path / "broken.json"
    save_structure(Structure(i_set=frozenset({0}), p_edges=frozenset()), broken)
    rc = main([
        "eval", "--scenario", str(scenario), "--sizes", str(sizes),
        "--structure", str(broken), "--buffer", "flex",
    ])
    assert rc == 3


def test_exit_code_oracle_refusal(monkeypatch, tmp_path):
    def refuse(path):
        raise OracleRefusalError("nope")

    monkeypatch.setattr("navstream.cli.load_scenario", refuse)
    rc = main([
        "eval", "--scenario", "x", "--sizes", "y",
        "--structure", "z", "--buffer", "flex",
    ])
    assert rc == 4


def test_sweep_keeps_infeasible_exit_code(lf_files, tmp_path, monkeypatch):
    def infeasible(*args, **kwargs):
        raise InfeasibleStructureError("MDU 0 has no independent reconstruction")

    monkeypatch.setattr("navstream.refine.greedy_refine", infeasible)
    scenario, sizes = lf_files
    rc = main([
        "sweep", "--scenario", str(scenario), "--sizes", str(sizes),
        "--lambdas", "0.5", "--out", str(tmp_path / "tradeoff.csv"),
    ])
    assert rc == 3


def test_sweep_rejects_malformed_lambdas(lf_files, tmp_path):
    scenario, sizes = lf_files
    rc = main([
        "sweep", "--scenario", str(scenario), "--sizes", str(sizes),
        "--lambdas", "0.5,abc", "--out", str(tmp_path / "tradeoff.csv"),
    ])
    assert rc == 2


def test_optimize_rejects_nan_lambda(lf_files, tmp_path, capsys):
    scenario, sizes = lf_files
    rc = main([
        "optimize", "--scenario", str(scenario), "--sizes", str(sizes),
        "--lambda", "nan", "--init", "landmark", "--out", str(tmp_path / "o.json"),
    ])
    assert rc == 2
    assert "lambda must be finite" in capsys.readouterr().err


def test_gen_rejects_bad_trajectory(tmp_path):
    log = tmp_path / "traj.txt"
    log.write_text("0 nine\n")
    rc = main([
        "gen", "viewport", "--log", str(log), "--n", "3",
        "--out-scenario", str(tmp_path / "s.json"),
        "--out-sizes", str(tmp_path / "z.csv"),
    ])
    assert rc == 2
