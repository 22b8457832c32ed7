import csv
import json
import re
from functools import partial
from pathlib import Path

import pytest

from navstream import baselines
from navstream.cli import main
from navstream.costs import (
    Structure,
    grid_sizes,
    load_structure,
    save_sizes,
    save_structure,
    uniform_sizes,
)
from navstream.errors import (
    InfeasibleStructureError,
    InvalidInputError,
    OracleRefusalError,
)
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


def test_simulate_prints_z_against_the_dp_cost(lf_files, tmp_path, capsys):
    """In consistency mode `simulate` prints z of its mean against the cost
    the policy file records; default mode draws the lifetime another way and
    prints no z."""
    scenario, sizes = lf_files
    structure, policy = tmp_path / "structure.json", tmp_path / "policy.json"
    inputs = ["--scenario", str(scenario), "--sizes", str(sizes)]
    assert main(["plan", *inputs, "--lambda", "0.5", "--out", str(structure)]) == 0
    assert main([
        "eval", *inputs, "--structure", str(structure), "--buffer", "flex",
        "--policy-out", str(policy),
    ]) == 0
    capsys.readouterr()
    simulate = [
        "simulate", *inputs, "--structure", str(structure), "--policy", str(policy),
        "--sessions", "4000", "--seed", "3",
    ]
    assert main([*simulate, "--consistency-mode"]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    mean, stderr = float(out["mean_bits"]), float(out["stderr_bits"])
    z = float(out["z_vs_dp"])
    assert z == (mean - Policy.load(policy).expected_cost) / stderr
    assert abs(z) < 4
    assert main(simulate) == 0
    out = capsys.readouterr().out
    assert "mean_bits" in out and "z_vs_dp" not in out


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
        "steps", "candidates_total", "candidates_pruned", "candidates_skipped",
        "iterations",
    }
    assert len(log["iterations"]) == len(log["steps"]) + 1
    assert set(log["iterations"][0]) == {
        "phase", "iteration", "skipped", "pruned", "evaluated", "t_bound", "t_exact", "J"
    }

    sweep_out = tmp_path / "tradeoff.csv"
    assert main([
        "sweep", "--scenario", str(scenario), "--sizes", str(sizes),
        "--lambdas", "0.3,0.8", "--out", str(sweep_out),
    ]) == 0
    with open(sweep_out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["lambda"]) for r in rows] == [0.3, 0.8]
    assert [r["method"] for r in rows] == ["landmark", "landmark"]


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


METHOD_PINS = Path(__file__).with_name("method_pins.json")


def _method_outputs(scenario, sizes, tmp_path, capsys) -> dict:
    """Every method's output on LF 3x3, by run: `sweep`'s CSV text,
    `optimize`'s structure and `--log-out` JSON without its seconds, and
    `baseline`'s structure, each beside its stdout, `tmp_path` written <tmp>."""
    files = ["--scenario", str(scenario), "--sizes", str(sizes)]
    runs = {
        "sweep-flex": ["sweep", "--lambdas", "0.5,0.2,2"],
        "sweep-fixed-no-prune": [
            "sweep", "--lambdas", "0.5,0.2,2", "--buffer", "fixed", "--no-prune",
        ],
        **{
            f"optimize-{init}": [
                "optimize", "--lambda", "0.3", "--init", init,
                "--log-out", str(tmp_path / "log.json"),
            ]
            for init in ("landmark", "all-i")
        },
        **{
            f"baseline-{variant}": ["baseline", "--lambda", "0.5", "--variant", variant]
            for variant in baselines.VARIANTS
        },
    }
    outputs = {}
    for name, argv in runs.items():
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, *files, "--out", str(out)]) == 0
        outputs[name] = {
            "stdout": capsys.readouterr().out.replace(str(tmp_path), "<tmp>"),
            "out": out.read_text(),
        }
        if name.startswith("optimize"):
            log = json.loads((tmp_path / "log.json").read_text())
            for record in log["iterations"]:
                del record["t_bound"], record["t_exact"]
            outputs[name]["log"] = log
    return outputs


def test_method_outputs_pinned(lf_files, tmp_path, capsys):
    """`sweep`, `optimize` and `baseline` write, byte for byte, the outputs
    pinned in method_pins.json, whichever code builds their structures."""
    pins = json.loads(METHOD_PINS.read_text())
    assert _method_outputs(*lf_files, tmp_path, capsys) == pins


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


def test_baseline_verbose_names_the_cost_it_reports(lf_files, capsys, monkeypatch):
    scenario, sizes = lf_files
    argv = [
        "baseline", "--scenario", str(scenario), "--sizes", str(sizes),
        "--lambda", "0.5", "--variant", "inf-lm",
    ]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    cost = quiet.out.splitlines()[1].split()[1]

    assert main([*argv, "-v"]) == 0
    info = capsys.readouterr()
    assert info.out == quiet.out
    assert info.err == (
        f"INFO navstream.baselines: inf-lm cost: exact infinite-buffer cost {cost}\n"
    )

    assert main([*argv, "-vv"]) == 0
    debug = capsys.readouterr()
    assert debug.out == quiet.out
    assert "DEBUG navstream.baselines: infinite-buffer level 0: 1 states" in debug.err

    monkeypatch.setattr(
        baselines, "inf_buffer_cost", partial(baselines.inf_buffer_cost, max_states=2)
    )
    assert main([*argv, "--verbose"]) == 0
    est = capsys.readouterr()
    assert "inf-lm cost: Monte-Carlo estimate" in est.err
    assert est.err.count("\n") == 1
    assert main(argv) == 0
    assert capsys.readouterr().err == ""  # the handler is gone again


def test_forward_passes_log_under_vv(lf_files, tmp_path, capsys):
    scenario, sizes = lf_files
    files = ["--scenario", str(scenario), "--sizes", str(sizes)]
    out = ["--lambda", "0.5", "--out", str(tmp_path / "structure.json")]
    assert main(["plan", *files, *out, "-vv"]) == 0
    err = capsys.readouterr().err
    q_line = r"^DEBUG navstream\.scenario: q: \d+ pairs over 3 levels in "
    assert re.search(q_line, err, re.M)
    tsvq_line = r"^DEBUG navstream\.landmarks: tsvq: \d+ partitions, \d+ of \d+ Lloyd"
    assert re.search(tsvq_line, err, re.M)
    assert main(["optimize", *files, *out, "--init", "all-i", "-vv"]) == 0
    err = capsys.readouterr().err
    w_line = r"^DEBUG navstream\.refine\.weights: request weights: 41 pairs over 3 levels"
    assert re.search(w_line, err, re.M)


def test_simulate_rejects_malformed_policy(lf_files, tmp_path, capsys):
    scenario, sizes = lf_files
    structure, policy = tmp_path / "structure.json", tmp_path / "policy.json"
    save_structure(Structure(i_set=frozenset(range(9)), p_edges=frozenset()), structure)
    policy.write_text(json.dumps({
        "version": 2, "buffer": "flex", "weight_first_switch": "no",
        "actions": [], "keys": [], "index": [],
    }))
    assert main([
        "simulate", "--scenario", str(scenario), "--sizes", str(sizes),
        "--structure", str(structure), "--policy", str(policy), "--sessions", "10",
    ]) == 2
    assert "malformed policy" in capsys.readouterr().err


_KEY = [0, -1, 4, -2, 1]


@pytest.mark.parametrize("keys, actions, why", [
    (_KEY + _KEY, [["0hop", -2], ["0hop", 4]], "key (0, -1, 4, -2, 1) repeats"),
    (_KEY, [["0hop", -2], ["0hop", 2**64]], "['0hop', 18446744073709551616]"),
], ids=["repeated key", "action argument past int64"])
def test_simulate_rejects_a_malformed_array_policy(
    lf_files, tmp_path, capsys, keys, actions, why
):
    scenario, sizes = lf_files
    structure, policy = tmp_path / "structure.json", tmp_path / "policy.json"
    save_structure(Structure(i_set=frozenset(range(9)), p_edges=frozenset()), structure)
    policy.write_text(json.dumps({
        "version": 2, "buffer": "flex", "weight_first_switch": False,
        "actions": actions, "keys": keys, "index": list(range(len(keys) // 5)),
    }))
    assert main([
        "simulate", "--scenario", str(scenario), "--sizes", str(sizes),
        "--structure", str(structure), "--policy", str(policy), "--sessions", "10",
    ]) == 2
    assert f"malformed policy: {why}" in capsys.readouterr().err


def _v4_policy():
    """A version-4 flexible policy on LF 3x3: context (4, EMPTY, 1) with runs
    over t 0 and 2..3, and (4, EMPTY, 3) with one over t 0..1."""
    return {
        "version": 4, "buffer": "flex", "weight_first_switch": False,
        "structure": None, "expected_cost": None,
        "actions": [["0hop", -2], ["1hop", 4]],
        "keys": [4, -2, 1, 4, -2, 3], "offsets": [0, 2, 3],
        "t_first": [0, 2, 0], "t_last": [0, 3, 1], "index": [0, 1, 1],
    }


def _put(field, at, value):
    return lambda d: d[field].__setitem__(at, value)


_MALFORMED_V4 = {
    "unsorted contexts": _put("keys", slice(0, 6), [4, -2, 3, 4, -2, 1]),
    "repeated context": _put("keys", slice(3, 6), [4, -2, 1]),
    "overlapping runs": _put("t_first", 1, 0),
    "out-of-order runs": lambda d: d.update(t_first=[2, 0, 0], t_last=[3, 0, 1]),
    "t_first above t_last": _put("t_first", 2, 2),
    "negative t": _put("t_first", 0, -1),
    "action index past the actions": _put("index", 0, 2),
    "negative action index": _put("index", 0, -1),
    "t_last short": lambda d: d["t_last"].pop(),
    "index long": lambda d: d["index"].append(0),
    "keys short": lambda d: d["keys"].pop(),
    "offsets past the runs": _put("offsets", 2, 4),
    "offsets not from 0": _put("offsets", 0, 1),
    "context without runs": lambda d: d.update(offsets=[0, 0, 3]),
    "float t_first": _put("t_first", 1, 2.0),
    "boolean offset": _put("offsets", 0, False),
    "string key": _put("keys", 0, "4"),
    "t_last past int64": _put("t_last", 0, 2**63),
    "offsets not a list": lambda d: d.update(offsets={}),
    "no t_last": lambda d: d.pop("t_last"),
}


@pytest.mark.parametrize("case", _MALFORMED_V4)
def test_malformed_version_4_policy_is_refused(case, lf_files, tmp_path, capsys):
    scenario, sizes = lf_files
    structure, policy = tmp_path / "structure.json", tmp_path / "policy.json"
    save_structure(Structure(i_set=frozenset(range(9)), p_edges=frozenset()), structure)
    data = _v4_policy()
    assert len(Policy.from_dict(data).actions) == 5  # the unbroken policy loads
    _MALFORMED_V4[case](data)
    with pytest.raises(InvalidInputError, match="^malformed policy: "):
        Policy.from_dict(data)
    policy.write_text(json.dumps(data))
    assert main([
        "simulate", "--scenario", str(scenario), "--sizes", str(sizes),
        "--structure", str(structure), "--policy", str(policy), "--sessions", "10",
    ]) == 2
    assert "malformed policy" in capsys.readouterr().err


def test_simulate_refuses_a_policy_over_an_unstored_edge(tmp_path, capsys):
    """A policy built for a richer structure predicts over a P-edge that the
    simulated landmark structure does not store."""
    scenario, sizes = str(tmp_path / "sc.json"), str(tmp_path / "sz.csv")
    landmark, richer = str(tmp_path / "lm.json"), str(tmp_path / "ref.json")
    policy = str(tmp_path / "pol.json")
    assert main([
        "gen", "lf", "--rows", "2", "--cols", "3", "--mu", "1.0", "--t-max", "2",
        "--out-scenario", scenario, "--out-sizes", sizes,
    ]) == 0
    files = ["--scenario", scenario, "--sizes", sizes]
    assert main(["plan", *files, "--lambda", "0.5", "--out", landmark]) == 0
    assert main([
        "optimize", *files, "--lambda", "0.05", "--init", "landmark", "--out", richer,
    ]) == 0
    assert main([
        "eval", *files, "--structure", richer, "--buffer", "flex", "--policy-out", policy,
    ]) == 0
    capsys.readouterr()
    rc = main([
        "simulate", *files, "--structure", landmark, "--policy", policy,
        "--sessions", "100",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "policy at state (1, 4, 5, 4, 4) predicts over P-edge (5, 4)" in err


def test_simulate_refuses_a_policy_built_for_another_structure(tmp_path, capsys):
    """The λ 0.5 landmark structure's policy, simulated on the λ 0.05 refined
    structure, which stores every edge it uses, so no state has a gap: this
    once printed the policy's mean as that structure's cost, with exit 0."""
    scenario, sizes = str(tmp_path / "sc.json"), str(tmp_path / "sz.csv")
    landmark, richer = str(tmp_path / "lm.json"), str(tmp_path / "ref.json")
    policy = str(tmp_path / "pol.json")
    assert main([
        "gen", "lf", "--rows", "2", "--cols", "3", "--mu", "1.0", "--t-max", "2",
        "--out-scenario", scenario, "--out-sizes", sizes,
    ]) == 0
    files = ["--scenario", scenario, "--sizes", sizes]
    assert main(["plan", *files, "--lambda", "0.5", "--out", landmark]) == 0
    assert main([
        "optimize", *files, "--lambda", "0.05", "--init", "landmark", "--out", richer,
    ]) == 0
    assert main([
        "eval", *files, "--structure", landmark, "--buffer", "flex",
        "--policy-out", policy,
    ]) == 0
    capsys.readouterr()
    simulate = ["simulate", *files, "--policy", policy, "--sessions", "100"]
    assert main([*simulate, "--structure", landmark]) == 0
    assert main([*simulate, "--structure", richer]) == 2
    err = capsys.readouterr().err
    built_for = json.loads(Path(policy).read_text())["structure"]
    assert f"I-MDUs {built_for['i_set']}" in err
    assert "not for the simulated one" in err


def test_simulate_refuses_a_negative_seed(tmp_path, capsys):
    """A negative seed is invalid input (exit 2), not numpy's ValueError;
    seed 0 still simulates."""
    scenario, sizes = str(tmp_path / "sc.json"), str(tmp_path / "sz.csv")
    structure, policy = str(tmp_path / "lm.json"), str(tmp_path / "pol.json")
    assert main([
        "gen", "lf", "--rows", "2", "--cols", "3", "--mu", "1.0", "--t-max", "2",
        "--out-scenario", scenario, "--out-sizes", sizes,
    ]) == 0
    files = ["--scenario", scenario, "--sizes", sizes]
    assert main(["plan", *files, "--lambda", "0.5", "--out", structure]) == 0
    assert main([
        "eval", *files, "--structure", structure, "--buffer", "flex",
        "--policy-out", policy,
    ]) == 0
    capsys.readouterr()
    simulate = [
        "simulate", *files, "--structure", structure, "--policy", policy,
        "--sessions", "100",
    ]
    assert main([*simulate, "--seed", "-1"]) == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert main([*simulate, "--seed", "0"]) == 0


def test_plan_refuses_negative_max_lloyd(lf_files, tmp_path, capsys):
    """--max-lloyd -1 once ran zero Lloyd iterations with exit 0; 0 keeps
    its meaning, the furthest-point split alone."""
    scenario, sizes = lf_files
    plan = ["plan", "--scenario", str(scenario), "--sizes", str(sizes), "--lambda", "0.5"]
    out = tmp_path / "bad.json"
    assert main([*plan, "--max-lloyd", "-1", "--out", str(out)]) == 2
    assert "max Lloyd iterations must be a non-negative integer, got -1" in (
        capsys.readouterr().err
    )
    assert not out.exists()
    assert main([*plan, "--max-lloyd", "0", "--out", str(tmp_path / "zero.json")]) == 0
    assert load_structure(tmp_path / "zero.json").landmarks is not None


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


@pytest.mark.parametrize("kind", ["scenario", "sizes", "structure", "merge-demo"])
def test_utf16_input_file_exits_2(lf_files, tmp_path, capsys, kind):
    scenario, sizes = lf_files
    structure = tmp_path / "all_i.json"
    save_structure(Structure(i_set=frozenset(range(9)), p_edges=frozenset()), structure)
    rows = tmp_path / "rows.csv"
    rows.write_text("10,9,11\n")
    path = {"scenario": scenario, "sizes": sizes, "structure": structure}.get(kind, rows)
    path.write_bytes(path.read_text().encode("utf-16"))  # starts with ff fe
    assert path.read_bytes()[:2] == b"\xff\xfe"
    argv = [
        "eval", "--scenario", str(scenario), "--sizes", str(sizes),
        "--structure", str(structure), "--buffer", "fixed",
    ]
    rc = main(["merge-demo", str(rows)] if kind == "merge-demo" else argv)
    assert rc == 2
    what = rows if kind == "merge-demo" else kind
    assert f"cannot read {what}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        ("p01-negative", "bad P size for pair (0, 1): -1.0"),
        ("negative-index", "negative MDU index"),
        ("repeated-row", "repeated sizes row"),
        ("short-row", "malformed sizes CSV"),
        ("unknown-kind", "unknown size kind 'X'"),
        ("bits-not-a-number", "malformed sizes row"),
        ("incomplete-large-index", "1 rows, but a complete table up to MDU 4000"),
    ],
    ids=[
        "p01-negative", "negative-index", "repeated-row", "short-row",
        "unknown-kind", "bits-not-a-number", "incomplete-large-index",
    ],
)
def test_bad_sizes_csv_exits_2(lf_files, tmp_path, capsys, edit, message):
    scenario, sizes = lf_files
    lines = sizes.read_text().splitlines()
    if edit == "p01-negative":
        lines = ["P,0,1,-1.0" if line.startswith("P,0,1,") else line for line in lines]
    elif edit == "negative-index":
        lines += ["I,-1,,7.0", "P,0,-1,9.0"]
    elif edit == "repeated-row":
        lines.append(lines[1])  # the first I row again, same value
    elif edit == "short-row":
        lines.append("I,0")  # no j and no bits
    elif edit == "unknown-kind":
        lines.append("X,0,,7.0")
    elif edit == "incomplete-large-index":
        lines = [lines[0], "I,4000,,11"]  # would need a 4001 x 4001 P table
    else:
        lines[1] = "I,0,,eleven"
    sizes.write_text("\n".join(lines) + "\n")
    structure = tmp_path / "all_i.json"
    save_structure(Structure(i_set=frozenset(range(9)), p_edges=frozenset()), structure)
    rc = main([
        "eval", "--scenario", str(scenario), "--sizes", str(sizes),
        "--structure", str(structure), "--buffer", "flex",
    ])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "breakage, message",
    [
        ("half_rows", "sums to 0.5"),
        ("start_off_graph", "names 4, not a neighbor of start 4"),
        ("prob_above_one", "p_switch(0,1,0) = 1.5 outside [0, 1]"),
        ("switch_index_off_graph", "p_switch index out of range: (99, 4, 0)"),
        ("repeated_neighbour", "MDU 4 lists neighbour 0 twice"),
        ("repeated_triple", "repeated p_switch triple (0, 1, 0)"),
        ("fractional_start", "expected an integer, got 4.7"),
        ("string_probability", "expected a number, got '1.0'"),
        ("repeated_start_target", "repeated p_start target 0"),
        ("nan_mu", "mu must be positive, got nan"),
    ],
)
def test_broken_navigation_model_exits_2(lf_files, tmp_path, capsys, breakage, message):
    scenario, sizes = lf_files
    data = json.loads(scenario.read_text())
    if breakage == "half_rows":
        data["p_switch"] = [[k, i, j, 0.5 * p] for k, i, j, p in data["p_switch"]]
    elif breakage == "start_off_graph":
        data["p_start"] = [[4, 1.0]]  # the start MDU is no neighbour of itself
    elif breakage == "prob_above_one":
        data["p_switch"][0][3] = 1.5  # the first triple, (0, 1, 0)
    elif breakage == "switch_index_off_graph":
        data["p_switch"].append([99, 4, 0, 0.0])
    elif breakage == "repeated_neighbour":
        data["neighbors"][4].append(0)  # listed first already
    elif breakage == "repeated_triple":
        data["p_switch"].append(data["p_switch"][0])  # same value
    elif breakage == "fractional_start":
        data["start"] = 4.7
    elif breakage == "string_probability":
        data["p_switch"][0][3] = "1.0"
    elif breakage == "repeated_start_target":
        data["p_start"].append(data["p_start"][0])  # target 0, same value
    else:
        data["lifetime"]["mu"] = float("nan")  # json writes NaN
    scenario.write_text(json.dumps(data))
    structure = tmp_path / "all_i.json"
    save_structure(Structure(i_set=frozenset(range(9)), p_edges=frozenset()), structure)
    rc = main([
        "eval", "--scenario", str(scenario), "--sizes", str(sizes),
        "--structure", str(structure), "--buffer", "flex",
    ])
    assert rc == 2
    assert message in capsys.readouterr().err


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

    monkeypatch.setattr("navstream.baselines.greedy_search", infeasible)
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


@pytest.mark.parametrize("lambdas, bad", [
    ("--lambdas=inf", "inf"),
    ("--lambdas=2,inf", "inf"),
    ("--lambdas=-1", "-1.0"),
    ("--lambdas=0.5,nan", "nan"),
])
def test_sweep_checks_every_lambda_before_any_search(
    lf_files, tmp_path, capsys, monkeypatch, lambdas, bad
):
    def searched(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr("navstream.baselines.run_baseline", searched)
    scenario, sizes = lf_files
    out = tmp_path / "tradeoff.csv"
    rc = main([
        "sweep", "--scenario", str(scenario), "--sizes", str(sizes),
        lambdas, "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: sweep failed at lambda={bad}: lambda must be finite and non-negative" in err
    assert not out.exists()


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


def _files_for_every_command(tmp_path, scenario, sizes):
    """argv of each subcommand that reads --scenario and --sizes, with a valid
    all-I structure and its flexible policy where the command reads them."""
    structure, policy = tmp_path / "all_i.json", tmp_path / "policy.json"
    n = load_scenario(scenario).graph.n
    save_structure(Structure(i_set=frozenset(range(n)), p_edges=frozenset()), structure)
    files = ["--scenario", str(scenario), "--sizes", str(sizes)]
    assert main([
        "eval", *files, "--structure", str(structure), "--buffer", "flex",
        "--policy-out", str(policy),
    ]) == 0
    out = ["--out", str(tmp_path / "out")]
    return {
        "eval": ["eval", "--structure", str(structure), "--buffer", "flex"],
        "plan": ["plan", "--lambda", "0.5", *out],
        "optimize": ["optimize", "--lambda", "0.5", "--init", "landmark", *out],
        "sweep": ["sweep", "--lambdas", "0.5", *out],
        "simulate": [
            "simulate", "--structure", str(structure), "--policy", str(policy),
            "--sessions", "10",
        ],
        "baseline": ["baseline", "--lambda", "0.5", "--variant", "inf-lm"],
    }


_OUTPUT_FLAGS = [
    ("gen", "--out-scenario", "scenario"),
    ("gen", "--out-sizes", "sizes"),
    ("eval", "--policy-out", "policy"),
    ("plan", "--out", "structure"),
    ("optimize", "--out", "structure"),
    ("optimize", "--log-out", "log"),
    ("sweep", "--out", "tradeoff"),
    ("simulate", "--trace-out", "trace"),
    ("baseline", "--out", "structure"),
]


@pytest.mark.parametrize(
    "command, flag, what", _OUTPUT_FLAGS, ids=[f"{c} {f}" for c, f, _ in _OUTPUT_FLAGS]
)
def test_unwritable_output_exits_2(lf_files, tmp_path, capsys, command, flag, what):
    scenario, sizes = lf_files
    if command == "gen":
        argv = [
            "gen", "lf", "--rows", "2", "--cols", "2",
            "--out-scenario", str(tmp_path / "s.json"),
            "--out-sizes", str(tmp_path / "z.csv"),
        ]
    else:
        argv = _files_for_every_command(tmp_path, scenario, sizes)[command]
        argv += ["--scenario", str(scenario), "--sizes", str(sizes)]
    bad = tmp_path / "missing" / "out"
    capsys.readouterr()
    assert main([*argv, flag, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {what} {bad}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("sizes_path", ["missing/out", "z.csv"])
def test_gen_writes_neither_output_when_one_cannot_be_written(
    tmp_path, capsys, sizes_path
):
    scenario, sizes = tmp_path / "s.json", tmp_path / "z.csv"
    if sizes_path == "z.csv":
        sizes.mkdir()  # a directory is refused before anything is renamed
    (tmp_path / "s.json.tmp").write_text("kept")
    argv = ["gen", "lf", "--rows", "2", "--cols", "2", "--out-scenario", str(scenario)]
    assert main([*argv, "--out-sizes", str(tmp_path / sizes_path)]) == 2
    assert "cannot write sizes" in capsys.readouterr().err
    left = sorted(p.name for p in tmp_path.iterdir() if p.is_file())
    assert left == ["s.json.tmp"] and (tmp_path / "s.json.tmp").read_text() == "kept"
    if sizes_path == "z.csv":
        sizes.rmdir()  # it is still empty
    assert main([*argv, "--out-sizes", str(sizes)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json", "s.json.tmp", "z.csv"]


@pytest.mark.parametrize("table", ["2 MDUs", "LF 2x3"])
@pytest.mark.parametrize(
    "command", ["eval", "plan", "optimize", "sweep", "simulate", "baseline"]
)
def test_sizes_must_cover_the_scenarios_mdus(tmp_path, capsys, command, table):
    scenario, sizes = tmp_path / "scenario.json", tmp_path / "sizes.csv"
    assert main([
        "gen", "lf", "--rows", "2", "--cols", "2", "--mu", "1.0", "--t-max", "2",
        "--out-scenario", str(scenario), "--out-sizes", str(sizes),
    ]) == 0
    argv = _files_for_every_command(tmp_path, scenario, sizes)[command]
    wrong = tmp_path / "wrong.csv"
    save_sizes(uniform_sizes(2) if table == "2 MDUs" else grid_sizes(2, 3), wrong)
    capsys.readouterr()
    rc = main([*argv, "--scenario", str(scenario), "--sizes", str(wrong)])
    assert rc == 2
    n = 2 if table == "2 MDUs" else 6
    assert f"covers {n} MDUs, scenario {scenario} has 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        ({"i_set": [*range(9), 99], "p_edges": []}, "I-MDU 99 is outside [0, 9)"),
        ({"i_set": [*range(9)], "p_edges": [[-1, 0]]}, "P-edge (-1, 0) is outside [0, 9)"),
        (5, "structure file must hold a JSON object"),
        (None, "structure file must hold a JSON object"),
        (
            {
                "i_set": [*range(8)],
                "p_edges": [[8, j] for j in range(8)],
                "landmarks": [{"l": 8, "members": [*range(9)]}],
            },
            "landmark 8 has no stored I-MDU",
        ),
        (
            {
                "i_set": [*range(9)],
                "p_edges": [[0, j] for j in range(1, 9)] + [[1, 0]],
                "landmarks": [{"l": 0, "members": [*range(9)]}, {"l": 1, "members": [1]}],
            },
            "landmark partitions overlap",
        ),
        (
            {
                "i_set": [*range(9)],
                "p_edges": [[0, j] for j in range(1, 8)],
                "landmarks": [{"l": 0, "members": [*range(8)]}],
            },
            "landmark partitions do not cover all MDUs",
        ),
        (
            {
                "i_set": [*range(9)],
                "p_edges": [[0, j] for j in range(1, 8)],
                "landmarks": [{"l": 0, "members": [*range(9)]}],
            },
            "landmark P-edges missing from p_edges",
        ),
        (
            {"i_set": [*range(9)], "p_edges": [], "landmarks": [{"l": 5, "members": [0, 1]}]},
            "landmark 5 is not in its group",
        ),
        (
            {"i_set": [*range(9)], "p_edges": [], "landmarks": [{"l": 0, "members": []}]},
            "landmark 0 is not in its group",
        ),
        ({"i_set": [*range(9), 4.9], "p_edges": []}, "expected an integer, got 4.9"),
        ({"i_set": [*range(9)], "p_edges": [[4, 0.2]]}, "expected an integer, got 0.2"),
        ({"i_set": [*range(9), True], "p_edges": []}, "expected an integer, got True"),
        ({"i_set": [*range(9), "0"], "p_edges": []}, "expected an integer, got '0'"),
    ],
    ids=[
        "i_set-99", "p_edge-minus-1", "number", "null",
        "landmark-without-I", "groups-overlap", "groups-miss-an-MDU",
        "landmark-edge-missing", "landmark-not-a-member", "empty-group",
        "i_set-float", "p_edge-float", "i_set-bool", "i_set-string",
    ],
)
@pytest.mark.parametrize("command", ["eval", "simulate"])
def test_bad_structure_exits_2(lf_files, tmp_path, capsys, command, content, message):
    scenario, sizes = lf_files
    argv = _files_for_every_command(tmp_path, scenario, sizes)[command]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    capsys.readouterr()
    files = ["--scenario", str(scenario), "--sizes", str(sizes)]
    rc = main([*argv, *files, "--structure", str(bad)])  # the last --structure wins
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "writer",
    [
        ["plan", "--lambda", "0.5"],
        ["optimize", "--lambda", "0.3", "--init", "landmark"],
        ["baseline", "--lambda", "0.5", "--variant", "flex-lm-i"],
        ["baseline", "--lambda", "0.5", "--variant", "inf-lm"],
    ],
    ids=["plan", "optimize", "baseline-flex-lm-i", "baseline-inf-lm"],
)
def test_written_structures_load_in_eval(lf_files, tmp_path, writer):
    scenario, sizes = lf_files
    files = ["--scenario", str(scenario), "--sizes", str(sizes)]
    structure = tmp_path / "structure.json"
    assert main([*writer, *files, "--out", str(structure)]) == 0
    assert main([
        "eval", *files, "--structure", str(structure), "--buffer", "flex",
    ]) == 0
