"""Command-line entry point.

Exit codes: 0 success, 2 invalid input, 3 infeasible structure, 4 oracle
refusal.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import asdict

from . import adapters, baselines, merge
from .costs import (
    load_sizes,
    load_structure,
    save_structure,
    uniform_sizes,
    write_sizes,
)
from .errors import (
    InfeasibleStructureError,
    InvalidInputError,
    NavstreamError,
    OracleRefusalError,
    open_input,
    open_output,
    open_outputs,
)
from .evaluate import evaluate
from .policy import Policy
from .landmarks import PlannerParams, landmark_structure
from .oracle import simulate_sessions
from .refine import RefinerParams
from .scenario import (
    Scenario,
    build_lifetime_tail,
    load_scenario,
    validate_navigation_model,
    write_scenario,
)


def _cmd_gen(args) -> int:
    if args.media == "lf":
        spec = adapters.LfGridSpec(
            rows=args.rows,
            cols=args.cols,
            sigma=args.sigma,
            p_unit=args.p_unit,
            quad_samples=args.quad_samples,
        )
        graph, nav, sizes = adapters.build_lf_scenario(spec)
        anchors = (args.rows + 1) * (args.cols + 1)
        t_max = adapters.lifetime_defaults(anchors)[1] if args.t_max is None else args.t_max
        mu = 0.5 * t_max if args.mu is None else args.mu
    else:  # viewport
        traj = adapters.TrajectoryLog.load(args.log)
        graph, nav = adapters.build_viewport_scenario(traj, args.n)
        sizes = uniform_sizes(graph.n, args.p_unit)
        mu, t_max = args.mu, args.t_max
    scenario = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(mu, t_max))
    report = validate_navigation_model(graph, nav)
    if report:
        raise InvalidInputError("; ".join(report))
    outputs = ("scenario", args.out_scenario, None), ("sizes", args.out_sizes, "")
    with open_outputs(*outputs) as (scenario_fh, sizes_fh):
        write_scenario(scenario, scenario_fh)
        write_sizes(sizes, sizes_fh)
    print(f"scenario: {args.out_scenario} (n={graph.n}, start={graph.start})")
    print(f"sizes: {args.out_sizes}")
    return 0


def _load_inputs(args):
    """The --scenario and --sizes files, checked to cover the same MDUs;
    `main` passes them to every command that takes them."""
    scenario = load_scenario(args.scenario)
    sizes = load_sizes(args.sizes)
    if sizes.n != scenario.graph.n:
        raise InvalidInputError(
            f"size table {args.sizes} covers {sizes.n} MDUs, "
            f"scenario {args.scenario} has {scenario.graph.n}"
        )
    return scenario, sizes


def _checked_structure(args, scenario):
    """The --structure file, validated against the scenario's MDUs."""
    structure = load_structure(args.structure)
    problems = structure.validate(scenario.graph.n)
    if problems:
        raise InvalidInputError("; ".join(problems))
    return structure


def _cmd_eval(args, scenario, sizes) -> int:
    structure = _checked_structure(args, scenario)
    result = evaluate(
        scenario, sizes, structure, args.buffer, args.weight_first_switch
    )
    print(f"expected_bits {result.expected_cost!r}")
    if args.policy_out:
        result.policy.save(args.policy_out)
        print(f"policy: {args.policy_out}")
    return 0


def _cmd_plan(args, scenario, sizes) -> int:
    structure = landmark_structure(scenario, sizes, args.lam, args.max_lloyd)
    save_structure(structure, args.out)
    print(f"landmarks {len(structure.landmarks)}")
    print(f"structure: {args.out}")
    return 0


def _cmd_optimize(args, scenario, sizes) -> int:
    params = RefinerParams(
        lam=args.lam, buffer=args.buffer, enable_pruning=not args.no_prune
    )
    result = baselines.run_baseline(scenario, sizes, params, args.init)
    log = result.log
    save_structure(result.structure, args.out)
    print(f"edges_added {len(log.steps)}")
    print(f"pruning_fraction {log.pruning_fraction:.3f}")
    print(f"structure: {args.out}")
    if args.log_out:
        with open_output("log", args.log_out) as fh:
            json.dump(
                {
                    "steps": [
                        {"iteration": it, "edge": list(edge), "J": j}
                        for it, edge, j in log.steps
                    ],
                    "candidates_total": log.candidates_total,
                    "candidates_pruned": log.candidates_pruned,
                    "candidates_skipped": log.candidates_skipped,
                    "iterations": log.iterations,
                },
                fh,
                indent=1,
            )
    return 0


def _cmd_sweep(args, scenario, sizes) -> int:
    try:
        lambdas = [float(tok) for tok in args.lambdas.split(",") if tok]
    except ValueError as exc:
        raise InvalidInputError(f"malformed --lambdas: {exc}") from exc
    # `sweep` checks each lambda and sets lam per run
    params = RefinerParams(lam=0.0, buffer=args.buffer, enable_pruning=not args.no_prune)
    rows = baselines.sweep(scenario, sizes, lambdas, params)
    baselines.emit_tradeoff_csv([("landmark", row) for row in rows], args.out)
    print(f"tradeoff: {args.out} ({len(rows)} rows)")
    return 0


def _cmd_simulate(args, scenario, sizes) -> int:
    structure = _checked_structure(args, scenario)
    policy = Policy.load(args.policy)
    result = simulate_sessions(
        scenario,
        sizes,
        structure,
        policy,
        n_sessions=args.sessions,
        seed=args.seed,
        consistency_mode=args.consistency_mode,
    )
    print(f"mean_bits {result.mean!r}")
    print(f"stderr_bits {result.stderr!r}")
    if args.consistency_mode and policy.expected_cost is not None:
        # only consistency mode weighs switches as the DP does (`LifetimeModel`)
        gap = result.mean - policy.expected_cost
        print(f"z_vs_dp {gap / result.stderr if result.stderr else math.nan!r}")
    if args.trace_out:
        with open_output("trace", args.trace_out) as fh:
            for trace in result.traces:
                fh.write(json.dumps(asdict(trace)) + "\n")
    return 0


def _cmd_merge_demo(args) -> int:
    with open_input("merge rows", args.input, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    for row in rows:
        try:
            target = int(row[0])
            values = [int(tok) for tok in row[1:]]
        except ValueError as exc:
            raise InvalidInputError(f"malformed merge row {row}: {exc}") from exc
        if not values:
            raise InvalidInputError(f"merge row {row} has no values")
        params = merge.select_merge_params(values, target)
        ok = all(
            merge.pwc_eval(params, v) == target for v in values + [target]
        )
        print(f"{params.w_step},{params.shift!r},{'ok' if ok else 'FAIL'}")
    return 0


def _cmd_baseline(args, scenario, sizes) -> int:
    params = RefinerParams(lam=args.lam, buffer="flex")
    result = baselines.run_baseline(scenario, sizes, params, args.variant)
    print(f"variant {result.variant}")
    print(f"expected_bits {result.expected_cost!r}")
    print(f"storage_bits {result.storage_bits!r}")
    if args.out:
        save_structure(result.structure, args.out)
        print(f"structure: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navstream",
        description=(
            "Plan, refine, evaluate, and simulate stored MDU structures for "
            "navigational media streaming. Scenario files are JSON "
            "(n/start/neighbors/p_start/p_switch/lifetime); sizes are CSV "
            "kind,i,j,bits; structures are JSON i_set/p_edges/landmarks."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)  # every leaf command's options
    common.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log to stderr: -v at INFO (such as which cost inf-lm reports), "
        "-vv at DEBUG",
    )
    gen = argparse.ArgumentParser(add_help=False)  # both `gen` media
    gen.add_argument("--p-unit", type=float, default=1.0)
    gen.add_argument("--out-scenario", required=True)
    gen.add_argument("--out-sizes", required=True)
    inputs = argparse.ArgumentParser(add_help=False)  # loaded by `main`
    inputs.add_argument("--scenario", required=True)
    inputs.add_argument("--sizes", required=True)
    lam = argparse.ArgumentParser(add_help=False)
    lam.add_argument("--lambda", dest="lam", type=float, required=True)
    search = argparse.ArgumentParser(add_help=False)  # `optimize` and `sweep`
    search.add_argument("--buffer", choices=["fixed", "flex"], default="flex")
    search.add_argument("--no-prune", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a scenario and size table")
    gsub = p.add_subparsers(dest="media", required=True)
    lf = gsub.add_parser("lf", parents=[common, gen], help="light-field view-area grid")
    lf.add_argument("--rows", type=int, required=True)
    lf.add_argument("--cols", type=int, required=True)
    lf.add_argument("--sigma", type=float, default=0.5)
    lf.add_argument("--quad-samples", type=int, default=4)
    lf.add_argument("--mu", type=float, default=None)
    lf.add_argument("--t-max", type=int, default=None)
    lf.set_defaults(func=_cmd_gen)
    vp = gsub.add_parser(
        "viewport", parents=[common, gen], help="viewport chain from trajectories"
    )
    vp.add_argument("--log", required=True)
    vp.add_argument("--n", type=int, required=True)
    vp.add_argument("--mu", type=float, default=3.0)
    vp.add_argument("--t-max", type=int, default=8)
    vp.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "eval", parents=[common, inputs], help="expected cost of a structure"
    )
    p.add_argument("--structure", required=True)
    p.add_argument("--buffer", choices=["fixed", "flex"], required=True)
    p.add_argument("--weight-first-switch", action="store_true")
    p.add_argument("--policy-out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("plan", parents=[common, inputs, lam], help="landmark partitioning")
    p.add_argument("--max-lloyd", type=int, default=PlannerParams.max_lloyd_iters)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser(
        "optimize", parents=[common, inputs, lam, search],
        help="greedy refinement of a structure",
    )
    p.add_argument("--init", choices=["landmark", "all-i"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log-out", default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser(
        "sweep", parents=[common, inputs, search], help="tradeoff curve over several lambdas"
    )
    p.add_argument("--lambdas", required=True, help="comma-separated values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "simulate", parents=[common, inputs], help="Monte-Carlo sessions under a policy"
    )
    p.add_argument("--structure", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--sessions", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--consistency-mode", action="store_true")
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "merge-demo", parents=[common], help="per-row merge parameter selection"
    )
    p.add_argument("input", help="CSV rows: target,v1,v2,...")
    p.set_defaults(func=_cmd_merge_demo)

    p = sub.add_parser("baseline", parents=[common, inputs, lam], help="reference optimizers")
    p.add_argument("--variant", choices=list(baselines.VARIANTS), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_baseline)

    return parser


_EXIT_CODES = (  # (class, exit code, stderr prefix): the first class that matches
    (InfeasibleStructureError, 3, "infeasible structure"),
    (OracleRefusalError, 4, "refused"),
    (NavstreamError, 2, "error"),  # InvalidInputError among them
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    log = logging.getLogger("navstream")
    level, handler = log.level, logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    if args.verbose:
        log.setLevel(logging.INFO if args.verbose == 1 else logging.DEBUG)
        log.addHandler(handler)
    try:
        inputs = _load_inputs(args) if hasattr(args, "scenario") else ()
        return args.func(args, *inputs)
    except NavstreamError as exc:
        code, prefix = next((c, p) for cls, c, p in _EXIT_CODES if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
