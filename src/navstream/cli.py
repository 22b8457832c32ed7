"""Command-line entry point.

Exit codes: 0 success, 2 invalid input, 3 infeasible structure, 4 oracle
refusal.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import adapters, baselines, merge
from .costs import load_sizes, load_structure, save_sizes, save_structure, uniform_sizes
from .errors import (
    InfeasibleStructureError,
    InvalidInputError,
    NavstreamError,
    OracleRefusalError,
)
from .evaluate import Policy, evaluate
from .landmarks import PlannerParams, build_initial_structure, tsvq
from .oracle import simulate_sessions
from .refine import RefinerParams, greedy_refine, sweep
from .scenario import (
    Scenario,
    aggregate_switch_probabilities,
    build_lifetime_tail,
    load_scenario,
    save_scenario,
    validate_navigation_model,
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
        if args.t_max is not None:
            mu = args.mu if args.mu is not None else 0.5 * args.t_max
            t_max = args.t_max
        else:
            anchors = (args.rows + 1) * (args.cols + 1)
            mu, t_max = adapters.lifetime_defaults(anchors)
            if args.mu is not None:
                mu = args.mu
        lifetime = build_lifetime_tail(mu, t_max)
    else:  # viewport
        traj = adapters.TrajectoryLog.load(args.log)
        graph, nav = adapters.build_viewport_scenario(traj, args.n)
        sizes = uniform_sizes(graph.n, args.p_unit)
        lifetime = build_lifetime_tail(
            args.mu if args.mu is not None else 3.0,
            args.t_max if args.t_max is not None else 8,
        )
    scenario = Scenario(graph=graph, nav=nav, lifetime=lifetime)
    report = validate_navigation_model(graph, nav)
    if report:
        raise InvalidInputError("; ".join(report))
    save_scenario(scenario, args.out_scenario)
    save_sizes(sizes, args.out_sizes)
    print(f"scenario: {args.out_scenario} (n={graph.n}, start={graph.start})")
    print(f"sizes: {args.out_sizes}")
    return 0


def _cmd_eval(args) -> int:
    scenario = load_scenario(args.scenario)
    sizes = load_sizes(args.sizes)
    structure = load_structure(args.structure)
    result = evaluate(
        scenario, sizes, structure, args.buffer, args.weight_first_switch
    )
    print(f"expected_bits {result.expected_cost!r}")
    if args.policy_out:
        result.policy.save(args.policy_out)
        print(f"policy: {args.policy_out}")
    return 0


def _cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario)
    sizes = load_sizes(args.sizes)
    q = aggregate_switch_probabilities(
        scenario.graph, scenario.nav, scenario.lifetime
    )
    params = PlannerParams(
        w=args.lam / scenario.lifetime.mu, q=q, max_lloyd_iters=args.max_lloyd
    )
    parts = tsvq(scenario.graph, sizes, params)
    structure = build_initial_structure(parts, sizes)
    save_structure(structure, args.out)
    print(f"landmarks {len(parts)}")
    print(f"structure: {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    scenario = load_scenario(args.scenario)
    sizes = load_sizes(args.sizes)
    params = RefinerParams(
        lam=args.lam, buffer=args.buffer, enable_pruning=not args.no_prune
    )
    if args.init == "landmark":
        q = aggregate_switch_probabilities(
            scenario.graph, scenario.nav, scenario.lifetime
        )
        planner = PlannerParams(w=args.lam / scenario.lifetime.mu, q=q)
        initial = build_initial_structure(
            tsvq(scenario.graph, sizes, planner), sizes
        )
    else:
        from .costs import all_i_structure

        initial = all_i_structure(scenario.graph.n)
    final, log = greedy_refine(scenario, sizes, initial, params)
    save_structure(final, args.out)
    print(f"edges_added {len(log.steps)}")
    print(f"pruning_fraction {log.pruning_fraction:.3f}")
    print(f"structure: {args.out}")
    if args.log_out:
        with open(args.log_out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "steps": [
                        {"iteration": it, "edge": list(edge), "J": j}
                        for it, edge, j in log.steps
                    ],
                    "candidates_total": log.candidates_total,
                    "candidates_pruned": log.candidates_pruned,
                    "candidates_skipped": log.candidates_skipped,
                },
                fh,
                indent=1,
            )
    return 0


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    sizes = load_sizes(args.sizes)
    try:
        lambdas = [float(tok) for tok in args.lambdas.split(",") if tok]
    except ValueError as exc:
        raise InvalidInputError(f"malformed --lambdas: {exc}") from exc
    params = RefinerParams(
        lam=lambdas[0] if lambdas else 0.0,
        buffer=args.buffer,
        enable_pruning=not args.no_prune,
    )
    rows = sweep(scenario, sizes, lambdas, params)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["lambda", "storage_bits", "expected_bits", "landmarks", "p_edges"]
        )
        for row in rows:
            writer.writerow(
                [repr(row.lam), repr(row.storage_bits), repr(row.expected_bits),
                 row.landmarks, row.p_edges]
            )
    print(f"tradeoff: {args.out} ({len(rows)} rows)")
    return 0


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    sizes = load_sizes(args.sizes)
    structure = load_structure(args.structure)
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
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            for tr in result.traces:
                fh.write(
                    json.dumps(
                        {
                            "path": tr.path,
                            "lifetime": tr.lifetime,
                            "actions": [list(a) for a in tr.actions],
                            "bits": tr.bits,
                        }
                    )
                    + "\n"
                )
    return 0


def _cmd_merge_demo(args) -> int:
    try:
        with open(args.input, encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise InvalidInputError(f"cannot read {args.input}: {exc}") from exc
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


def _cmd_baseline(args) -> int:
    scenario = load_scenario(args.scenario)
    sizes = load_sizes(args.sizes)
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a scenario and size table")
    gsub = p.add_subparsers(dest="media", required=True)
    lf = gsub.add_parser("lf", help="light-field view-area grid")
    lf.add_argument("--rows", type=int, required=True)
    lf.add_argument("--cols", type=int, required=True)
    lf.add_argument("--sigma", type=float, default=0.5)
    lf.add_argument("--p-unit", type=float, default=1.0)
    lf.add_argument("--quad-samples", type=int, default=4)
    lf.add_argument("--mu", type=float, default=None)
    lf.add_argument("--t-max", type=int, default=None)
    lf.add_argument("--out-scenario", required=True)
    lf.add_argument("--out-sizes", required=True)
    lf.set_defaults(func=_cmd_gen)
    vp = gsub.add_parser("viewport", help="viewport chain from trajectories")
    vp.add_argument("--log", required=True)
    vp.add_argument("--n", type=int, required=True)
    vp.add_argument("--p-unit", type=float, default=1.0)
    vp.add_argument("--mu", type=float, default=None)
    vp.add_argument("--t-max", type=int, default=None)
    vp.add_argument("--out-scenario", required=True)
    vp.add_argument("--out-sizes", required=True)
    vp.set_defaults(func=_cmd_gen)

    p = sub.add_parser("eval", help="expected cost of a structure")
    p.add_argument("--scenario", required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--buffer", choices=["fixed", "flex"], required=True)
    p.add_argument("--weight-first-switch", action="store_true")
    p.add_argument("--policy-out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("plan", help="landmark partitioning")
    p.add_argument("--scenario", required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--max-lloyd", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("optimize", help="greedy refinement of a structure")
    p.add_argument("--scenario", required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--init", choices=["landmark", "all-i"], required=True)
    p.add_argument("--buffer", choices=["fixed", "flex"], default="flex")
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--log-out", default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="tradeoff curve over several lambdas")
    p.add_argument("--scenario", required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--lambdas", required=True, help="comma-separated values")
    p.add_argument("--buffer", choices=["fixed", "flex"], default="flex")
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="Monte-Carlo sessions under a policy")
    p.add_argument("--scenario", required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--sessions", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--consistency-mode", action="store_true")
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("merge-demo", help="per-row merge parameter selection")
    p.add_argument("input", help="CSV rows: target,v1,v2,...")
    p.set_defaults(func=_cmd_merge_demo)

    p = sub.add_parser("baseline", help="reference optimizers")
    p.add_argument("--scenario", required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--variant", choices=list(baselines.VARIANTS), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleStructureError as exc:
        print(f"infeasible structure: {exc}", file=sys.stderr)
        return 3
    except OracleRefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4
    except NavstreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
