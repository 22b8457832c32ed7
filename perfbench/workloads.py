"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload calls navstream's public library functions in the order the
CLI subcommands make them (gen -> plan -> optimize / baseline -> eval ->
simulate).  The seed draws every input and nothing else: a jitter on the
light-field P-size table, the Monte-Carlo seed of the simulator and the
360-degree trajectory log.  navstream itself only sees the generated inputs.

The jitter is one factor per grid distance, not one per pair.  The grid
size table has many exact ties, and the refiner and TSVQ sit close to their
decision thresholds on it; breaking the ties at random changed the number
of greedy steps and landmarks (and so the run time) from seed to seed,
which would make the timings measure the seed, not the code.

A pass records its phases through ``rec.span(name)``; ``rec`` is either a
plain phase timer or the tracer of ``trace.py``.  navstream callees are used
through this module's globals so the tracer can rebind them here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from navstream import (
    LfGridSpec,
    Policy,
    RefinerParams,
    Scenario,
    SizeTable,
    TrajectoryLog,
    aggregate_switch_probabilities,
    build_initial_structure,
    build_lf_scenario,
    build_lifetime_tail,
    build_viewport_scenario,
    eval_fixed,
    eval_flexible,
    greedy_refine,
    lifetime_defaults,
    run_baseline,
    storage_cost,
    tsvq,
    validate_navigation_model,
)
from navstream.errors import InfeasibleStructureError
from navstream.evaluate import CostTables
from navstream.landmarks import PlannerParams
from navstream.oracle import simulate_sessions

JITTER = 0.03
REL_TOL = 1e-9
Z_LIMIT = 4.0
LF_VARIANTS = ("flex-ga", "fixed-ga", "flex-lm-i")


# --- inputs ----------------------------------------------------------------

def _jittered_lf(rows, cols, mu, t_max, rng):
    """LF scenario whose P sizes are scaled by one random factor per grid
    distance, so pairs at equal distance keep equal sizes."""
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=rows, cols=cols))
    r, c = np.divmod(np.arange(rows * cols), cols)
    dist = np.maximum(abs(r[:, None] - r[None, :]), abs(c[:, None] - c[None, :]))
    factor = 1.0 + JITTER * rng.uniform(-1.0, 1.0, max(rows, cols))
    sizes = SizeTable(sizes.i_size, sizes.m_size, sizes.p_size * factor[dist])
    lifetime = build_lifetime_tail(mu, t_max)
    return Scenario(graph=graph, nav=nav, lifetime=lifetime), sizes


def _random_walks(rng, tile_rows, tile_cols, sessions, steps):
    """Viewport trajectories on a latitude x longitude tile grid.

    Each step keeps the previous head motion with probability 0.7, else
    draws one of the nine moves (including staying put); latitude clamps at
    the poles and longitude wraps around.
    """
    moves = np.array([(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)])
    r = rng.integers(0, tile_rows, sessions)
    c = rng.integers(0, tile_cols, sessions)
    move = rng.integers(0, len(moves), sessions)
    out = np.empty((sessions, steps), dtype=np.int64)
    out[:, 0] = r * tile_cols + c
    for s in range(1, steps):
        redraw = rng.random(sessions) >= 0.7
        move = np.where(redraw, rng.integers(0, len(moves), sessions), move)
        r = np.clip(r + moves[move, 0], 0, tile_rows - 1)
        c = (c + moves[move, 1]) % tile_cols
        out[:, s] = r * tile_cols + c
    return TrajectoryLog(sessions=out.tolist())


def _uniform_sizes(n):
    """The sizes ``navstream gen viewport`` writes: I 11, M 3.5, P 1."""
    p = np.full((n, n), 1.0)
    np.fill_diagonal(p, np.nan)
    return SizeTable(np.full(n, 11.0), np.full(n, 3.5), p)


# --- helpers shared by the checks ---------------------------------------------

def _fingerprint_structure(st):
    return {
        "i_set": sorted(st.i_set),
        "p_edges": sorted([i, j] for i, j in st.p_edges),
        "landmarks": None if st.landmarks is None else sorted(
            [g.landmark, sorted(g.members)] for g in st.landmarks
        ),
    }


def _plain(value):
    """Tuples to lists, recursively, so fingerprints compare with JSON."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _valid_and_feasible(st, sizes, n):
    if st.validate(n):
        return False
    try:
        CostTables(st, sizes, n)
    except InfeasibleStructureError:
        return False
    return True


def _q_mass_ok(q, lifetime):
    horizon = max(1, int(math.floor(lifetime.mu)))
    expected = sum(lifetime.g(t) for t in range(1, horizon + 1))
    return math.isclose(q.total(), expected, rel_tol=REL_TOL)


def diff_golden(got, want, path="$"):
    """First mismatch between a fingerprint and its golden, or None.

    Floats compare to a relative 1e-9, everything else exactly.
    """
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return f"{path}: {got!r} != {want!r}"
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return f"{path}: {got!r} != {want!r}"
        return None
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            found = diff_golden(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for idx, (a, b) in enumerate(zip(got, want)):
            found = diff_golden(a, b, f"{path}[{idx}]")
            if found:
                return found
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


# --- workloads -----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A named workload: its sizes (full and quick) and its three steps.

    ``setup(cfg, seed, workdir)`` builds the inputs; ``run(inputs, rec)``
    is one timed pass and returns its outputs; ``check(inputs, out)``
    returns ``(checks, fingerprint, objective_J, extras)`` where ``checks``
    is a list of ``(name, ok)`` pairs and ``extras`` holds measured values
    the trace reports (the Monte-Carlo z).
    """

    name: str
    full: dict
    quick: dict
    setup: object
    run: object
    check: object


# lf-refine -------------------------------------------------------------------

def _lf_refine_setup(cfg, seed, workdir):
    rng = np.random.default_rng(seed)
    sc, sizes = _jittered_lf(cfg["rows"], cfg["cols"], cfg["mu"], cfg["t_max"], rng)
    return SimpleNamespace(cfg=cfg, sc=sc, sizes=sizes)


def _lf_refine_run(inp, rec):
    sc, sizes, lam = inp.sc, inp.sizes, inp.cfg["lam"]
    with rec.span("plan"):
        q = aggregate_switch_probabilities(sc.graph, sc.nav, sc.lifetime)
        parts = tsvq(sc.graph, sizes, PlannerParams(w=lam / sc.lifetime.mu, q=q))
        initial = build_initial_structure(parts, sizes)
    with rec.span("optimize"):
        refined, log = greedy_refine(sc, sizes, initial, RefinerParams(lam=lam))
    with rec.span("eval"):
        refined_cost = eval_flexible(sc, sizes, refined).expected_cost
    with rec.span("baseline"):
        base = {
            v: run_baseline(sc, sizes, RefinerParams(lam=lam), v)
            for v in LF_VARIANTS
        }
    return SimpleNamespace(
        q=q, parts=parts, refined=refined, log=log,
        refined_cost=refined_cost, base=base,
    )


def _lf_refine_check(inp, out):
    sc, sizes, lam = inp.sc, inp.sizes, inp.cfg["lam"]
    n = sc.graph.n
    refined_j = out.refined_cost + lam * storage_cost(out.refined, sizes)
    step_js = [j for _, _, j in out.log.steps]
    checks = [
        ("q_mass", _q_mass_ok(out.q, sc.lifetime)),
        ("refined_feasible", _valid_and_feasible(out.refined, sizes, n)),
        ("refine_steps_decrease", all(a > b for a, b in zip(step_js, step_js[1:]))),
        ("refined_j_matches_log", not step_js or math.isclose(
            refined_j, step_js[-1], rel_tol=REL_TOL)),
    ]
    checks += [
        (f"{v}_feasible", _valid_and_feasible(r.structure, sizes, n))
        for v, r in out.base.items()
    ]
    objective = refined_j + sum(
        r.expected_cost + lam * r.storage_bits for r in out.base.values()
    )
    fingerprint = _plain({
        "partitions": len(out.parts),
        "refine_steps": out.log.steps,
        "refined": _fingerprint_structure(out.refined),
        "refined_J": refined_j,
        "baselines": {
            v: {
                "structure": _fingerprint_structure(r.structure),
                "expected_cost": r.expected_cost,
                "storage_bits": r.storage_bits,
                "steps": r.log.steps,
            }
            for v, r in out.base.items()
        },
    })
    return checks, fingerprint, objective, {}


# lf-deep -----------------------------------------------------------------------

def _lf_deep_setup(cfg, seed, workdir):
    rng = np.random.default_rng(seed)
    sc, sizes = _jittered_lf(cfg["rows"], cfg["cols"], cfg["mu"], cfg["t_max"], rng)
    mc_seed = int(rng.integers(0, 2**31 - 1))
    return SimpleNamespace(
        cfg=cfg, sc=sc, sizes=sizes, mc_seed=mc_seed,
        policy_path=workdir / "policy.json",
    )


def _lf_deep_run(inp, rec):
    sc, sizes, lam = inp.sc, inp.sizes, inp.cfg["lam"]
    with rec.span("plan"):
        q = aggregate_switch_probabilities(sc.graph, sc.nav, sc.lifetime)
        parts = tsvq(sc.graph, sizes, PlannerParams(w=lam / sc.lifetime.mu, q=q))
        structure = build_initial_structure(parts, sizes)
    with rec.span("eval"):
        flex = eval_flexible(sc, sizes, structure)
        fixed = eval_fixed(sc, sizes, structure)
        with rec.span("Policy.save", actions=len(flex.policy.actions)):
            flex.policy.save(inp.policy_path)
    with rec.span("simulate"):
        with rec.span("Policy.load"):
            policy = Policy.load(inp.policy_path)
        sim = simulate_sessions(
            sc, sizes, structure, policy, inp.cfg["sessions"], inp.mc_seed,
            consistency_mode=True,
        )
    return SimpleNamespace(
        q=q, parts=parts, structure=structure, flex=flex, fixed=fixed,
        policy=policy, sim=sim,
    )


def _lf_deep_check(inp, out):
    sc, sizes, lam = inp.sc, inp.sizes, inp.cfg["lam"]
    flex, fixed, sim = out.flex, out.fixed, out.sim
    z = (sim.mean - flex.expected_cost) / sim.stderr if sim.stderr > 0 else math.inf
    saved = flex.policy
    checks = [
        ("q_mass", _q_mass_ok(out.q, sc.lifetime)),
        ("structure_feasible", _valid_and_feasible(out.structure, sizes, sc.graph.n)),
        ("flex_le_fixed", flex.expected_cost <= fixed.expected_cost),
        ("mc_z", abs(z) < Z_LIMIT),
        ("policy_roundtrip", (
            out.policy.buffer == saved.buffer
            and out.policy.weight_first_switch == saved.weight_first_switch
            and out.policy.actions == saved.actions
        )),
    ]
    objective = flex.expected_cost + lam * storage_cost(out.structure, sizes)
    fingerprint = _plain({
        "partitions": len(out.parts),
        "structure": _fingerprint_structure(out.structure),
        "flex_cost": flex.expected_cost,
        "flex_stats": flex.dp_stats,
        "fixed_cost": fixed.expected_cost,
        "fixed_stats": fixed.dp_stats,
        "sim_mean": sim.mean,
    })
    return checks, fingerprint, objective, {"mc_z": z}


# plan-large ---------------------------------------------------------------------

def _plan_large_setup(cfg, seed, workdir):
    rng = np.random.default_rng(seed)
    rows = cfg["lf_rows"]
    mu, t_max = lifetime_defaults((rows + 1) * (rows + 1))
    sc, sizes = _jittered_lf(rows, rows, mu, t_max, rng)
    tr, tc = cfg["tiles"]
    traj = _random_walks(rng, tr, tc, cfg["walks"], cfg["walk_steps"])
    return SimpleNamespace(
        cfg=cfg, sc=sc, sizes=sizes, traj=traj, n_tiles=tr * tc,
        vp_sizes=_uniform_sizes(tr * tc),
        vp_lifetime=build_lifetime_tail(cfg["vp_mu"], cfg["vp_t_max"]),
    )


def _plan_large_run(inp, rec):
    sc, sizes, cfg = inp.sc, inp.sizes, inp.cfg
    with rec.span("plan"):
        q = aggregate_switch_probabilities(sc.graph, sc.nav, sc.lifetime)
        parts = {
            lam: tsvq(sc.graph, sizes, PlannerParams(w=lam / sc.lifetime.mu, q=q))
            for lam in cfg["tsvq_lams"]
        }
        structures = {lam: build_initial_structure(p, sizes) for lam, p in parts.items()}
        vgraph, vnav = build_viewport_scenario(inp.traj, inp.n_tiles)
    vsc = Scenario(graph=vgraph, nav=vnav, lifetime=inp.vp_lifetime)
    with rec.span("baseline"):
        inf = {
            lam: run_baseline(vsc, inp.vp_sizes, RefinerParams(lam=lam), "inf-lm")
            for lam in cfg["inf_lams"]
        }
    return SimpleNamespace(q=q, parts=parts, structures=structures, vsc=vsc, inf=inf)


def _plan_large_check(inp, out):
    sc, sizes = inp.sc, inp.sizes
    checks = [
        ("q_mass", _q_mass_ok(out.q, sc.lifetime)),
        ("viewport_model_valid", not validate_navigation_model(out.vsc.graph, out.vsc.nav)),
    ]
    checks += [
        (f"tsvq_{lam}_feasible", _valid_and_feasible(st, sizes, sc.graph.n))
        for lam, st in out.structures.items()
    ]
    checks += [
        (f"inf-lm_{lam}_feasible", _valid_and_feasible(
            r.structure, inp.vp_sizes, inp.n_tiles) and math.isfinite(r.expected_cost))
        for lam, r in out.inf.items()
    ]
    objective = sum(
        r.expected_cost + lam * r.storage_bits for lam, r in out.inf.items()
    )
    fingerprint = _plain({
        "q_total": out.q.total(),
        "partitions": {str(lam): len(p) for lam, p in out.parts.items()},
        "tsvq_structures": {
            str(lam): _fingerprint_structure(st) for lam, st in out.structures.items()
        },
        "viewport_start": out.vsc.graph.start,
        "inf_lm": {
            str(lam): {
                "structure": _fingerprint_structure(r.structure),
                "expected_cost": r.expected_cost,
                "storage_bits": r.storage_bits,
            }
            for lam, r in out.inf.items()
        },
    })
    return checks, fingerprint, objective, {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lf-refine",
            full=dict(rows=3, cols=4, mu=1.0, t_max=2, lam=0.5),
            quick=dict(rows=2, cols=3, mu=1.0, t_max=2, lam=0.5),
            setup=_lf_refine_setup,
            run=_lf_refine_run,
            check=_lf_refine_check,
        ),
        Workload(
            name="lf-deep",
            full=dict(rows=8, cols=8, mu=4.0, t_max=7, lam=0.1, sessions=30_000),
            quick=dict(rows=3, cols=3, mu=2.0, t_max=3, lam=0.5, sessions=2_000),
            setup=_lf_deep_setup,
            run=_lf_deep_run,
            check=_lf_deep_check,
        ),
        Workload(
            name="plan-large",
            full=dict(
                lf_rows=20, tsvq_lams=(4.5, 8.0), tiles=(8, 16), walks=2000,
                walk_steps=40, vp_mu=3.0, vp_t_max=8, inf_lams=(2.0,),
            ),
            quick=dict(
                lf_rows=5, tsvq_lams=(4.5, 8.0), tiles=(3, 4), walks=100,
                walk_steps=10, vp_mu=1.0, vp_t_max=2, inf_lams=(2.0,),
            ),
            setup=_plan_large_setup,
            run=_plan_large_run,
            check=_plan_large_check,
        ),
    )
}
