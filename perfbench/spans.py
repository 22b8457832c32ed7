"""Phase timing and span tracing, all from the benchmark's side.

``PhaseTimer`` times the benchmark's own phases (plan, optimize, ...) and is
what the untraced passes use.  ``Tracer`` adds spans around navstream's
public functions by rebinding each callee, for the length of one traced
pass, in the module that calls it; navstream's own files are not touched.
Spans are kept in memory as ``[name, start, end, parent, run, extra]`` and
reduced to per-layer metrics (with self times) at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager

from navstream.errors import OracleRefusalError

NAME, START, END, PARENT, RUN, EXTRA = range(6)

# Benchmark phase spans; each maps to the end-to-end phase time it adds to.
PHASES = ("plan", "optimize", "baseline", "eval", "simulate")

LAYER_OF = {
    "eval_flexible": "evaluate",
    "eval_fixed": "evaluate",
    "CostTables": "evaluate",
    "Policy.save": "evaluate",
    "Policy.load": "evaluate",
    "greedy_refine": "refine",
    "greedy_subtract": "refine",
    "lower_bound_cost": "refine",
    "aggregate_switch_probabilities": "scenario",
    "tsvq": "landmarks",
    "lloyd_split": "landmarks",
    "build_initial_structure": "landmarks",
    "simulate_sessions": "oracle",
    "run_baseline": "baselines",
    "inf_buffer_cost": "baselines",
    "inf_buffer_estimate": "baselines",
    "build_lf_scenario": "adapters",
    "build_viewport_scenario": "adapters",
}
LAYERS = ("evaluate", "refine", "scenario", "landmarks", "oracle", "baselines", "adapters")

# (module that makes the call, callee name) for every rebinding.  Classes
# imported by name into several modules are rebound in each of them.
CALL_SITES = (
    ("navstream.refine", "eval_flexible"),
    ("navstream.refine", "eval_fixed"),
    ("navstream.refine", "lower_bound_cost"),
    ("navstream.refine", "CostTables"),
    ("navstream.evaluate", "CostTables"),
    ("navstream.oracle", "CostTables"),
    ("navstream.baselines", "CostTables"),
    ("navstream.baselines", "greedy_refine"),
    ("navstream.baselines", "greedy_subtract"),
    ("navstream.baselines", "inf_buffer_cost"),
    ("navstream.baselines", "inf_buffer_estimate"),
    ("navstream.baselines", "aggregate_switch_probabilities"),
    ("navstream.baselines", "tsvq"),
    ("navstream.baselines", "build_initial_structure"),
    ("navstream.landmarks", "lloyd_split"),
    ("workloads", "eval_flexible"),
    ("workloads", "eval_fixed"),
    ("workloads", "greedy_refine"),
    ("workloads", "aggregate_switch_probabilities"),
    ("workloads", "tsvq"),
    ("workloads", "build_initial_structure"),
    ("workloads", "simulate_sessions"),
    ("workloads", "run_baseline"),
    ("workloads", "build_lf_scenario"),
    ("workloads", "build_viewport_scenario"),
)


def _switch_rows(nav):
    return len({(k, i) for k, i, _ in nav.p_switch})


def _refine_counts(res):
    log = res[1]
    return {
        "iterations": len(log.steps) + 1,
        "total": log.candidates_total,
        "pruned": log.candidates_pruned,
        "skipped": log.candidates_skipped,
    }


# What each traced call records besides its times: from (bound args, result).
RESULT_COUNTS = {
    "eval_flexible": lambda a, r: {"states": r.dp_stats["states"]},
    "eval_fixed": lambda a, r: {"states": r.dp_stats["states"]},
    "greedy_refine": lambda a, r: _refine_counts(r),
    "greedy_subtract": lambda a, r: _refine_counts(r),
    "aggregate_switch_probabilities": lambda a, r: {
        "pairs": len(r.q), "horizon": max(1, math.floor(a["lifetime"].mu)),
    },
    "tsvq": lambda a, r: {"partitions": len(r)},
    "simulate_sessions": lambda a, r: {"sessions": a["n_sessions"]},
    "inf_buffer_estimate": lambda a, r: {"sessions": a["n_sessions"]},
    "run_baseline": lambda a, r: {"variant": a["variant"]},
    "build_lf_scenario": lambda a, r: {"mdus": r[0].n, "rows": _switch_rows(r[1])},
    "build_viewport_scenario": lambda a, r: {"mdus": r[0].n, "rows": _switch_rows(r[1])},
}

class PhaseTimer:
    """Sums the wall time of each benchmark phase; counts phase calls."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = 0

    @contextmanager
    def span(self, name, **extra):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0
            self.calls += 1


class Tracer(PhaseTimer):
    """PhaseTimer that also records spans, nested by a stack."""

    def __init__(self, local_modules):
        super().__init__()
        self.spans = []
        self._stack = []
        self._saved = []
        self.run = None
        self._modules = dict(local_modules)

    def _open(self, name, extra):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.run, extra]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, **extra):
        with super().span(name):
            rec = self._open(name, extra)
            try:
                yield
            finally:
                self._close(rec)

    def _wrap(self, name, fn):
        counts = RESULT_COUNTS.get(name)
        sig = inspect.signature(fn) if counts else None

        def traced(*args, **kwargs):
            rec = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
            except OracleRefusalError:
                rec[EXTRA]["refused"] = 1
                raise
            finally:
                self._close(rec)
            if counts:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[EXTRA].update(counts(bound.arguments, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, run):
        """Rebind every call site for one traced pass.

        A call site the program no longer has is skipped; its metrics then
        read 0 rather than failing the run.
        """
        self.run = run
        for mod_name, attr in CALL_SITES:
            mod = self._modules.get(mod_name) or importlib.import_module(mod_name)
            original = getattr(mod, attr, None)
            if original is None:
                continue
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(attr, original))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def dump(self):
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "run": s[RUN], **s[EXTRA]}
            for s in self.spans
        ]


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, passes, mc_z):
    """Per-layer metrics, as means per traced pass.

    ``passes`` is the number of traced passes the spans cover; counts and
    seconds are divided by it, ratios are taken over the sums.
    """
    selfs = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    name_of = [s[NAME] for s in spans]

    def pick(name, pred=None):
        return [i for i, n in enumerate(name_of) if n == name and (pred is None or pred(i))]

    def secs(idx):
        return sum(dur[i] for i in idx)

    def extra(idx, key):
        return sum(spans[i][EXTRA].get(key, 0) for i in idx)

    def parent_in(i, *names):
        p = spans[i][PARENT]
        return p is not None and name_of[p] in names

    flex = pick("eval_flexible", lambda i: not parent_in(i, "lower_bound_cost"))
    flex_bound = pick("eval_flexible", lambda i: parent_in(i, "lower_bound_cost"))
    fixed = pick("eval_fixed")
    tables = pick("CostTables")
    saves, loads = pick("Policy.save"), pick("Policy.load")
    refines = pick("greedy_refine") + pick("greedy_subtract")
    bounds = pick("lower_bound_cost")
    exact = [i for i in fixed + flex if parent_in(i, "greedy_refine", "greedy_subtract")]
    qs, tsvqs, lloyds = pick("aggregate_switch_probabilities"), pick("tsvq"), pick("lloyd_split")
    sims = pick("simulate_sessions")
    infs, ests = pick("inf_buffer_cost"), pick("inf_buffer_estimate")
    builds = pick("build_lf_scenario") + pick("build_viewport_scenario")

    pruned = extra(refines, "pruned")
    evaluated = extra(refines, "total") - pruned
    mean_exact = _ratio(secs(flex), len(flex))
    sessions_est = extra(ests, "sessions")

    per_pass = {
        "evaluate.flex_calls": len(flex),
        "evaluate.flex_s": secs(flex),
        "evaluate.flex_states": extra(flex, "states"),
        "evaluate.flex_bound_calls": len(flex_bound),
        "evaluate.flex_bound_s": secs(flex_bound),
        "evaluate.fixed_calls": len(fixed),
        "evaluate.fixed_s": secs(fixed),
        "evaluate.tables_calls": len(tables),
        "evaluate.tables_s": secs(tables),
        "evaluate.policy_actions": extra(saves, "actions"),
        "evaluate.policy_save_s": secs(saves),
        "evaluate.policy_load_s": secs(loads),
        "refine.iterations": extra(refines, "iterations"),
        "refine.candidates_skipped": extra(refines, "skipped"),
        "refine.candidates_pruned": pruned,
        "refine.candidates_evaluated": evaluated,
        "refine.bound_s": secs(bounds),
        "refine.exact_s": secs(exact),
        "scenario.q_s": secs(qs),
        "scenario.q_pairs": extra(qs, "pairs"),
        "scenario.q_horizon": extra(qs, "horizon"),
        "landmarks.tsvq_calls": len(tsvqs),
        "landmarks.tsvq_s": secs(tsvqs),
        "landmarks.lloyd_splits": len(lloyds),
        "landmarks.lloyd_s": secs(lloyds),
        "landmarks.partitions": extra(tsvqs, "partitions"),
        "oracle.sim_sessions": extra(sims, "sessions"),
        "oracle.sim_s": secs(sims),
        "baselines.inf_exact_s": secs(infs),
        "baselines.inf_exact_refused": extra(infs, "refused"),
        "baselines.inf_estimate_s": secs(ests),
        "adapters.build_s": secs(builds),
        "adapters.mdus": extra(builds, "mdus"),
        "adapters.switch_rows": extra(builds, "rows"),
    }
    for variant in ("flex-ga", "fixed-ga", "flex-lm-i", "inf-lm"):
        runs = pick("run_baseline", lambda i: spans[i][EXTRA].get("variant") == variant)
        per_pass[f"baselines.{variant}_s"] = secs(runs)
    for phase in PHASES:
        per_pass[f"phase.{phase}_s"] = secs(pick(phase))
    for layer in LAYERS:
        per_pass[f"{layer}.self_s"] = sum(
            t for t, n in zip(selfs, name_of) if LAYER_OF.get(n) == layer
        )
    out = {k: v / passes for k, v in per_pass.items()}

    refine_s = secs(refines)
    out.update({
        "evaluate.flex_states_per_s": _ratio(extra(flex, "states"), secs(flex)),
        "evaluate.fixed_states_per_s": _ratio(extra(fixed, "states"), secs(fixed)),
        "refine.prune_ratio": _ratio(pruned, pruned + evaluated),
        "refine.candidates_per_s": _ratio(pruned + evaluated, refine_s),
        "refine.bound_payoff": _ratio(pruned * mean_exact, secs(bounds)),
        "landmarks.split_accept_ratio": _ratio(
            extra(tsvqs, "partitions") - len(tsvqs), len(lloyds)
        ),
        "oracle.sessions_per_s": _ratio(extra(sims, "sessions"), secs(sims)),
        "oracle.mc_z": abs(mc_z) if mc_z is not None else 0.0,
        "baselines.inf_estimate_sessions_per_s": _ratio(sessions_est, secs(ests)),
    })
    return out
