"""navstream benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload lf-refine --seed 0 --seconds 35 --trace 0

Runs from the root of a source checkout and imports navstream from its
``src/``.  After set-up, two worker processes (one per vCPU) repeat the
workload's pass until ``--seconds`` are used up (at least once each);
timings are medians over the pooled passes, scaled to the nominal host speed
by ``reference.py``.  Every pass's outputs are checked, and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one worker that alternates untraced and traced passes and reports the
per-layer metrics,
with self times and the tracing overhead; the spans are written to
``.perfbench_out/``.  ``--workload all`` runs every workload in its own
process and prints them all.  ``--quick`` shrinks every workload for the
self-test.  See DESIGN.md for why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("lf-refine", "lf-deep", "plan-large")
SETUP_REPEATS = 5
MEASURE_WORKERS = 2
GOLDEN_SEED = 0

# One thread per process keeps each workload on one core of a 2-core box.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# Runs in a fresh interpreter; prints the scaled time of ``import navstream``.
IMPORT_PROBE = (
    "import importlib, sys; sys.path[:0] = sys.argv[1:3]; "
    "from reference import scaled; "
    "_, raw, scale = scaled(lambda: importlib.import_module('navstream'), []); "
    "print(raw * scale)"
)


def _import_seconds():
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _import_navstream():
    sys.path[:0] = [str(SRC), str(HERE)]
    import navstream

    if Path(navstream.__file__).resolve().parent != SRC / "navstream":
        raise ImportError(f"navstream imported from {navstream.__file__}, not {SRC}")


def _src_lines():
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "navstream").glob("*.py"))
    )


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _run_checks(wl, inputs, out, golden, counts):
    """Run the workload's checks (and the golden one when given)."""
    from workloads import diff_golden

    checks, fingerprint, objective, extras = wl.check(inputs, out)
    if golden is not None:
        mismatch = diff_golden(fingerprint, golden)
        checks.append(("golden", mismatch is None))
        if mismatch:
            print(f"golden mismatch: {mismatch}", file=sys.stderr)
    for name, ok in checks:
        counts["attempted"] += 1
        if not ok:
            counts["failed"] += 1
            print(f"check failed: {wl.name} {name}", file=sys.stderr)
    return objective, extras


def _measure(args):
    """One worker process: set up, then repeat passes until the deadline.

    Returns plain data only.  Pass and phase times are scaled to the nominal
    host speed (see DESIGN.md).
    """
    import workloads
    from spans import PhaseTimer, Tracer, layer_metrics

    wl = workloads.WORKLOADS[args.workload]
    cfg = wl.quick if args.quick else wl.full
    golden = None
    if args.seed == GOLDEN_SEED and not args.quick:
        pinned = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        golden = pinned[args.workload]
    counts = {"attempted": 0, "failed": 0}
    timer = PhaseTimer()
    tracer = Tracer({"workloads": workloads}) if args.trace else None
    totals, traced_totals, raw_walls, refs = [], [], [], []
    phase_runs, objectives = [], []
    extras, peak_rss_mb, layer = {}, None, None

    def traced_pass():
        tracer.install(f"pass-{len(traced_totals)}")
        try:
            with tracer.span("setup"):
                traced_inputs = wl.setup(cfg, args.seed, workdir)
            t0 = time.perf_counter()
            with tracer.span("pass"):
                traced_out = wl.run(traced_inputs, tracer)
            return traced_out, time.perf_counter() - t0
        finally:
            tracer.uninstall()

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        inputs = wl.setup(cfg, args.seed, workdir)
        while True:
            if tracer and len(traced_totals) < len(totals):
                (out, pass_s), raw, scale = scaled(traced_pass, refs)
                traced_totals.append(pass_s * scale)
            else:
                before = dict(timer.seconds)
                out, raw, scale = scaled(lambda: wl.run(inputs, timer), refs)
                totals.append(raw * scale)
                phase_runs.append({
                    k: (v - before.get(k, 0.0)) * scale for k, v in timer.seconds.items()
                })
            raw_walls.append(raw)
            objective, extras = _run_checks(wl, inputs, out, golden, counts)
            objectives.append(objective)
            del out
            if peak_rss_mb is None:
                # After set-up and one pass: later passes only add allocator
                # fragmentation, which would tie the figure to the pass count.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if (not tracer or traced_totals) and (
                time.monotonic() + max(raw_walls) > args.worker
            ):
                break

    counts["attempted"] += timer.calls + (tracer.calls if tracer else 0)
    if tracer:
        layer = layer_metrics(tracer.spans, len(traced_totals), extras.get("mc_z"))
        layer["trace.traced_total_s"] = statistics.median(traced_totals)
        layer["trace.spans"] = len(tracer.spans)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "traced_passes": len(traced_totals), "spans": tracer.dump(),
        }), encoding="utf-8")
    return {
        "totals": totals, "raw_walls": raw_walls, "refs": refs,
        "phase_runs": phase_runs, "objectives": objectives,
        "peak_rss_mb": peak_rss_mb, "layer": layer, **counts,
    }


def _run_workers(args, count, deadline):
    """Run ``count`` worker processes of this script; wait for all of them."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--worker", repr(deadline),
    ] + (["--quick"] if args.quick else [])
    procs = [
        subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) for _ in range(count)
    ]
    try:
        outputs = [p.communicate()[0] for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    if any(p.returncode for p in procs):
        raise RuntimeError(f"a worker exited with {[p.returncode for p in procs]}")
    return [json.loads(out.strip().splitlines()[-1]) for out in outputs]


def run_workload(args):
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    cfg = wl.quick if args.quick else wl.full
    import_s = statistics.median(_import_seconds() for _ in range(SETUP_REPEATS))
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        build_s = statistics.median(
            raw * scale
            for _, raw, scale in (
                scaled(lambda: wl.setup(cfg, args.seed, Path(tmp)), [])
                for _ in range(SETUP_REPEATS)
            )
        )

    # Untraced runs measure in one process per vCPU; both see the same
    # deadline and their passes are pooled.
    workers = 1 if args.trace else MEASURE_WORKERS
    results = _run_workers(args, workers, time.monotonic() + args.seconds)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    totals = [t for r in results for t in r["totals"]]
    total_s = statistics.median(totals)
    raw_s = statistics.median(t for r in results for t in r["raw_walls"])
    ref_s = statistics.median(t for r in results for t in r["refs"])
    if args.trace:
        layer = results[0]["layer"]
        layer["trace.untraced_total_s"] = total_s
        layer["trace.overhead_s"] = layer["trace.traced_total_s"] - total_s
        layer["host.ref_s"] = ref_s
        metrics = {}
        for m in args.spec["per_layer"]:
            metrics[m["name"]] = _metric(layer[m["name"]], m["unit"])
            print(f"{args.workload:10s} {m['name']:40s} {layer[m['name']]:14.6g} {m['unit']}")
        print(f"spans: {OUT_DIR / f'trace-{args.workload}-seed{args.seed}.json'}")
    else:
        metrics = {
            "setup_s": _metric(import_s + build_s, "s"),
            "total_s": _metric(total_s, "s"),
            "peak_rss_mb": _metric(max(r["peak_rss_mb"] for r in results), "MiB"),
            "objective_J": _metric(
                statistics.median(o for r in results for o in r["objectives"]), "bits"
            ),
        }
        phase_runs = [p for r in results for p in r["phase_runs"]]
        shown = {k: v["value"] for k, v in metrics.items()}
        for p in ("plan", "optimize", "baseline", "eval", "simulate"):
            median = statistics.median(r.get(p, 0.0) for r in phase_runs)
            if median > 0.0:
                shown[f"{p}_s"] = median
        print(f"{args.workload}: {len(totals)} passes in {workers} processes; "
              + ", ".join(f"{k} {v:.4g}" for k, v in shown.items())
              + f"; ops_attempted {attempted}, ops_failed {failed}"
              + f"; unscaled pass {raw_s:.4g} s, reference loop {ref_s:.4g} s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args):
    """Every workload in its own process, one after the other."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--quick"] if args.quick else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = value
    print(f"src/navstream lines: {_src_lines()}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrunken inputs, for the benchmark's self-test")
    # Internal: run as one measuring worker until this time.monotonic() value.
    parser.add_argument("--worker", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.update(THREAD_ENV)
    OUT_DIR.mkdir(exist_ok=True)
    _import_navstream()
    if args.worker is not None:
        print(json.dumps(_measure(args)))
        return 0
    args.spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
