"""vastop benchmark.

    python3 perfbench/run.py --workload {cli-prod,solve-grid,mc-verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from src/.
Set-up time is measured in SETUP_PROBES fresh processes plus the measuring
process, and its median reported. The measuring process warms up on a tiny
grid, then runs the workload in a closed loop for about S seconds and checks
every iteration against the acceptance tolerances and the recorded values
(reference.json). With --trace 1 it alternates untraced and traced
iterations and reports per-layer metrics instead of the end-to-end ones.

Output: a report line {"report": {...}} with the machine, every end-to-end
result (including those the result line cannot carry: failed_frac and the
accuracy checks), then as the last line the result object with exactly the
keys correct, attempted, failed and metrics. Uses only the standard library,
so it fails cleanly (exit 2) in a directory without the program's sources.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-prod", "solve-grid", "mc-verify")
SETUP_PROBES = 4
DEADLINE_S = 170.0

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# results that vary by workload or are 0 when all is well: in the report line only
CHECKS = {"xsolver_gap_bp": "bp", "closed_form_err_bp": "bp", "mc_max_z": "se",
          "ref_drift_bp": "bp", "mc_ref_z": "se"}
PER_LAYER = {
    "cli.self_s": "s", "cli.chain_builds": "count", "cli.never_surrender_calls": "count",
    "io.write_s": "s", "io.bytes": "bytes", "io.MB_per_s": "MB/s", "io.files_changed": "count",
    "lattice.self_s": "s", "lattice.build_chain_s": "s", "lattice.expm_count": "count",
    "lattice.bermudan_s": "s",
    "pde.self_s": "s", "pde.solve_s": "s", "pde.step_ms": "ms", "pde.time_levels": "count",
    "pde.psor_max_iter": "count", "pde.complementarity_free_max": "value",
    "region.self_s": "s", "region.extract_s": "s", "region.extract_exercise_s": "s",
    "region.boundary_s": "s", "region.violations": "count",
    "decompose.self_s": "s", "decompose.residuals_s": "s", "decompose.ndtr_evals": "count",
    "decompose.flagged": "count",
    "mc.self_s": "s", "mc.path_gen_s": "s", "mc.reduce_s": "s", "mc.chunks_generated": "count",
    "mc.passes": "count", "mc.paths_per_s": "paths/s",
    "analytic.s": "s", "analytic.calls": "count",
    "bench.traced_run_s": "s", "bench.untraced_run_s": "s", "bench.trace_overhead_s": "s",
    "bench.unattributed_s": "s", "bench.failed_frac": "fraction",
    **{f"check.{k}": u for k, u in CHECKS.items()},
}


def _worker(argv, env, deadline):
    """Run worker.py to completion; return the JSON object on its last line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("out of time before starting a worker")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=left)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(walls):
    """Highest of p99/p90/p75 with at least 10 samples beyond it, else None."""
    n = len(walls)
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return {"p": p, "value": statistics.quantiles(walls, n=100)[p - 1]}
    return None


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def _layers(records):
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    out = {}
    for key in traced[0]["layers"]:
        v = _mean([r["layers"][key] for r in traced])
        out[key] = int(v) if PER_LAYER.get(key) in ("count", "bytes") and v == int(v) else v
    out["io.files_changed"] = max(r["checks"].get("files_changed", 0) for r in records)
    out["bench.traced_run_s"] = _mean([r["wall_s"] for r in traced])
    out["bench.untraced_run_s"] = _mean([r["wall_s"] for r in untraced])
    out["bench.trace_overhead_s"] = out["bench.traced_run_s"] - out["bench.untraced_run_s"]
    out["bench.failed_frac"] = sum(bool(r["failures"]) for r in records) / len(records)
    for k in CHECKS:
        out[f"check.{k}"] = max(r["checks"].get(k, 0.0) for r in records)
    return {k: {"value": out[k], "unit": u} for k, u in PER_LAYER.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("prod", "tiny"), default="prod",
                    help="tiny: N=60, M=101, 2^14 paths, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "vastop", "__init__.py")):
        print(f"perfbench: no vastop package under {src}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["VASTOP_THREADS"] = str(nproc)
    work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    spans = os.path.join(ROOT, ".perfbench", "spans",
                         f"{args.workload}-{args.size}-seed{args.seed}.json")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              "--workdir", work]
    try:
        probes = [_worker([*common, "--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = _worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--spans", spans], env, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = res["records"]
    walls = [r["wall_s"] for r in records if not r["traced"]]
    failed = sum(bool(r["failures"]) for r in records)
    setup_samples = [*probes, res["setup_s"]]
    measured = {"run_s": statistics.median(walls), "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": res["peak_rss_mb"]}
    e2e = {k: {"value": v, "unit": END_TO_END[k]} for k, v in measured.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": res["machine"],
        "end_to_end": {
            **e2e,
            "failed_frac": {"value": failed / len(records), "unit": "fraction"},
            **{k: {"value": max(r["checks"][k] for r in records if k in r["checks"]), "unit": u}
               for k, u in CHECKS.items() if any(k in r["checks"] for r in records)},
        },
        "run_s_samples": len(walls),
        "run_s_tail": _tail(walls),
        "run_s_each": walls,
        "setup_s_each": setup_samples,
        "reference_loaded": res["reference_loaded"],
        "failures": [f for r in records for f in r["failures"]][:10],
    }
    if args.trace:
        metrics = _layers(records)
        report["spans"] = os.path.relpath(spans, ROOT)
        report["accounting"] = (
            "cli.self_s + io.write_s + lattice/pde/region/decompose/mc.self_s + analytic.s"
            " + bench.unattributed_s = bench.traced_run_s")
    else:
        metrics = e2e
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
