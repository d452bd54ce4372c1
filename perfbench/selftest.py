"""Fast self-test of the benchmark: every workload once, untraced and traced,
on the tiny grid (N=60, M=101, 2^14 paths). Takes under a minute.

    python3 perfbench/selftest.py

Asserts that each run exits 0, that the result line has exactly the keys
correct, attempted, failed and metrics, that every metric named in
BENCHMARK.json is printed with its unit, that the report line carries every
end-to-end result with a unit, that the self times add up to the traced
iteration time, and that every correctness gate passes. Exits 1 with the list of problems otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# end-to-end results each workload must print in its report line
REPORTED = {
    "cli-prod": ("run_s", "setup_s", "peak_rss_mb", "failed_frac", "xsolver_gap_bp",
                 "mc_max_z", "ref_drift_bp"),
    "solve-grid": ("run_s", "setup_s", "peak_rss_mb", "failed_frac", "xsolver_gap_bp",
                   "closed_form_err_bp", "ref_drift_bp"),
    "mc-verify": ("run_s", "setup_s", "peak_rss_mb", "failed_frac", "mc_max_z",
                  "ref_drift_bp", "mc_ref_z"),
}


def run_once(workload, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: gates failed: {report['failures']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"),
                                                                         (int, float)):
            problems.append(f"{where}: metric {m['name']} missing or without unit {m['unit']}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for name in REPORTED[workload]:
        got = report["end_to_end"].get(name)
        if got is None or not got.get("unit"):
            problems.append(f"{where}: report lacks end-to-end result {name}")
    if not report["reference_loaded"]:
        problems.append(f"{where}: no recorded reference values")
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = ("cli.self_s", "io.write_s", "lattice.self_s", "pde.self_s", "region.self_s",
                 "decompose.self_s", "mc.self_s", "analytic.s", "bench.unattributed_s")
        total = sum(m[k] for k in parts)
        if abs(total - m["bench.traced_run_s"]) > 1e-6 * max(1.0, total):
            problems.append(f"{where}: self times sum to {total}, not {m['bench.traced_run_s']}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = run_once(w["name"], trace, spec)
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
