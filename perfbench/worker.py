"""One benchmark process: set up a workload, time its iterations, check them.

Started by run.py with PYTHONPATH=src and VASTOP_THREADS set; prints one JSON
object as its last line of output. ``--setup-only`` stops after the set-up and
reports its time. ``--record`` runs every workload once per size at the
reference seed and rewrites reference.json (do this only when a change to the
program is meant to change its results).
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports plus inputs

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def _iterate(wl, seed, traced, tracer, index, ref, first):
    wl.prepare()
    t0 = time.perf_counter()
    wall = None
    try:
        if traced:
            with tracer.installed(index):
                result = wl.run(seed)
        else:
            result = wl.run(seed)
        wall = time.perf_counter() - t0
        ck = wl.check(result, seed, ref)
        failures = ck.failures
        # same inputs and seed: values, MC estimates and CSV bytes must repeat exactly
        outputs = {"values": ck.values, "mc": ck.mc, "digests": ck.digests}
        if first.setdefault("outputs", outputs) != outputs:
            failures.append(f"iteration {index} differs from an earlier one at the same seed")
    except Exception as exc:  # an iteration that raises counts as failed
        if wall is None:
            wall = time.perf_counter() - t0
        traceback.print_exc()
        ck = None
        failures = [f"{type(exc).__name__}: {exc}"]
    rec = {"wall_s": wall, "traced": traced, "failures": failures,
           "checks": ck.metrics if ck else {}}
    if traced:
        rec["layers"] = tracer.iteration_metrics(index, wall)
    return rec


def measure(wl, seed, seconds, trace, ref, spans_path):
    """Closed loop: one iteration after another until the next would overrun
    ``seconds``. With ``trace`` the iterations alternate untraced / traced, at
    least one of each, so the tracing overhead is measured in the same process."""
    from tracer import Tracer

    tracer = Tracer()
    records = []
    first = {}
    start = time.perf_counter()
    loop_times = []
    while True:
        t_it = time.perf_counter()
        traced = trace and len(records) % 2 == 1
        records.append(_iterate(wl, seed, traced, tracer, len(records), ref, first))
        loop_times.append(time.perf_counter() - t_it)
        elapsed = time.perf_counter() - start
        need_traced = trace and not any(r["traced"] for r in records)
        if not need_traced and elapsed + max(loop_times) > seconds:
            break
    if trace:
        tracer.write(spans_path)
    return records


def machine(seed):
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            if not idx.startswith("index"):
                continue
            with open(os.path.join(base, idx, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, idx, "type")) as fh:
                kind = fh.read().strip()
            name = f"L{level}" + ("" if kind == "Unified" else kind[0].lower())
            with open(os.path.join(base, idx, "size")) as fh:
                caches[name] = fh.read().strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("VASTOP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "seed": seed,
    }


def record(workdir):
    """Run each workload once per size at the reference seed; write reference.json."""
    import workloads as W

    ref = {"seed": W.REFERENCE_SEED}
    for size in W.SIZES:
        ref[size] = {}
        for name, cls in W.WORKLOADS.items():
            wl = cls(size, workdir)
            wl.prepare()
            ck = wl.check(wl.run(W.REFERENCE_SEED), W.REFERENCE_SEED, None)
            if ck.failures:
                raise SystemExit(f"{size}/{name} fails its gates: {ck.failures}")
            entry = {"seed": W.REFERENCE_SEED, "values": ck.values,
                     "mc": {k: list(v) for k, v in ck.mc.items()}}
            if ck.digests:
                # files that change with the MC seed are compared at the reference seed only
                wl.prepare()
                other = wl.check(wl.run(W.REFERENCE_SEED + 1), W.REFERENCE_SEED + 1, None)
                entry["digests"] = ck.digests
                entry["seeded_files"] = sorted(
                    k for k in ck.digests if other.digests.get(k) != ck.digests[k])
            ref[size][name] = entry
            print(f"recorded {size}/{name}", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="prod")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if args.record:
        record(args.workdir)
        return 0

    import workloads as W

    wl = W.WORKLOADS[args.workload](args.size, args.workdir)
    ref = None
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)[args.size][args.workload]
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # let lazy imports and first-call costs settle on the tiny grid, untimed
    warm = W.WORKLOADS[args.workload]("tiny", os.path.join(args.workdir, "warm-up"))
    warm.prepare()
    warm.run(args.seed)

    records = measure(wl, args.seed, args.seconds, bool(args.trace), ref, args.spans)
    print(json.dumps({
        "setup_s": setup_s,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(args.seed),
        "reference_loaded": ref is not None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
