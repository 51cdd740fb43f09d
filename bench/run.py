"""Benchmark for pma_lab: time one workload from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N --seconds S]

Run from the repository root.  The program is imported from ``src/``.  One
run sets the workload up five times (``setup_s`` is the import time plus
the median set-up), then makes whole rounds of the workload's program calls
until ``--seconds`` have passed, checking every round's outputs with checks
computed apart from the program.  ``run_s`` is the wall time of the
fastest round: on a shared host, contention from other tenants slows whole
stretches of seconds by up to 2x, and the fastest round is the one figure
that such stretches leave alone.

With ``--trace 0`` tracing is off and the end-to-end metrics are printed.
With ``--trace 1`` every set-up is traced and rounds alternate untraced and
traced; the per-layer metrics come from the traced ones, and
``trace.overhead_s`` is the fastest traced minus the fastest untraced round.
``--workload all`` runs each workload, untraced then traced, one process at
a time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Snapshots and spans
go to ``bench/out/``.
"""
from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ["flat-p04", "crease-n3", "small-ensemble", "geometry"]
SETUPS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import pma_lab from the checkout's src/; exit 2 when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "pma_lab", "__init__.py")):
        print(f"error: no pma_lab package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy as np
    import pma_lab  # noqa: F401
    import tracing
    import workloads
    return np, tracing, workloads


def run_one(args) -> dict:
    np, tracing, workloads = import_program()
    import_s = perf_counter() - T_START
    wl = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)

    setup_times = []
    for _ in range(SETUPS):
        if tracer:
            tracer.begin("setup")
            tracer.patch()
        t0 = perf_counter()
        try:
            inp = wl.setup(np.random.default_rng(args.seed))
        finally:
            t1 = perf_counter()
            if tracer:
                tracer.unpatch()
        setup_times.append(t1 - t0)

    attempted = failed = 0
    results: dict = {}
    faults: dict = {}
    known = getattr(wl, "known_faults", {})
    walls = {False: [], True: []}
    t_measure = perf_counter()
    k = 0
    while True:
        traced = bool(tracer) and k % 2 == 1
        rnd = workloads.Round()
        if traced:
            tracer.begin("round")
            tracer.patch()
        t0 = perf_counter()
        try:
            out = wl.run(inp, rnd, out_dir)
        finally:
            t1 = perf_counter()
            if traced:
                tracer.unpatch()
        walls[traced].append(t1 - t0)
        attempted += rnd.attempted
        failed += rnd.failed
        for err in rnd.errors:
            print(f"operation failed: {err}", file=sys.stderr)
        if out is not None:
            for name, (ok, detail) in wl.check(inp, out).items():
                if not ok and name in known:
                    failed += 1         # its operation gave a wrong answer
                    faults[name] = detail
                # keep the first failure of each check, else its latest pass
                elif name not in results or results[name][0]:
                    results[name] = (bool(ok), detail)
        k += 1
        if perf_counter() - t_measure >= args.seconds and \
                (not tracer or k % 2 == 0):
            break

    for name, (ok, detail) in sorted(results.items()):
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    for name, detail in sorted(faults.items()):
        print(f"check {name}: KNOWN FAULT, counted as failed operations: "
              f"{known[name]} ({detail})")
    print(f"rounds: {k}, operations attempted: {attempted}, failed: {failed}")
    correct = bool(results) and all(ok for ok, _ in results.values())
    if tracer:
        overhead = min(walls[True]) - min(walls[False])
        metrics = tracer.metrics(overhead)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}.json"))
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "run_s": {"value": min(walls[False]), "unit": "s"},
            "setup_s": {"value": import_s + statistics.median(setup_times),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss_kb * 1024 / 1e6, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, one at a time, untraced then
    traced."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for tr in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(tr)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"[{name} trace={tr}] {line}")
            if proc.returncode != 0 or not lines:
                print(f"[{name} trace={tr}] exited with {proc.returncode}")
                summary["correct"] = False
                continue
            res = json.loads(lines[-1])
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            for key, m in res["metrics"].items():
                summary["metrics"][f"{name}/{key}"] = m
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    res = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
