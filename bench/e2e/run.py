#!/usr/bin/env python3
"""End-to-end benchmark of jsweep: four fixed-work reference solves.

Builds bench_e2e (bench/e2e/CMakeLists.txt) into build-e2e/ at the repository
root, then runs each workload as three separate processes: --reference
(untimed serial solves; the answers every rep is checked against), --timed
(one warm-up rep, then timed reps; metrics and tracing off) and --traced
(one rep with the metrics registry and a trace recorder on).

Full run, for people:

    python3 bench/e2e/run.py [--workloads a,b] [--seed N] [--reps R]
                             [--out DIR] [--repeat-check]

prints every metric by name with its unit, median and quartiles, writes
DIR/results.json (compare two with diff.py) and exits non-zero when a rep
fails its checks or the traced run drops trace events. --repeat-check runs
everything twice and fails unless every end-to-end median of the second run
is within its BENCHMARK.json bound of the first.

One measurement, as BENCHMARK.json's command:

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs the reference and then the timed (--trace 0: end-to-end metrics) or
traced (--trace 1: per-layer metrics) process, and prints as its last line
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "bench_e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None

WORKLOADS = ["kobayashi_s8", "ball_mg4", "reactor_keff", "service_burst"]
MIN_REPS = 5
# End-to-end metrics computed here from the timed process. fail_rate is
# printed and stored but is not in BENCHMARK.json: it is 0 on a healthy
# run, and a measurement reports failures as "failed" / "attempted".
E2E_UNITS = {"setup_s": "s", "solve_s": "s", "grind_ns": "ns",
             "peak_rss_mb": "MiB", "fail_rate": "ratio"}
# One measurement must end within 180 s; leave room for interpreter start-up.
DRIVER_BUDGET_S = 170.0


def build():
    """Configure (once) and build bench_e2e; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no jsweep sources in {ROOT}; nothing to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        *generator, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)


def bench(workload, seed, mode, outdir, *extra, timeout=600.0):
    """Run one bench_e2e process; returns the JSON file it wrote, if any."""
    outdir.mkdir(parents=True, exist_ok=True)
    subprocess.run([str(BINARY), "--workload", workload, "--seed", str(seed),
                    "--mode", mode, "--out", str(outdir), *extra],
                   stdout=sys.stderr, check=True, timeout=max(1.0, timeout))
    path = outdir / f"{mode}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def summary(samples):
    """Median and quartiles (statistics.quantiles, n=4) of the samples."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return statistics.median(samples), q1, q3


def end_to_end(timed):
    """Per-metric sample lists of one timed process."""
    reps = timed["reps"]
    solve = [r["solve_s"] for r in reps]
    return {
        "setup_s": [r["setup_s"] for r in reps],
        "solve_s": solve,
        "grind_ns": [s / timed["work_units"] * 1e9 for s in solve],
        "peak_rss_mb": [timed["peak_rss_mb"]],
        "fail_rate": [timed["failed"] / timed["attempted"]],
    }


def check_spec():
    """BENCHMARK.json must name metrics this runner produces."""
    if SPEC is None:
        sys.exit(f"run.py: {ROOT / 'BENCHMARK.json'} is missing")
    for m in SPEC["end_to_end"]:
        if E2E_UNITS.get(m["name"]) != m["unit"]:
            sys.exit(f"run.py: unknown end-to-end metric {m['name']}")


# --- one measurement (BENCHMARK.json's command) ----------------------------

def measure(args):
    build()
    start = time.monotonic()
    left = lambda: DRIVER_BUDGET_S - (time.monotonic() - start)
    outdir = Path(args.out) / f"{args.workload}-seed{args.seed}"
    bench(args.workload, args.seed, "reference", outdir, timeout=left())
    if args.trace == 0:
        timed = bench(args.workload, args.seed, "timed", outdir,
                      "--reps", str(MIN_REPS), "--seconds", str(args.seconds),
                      timeout=left())
        samples = end_to_end(timed)
        metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]),
                               "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        attempted, failed = timed["attempted"], timed["failed"]
        correct = failed == 0
    else:
        traced = bench(args.workload, args.seed, "traced", outdir,
                       timeout=left())
        layer = traced["metrics"]
        metrics = {}
        for m in SPEC["per_layer"]:
            got = layer[m["name"]]
            if got["value"] is None or got["unit"] != m["unit"]:
                sys.exit(f"run.py: {m['name']} is not measured as "
                         f"{m['unit']} on {args.workload}")
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        attempted, failed = traced["attempted"], traced["failed"]
        correct = failed == 0 and layer["trace.dropped_events"]["value"] == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


# --- full run --------------------------------------------------------------

def host_info():
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "describe", "--always", "--dirty",
         "--abbrev=12"],
        capture_output=True, text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
    }


def run_workload(workload, args, outdir):
    bench(workload, args.seed, "reference", outdir)
    timed = bench(workload, args.seed, "timed", outdir, "--reps",
                  str(args.reps), "--seconds", str(args.seconds))
    traced = bench(workload, args.seed, "traced", outdir)
    e2e = {}
    for name, samples in end_to_end(timed).items():
        median, q1, q3 = summary(samples)
        e2e[name] = {"unit": E2E_UNITS[name], "median": median, "q1": q1,
                     "q3": q3, "n": len(samples), "samples": samples}
    return {
        "attempted": timed["attempted"] + traced["attempted"],
        "failed": timed["failed"] + traced["failed"],
        "end_to_end": e2e,
        "per_layer": traced["metrics"],
    }


def print_workload(name, result, seed):
    e2e = result["end_to_end"]
    print(f"\n== {name}  (seed {seed}; {e2e['solve_s']['n']} timed reps "
          f"after a warm-up; {result['failed']} of {result['attempted']} "
          f"reps failed)")
    print(f"  {'end-to-end':30s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'n':>3s}")
    for metric, s in e2e.items():
        print(f"  {metric:30s} {s['unit']:6s} {s['median']:12.6g} "
              f"{s['q1']:12.6g} {s['q3']:12.6g} {s['n']:3d}")
    print(f"  {'per-layer (one traced rep)':30s} {'unit':6s} {'value':>12s}")
    for metric, s in result["per_layer"].items():
        value = "n/a" if s["value"] is None else f"{s['value']:12.6g}"
        print(f"  {metric:30s} {s['unit']:6s} {value:>12s}")


def full_run(args, outroot):
    results = {"schema": "jsweep-bench-e2e-v1", "host": host_info(),
               "seed": args.seed, "reps": args.reps, "workloads": {}}
    for workload in args.workloads.split(","):
        result = run_workload(workload, args, outroot / workload)
        results["workloads"][workload] = result
        print_workload(workload, result, args.seed)
    path = outroot / "results.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nwrote {path}")
    bad = [w for w, r in results["workloads"].items()
           if r["failed"] > 0 or
           r["per_layer"]["trace.dropped_events"]["value"] != 0]
    if bad:
        print(f"FAILED: failed reps or dropped trace events in "
              f"{', '.join(bad)}")
    return results, not bad


def repeat_check(first, second):
    """Every end-to-end median of `second` within its bound of `first`."""
    ok = True
    print("\n== repeat check (second run against first)")
    for workload, a in first["workloads"].items():
        b = second["workloads"][workload]
        for m in SPEC["end_to_end"]:
            x = a["end_to_end"][m["name"]]["median"]
            y = b["end_to_end"][m["name"]]["median"]
            change = (y - x) / x
            within = abs(change) <= m["bound"]
            ok &= within
            print(f"  {workload:14s} {m['name']:12s} {x:12.6g} {y:12.6g} "
                  f"{change:+8.1%}  bound ±{m['bound']:.0%}  "
                  f"{'ok' if within else 'OUTSIDE BOUND'}")
    return ok


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", help="one workload (one measurement)")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="measure timed reps for at least this long")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reps", type=int, default=MIN_REPS)
    p.add_argument("--out", default=str(BUILD / "out"))
    p.add_argument("--repeat-check", action="store_true")
    args = p.parse_args()

    check_spec()
    chosen = [args.workload] if args.workload else args.workloads.split(",")
    unknown = [w for w in chosen if w not in WORKLOADS]
    if unknown:
        sys.exit(f"run.py: unknown workload {', '.join(unknown)}")
    if args.workload is not None:
        measure(args)
        return 0
    build()
    if not args.repeat_check:
        _, ok = full_run(args, Path(args.out))
        return 0 if ok else 1
    first, ok1 = full_run(args, Path(args.out) / "run1")
    second, ok2 = full_run(args, Path(args.out) / "run2")
    within = repeat_check(first, second)
    return 0 if ok1 and ok2 and within else 1


if __name__ == "__main__":
    sys.exit(main())
