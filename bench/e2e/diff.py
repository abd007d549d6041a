#!/usr/bin/env python3
"""Per-workload, layer-by-layer delta table between two results files.

    python3 bench/e2e/diff.py BASE.json NEW.json

BASE and NEW are results.json files written by run.py (for example the
committed baselines/<host-class>.json and a fresh run). For each workload,
every end-to-end metric gets one verdict against its BENCHMARK.json bound,
where "worse" means the NEW median is worse than the BASE median by more
than the bound:

    WORSE       worse by more than the bound (flagged; exit status 1)
    better      better by more than the bound
    unchanged   within the bound, and both quartile spreads within it
    unresolved  within the bound, but a quartile spread (q3 - q1) / median
                exceeds it, so the runs cannot tell a change from noise;
                "better" instead when every NEW rep beats every BASE rep

Per-layer metrics have no bound; their rows give the relative change only.
"""

import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def spread(s):
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def verdict(base, new, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (new["median"] - base["median"]) / base["median"]
    if worse_by > bound:
        return "WORSE"
    if worse_by < -bound:
        return "better"
    if max(spread(base), spread(new)) > bound:
        beats = (max(new["samples"]) < min(base["samples"]) if lower_is_better
                 else min(new["samples"]) > max(base["samples"]))
        return "better" if beats else "unresolved"
    return "unchanged"


def change(a, b):
    if a is None or b is None:
        return "n/a"
    if a == 0:
        return "same" if b == 0 else "new"
    return f"{(b - a) / abs(a):+.1%}"


def fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base, new = (json.loads(Path(p).read_text()) for p in argv[1:])
    spec = json.loads(SPEC.read_text())
    flagged = []
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            print(f"\n== {workload}: missing from {argv[2]}")
            continue
        print(f"\n== {workload}  (failed reps: base {b['failed']} of "
              f"{b['attempted']}, new {n['failed']} of {n['attempted']})")
        print(f"  {'end-to-end':30s} {'base':>12s} {'new':>12s} "
              f"{'change':>8s} {'bound':>6s}  verdict")
        for m in spec["end_to_end"]:
            bs, ns = b["end_to_end"][m["name"]], n["end_to_end"][m["name"]]
            v = verdict(bs, ns, m["bound"], m["better"] == "lower")
            if v == "WORSE":
                flagged.append(f"{workload}/{m['name']}")
            print(f"  {m['name']:30s} {bs['median']:12.6g} "
                  f"{ns['median']:12.6g} "
                  f"{change(bs['median'], ns['median']):>8s} "
                  f"{m['bound']:6.0%}  {v}")
        layer = None
        for name, bm in b["per_layer"].items():
            if name.split(".")[0] != layer:
                layer = name.split(".")[0]
                print(f"  [{layer}]")
            nv = n["per_layer"].get(name, {}).get("value")
            print(f"    {name:28s} {fmt(bm['value']):>12s} {fmt(nv):>12s} "
                  f"{change(bm['value'], nv):>8s} {bm['unit']}")
    if flagged:
        print(f"\nWORSE than the bound: {', '.join(flagged)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
