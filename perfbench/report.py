#!/usr/bin/env python3
"""Print every end-to-end and per-layer metric of every workload by name,
with its unit and sample count, under one or more workload seeds.

    python3 perfbench/report.py [--seeds 1 2] [--seconds 10]
                                [--workloads solve-lp ...] [--repeat]

For each workload and seed it makes one untraced run (end-to-end
metrics) and one traced run (per-layer metrics) through perfbench/run.py.
Use a second seed to confirm a claim on inputs that were not looked at
while the change was written. With --repeat each traced run is made
twice, and the exact work counters must read the same in both.
Exits non-zero when a run fails a check or a counter does not repeat.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

# Exact counters: equal at one seed, different across seeds.
COUNTERS = ["lp.pivots", "place.tree_search_nodes", "place.tree_pairs",
            "sim.accesses", "serve.cache_hits", "serve.response_bytes",
            "graph.apsp_partial"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=run.WORKLOADS, choices=run.WORKLOADS)
    ap.add_argument("--repeat", action="store_true")
    args = ap.parse_args()

    spec = run.benchmark_spec()
    run.build(ROOT)
    ok = True
    for w in args.workloads:
        cols = {}
        for seed in args.seeds:
            e2e = run.measure(ROOT, spec, w, seed, args.seconds, 0)
            layer = run.measure(ROOT, spec, w, seed, args.seconds, 1)
            cols[seed] = (e2e, layer)
            ok &= e2e["correct"] and layer["correct"]
            for n in e2e["notes"] + layer["notes"]:
                print("[%s seed %d] note: %s" % (w, seed, n))
            for f in e2e["failures"] + layer["failures"]:
                print("[%s seed %d] FAILED CHECK: %s" % (w, seed, f))
            if args.repeat:
                again = run.measure(ROOT, spec, w, seed, args.seconds, 1)
                for c in COUNTERS:
                    a = layer["metrics"][c]["value"]
                    b = again["metrics"][c]["value"]
                    if a != b:
                        ok = False
                        print("[%s seed %d] COUNTER %s DID NOT REPEAT: %r vs %r" % (w, seed, c, a, b))
        print("\n== %s" % w)
        print("%-28s %-6s" % ("metric", "unit")
              + "".join("%22s" % ("seed %d (n)" % s) for s in args.seeds))
        first = cols[args.seeds[0]]
        rows = [(name, 0, "metrics") for name in first[0]["metrics"]]
        rows += [(name, 0, "unscaled") for name in first[0]["unscaled"]]
        rows += [(name, 1, "metrics") for name in first[1]["metrics"]]
        for name, idx, key in rows:
            label = name if key == "metrics" else "unscaled." + name
            row = "%-28s %-6s" % (label, first[idx][key][name]["unit"])
            for s in args.seeds:
                g = cols[s][idx][key][name]
                row += "%15.6g (%4d)" % (g["value"], g["samples"])
            print(row)
        for s in args.seeds:
            e2e, layer = cols[s]
            print("seed %d: attempted %d failed %d (untraced), attempted %d failed %d (traced)"
                  % (s, e2e["attempted"], e2e["failed"], layer["attempted"], layer["failed"]))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
