#!/usr/bin/env python3
"""Repository benchmark: build the program from source, run one workload
once, check its outputs, and print every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/qpbench.exe (the
driver) and bin/qplace.exe (the server serve-churn drives) with dune,
runs the driver, and prints a table of every metric by name, unit and
sample count, then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json
(the table adds their unscaled values), with --trace 1 -- a separate
traced run -- its per-layer metrics. perfbench/report.py makes both runs
and prints every metric. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["solve-lp", "solve-tree", "scenario-sim", "serve-churn"]
# Time a run may take beyond its measured seconds: build, eight set-ups
# (seven of them in probe processes), the traced run's self-test, and
# shutdown.
DEADLINE_SLACK_S = 100


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def benchmark_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune is not installed (needed to build the program)")


def build(root):
    if not all(
        os.path.exists(os.path.join(root, p))
        for p in ("dune-project", "lib", os.path.join("bin", "qplace.ml"))
    ):
        fail("no quorum-placement sources here; run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + [
        "build", "--root", ".", "--display", "quiet",
        "./perfbench/qpbench.exe", "./bin/qplace.exe",
    ]
    r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def run_driver(root, args, budget_s):
    """Run the driver in its own process group; return (exit code, stdout)."""
    scratch = os.path.join(root, ".perfbench_run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [
        os.path.join(root, "_build", "default", "perfbench", "qpbench.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--qplace", os.path.join(root, "_build", "default", "bin", "qplace.exe"),
        "--scratch", scratch,
    ]
    p = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, start_new_session=True)
    out = b""
    deadline = time.monotonic() + budget_s
    sel = selectors.DefaultSelector()
    sel.register(p.stdout, selectors.EVENT_READ)
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            fail("the driver ran past its time budget")
        if sel.select(timeout=left):
            chunk = os.read(p.stdout.fileno(), 65536)
            if not chunk:
                break
            out += chunk
    sel.close()
    p.stdout.close()
    p.wait()
    try:  # a server the driver failed to stop shares its process group
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return p.returncode, out.decode()


def measure(root, spec, workload, seed, seconds, trace):
    """Run the driver once and return its result: correct, attempted,
    succeeded, failed, metrics and unscaled (name -> value, unit,
    samples), failures and notes. Fails unless every metric BENCHMARK.json
    lists for this kind of run is there with its unit."""
    args = argparse.Namespace(workload=workload, seed=seed, seconds=seconds, trace=trace)
    code, out = run_driver(root, args, seconds + DEADLINE_SLACK_S)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        fail("the driver exited with code %d" % code)
    res = json.loads(lines[-1])
    got = res["metrics"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        fail("the driver did not report " + ", ".join(missing))
    wrong = [m["name"] for m in wanted if got[m["name"]]["unit"] != m["unit"]]
    if wrong:
        fail("units differ from BENCHMARK.json: " + ", ".join(wrong))
    res["metrics"] = {m["name"]: got[m["name"]] for m in wanted}
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    spec = benchmark_spec()
    build(root)
    res = measure(root, spec, args.workload, args.seed, args.seconds, args.trace)

    print("workload %s  seed %d  trace %d  attempted %d  succeeded %d  failed %d"
          % (args.workload, args.seed, args.trace, res["attempted"],
             res["succeeded"], res["failed"]))
    print("%-28s %18s  %-6s %8s" % ("metric", "value", "unit", "samples"))
    for name, g in list(res["metrics"].items()) + [
            ("unscaled." + k, g) for k, g in res["unscaled"].items()]:
        print("%-28s %18.6f  %-6s %8d" % (name, g["value"], g["unit"], g["samples"]))
    for n in res["notes"]:
        print("note: " + n)
    for f in res["failures"]:
        print("FAILED CHECK: " + f)
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": g["value"], "unit": g["unit"]}
                    for k, g in res["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
