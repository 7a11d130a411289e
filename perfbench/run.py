#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-ring --seed 1 --seconds 10 --trace 0

builds rvbench.exe and rv.exe from source into .bench_build/ (release
profile, no shared dune cache), runs the workload and passes its output
through: a summary on stderr, the result object as the last stdout line.

Steadiness check, two interleaved sets of the same code (A B A B ...):

    python3 perfbench/run.py --steady 5 [--seconds S]

runs every workload of BENCHMARK.json and prints, per workload and
end-to-end metric, each set's median and quartiles, the spread over all
runs, and whether the sets agree within the metric's bound: the set
medians differ by at most the bound (either way) and the spread is at
most the bound.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
EXE = os.path.join(BUILD, "default", "perfbench", "rvbench.exe")
RV = os.path.join(BUILD, "default", "bin", "rv.exe")
OUT = ".bench_out"


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD,
           "--profile", "release", "perfbench/rvbench.exe", "bin/rv.exe"]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=850).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return False


def run(workload, seed, seconds, trace):
    """One rvbench run; returns (exit code, stdout).  The time limit
    leaves a run of the default 15 s room for its set-up and checks, and
    grows with longer runs."""
    cmd = [os.path.join(ROOT, EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--rv", RV, "--out", OUT]
    # Its own process group, so a timeout also stops the servers it started.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=max(175, 115 + 4 * seconds))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        return 124, ""
    return p.returncode, out


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def steady(args, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    values = {(w, s): {m: [] for m in bounds} for w in workloads for s in "AB"}
    ok = True
    for i in range(args.steady):
        for w in workloads:
            for s in ("AB" if i % 2 == 0 else "BA"):
                seed = (1000 if s == "A" else 2000) + i
                code, out = run(w, seed, seconds, 0)
                res = result_of(out) if code == 0 else None
                if res is None or not res["correct"]:
                    print(f"{w} set {s} seed {seed}: failed (exit {code})",
                          file=sys.stderr)
                    ok = False
                    continue
                for m in bounds:
                    values[(w, s)][m].append(res["metrics"][m]["value"])
                print(f"{w} {s} seed {seed}: " + " ".join(
                    f"{m}={res['metrics'][m]['value']:.6g}" for m in bounds),
                    file=sys.stderr)

    def quart(v):
        if len(v) < 2:
            return (v[0], v[0], v[0]) if v else (0, 0, 0)
        q1, q2, q3 = statistics.quantiles(v, n=4)
        return q1, q2, q3

    print(f"{'workload':14} {'metric':18} {'A q1/med/q3':>32} {'B q1/med/q3':>32}"
          f" {'spread':>7} {'diff':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m, b in bounds.items():
            a, bb = values[(w, "A")][m], values[(w, "B")][m]
            if not a or not bb:
                continue
            qa, qb = quart(a), quart(bb)
            q1, med, q3 = quart(a + bb)
            spread = (q3 - q1) / med if med else 0.0
            # Same code on both sides: a difference either way is noise.
            diff = abs(qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            agree = diff <= b["bound"]
            steady_ok = spread <= b["bound"]
            verdict = "ok" if agree and steady_ok else "NOT STEADY"
            if spread > b["bound"] / 3:
                verdict += " (spread > bound/3)"
            ok = ok and agree and steady_ok
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{w:14} {m:18} {fmt(qa):>32} {fmt(qb):>32}"
                  f" {spread:7.3f} {diff:7.3f} {b['bound']:6.2f}  {verdict}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--steady", type=int, metavar="N",
                    help="runs per set in the interleaved steadiness check")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        return 1
    if args.steady:
        return steady(args, spec)
    if not args.workload:
        ap.error("--workload is required")
    code, out = run(args.workload, args.seed,
                    args.seconds or spec["run_seconds"], args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
