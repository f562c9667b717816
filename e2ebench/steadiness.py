#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Run from the repository root:

    python3 e2ebench/steadiness.py run --seed0 1000 --out A.json
    python3 e2ebench/steadiness.py compare A.json B.json
    python3 e2ebench/steadiness.py report A.json B.json > STEADINESS.md

`run` executes the command in BENCHMARK.json ten times on each of its
workloads (seeds seed0, seed0+1, ...), with BENCHMARK.json's run_seconds,
and records every end-to-end metric, and, from the human-readable report,
the sim rate measured on the host and the yardstick time it was scaled by. For each metric it reports the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. `compare` checks that the second set's medians are not
worse than the first's by more than the bound. `report` renders both sets
and their comparison as markdown.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

RUNS = 10
# The sim_rate line's base: the rate on this host and the yardstick time.
HOST_RATE = re.compile(r"([0-9.]+) sim-s/s here x yardstick ([0-9.]+) s")


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    host = HOST_RATE.search(proc.stdout)
    host = (float(host.group(1)), float(host.group(2))) if host else None
    return proc.returncode, wall, result, host


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "within_bound": bound is not None and spread <= bound,
        "below_third": bound is not None and spread < bound / 3,
        "values": values,
    }


def cmd_run(args):
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"runs": RUNS, "seed0": args.seed0, "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        per_metric = {name: [] for name in bounds}
        walls, failures, host_rates, yardsticks = [], [], [], []
        for i in range(RUNS):
            seed = args.seed0 + i
            code, wall, result, host = run_once(bench, w, seed, 0)
            walls.append(wall)
            if code != 0 or result is None or not result["correct"] or host is None:
                failures.append({"seed": seed, "exit": code, "result": result})
                continue
            for name in bounds:
                per_metric[name].append(result["metrics"][name]["value"])
            host_rates.append(host[0])
            yardsticks.append(host[1])
            print(f"{w} seed {seed}: {wall:.1f} s " + " ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds)
                + f" host_rate={host[0]:.6g} yardstick_s={host[1]:.6g}", flush=True)
        entry = {"wall_s": walls, "failures": failures, "metrics": {},
                 "host_rate": host_rates, "yardstick_s": yardsticks}
        for name, values in per_metric.items():
            if len(values) >= 2:
                s = summarize(values, bounds[name])
                entry["metrics"][name] = s
                gated = name != "setup_s"
                ok &= s["within_bound"] or not gated
                flag = "" if s["below_third"] else (" WITHIN BOUND" if s["within_bound"] else " OVER BOUND")
                print(f"  {w:9} {name:13} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.4f} bound {s['bound']}{flag}", flush=True)
        for name, values in (("host_rate", host_rates), ("yardstick_s", yardsticks)):
            if len(values) >= 2:
                s = summarize(values, None)
                print(f"  {w:9} {name:13} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.4f} (not a metric)", flush=True)
        ok &= not failures
        record["workloads"][w] = entry
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
    return 0 if ok else 1


def comparisons(a, b, better):
    """(workload, metric, first median, second median, share worse, bound)."""
    for w, entry in a["workloads"].items():
        for name, s in entry["metrics"].items():
            m1, m2 = s["median"], b["workloads"][w]["metrics"][name]["median"]
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            yield w, name, m1, m2, worse, s["bound"]


def load_sets(first, second):
    with open(first) as f:
        a = json.load(f)
    with open(second) as f:
        b = json.load(f)
    return a, b


def cmd_compare(args):
    better = {m["name"]: m["better"] for m in load_benchmark()["end_to_end"]}
    a, b = load_sets(args.first, args.second)
    ok = True
    for w, name, m1, m2, worse, bound in comparisons(a, b, better):
        fine = worse <= bound
        ok &= fine
        print(f"{w:9} {name:13} first {m1:.6g} second {m2:.6g} worse by {worse:+.4f} "
              f"(bound {bound}){'' if fine else ' REGRESSION'}")
    return 0 if ok else 1


def cmd_report(args):
    better = {m["name"]: m["better"] for m in load_benchmark()["end_to_end"]}
    a, b = load_sets(args.first, args.second)
    out = []
    for label, rec in (("1", a), ("2", b)):
        out.append(f"### Set {label}: seeds {rec['seed0']}–{rec['seed0'] + rec['runs'] - 1}, "
                   f"{rec['runs']} runs per workload, {rec['run_seconds']} s each\n")
        out.append("| workload | metric | median | q1 | q3 | spread | bound | spread < bound/3 |")
        out.append("|---|---|---|---|---|---|---|---|")
        for w, entry in rec["workloads"].items():
            for name, s in entry["metrics"].items():
                third = "yes" if s["below_third"] else ("no (within bound)" if s["within_bound"] else "NO (over bound)")
                if name == "setup_s":
                    third += ", not gated"
                out.append(f"| {w} | {name} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} | "
                           f"{s['spread']:.4f} | {s['bound']} | {third} |")
            if entry["failures"]:
                out.append(f"| {w} | failed runs | {len(entry['failures'])} | | | | | |")
        out.append("")
        out.append("Not metrics: the sim rate as measured on the host, before scaling, "
                   "and the yardstick time it was scaled by.\n")
        out.append("| workload | measured | median | q1 | q3 | spread |")
        out.append("|---|---|---|---|---|---|")
        for w, entry in rec["workloads"].items():
            for name, unit in (("host_rate", "sim-s/s"), ("yardstick_s", "s")):
                if len(entry[name]) >= 2:
                    s = summarize(entry[name], None)
                    out.append(f"| {w} | {name} ({unit}) | {s['median']:.6g} | {s['q1']:.6g} | "
                               f"{s['q3']:.6g} | {s['spread']:.4f} |")
        out.append("")
    out.append("### Set 2 against set 1\n")
    out.append("| workload | metric | median 1 | median 2 | 2 worse by | bound | within |")
    out.append("|---|---|---|---|---|---|---|")
    for w, name, m1, m2, worse, bound in comparisons(a, b, better):
        out.append(f"| {w} | {name} | {m1:.6g} | {m2:.6g} | {worse:+.4f} | {bound} | "
                   f"{'yes' if worse <= bound else 'NO'} |")
    print("\n".join(out))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seed0", type=int, required=True)
    r.add_argument("--out", required=True)
    for name in ("compare", "report"):
        c = sub.add_parser(name)
        c.add_argument("first")
        c.add_argument("second")
    args = p.parse_args()
    return {"run": cmd_run, "compare": cmd_compare, "report": cmd_report}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
