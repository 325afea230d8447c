#!/usr/bin/env python3
"""Paired A/B of the serving benchmark between two checkouts.

Runs `perfbench/run.py --trace 0` alternately in a parent checkout and a
change checkout, one workload over a seed range, swapping which side runs
first in each pair. Every result line is appended to a JSONL file. For each
end-to-end metric that BENCHMARK.json declares, prints one markdown table
row: each side's median and quartiles, the pairs the change won (ties count
for neither), the median of the per-pair change/parent ratios, whether it
stays inside the metric's bound, and the verdict (see `verdict`). Then
prints `correct` and the failed request counts.

    python3 scripts/perfbench_ab.py --parent ../parent --change . \\
        --workload adapt --seeds 101-110 --out ab.jsonl
    python3 scripts/perfbench_ab.py --report ab.jsonl --workload adapt \\
        --seeds 101-110

Both checkouts build their own binary on first use (see perfbench/run.py).
Nothing else should load the machine during a run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# The checkout this script lives in, so it runs from any directory.
DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def parse_seeds(text):
    """'101-110' or '101,103,105' -> list of ints."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_side(checkout, workload, seed, seconds):
    """One untraced perfbench run; the parsed result, or an error dict."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unparsable: {lines[-1]!r}"}


def quartiles(values):
    """(median, Q1, Q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def fmt(v):
    return f"{v:.4g}"


def verdict(par, chg, won, better, bound):
    """The metric's verdict, from each side's runs and the pairs won.

    REGRESSED: the change median is worse than the parent median by more
    than the bound. unresolved: the parent's interquartile range exceeds
    bound x its median, unless every change run beats every parent run.
    gain: the change won at least 9/10 of the pairs and its median beats
    the parent's by more than the parent's interquartile range. Otherwise
    no change.
    """
    pm, pq1, pq3 = quartiles(par)
    cm = quartiles(chg)[0]
    iqr = pq3 - pq1
    # Signed improvement: positive when the change reads better.
    gained = pm - cm if better == "lower" else cm - pm
    if -gained > bound * abs(pm):
        return "REGRESSED"
    every_run_better = (max(chg) < min(par) if better == "lower"
                        else min(chg) > max(par))
    if iqr > bound * abs(pm) and not every_run_better:
        return "unresolved"
    if 10 * won >= 9 * len(par) and gained > iqr:
        return "gain"
    return "no change"


def report(records, metrics, workload, seeds):
    """Prints the A/B table for the records of `workload` on `seeds`."""
    runs = {}  # (side, seed) -> result; a later run of a seed replaces it
    for rec in records:
        if rec["workload"] == workload and rec["seed"] in seeds:
            runs[(rec["side"], rec["seed"])] = rec["result"]
    pairs = [s for s in seeds if ("parent", s) in runs and ("change", s) in runs]
    print(f"\n{workload}: {len(pairs)} pairs, seeds {pairs}\n")
    print("| metric | parent median [Q1, Q3] | change median [Q1, Q3] "
          "| change won | median ratio | inside bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        par, chg, ratios, won = [], [], [], 0
        for s in pairs:
            a = runs[("parent", s)].get("metrics", {}).get(name)
            b = runs[("change", s)].get("metrics", {}).get(name)
            if a is None or b is None:
                continue
            a, b = a["value"], b["value"]
            par.append(a)
            chg.append(b)
            if a != 0:
                ratios.append(b / a)
            if (b < a) if better == "lower" else (b > a):
                won += 1
        if not par:
            print(f"| {name} | - | - | - | - | - | - |")
            continue
        pm, pq1, pq3 = quartiles(par)
        cm, cq1, cq3 = quartiles(chg)
        ratio = statistics.median(ratios) if ratios else float("nan")
        inside = ratio <= 1 + bound if better == "lower" else ratio >= 1 - bound
        print(f"| {name} | {fmt(pm)} [{fmt(pq1)}, {fmt(pq3)}] "
              f"| {fmt(cm)} [{fmt(cq1)}, {fmt(cq3)}] | {won}/{len(par)} "
              f"| {ratio:.3f} | {'yes' if inside else 'NO'} "
              f"(±{bound:g}) | {verdict(par, chg, won, better, bound)} |")
    for side in ("parent", "change"):
        results = [runs[(side, s)] for s in pairs]
        correct = sum(1 for r in results if r.get("correct") is True)
        failed = sum(int(r.get("failed", 0)) for r in results)
        errors = sum(1 for r in results if "error" in r)
        print(f"\n{side}: correct {correct}/{len(results)}, "
              f"failed requests {failed}, run errors {errors}", end="")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="parent checkout")
    parser.add_argument("--change", help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 101-110")
    parser.add_argument("--seconds", type=int,
                        help="measured seconds (default: BENCHMARK.json)")
    parser.add_argument("--out", help="JSONL file the results append to")
    parser.add_argument("--report", help="only report from this JSONL file")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                        help="benchmark declaration (default: the "
                        "BENCHMARK.json of this script's checkout)")
    args = parser.parse_args()

    with open(args.benchmark) as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]
    seeds = parse_seeds(args.seeds)

    if args.report:
        with open(args.report) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        report(records, metrics, args.workload, seeds)
        return 0
    if not (args.parent and args.change and args.out):
        parser.error("--parent, --change and --out are required to run")
    seconds = args.seconds or bench.get("run_seconds", 10)
    records = []
    for i, seed in enumerate(seeds):
        sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in sides:
            checkout = args.parent if side == "parent" else args.change
            result = run_side(checkout, args.workload, seed, seconds)
            rec = {"side": side, "workload": args.workload, "seed": seed,
                   "result": result}
            records.append(rec)
            with open(args.out, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
            p50 = result.get("metrics", {}).get("p50_ms", {}).get("value")
            print(f"seed {seed} {side}: p50_ms {p50} "
                  f"{result.get('error', '')}", file=sys.stderr, flush=True)
    report(records, metrics, args.workload, seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
