#!/usr/bin/env python3
"""Same-code agreement check for the benchmark.

Runs the command in BENCHMARK.json several times per workload, each run
with another seed, in one or two rounds, and checks what a later change
is judged by:

* the spread of each end-to-end metric over a round -- the distance
  between its first and third quartile as a share of its median -- stays
  within the metric's bound, and
* the second round's median is not worse than the first's by more than
  the bound, for every metric.

Run from the repository root:

    python3 e2ebench/agree.py --runs 10 --rounds 2
    python3 e2ebench/agree.py --runs 5 --rounds 1 --workloads segformer_open

Exit status 0 when every check holds; the table marks a spread above a
third of its bound as "wide".
"""

import argparse
import json
import statistics
import subprocess
import sys

# Seed of the first run; run i of round r uses SEED_BASE + r * runs + i.
SEED_BASE = 1000


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def worsening(first, second, better):
    """How much worse (as a share of `first`) `second` is; <= 0 if not worse."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def judge(rounds, metrics):
    """Checks a list of rounds, each {metric: [values]}, against `metrics`
    (the end_to_end entries of BENCHMARK.json). Returns (rows, ok): one
    row per metric with its spreads, median worsening and verdict."""
    rows, ok = [], True
    for m in metrics:
        name, bound = m["name"], m["bound"]
        spreads = [spread(r[name]) for r in rounds]
        medians = [statistics.median(r[name]) for r in rounds]
        worse = worsening(medians[0], medians[-1], m["better"]) if len(rounds) > 1 else 0.0
        problems = []
        if any(s > bound for s in spreads):
            problems.append("spread above bound")
        if worse > bound:
            problems.append("median worse than bound")
        if not problems and any(s > bound / 3 for s in spreads):
            problems.append("wide")
        ok = ok and not any(p != "wide" for p in problems)
        rows.append((name, bound, medians, spreads, worse, problems))
    return rows, ok


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(cfg, workload, seed):
    cmd = cfg["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(cfg["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    result = last_json(out.stdout)
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--config", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.config) as f:
        cfg = json.load(f)
    names = args.workloads or [w["name"] for w in cfg["workloads"]]
    all_ok = True
    for w in names:
        rounds = []
        for r in range(args.rounds):
            values = {m["name"]: [] for m in cfg["end_to_end"]}
            for i in range(args.runs):
                seed = SEED_BASE + r * args.runs + i
                got = run_once(cfg, w, seed)
                for k in values:
                    values[k].append(got[k])
                print(f"{w} round {r + 1} seed {seed}: "
                      + " ".join(f"{k}={got[k]:.6g}" for k in values), flush=True)
            rounds.append(values)
        rows, ok = judge(rounds, cfg["end_to_end"])
        all_ok = all_ok and ok
        print(f"\n{w}: {'ok' if ok else 'FAILED'}")
        for name, bound, medians, spreads, worse, problems in rows:
            print(f"  {name:18} bound={bound:<5} medians="
                  + "/".join(f"{m:.6g}" for m in medians)
                  + " spreads=" + "/".join(f"{s:.4f}" for s in spreads)
                  + f" worse={worse:+.4f} {' '.join(problems)}")
        print(flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
