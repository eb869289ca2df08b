"""Repeated runs, steadiness checks and commit comparison for run.py.

    python3 bench/stats.py runs --workload float_scale --seeds 1-10 --out a.jsonl
    python3 bench/stats.py counts --workload exact_corpus --seed 7
    python3 bench/stats.py compare parent.jsonl change.jsonl

``runs`` runs run.py once per seed, strictly one after another, appends
each result line (with its seed) to --out and prints per metric the
median, the quartiles and the spread (interquartile distance over the
median).  ``counts`` makes two traced runs with the same seed and fails
unless every count metric repeats exactly.  ``compare`` applies the
pairing rule of the README to two result files of the same workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "bits")


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=BENCH.parent)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py failed for seed {seed}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    # the run's notes: raw timings, speed against the reference, item count
    result["notes"] = next(json.loads(x) for x in lines if x.startswith('{"workload"'))
    return result


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(results):
    """{metric: (median, q1, q3, spread)} over the results."""
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = (med, q1, q3, (q3 - q1) / med if med else 0.0)
    return out


def cmd_runs(args):
    results = []
    for seed in seed_list(args.seeds):
        r = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(r)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(r) + "\n")
        print(f"seed {seed}: correct={r['correct']} failed={r['failed']}", flush=True)
    print(f"{'metric':30s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, (med, q1, q3, spread) in summary(results).items():
        print(f"{name:30s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")


def cmd_counts(args):
    a, b = (run_once(args.workload, args.seed, args.seconds, 1) for _ in range(2))
    bad = [k for k, m in a["metrics"].items()
           if m["unit"] in COUNT_UNITS and m["value"] != b["metrics"][k]["value"]]
    for k, m in a["metrics"].items():
        if m["unit"] in COUNT_UNITS:
            print(f"{k:30s} {m['value']:>10} {b['metrics'][k]['value']:>10}")
    if bad:
        raise SystemExit(f"counts differ between two runs of seed {args.seed}: {bad}")
    print("every count repeated exactly")


def cmd_compare(args):
    parent, change = load(args.parent), load(args.change)
    if len(parent) != len(change):
        raise SystemExit("compare needs the same number of runs on both sides")
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ps, cs = summary(parent), summary(change)
    print(f"{'metric':30s} {'parent':>12s} {'change':>12s} {'wins':>6s}  verdict")
    for name in ps:
        if name not in cs:
            continue
        sign = 1 if better.get(name, "lower") == "higher" else -1
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)]
        wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
        pmed, pq1, pq3, _ = ps[name]
        cmed = cs[name][0]
        gain = sign * (cmed - pmed)
        if wins >= 0.9 * len(pairs) and gain > pq3 - pq1:
            verdict = "better"
        elif name in bound and -gain > bound[name] * abs(pmed):
            verdict = "WORSE beyond bound"
        else:
            verdict = "no resolved change"
        print(f"{name:30s} {pmed:12.6g} {cmed:12.6g} {wins:3d}/{len(pairs):<2d}  {verdict}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,9")
    r.add_argument("--seconds", type=float, default=20)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", help="append result lines to this JSONL file")
    r.set_defaults(func=cmd_runs)
    c = sub.add_parser("counts")
    c.add_argument("--workload", required=True)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--seconds", type=float, default=20)
    c.set_defaults(func=cmd_counts)
    m = sub.add_parser("compare")
    m.add_argument("parent")
    m.add_argument("change")
    m.set_defaults(func=cmd_compare)
    args = p.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
