#!/usr/bin/env python3
"""Paired before/after comparison for npral-bench.

Collect ten runs of one checkout (run-to-run spread of one commit):

    python3 npral-bench/compare.py runs DIR --workload W --out a.jsonl

Collect ten alternating pairs of two checkouts, base first on even pairs
and change first on odd ones, each pair on its own seed:

    python3 npral-bench/compare.py pairs BASE_DIR CHANGE_DIR --workload W \\
        --out ab.jsonl

Seeds are 1..10 and each run lasts the checkout's BENCHMARK.json
run_seconds. Add --trace 1 to collect per-layer runs instead.

Report (any number of result files; per-layer metrics have no bound):

    python3 npral-bench/compare.py report ab.jsonl

For every (metric, workload) the report prints each side's median and
quartiles (statistics.quantiles, n=4) and the spread (IQR over median).
Metric directions and bounds come from the BENCHMARK.json next to this
directory. With both sides present it gives a verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base's IQR;
  worse       the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  the base's spread exceeds the bound, unless every change run
              reads better than every base run;
  same        otherwise (no worse than the bound).

A gain does not count when the change fails more operations than the base.
Each result file line is {"side", "pair", "workload", "seed", "trace",
"result"}, where "result" is run.py's JSON line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")
COUNT = 10


def run_once(checkout, workload, seed, trace):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    cmd = [sys.executable, os.path.join("npral-bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"compare: run failed in {checkout} (exit {proc.returncode})")
    return json.loads(lines[-1])


def collect(args, sides):
    with open(args.out, "a") as out:
        for i in range(COUNT):
            seed = i + 1
            order = sides if i % 2 == 0 else list(reversed(sides))
            for side, checkout in order:
                res = run_once(checkout, args.workload, seed, args.trace)
                row = {"side": side, "pair": i, "workload": args.workload,
                       "seed": seed, "trace": args.trace, "result": res}
                out.write(json.dumps(row) + "\n")
                out.flush()
                print(f"{side} pair {i} seed {seed}: correct="
                      f"{res['correct']} failed={res['failed']}",
                      file=sys.stderr)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(base, change, pairs, direction, bound, fails):
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    spread = (bq3 - bq1) / bmed if bmed else 0.0
    wins = sum(1 for b, c in pairs if better(c, b, direction))
    decided = len(pairs)
    gained = (decided > 0 and wins >= 0.9 * decided
              and abs(cmed - bmed) > (bq3 - bq1))
    if gained and fails[1] <= fails[0]:
        return f"improved ({wins}/{decided} pairs)"
    if bound is None:
        return f"n/a ({wins}/{decided} pairs)"
    worse_by = (bmed - cmed if direction == "higher" else cmed - bmed)
    if bmed and worse_by / abs(bmed) > bound:
        return f"worse ({worse_by / abs(bmed):+.1%} > bound {bound:.0%})"
    if spread > bound and not all(better(c, b, direction)
                                  for c in change for b in base):
        return f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
    return "same"


def report(files):
    with open(SPEC) as f:
        spec = json.load(f)
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for path in files:
        with open(path) as f:
            rows += [json.loads(line) for line in f if line.strip()]
    keys = sorted({(r["workload"], r["trace"]) for r in rows})
    for workload, trace in keys:
        group = [r for r in rows
                 if r["workload"] == workload and r["trace"] == trace]
        sides = sorted({r["side"] for r in group})
        fails = [sum(r["result"]["failed"] for r in group if r["side"] == s)
                 for s in ("base", "change")]
        print(f"\n== {workload} (trace {trace}); runs: "
              + ", ".join(f"{s} {sum(r['side'] == s for r in group)}"
                          for s in sides)
              + "; failed ops: " + ", ".join(
                  f"{s} {sum(r['result']['failed'] for r in group if r['side'] == s)}"
                  for s in sides))
        names = sorted({n for r in group for n in r["result"]["metrics"]})
        for name in names:
            m = info.get(name, {"better": "lower", "unit": "?"})
            cells = []
            by_side = {}
            for s in sides:
                vals = [r["result"]["metrics"][name]["value"]
                        for r in group if r["side"] == s]
                by_side[s] = vals
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                cells.append(f"{s} {med:.6g} [{q1:.6g}, {q3:.6g}] "
                             f"spread {spread:.1%}")
            line = f"  {name:34s} {m['unit']:>10s}  " + " | ".join(cells)
            if "base" in by_side and "change" in by_side:
                pairs = []
                for r in group:
                    if r["side"] != "base":
                        continue
                    other = [c for c in group if c["side"] == "change"
                             and c["pair"] == r["pair"]]
                    if other:
                        pairs.append(
                            (r["result"]["metrics"][name]["value"],
                             other[0]["result"]["metrics"][name]["value"]))
                line += "  -> " + verdict(by_side["base"], by_side["change"],
                                          pairs, m["better"], m.get("bound"),
                                          fails)
            print(line)


def main():
    ap = argparse.ArgumentParser(
        description="Paired before/after comparison for npral-bench.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("runs", "pairs"):
        p = sub.add_parser(name)
        if name == "runs":
            p.add_argument("checkout")
        else:
            p.add_argument("base")
            p.add_argument("change")
        p.add_argument("--workload", required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--out", required=True)
    p = sub.add_parser("report")
    p.add_argument("files", nargs="+")
    args = ap.parse_args()
    if args.cmd == "runs":
        collect(args, [("base", args.checkout)])
    elif args.cmd == "pairs":
        collect(args, [("base", args.base), ("change", args.change)])
    else:
        report(args.files)


if __name__ == "__main__":
    main()
