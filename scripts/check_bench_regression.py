#!/usr/bin/env python3
"""Perf-regression gate for the committed bench baselines.

Two report schemas are understood, detected from the current report's keys:

* Google Benchmark native JSON (``batch_throughput --json`` writes
  ``BENCH_batch_throughput.json``): throughput is 64 programs per batch
  iteration divided by the per-batch ``real_time``.

* BenchReport scalar JSON (``grid_throughput --json`` writes
  ``BENCH_grid_throughput.json`` with a ``scalars`` map): every numeric
  scalar is compared directly as a higher-is-better value. The grid
  simulator is deterministic, so these gates can run tight tolerances.
  Scalars named in ``--lower-is-better`` flip direction: they regress when
  they *grow* past the tolerance (wall clocks, overhead bounds,
  instrumentation-site counts — ``trace_overhead`` is gated this way).

Usage:
  check_bench_regression.py --baseline bench/baseline_batch_throughput.json \
      --current BENCH_batch_throughput.json [--tolerance-pct 15]
  check_bench_regression.py --current ... --baseline ... --update
      # rewrite the baseline from the current report (deliberate refresh)
"""

import argparse
import json
import sys

CORPUS_PROGRAMS = 64

_TIME_UNIT_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def load_current(path):
    """Detect the schema of a fresh report and extract {name: value} where
    value is higher-is-better. Returns (kind, values): kind "gb" values are
    programs/sec derived from real_time; kind "scalars" values are the
    BenchReport scalars (non-numeric scalars are skipped)."""
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" in doc:
        entries = doc.get("benchmarks", [])
        medians = [e for e in entries if e.get("aggregate_name") == "median"]
        if medians:
            chosen = medians
        else:
            chosen = [e for e in entries
                      if e.get("run_type", "iteration") == "iteration"]
        seconds = {}
        for e in chosen:
            name = e.get("run_name") or e["name"]
            # A repeated benchmark contributes several iteration entries
            # under the same run_name; keep the fastest (least-noise)
            # sample.
            sec = e["real_time"] * _TIME_UNIT_SECONDS[e.get("time_unit",
                                                            "ns")]
            if name not in seconds or sec < seconds[name]:
                seconds[name] = sec
        return "gb", {name: CORPUS_PROGRAMS / sec
                      for name, sec in seconds.items()}
    if "scalars" in doc:
        values = {}
        for name, raw in doc["scalars"].items():
            try:
                values[name] = float(raw)
            except (TypeError, ValueError):
                continue
        return "scalars", values
    return "unknown", {}


def write_baseline(path, kind, current):
    if kind == "gb":
        doc = {
            "corpus_programs": CORPUS_PROGRAMS,
            "note": "programs_per_sec = corpus_programs / per-batch "
                    "real_time; refresh with "
                    "scripts/check_bench_regression.py --update",
            "benchmarks": {
                name: {
                    "real_time_ms": round(CORPUS_PROGRAMS / pps * 1e3, 3),
                    "programs_per_sec": round(pps, 1),
                }
                for name, pps in sorted(current.items())
            },
        }
    else:
        doc = {
            "note": "BenchReport scalars, higher-is-better unless the gate "
                    "names them in --lower-is-better; refresh with "
                    "scripts/check_bench_regression.py --update",
            "scalars": {name: round(v, 6)
                        for name, v in sorted(current.items())},
        }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote baseline {path} ({len(current)} entries)")


def load_baseline(path):
    with open(path) as f:
        baseline = json.load(f)
    if "benchmarks" in baseline:
        return "gb", {name: b["programs_per_sec"]
                      for name, b in baseline["benchmarks"].items()}
    if "scalars" in baseline:
        return "scalars", dict(baseline["scalars"])
    return "unknown", {}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="committed baseline JSON (reduced schema)")
    ap.add_argument("--current", required=True,
                    help="fresh bench JSON report (GB native or BenchReport)")
    ap.add_argument("--tolerance-pct", type=float, default=15.0,
                    help="max allowed regression in percent (default 15)")
    ap.add_argument("--lower-is-better", default="",
                    help="comma-separated scalar names where a smaller "
                         "value is better; these regress when they grow "
                         "past the tolerance")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the current report")
    args = ap.parse_args()
    lower_is_better = {name.strip()
                       for name in args.lower_is_better.split(",")
                       if name.strip()}

    kind, current = load_current(args.current)
    if not current:
        print(f"error: no comparable entries in {args.current}",
              file=sys.stderr)
        return 2

    if args.update:
        write_baseline(args.baseline, kind, current)
        return 0

    base_kind, base = load_baseline(args.baseline)
    if not base:
        print(f"error: no entries in baseline {args.baseline}",
              file=sys.stderr)
        return 2
    if base_kind != kind:
        print(f"error: baseline schema '{base_kind}' does not match current "
              f"report schema '{kind}'", file=sys.stderr)
        return 2

    unit = "p/s" if kind == "gb" else "value"
    failures = []
    missing = []
    compared = 0
    print(f"{'benchmark':40} {'base ' + unit:>12} {'now ' + unit:>12} "
          f"{'delta':>8}")
    for name, base_val in sorted(base.items()):
        if name not in current:
            missing.append(name)
            continue
        compared += 1
        cur_val = current[name]
        delta_pct = (cur_val - base_val) / base_val * 100.0
        marker = ""
        # For a higher-is-better value a drop past the tolerance regresses;
        # a lower-is-better value regresses when it grows past it.
        signed = -delta_pct if name in lower_is_better else delta_pct
        if signed < -args.tolerance_pct:
            failures.append(name)
            marker = "  << REGRESSION"
        print(f"{name:40} {base_val:12.3f} {cur_val:12.3f} "
              f"{delta_pct:+7.1f}%{marker}")
    for name in sorted(set(current) - set(base)):
        print(f"{name:40} {'-':>12} {current[name]:12.3f}   "
              f"(new, no baseline)")

    if missing:
        print(f"error: baseline entries missing from current report: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    if compared == 0:
        print("error: no entries compared", file=sys.stderr)
        return 2
    if failures:
        print(f"FAIL: regressed >{args.tolerance_pct:g}% on: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"OK: {compared} entries within {args.tolerance_pct:g}% "
          f"of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
