"""Run each workload repeatedly and report every metric against its bound.

    python3 perfbench/repeat.py [--out .perfbench_out/repeat.json]

Run from the root of a source checkout. For every workload in
BENCHMARK.json it runs the command from BENCHMARK.json for `run_seconds`
with seeds 1 to 10, one run at a time. For every end-to-end metric the
report gives the median, the quartiles (`statistics.quantiles(values,
n=4)`), the spread (q3 - q1) as a share of the median, and the bound: a
spread above a third of the bound is marked, and the exit code is then 1.
Then two traced runs per workload (seeds 1 and 2) give the tracing overhead
(traced op_s over the untraced median) and the largest per-layer self
times. The whole report is also written as JSON to `--out`.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
TRACED_SEEDS = (1, 2)
SELF_TIME_ROWS = 8


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(bench: dict, workload: str, results: list[dict]) -> dict:
    rows = {}
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        rows[metric["name"]] = {
            "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": spread, "bound": metric["bound"], "values": values,
            "steady": spread <= metric["bound"] / 3}
    shares = {r["failed"] / r["attempted"] for r in results}
    return {"workload": workload, "metrics": rows,
            "correct": all(r["correct"] for r in results),
            "failed_shares": sorted(shares),
            "attempted": [r["attempted"] for r in results]}


def trace_report(root, command, workload, seeds, seconds, untraced_op_s):
    traced, raw, layers = [], [], {}
    for seed in seeds:
        result = run_once(command, workload, seed, seconds, 1)
        path = os.path.join(root, ".perfbench_out",
                            f"trace-{workload}-seed{seed}.json")
        with open(path) as fh:
            doc = json.load(fh)
        traced.append(doc["op_s"])
        raw.append(doc["raw_op_s"])
        for name, m in result["metrics"].items():
            layers.setdefault(name, []).append(m["value"])
    op_s = statistics.median(traced)
    per_layer = {k: statistics.median(v) for k, v in layers.items()}
    return {"traced_op_s": op_s, "traced_raw_op_s": statistics.median(raw),
            "overhead": op_s / untraced_op_s - 1, "per_layer": per_layer}


def print_report(summary: dict, trace: dict, seconds):
    s = summary
    print(f"\n## {s['workload']}  ({len(s['attempted'])} runs of {seconds} s, "
          f"operations per run {min(s['attempted'])}-{max(s['attempted'])}, "
          f"correct={s['correct']}, failed shares {s['failed_shares']})")
    print("| metric | unit | median | q1 | q3 | spread | bound | |")
    print("|---|---|---|---|---|---|---|---|")
    for name, m in s["metrics"].items():
        print(f"| {name} | {m['unit']} | {m['median']:.6g} | {m['q1']:.6g} | "
              f"{m['q3']:.6g} | {m['spread']:.4f} | {m['bound']} | "
              f"{'ok' if m['steady'] else 'SPREAD > bound/3'} |")
    print(f"\ntraced op_s {trace['traced_op_s']:.6g} s (raw "
          f"{trace['traced_raw_op_s']:.6g} s), tracing overhead "
          f"{100 * trace['overhead']:.1f}%; largest raw self times per op:")
    selfs = sorted(((v, k) for k, v in trace["per_layer"].items()
                    if k.endswith("self_s")), reverse=True)
    for v, k in selfs[:SELF_TIME_ROWS]:
        print(f"- {k}: {v:.4f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=os.path.join(".perfbench_out",
                                                  "repeat.json"))
    args = ap.parse_args(argv)
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    report = []
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(bench["command"], workload, seed, seconds, 0)
                   for seed in SEEDS]
        summary = summarise(bench, workload, results)
        trace = trace_report(root, bench["command"], workload, TRACED_SEEDS,
                             seconds, summary["metrics"]["op_s"]["median"])
        print_report(summary, trace, seconds)
        sys.stdout.flush()
        report.append({"summary": summary, "trace": trace})
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"seconds": seconds, "seeds": list(SEEDS),
                   "workloads": report}, fh, indent=1)
    steady = all(m["steady"] for r in report
                 for m in r["summary"]["metrics"].values())
    return 0 if steady and all(r["summary"]["correct"] for r in report) else 1


if __name__ == "__main__":
    sys.exit(main())
