#!/usr/bin/env python3
"""Steadiness check: run each workload K times and summarize every metric.

    python3 ladderbench/steady.py [--workloads a,b] [--runs K] [--sets 2]
                                  [--seed0 N] [--trace 0|1] [--out FILE]

Each run uses a different seed (seed0, seed0+1, ...; a second set continues
after the first). For every metric the tool prints the median, the spread
(IQR / median, quartiles as statistics.quantiles(values, n=4) gives them)
and min/max, and for end-to-end metrics compares the spread with the
metric's bound from BENCHMARK.json: a spread at or above the bound fails,
above a third of it warns. With --sets 2 it also compares the second set's
median with the first's: worse by more than the bound fails. Exit status is
non-zero when any check fails or any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # Host noise during the run, from run.py's stamp (shown, not checked).
    for line in lines:
        if line.startswith("# env "):
            steal = json.loads(line[len("# env "):]).get("cpu_steal_pct")
            if steal is not None:
                values["host.cpu_steal_pct"] = steal
    return values


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", help="write all values as JSON here")
    args = ap.parse_args()

    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    failures = 0
    report = {}
    seed = args.seed0
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            values = {}
            for _ in range(args.runs):
                got = one_run(workload, seed, args.seconds, args.trace)
                print(f"  {workload} set {s + 1} seed {seed}: "
                      f"{'ok' if got else 'FAILED'}", file=sys.stderr)
                seed += 1
                if got is None:
                    failures += 1
                    continue
                for k, v in got.items():
                    values.setdefault(k, []).append(v)
            sets.append(values)
        report[workload] = sets
        print(f"\n{workload}")
        print(f"  {'metric':30s} {'set':>3s} {'median':>12s} {'iqr/med':>8s} "
              f"{'min':>12s} {'max':>12s} {'bound':>6s}  verdict")
        for name in sets[0]:
            m = metric_spec.get(name, {})
            bound = m.get("bound")
            medians = []
            for i, values in enumerate(sets):
                vals = values.get(name, [])
                if not vals:
                    continue
                med = statistics.median(vals)
                medians.append(med)
                sp = spread(vals)
                verdict = ""
                if bound is not None and name != "setup_s":
                    if sp >= bound:
                        verdict = "FAIL spread"
                        failures += 1
                    elif sp > bound / 3:
                        verdict = "warn spread"
                print(f"  {name:30s} {i + 1:3d} {med:12.6g} {sp:8.3f} "
                      f"{min(vals):12.6g} {max(vals):12.6g} "
                      f"{'' if bound is None else bound:>6}  {verdict}")
            if bound is not None and len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
                verdict = "FAIL drift" if worse > bound else "ok"
                failures += verdict != "ok"
                print(f"  {name:30s} set 2 vs 1: {change:+.3f}  {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print(f"\n{'FAILED' if failures else 'steady'}: {failures} failing checks")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
