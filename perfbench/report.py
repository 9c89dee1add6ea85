#!/usr/bin/env python3
"""Runs the benchmark described by BENCHMARK.json and summarises it.

Run from the repository root:

  python3 perfbench/report.py metrics [--seed N] [--seconds S]
      Runs every workload once untraced and once traced and prints every
      metric by name, with its value and unit.

  python3 perfbench/report.py spread [--runs N] [--first-seed N]
                                     [--workload W ...] [--seconds S]
      Runs each workload N times untraced, one seed per run, and prints
      for every end-to-end metric the median, the quartiles and the
      quartile spread as a share of the median, against the metric's
      bound in BENCHMARK.json.

Each run is its own process, so peak memory belongs to one workload.
A run that exits non-zero (a wrong answer) stops the report.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    env = next((l[4:] for l in lines if l.startswith("env ")), "{}")
    return result, json.loads(env)


def cmd_metrics(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, env = run_once(spec, w["name"], args.seed, seconds, trace)
            print(f"# {w['name']} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} env={json.dumps(env)}")
            for name, m in result["metrics"].items():
                print(f"{w['name']:<14} {name:<28} {m['value']:<24.6g} {m['unit']}")


def cmd_spread(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for w in names:
        values = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            result, env = run_once(spec, w, seed, seconds, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        print(f"{w}  (runs={args.runs}, seconds={seconds}, nproc={env.get('nproc')}, "
              f"jobs={env.get('jobs')}, profile={env.get('profile')}, commit={env.get('commit')})")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            if name == "setup_s":
                verdict = "(not bounded by spread)"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {bound:>6}  {verdict}")
    print(f"worst spread / bound: {worst:.3f}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("metrics")
    m.add_argument("--seed", type=int, default=1)
    m.add_argument("--seconds", type=float)
    s = sub.add_parser("spread")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    s.add_argument("--workload", action="append")
    s.add_argument("--seconds", type=float)
    args = p.parse_args()
    {"metrics": cmd_metrics, "spread": cmd_spread}[args.cmd](args)


if __name__ == "__main__":
    main()
