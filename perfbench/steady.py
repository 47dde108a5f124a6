#!/usr/bin/env python3
"""Steadiness table: run the benchmark on several seeds per workload and
report, per metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median), as the acceptance rule
computes them with statistics.quantiles(values, n=4).

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Run from the repository root. Each run measures BENCHMARK.json's
run_seconds. Prints each workload's run context (nproc, rustc, jobs) and
a Markdown table of its end-to-end metrics, and exits nonzero if a run
fails or a spread exceeds a third of its metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    table = []
    for w in [x["name"] for x in spec["workloads"]]:
        values = {}
        contexts = set()
        for i in range(a.runs):
            seed = a.first_seed + i
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                sys.stderr.write(p.stdout + p.stderr)
                table.append(f"| {w} | run with seed {seed} failed ({p.returncode}) | | | | | | |")
                ok = False
                continue
            lines = p.stdout.strip().splitlines()
            run = json.loads(lines[-2])["run"]
            contexts.add(f"nproc {run['nproc']}, jobs {run['jobs']}, {run['rustc']}")
            res = json.loads(lines[-1])
            for name, m in res["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        for name, (unit, vs) in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan") if q3 != q1 else 0.0
            third = bounds[name] / 3
            flag = ""
            if not spread <= third:
                flag = " !"
                ok = False
            table.append(f"| {w} | {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                         f"{spread:.4f}{flag} | {third:.4f} |")
        print(f"{w}: {'; '.join(sorted(contexts))}", flush=True)
    print("| workload | metric | unit | median | Q1 | Q3 | spread | bound/3 |")
    print("|---|---|---|---|---|---|---|---|")
    print("\n".join(table))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
