#!/usr/bin/env python3
"""Self-test of the benchmark's checkers and seed discipline.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it asserts that:
  - a clean run exits 0 with no failed check;
  - a second run with the same seed reports identical sim_* metrics and
    sim_digest;
  - each negative control (--corrupt drop-record | swap-flow |
    shift-cycle) fails a check (failed_share > 0) and exits nonzero.
It also asserts that the command exits nonzero without printing a result
in a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORRUPTIONS = ["drop-record", "swap-flow", "shift-cycle"]
SEED = 11
SECONDS = 1


def run(spec, workload, extra=(), cwd=ROOT):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", str(SECONDS), "--trace", "0", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = digest = None
    if len(lines) >= 2 and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        digest = json.loads(lines[-2])["run"]["sim_digest"]
    return p.returncode, result, digest, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in [x["name"] for x in spec["workloads"]]:
        code, res, digest, err = run(spec, w)
        expect(code == 0 and res and res["correct"] and res["failed"] == 0,
               f"{w}: clean run passes every check (exit {code})")
        if code != 0:
            sys.stderr.write(err)
        code2, res2, digest2, _ = run(spec, w)
        sim = lambda r: {k: v["value"] for k, v in (r or {}).get("metrics", {}).items()
                         if k.startswith("sim_")}
        expect(code2 == 0 and digest and digest == digest2 and sim(res) == sim(res2),
               f"{w}: same seed, same sim_* and sim_digest ({digest} vs {digest2})")
        for kind in CORRUPTIONS:
            code, res, _, _ = run(spec, w, ["--corrupt", kind])
            tripped = res is not None and res["failed"] > 0 and not res["correct"]
            expect(code != 0 and tripped,
                   f"{w}: --corrupt {kind} fails a check and exits nonzero (exit {code}, "
                   f"failed {res and res['failed']} of {res and res['attempted']})")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "target"))
    w = spec["workloads"][0]["name"]
    code, res, _, _ = run(spec, w, cwd=bare)
    expect(code != 0 and res is None,
           f"without the repository's crates the command exits nonzero (exit {code}) "
           "and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
