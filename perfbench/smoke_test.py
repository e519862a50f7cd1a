#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload BENCHMARK.json names at its smallest size, untraced
and traced, and checks that the correctness gate passes and that every
metric BENCHMARK.json lists for that mode is printed with its unit (and
no other). Run from anywhere:

    python3 perfbench/smoke_test.py

Exits 0 when every run passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(spec, workload, trace):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True)
    if run.returncode != 0:
        return [f"exit status {run.returncode}: {run.stderr.strip()[-400:]}"]
    result = json.loads(run.stdout.splitlines()[-1])
    problems = []
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("correctness gate failed")
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    want = {m["name"]: m["unit"] for m in
            spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if set(got) != set(want):
        problems.append(f"missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}")
    problems += [f"{name} in {got[name]}, want {unit}"
                 for name, unit in want.items()
                 if name in got and got[name] != unit]
    problems += [f"{name} is not a number" for name, m in
                 result["metrics"].items()
                 if not isinstance(m["value"], (int, float))]
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check(spec, workload, trace)
            status = "FAIL" if problems else "ok"
            print(f"{status:4s} {workload} --trace {trace}"
                  + ("".join(f"\n     {p}" for p in problems)))
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
