#!/usr/bin/env python3
"""Builds balign's end-to-end benchmark and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: suite-tsp, bounds-audit, serve-mixed
(perfbench/README.md describes each, and every metric). The program is
built from ../src with perfbench/CMakeLists.txt (optimized, NDEBUG) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; build output
goes to stderr. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
stamp naming the build, the machine and the inputs the seed selected.
--smoke runs the smallest inputs (the benchmark's own test).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("suite-tsp", "bounds-audit", "serve-mixed")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        return fail("--seed must be >= 0 and --seconds in [1, 600]")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"balign sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        return fail("cmake not found")
    try:
        program = build()
    except subprocess.CalledProcessError as err:
        return fail(f"build failed: {err}")

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    command = [str(program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--digests", str(BENCH_DIR / "digests.txt"),
               "--commit", commit_id()]
    if args.smoke:
        command.append("--smoke")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        return fail(f"perfbench exited with status {run.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return fail("perfbench printed a malformed result")
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
