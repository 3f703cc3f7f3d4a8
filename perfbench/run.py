#!/usr/bin/env python3
"""Build and run the CFS wall-clock benchmark.

    python3 perfbench/run.py --workload meta_churn --seed 1 --seconds 45 --trace 0

Run from the repository root. `--workload all` runs every workload in
turn. The benchmark is built from source with cargo (offline) into
$CARGO_TARGET_DIR, `.bench_build` by default; the cluster's engine
directories and the span files of traced runs go under the same
directory. The last line of output is the JSON result of the run (of
the last workload for `all`). A failed build exits non-zero and prints
no result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["meta_churn", "small_files", "large_files"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")

    code = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        # Each run gets its own temporary directory for the cluster's
        # engine files, removed when the run ends.
        tmp = os.path.join(target, "perfbench-tmp", str(os.getpid()))
        os.makedirs(tmp, exist_ok=True)
        spans = os.path.join(target, "perfbench-spans",
                             f"{workload}-seed{args.seed}.jsonl")
        cmd = [exe, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", spans]
        try:
            rc = subprocess.run(cmd, env=dict(env, TMPDIR=tmp)).returncode
            code = code or rc
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
