#!/usr/bin/env python3
"""Build and run the circus repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/perfbench.exe
with dune inside the checkout (build output goes to standard error),
then runs it.  The last line of standard output is the benchmark's JSON
result; a failed output check exits non-zero without one.  The expected
report digests and the workload and metric documentation are in
perfbench/spec.json; the traced run (--trace 1) writes its spans to
perfbench/out/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    if args.workload not in spec["workloads"]:
        fail(f"unknown workload {args.workload!r}")
    for needed in ("dune-project", "lib", "bench"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{ROOT} is not a circus source checkout (no {needed})")

    # The shared dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release", "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    digest = spec["digests"].get(args.workload, {}).get(str(args.seed))
    if digest:
        cmd += ["--digest", digest]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env, timeout=175).returncode)


if __name__ == "__main__":
    main()
