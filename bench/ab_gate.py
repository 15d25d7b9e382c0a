#!/usr/bin/env python3
"""Wall-clock gate: a change against its parent tree, on one machine.

    python3 bench/ab_gate.py BASE_TREE HEAD_TREE

Both arguments are circus source checkouts: BASE_TREE the parent
commit, HEAD_TREE the change.  The script runs 5 pairs; in each pair
every job runs once in each tree, the base first in even pairs and the
head first in odd ones.  The jobs are the repository benchmark
(perfbench/run.py --seed 1 --seconds 5 --trace 0) on each of its
workloads, and bench/throughput.exe, which holds the rows perfbench
lacks.  Each job's metrics come from the JSON object on the last line
of its standard output; a job that fails or prints none reports no
metrics.

A metric fails when the head is worse than the base by more than its
bound in a majority of the pairs.  perfbench metrics take their bound
and direction from the base tree's BENCHMARK.json; throughput rows
from THROUGHPUT_RULES below.  A metric the base reports and the head
does not also fails.  A metric only the head reports passes as new.

Prints a verdict table (appended as markdown to $GITHUB_STEP_SUMMARY
when that is set), writes each side's per-pair metrics to
ab-gate-base.json and ab-gate-head.json in the working directory, and
exits 1 if any metric failed.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
WORKLOADS = ("calls", "poisson", "burst_chaos")
PERFBENCH_ARGS = ("--seed", "1", "--seconds", "5", "--trace", "0")
THROUGHPUT_EXE = os.path.join("_build", "default", "bench", "throughput.exe")
# (row name prefix, better, bound): the first matching prefix applies.
THROUGHPUT_RULES = (("trace_overhead_", "lower", 0.05), ("", "higher", 0.30))
# As perfbench/run.py: the shared dune cache lives outside the trees.
ENV = dict(os.environ, DUNE_CACHE="disabled")


def log(message):
    print(f"ab_gate: {message}", file=sys.stderr, flush=True)


def run_metrics(argv, tree):
    """{metric: value} from the last stdout line of argv run in tree."""
    proc = subprocess.run(argv, cwd=tree, env=ENV, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{' '.join(argv)} in {tree} exited {proc.returncode}")
        return {}
    try:
        return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        log(f"{' '.join(argv)} in {tree} printed no metrics line")
        return {}


def jobs():
    """(metric prefix, argv) for every job of a pair."""
    for w in WORKLOADS:
        yield w, [sys.executable, "perfbench/run.py", "--workload", w, *PERFBENCH_ARGS]
    yield "throughput", [THROUGHPUT_EXE]


def measure(trees):
    """Per side, one {metric: value} dict per pair."""
    for side, tree in trees.items():
        build = subprocess.run(
            ["dune", "build", "--root", tree, "--profile", "release", "./bench/throughput.exe"],
            cwd=tree, env=ENV, stdout=sys.stderr)
        if build.returncode != 0:
            log(f"{side}: building throughput.exe failed")
    samples = {side: [{} for _ in range(PAIRS)] for side in trees}
    for i in range(PAIRS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for prefix, argv in jobs():
            for side in order:
                log(f"pair {i + 1}/{PAIRS}: {prefix} in {side}")
                metrics = run_metrics(argv, trees[side])
                samples[side][i].update({f"{prefix}/{k}": v for k, v in metrics.items()})
    return samples


def loses(better, bound, base, head):
    """True if head is worse than base by more than the fraction bound."""
    if better == "higher":
        return head < base * (1 - bound)
    return head > base * (1 + bound)


def decide(base, head, rule):
    """One (metric, verdict, detail) per metric, sorted by name.

    base and head hold one {metric: value} dict per pair; rule(metric)
    gives (better, bound).  The verdict is "FAIL", "ok" or "new".
    """
    verdicts = []
    for metric in sorted(set().union(*base, *head)):
        pairs = [(b[metric], h.get(metric)) for b, h in zip(base, head) if metric in b]
        if not pairs:
            verdicts.append((metric, "new", "only the head reports it"))
            continue
        missing = sum(h is None for _, h in pairs)
        if missing:
            detail = f"missing from the head in {missing}/{len(pairs)} pairs"
            verdicts.append((metric, "FAIL", detail))
            continue
        changes = [(h - b) / b for b, h in pairs]
        better, bound = rule(metric)
        lost = sum(loses(better, bound, b, h) for b, h in pairs)
        verdict = "FAIL" if 2 * lost > len(pairs) else "ok"
        detail = (f"median change {statistics.median(changes):+.1%}, {lost}/{len(pairs)} pairs "
                  f"worse by more than {bound:.0%} ({better} is better)")
        verdicts.append((metric, verdict, detail))
    return verdicts


def rule_from(benchmark):
    end_to_end = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}

    def rule(metric):
        source, name = metric.split("/", 1)
        if source == "throughput":
            return next((b, bound) for prefix, b, bound in THROUGHPUT_RULES
                        if name.startswith(prefix))
        return end_to_end[name]

    return rule


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: python3 bench/ab_gate.py BASE_TREE HEAD_TREE")
    trees = {"base": os.path.abspath(sys.argv[1]), "head": os.path.abspath(sys.argv[2])}
    with open(os.path.join(trees["base"], "BENCHMARK.json")) as f:
        rule = rule_from(json.load(f))
    samples = measure(trees)
    for side, tree in trees.items():
        with open(f"ab-gate-{side}.json", "w") as f:
            json.dump({"tree": tree, "pairs": samples[side]}, f, indent=1)
    verdicts = decide(samples["base"], samples["head"], rule)
    failed = [m for m, v, _ in verdicts if v == "FAIL"]
    table = ["| metric | verdict | detail |", "|---|---|---|"]
    table += [f"| {m} | {v} | {d} |" for m, v, d in verdicts]
    outcome = f"FAIL: {', '.join(failed)}" if failed else "OK: no metric lost a majority of pairs"
    title = f"### Wall-clock A/B gate ({PAIRS} pairs)"
    report = "\n".join([title, "", *table, "", f"**{outcome}**", ""])
    print(report)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as f:
            f.write(report + "\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
