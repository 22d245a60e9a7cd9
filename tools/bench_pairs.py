#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarise it.

Usage:
    python3 tools/bench_pairs.py --parent DIR --change DIR --workload mi-scan \\
        [--workload audit ...] --pairs 10 --first-seed 3201 --out BENCH_32.json \\
        [--seconds X] [--note TEXT]

Pair i runs every ``--workload`` in turn on seed ``first_seed + i``, with
``python3 bench/run.py --workload W --seed S --seconds X --trace 0`` started
from the root of each checkout (X defaults to the change's ``BENCHMARK.json``
``run_seconds``): the parent first in even pairs and the change first in odd
ones.  Each run's last output line is read as it is printed;
nothing under ``bench/`` is edited.  The JSON written to ``--out`` holds, per
workload and end-to-end metric, both sides' runs, medians and exclusive
quartiles, and a ``claim`` block on ``round_s`` of the first workload: the
claim is met when the change is better in at least 9 of 10 pairs and its
median beats the parent's by more than the parent's interquartile range.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
CLAIM_METRIC = "round_s"


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``bench/run.py`` run from the root of ``checkout``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def values(sides: dict, metric: str) -> dict:
    """{side: [the metric's value in each run]} of one workload's result lines."""
    return {side: [line["metrics"][metric]["value"] for line in sides[side]] for side in SIDES}


def summary(runs) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="exclusive")
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(x, 4) for x in runs]}


def collect(checkouts: dict, workloads, pairs: int, first_seed: int, seconds: float,
            run=run_bench) -> dict:
    """{workload: {side: [result line, ...]}} over ``pairs`` alternating pairs."""
    lines = {w: {side: [] for side in SIDES} for w in workloads}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                lines[w][side].append(run(checkouts[side], w, first_seed + i, seconds))
                print(f"pair {i + 1}/{pairs} {w} {side}: "
                      f"{json.dumps(lines[w][side][-1]['metrics'])}", file=sys.stderr)
    return lines


def report(lines: dict, first_seed: int, better: dict) -> dict:
    """The ``BENCH_<n>.json`` content of ``collect``'s result lines."""
    workloads = {}
    for w, sides in lines.items():
        n = len(sides["parent"])
        entry = {"seeds": list(range(first_seed, first_seed + n))}
        for metric in better:
            runs = values(sides, metric)
            entry[metric] = {side: summary(runs[side]) for side in SIDES}
            entry[metric]["change_over_parent"] = round(
                entry[metric]["change"]["median"] / entry[metric]["parent"]["median"], 3)
            lower = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
            entry[metric]["pairs_change_lower"] = f"{lower}/{n}"
        entry["failed/attempted per run"] = {
            side: [f"{line['failed']}/{line['attempted']}" for line in sides[side]]
            for side in SIDES}
        entry["all correct"] = all(line["correct"] for side in SIDES for line in sides[side])
        workloads[w] = entry
    return {"claim": claim(lines, next(iter(lines)), CLAIM_METRIC, better[CLAIM_METRIC]),
            "workloads": workloads}


def claim(lines: dict, workload: str, metric: str, better: str) -> dict:
    """Pairs won, medians and the parent's IQR of ``metric`` on ``workload``."""
    runs = values(lines[workload], metric)
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(runs["parent"], runs["change"]))
    parent, change = summary(runs["parent"]), summary(runs["change"])
    iqr = parent["q3"] - parent["q1"]
    n = len(runs["parent"])
    return {
        "metric": metric,
        "workload": workload,
        "better": better,
        "parent_median": parent["median"],
        "parent_iqr": round(iqr, 4),
        "change_median": change["median"],
        "change_over_parent": round(change["median"] / parent["median"], 3),
        "pairs_won": f"{won}/{n}",
        "met": 10 * won >= 9 * n and sign * (parent["median"] - change["median"]) > iqr,
    }


def main(argv=None, run=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True, action="append",
                        choices=["audit", "simulate", "mi-scan"])
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--first-seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--note", default="", help="what the change does, for the report")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = list(dict.fromkeys(args.workload))
    lines = collect({"parent": args.parent, "change": args.change}, workloads, args.pairs,
                    args.first_seed, seconds, run)
    result = {
        "change": args.note,
        "command": f"python3 bench/run.py --workload <w> --seed <n> --seconds {seconds:g} "
                   "--trace 0",
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                   f"{platform.python_implementation()} {platform.python_version()}",
        "method": (f"tools/bench_pairs.py: pair i ran {', '.join(workloads)} in turn on seed "
                   f"{args.first_seed}+i, each from its own checkout, one run at a time; within "
                   "each, the parent ran first in even pairs and the change first in odd pairs. "
                   "Medians and quartiles (statistics.quantiles, exclusive method) are over the "
                   "runs listed."),
        **report(lines, args.first_seed, better),
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
