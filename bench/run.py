"""seqaudit benchmark: one workload per call, one JSON result line.

    python3 bench/run.py --workload audit --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The script writes the workload's inputs
from ``--seed``, times ``import seqaudit`` in fresh interpreters (set-up),
then starts ``bench/worker.py`` in a fresh process with the checkout's
``src/`` on PYTHONPATH to run and check the workload.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Outputs go under ``bench/out/``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150


def setup_seconds(env) -> float:
    """Median time from starting an interpreter to ``import seqaudit`` done."""
    probe = [sys.executable, "-c", "import seqaudit, time; print(repr(time.time()))"]
    samples = []
    for i in range(SETUP_REPEATS + 1):  # the first one compiles and caches files
        t0 = time.time()
        done = subprocess.run(probe, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:
            samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["audit", "simulate", "mi-scan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if not (SRC / "seqaudit" / "__init__.py").is_file():
        print(f"no seqaudit sources under {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    inputs.write_inputs(args.workload, args.seed, work / "inputs")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = setup_seconds(env)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", str(work / "inputs"), "--work", str(work / "outputs"),
           "--spans", str(OUT / f"spans-{tag}.jsonl")]
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        print(f"worker exited with code {done.returncode}", file=sys.stderr)
        return 1
    res = json.loads(done.stdout.strip().splitlines()[-1])
    shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics = res["layers"]
    else:
        metrics["round_s"] = statistics.median(res["round_s"])
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for error in res["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    line = {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({**line, "detail": res}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
