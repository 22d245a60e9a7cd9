"""Inputs of the seqaudit benchmark, made from the workload seed alone.

The audit records come from numpy draws, not from seqaudit's simulator, so a
change to the simulator's record streams leaves them unchanged.  The other
workloads get INI configs for the CLI.

Regenerate a workload's inputs with::

    python3 bench/inputs.py --workload audit --seed 1 --out bench/out/inputs
"""
from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

# audit input 1: step-valued times whose law given D depends on H
STEP_RECORDS = 1_000_000
STEP_ERROR = 0.1                 # P(D=2 | H=1) = P(D=1 | H=2)
STEP_MEAN = {(1, 1): 60.0, (2, 1): 66.0, (1, 2): 45.0, (2, 2): 50.0}
STEP_SHAPE = 240.0               # inverse-Gaussian shape: CV near 0.5
# audit input 2: real-valued times independent of H given D, symmetric in D
REAL_RECORDS = 200_000
REAL_ERROR = 0.1
REAL_MEAN, REAL_SHAPE = 20.0, 40.0
HEADER = "hypothesis,decision,time,terminal_llr\n"
MALFORMED_ROW = "1,1,nan,\n"

# simulate: (family, trials, [model], [device], window, [experiment] overrides).
# The drift-diffusion family keeps a fixed seed: its error-rate check is a
# kept fault whose inputs must not vary with the workload seed.
SIM_FAMILIES = [
    ("gaussian_iid", 200_000,
     {"kind": "gaussian_iid", "mu1": 0.0, "mu2": 1.0, "sigma1": 5.0, "sigma2": 10.0},
     {"l1": 4.0, "l2": -2.0}, 1000, {}),
    ("markov_gaussian", 100_000,
     {"kind": "markov_gaussian", "v1": 1.0, "v2": -1.0, "w1": -1.0, "w2": -1.0,
      "sigma1": 5.0, "sigma2": 5.0},
     {"l1": 4.0, "l2": -4.0}, 800, {}),
    ("lattice", 200_000, {"kind": "lattice", "p": 0.8, "m1": 2, "m2": 2}, None, 200, {}),
    ("drift_diffusion", 400_000,
     {"kind": "drift_diffusion", "mu1": 0.0, "mu2": 1.0, "sigma": 5.0},
     {"l1": 4.0, "l2": -2.0, "dt": 4.0}, 5000, {"seed": 20180115, "stratified": "true"}),
]

# mi-scan: the drift-diffusion device of acceptance criterion 5a
SCAN_GRID = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
SCAN_TRIALS = 100_000


def _labels(rng, n, error):
    h = np.where(rng.random(n) < 0.5, 1, 2)
    wrong = rng.random(n) < error
    d = np.where(wrong, 3 - h, h)
    return h, d


def step_records(seed: int):
    rng = np.random.default_rng([seed, 1])
    h, d = _labels(rng, STEP_RECORDS, STEP_ERROR)
    mean = np.zeros(STEP_RECORDS)
    for (hh, dd), m in STEP_MEAN.items():
        mean[(h == hh) & (d == dd)] = m
    t = np.ceil(rng.wald(mean, STEP_SHAPE)).astype(np.int64)
    return h, d, t


def real_records(seed: int):
    rng = np.random.default_rng([seed, 2])
    h, d = _labels(rng, REAL_RECORDS, REAL_ERROR)
    return h, d, rng.wald(REAL_MEAN, REAL_SHAPE, REAL_RECORDS)


def malformed_rows() -> str:
    """A small valid step-valued file with one non-finite time."""
    cells = [(1, 1), (1, 2), (2, 1), (2, 2)] * 10
    rows = [f"{h},{d},{1 + i % 7},\n" for i, (h, d) in enumerate(cells)]
    return HEADER + "".join(rows) + MALFORMED_ROW


def _write_records(path: Path, h, d, t) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(HEADER)
        f.writelines(f"{a},{b},{c!r},\n" for a, b, c in zip(h.tolist(), d.tolist(), t.tolist()))


def _write_ini(path: Path, sections) -> None:
    with open(path, "w", newline="\n") as f:
        for name, fields in sections.items():
            f.write(f"[{name}]\n")
            f.writelines(f"{k} = {v}\n" for k, v in fields.items())
            f.write("\n")


def write_inputs(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "audit":
        _write_records(out / "steps.csv", *step_records(seed))
        _write_records(out / "real.csv", *real_records(seed))
        (out / "malformed.csv").write_text(malformed_rows())
    elif workload == "simulate":
        for family, trials, model, device, window, overrides in SIM_FAMILIES:
            experiment = {"trials": trials, "seed": seed, "window": window, **overrides}
            sections = {"experiment": experiment, "model": model}
            if device:
                sections["device"] = device
            _write_ini(out / f"{family}.ini", sections)
    elif workload == "mi-scan":
        _write_ini(out / "scan.ini", {
            "experiment": {"trials": SCAN_TRIALS, "seed": seed, "window": 5000.0,
                           "stratified": "true"},
            "model": {"kind": "drift_diffusion", "mu1": 0.0, "mu2": 1.0, "sigma": 5.0},
            "device": {"l1": 4.0, "l2": -2.0, "dt": 1.0},
            "scan": {"parameter": "mu2", "values": ",".join(map(str, SCAN_GRID))},
        })
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["audit", "simulate", "mi-scan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, args.out)
