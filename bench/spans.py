"""In-memory spans around seqaudit's public functions.

``Tracer.install`` replaces public names in seqaudit's modules with
wrappers that record a span per call: name, layer, start, end, parent span,
operation id, plus counts read from the call's arguments and result.
``uninstall`` puts the originals back.  Nothing inside seqaudit changes.

The wrapped functions are all called from the thread that runs the command
(run_experiment's worker threads call only unwrapped kernels), so one span
stack suffices.
"""
from __future__ import annotations

import functools
import json
import math
import os
import time

import numpy as np

FAMILY = {
    "GaussianIIDModel": "gaussian_iid",
    "MarkovGaussianModel": "markov_gaussian",
    "LatticeBernoulliModel": "lattice",
    "DriftDiffusionModel": "drift_diffusion",
}


def _run_counts(args, kwargs, result):
    cfg = args[0]
    records = result.records
    if cfg.is_continuous:
        steps = float(np.rint(records.time / cfg.dt).sum())
        steps += result.truncated_count * math.ceil(cfg.window / cfg.dt)
    else:
        steps = float(records.time.sum()) + result.truncated_count * int(cfg.window)
    return {
        "family": FAMILY[type(cfg.model).__name__],
        "reference": cfg.world_model is None,
        "trials": cfg.trials,
        "decided": len(records),
        "steps": steps,
    }


def _write_counts(args, kwargs, result):
    return {"rows": len(args[1]), "bytes": os.path.getsize(args[0])}


def _read_counts(args, kwargs, result):
    return {"rows": len(result)}


def _records_counts(args, kwargs, result):
    return {"records": len(args[0])}


def _known_h_counts(args, kwargs, result):
    counts = _records_counts(args, kwargs, result)
    if result[0].method == "CHI2":
        batch = args[0]
        counts["bins_before_merge"] = sum(
            int(np.unique(batch.time[batch.decision == d]).size) for d in (1, 2)
        )
        counts["bins_after_merge"] = sum(len(rep.bins) for rep in result)
    return counts


def _scan_counts(args, kwargs, result):
    return {"points": len(args[2])}


# (module, public name, layer, counts)
WRAPPED = [
    ("cli", "main", "cli", None),
    ("cli", "mi_scan_rows", "cli", _scan_counts),
    ("cli", "run_experiment", "simulate", _run_counts),
    ("cli", "write_records_csv", "core", _write_counts),
    ("cli", "read_records_csv", "core", _read_counts),
    ("core", "read_records_csv", "core", _read_counts),
    ("cli", "optimality_test_known_h", "stats", _known_h_counts),
    ("stats", "optimality_test_known_h", "stats", _known_h_counts),
    ("cli", "optimality_test_unknown_h", "stats", _records_counts),
    ("stats", "optimality_test_unknown_h", "stats", _records_counts),
    ("cli", "conditional_mi_plugin", "stats", _records_counts),
    ("stats", "conditional_mi_plugin", "stats", _records_counts),
    ("stats", "mi_decomposition", "stats", _records_counts),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._saved = []

    def wrap(self, name, layer, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "layer": layer,
                "parent": self.stack[-1] if self.stack else None,
                "op": self.op,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self.stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return traced

    def install(self, package) -> None:
        for module_name, attr, layer, counts in WRAPPED:
            module = getattr(package, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(f"{layer}.{attr}", layer, fn, counts))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            f.writelines(json.dumps(span) + "\n" for span in self.spans)


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans, rounds: int):
    """Per-layer figures from the spans of ``rounds`` traced rounds."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    dur = lambda s: s["end"] - s["start"]

    def rate(name, key, select=lambda s: True):
        chosen = [s for s in by_name.get(name, []) if select(s)]
        busy = sum(dur(s) for s in chosen)
        return sum(s[key] for s in chosen) / busy if busy > 0 else 0.0

    runs = by_name.get("simulate.run_experiment", [])
    m = {}
    for family in FAMILY.values():
        m[f"simulate.{family}.trial_steps_per_s"] = rate(
            "simulate.run_experiment", "steps", lambda s, f=family: s["family"] == f
        )
    selfs = self_times(spans)
    for layer, key in (("simulate", "busy_s"), ("core", "busy_s"), ("stats", "busy_s"),
                       ("cli", "self_s")):
        m[f"{layer}.{key}"] = sum(selfs[s["id"]] for s in spans if s["layer"] == layer) / rounds
    trials = sum(s["trials"] for s in runs)
    m["simulate.trial_steps"] = sum(s["steps"] for s in runs) / rounds
    m["simulate.decided_ratio"] = sum(s["decided"] for s in runs) / trials if trials else 0.0
    m["core.write_records_csv.rows_per_s"] = rate("core.write_records_csv", "rows")
    m["core.write_records_csv.bytes"] = (
        sum(s["bytes"] for s in by_name.get("core.write_records_csv", [])) / rounds
    )
    m["core.read_records_csv.rows_per_s"] = rate("core.read_records_csv", "rows")
    for fn in ("optimality_test_known_h", "optimality_test_unknown_h", "mi_decomposition",
               "conditional_mi_plugin"):
        m[f"stats.{fn}.records_per_s"] = rate(f"stats.{fn}", "records")
    chi2 = [s for s in by_name.get("stats.optimality_test_known_h", [])
            if "bins_after_merge" in s]
    for key in ("bins_before_merge", "bins_after_merge"):
        m[f"stats.chi2.{key}"] = float(np.median([s[key] for s in chi2])) if chi2 else 0.0
    scans = by_name.get("cli.mi_scan_rows", [])
    points = sum(s["points"] for s in scans)
    scan_ids = {s["id"] for s in scans}
    inner = [s for s in spans if s["parent"] in scan_ids]
    per_point = lambda chosen: sum(dur(s) for s in chosen) / points if points else 0.0
    inner_runs = [s for s in inner if s["name"] == "simulate.run_experiment"]
    m["cli.mi_scan_rows.scanned_run_s"] = per_point([s for s in inner_runs if not s["reference"]])
    m["cli.mi_scan_rows.reference_run_s"] = per_point([s for s in inner_runs if s["reference"]])
    m["cli.mi_scan_rows.mi_s"] = per_point(
        [s for s in inner if s["name"] == "stats.conditional_mi_plugin"]
    )
    m["cli.mi_scan_rows.runs_per_point"] = len(inner_runs) / points if points else 0.0
    return m
