"""One workload of the seqaudit benchmark, run in a fresh process.

``bench/run.py`` writes the inputs and starts this file with ``src/`` on
PYTHONPATH.  It runs whole rounds of the workload's operations, at least
two and until ``--seconds`` have passed, checks the outputs, and prints one
JSON line.  With ``--trace 1`` rounds alternate untraced and traced, and the
spans of the traced rounds give the per-layer figures.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import seqaudit
import seqaudit.cli
from scipy.stats import chi2_contingency, ks_2samp

import inputs
import reference
from spans import Tracer, layer_metrics

MERGE_FLOOR = 5.0       # seqaudit.stats.DEFAULT_MERGE_FLOOR, restated
NULL_MI_MULTIPLE = 3.0  # null MI must stay below this many plug-in bias floors
SAMPLING_SE = 4.0       # "within sampling error": this many standard errors
LEVEL = 0.01
MIN_ROUNDS = 2          # a median of rounds; with --trace 1, one untraced and one traced


def run_cli(argv):
    """seqaudit's CLI in this process, its printed output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return seqaudit.cli.main([str(a) for a in argv])


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol


class Audit:
    """Records in, verdict out: CSV reads and the stats layer, no simulation."""

    def __init__(self, seed, inputs_dir: Path, work: Path):
        self.seed, self.dir, self.work = seed, inputs_dir, work
        self.results = []

    def round(self, tracer):
        out = {}
        for name in ("steps", "real"):
            tracer.op = name
            batch = seqaudit.core.read_records_csv(self.dir / f"{name}.csv")
            res = {"known": seqaudit.stats.optimality_test_known_h(batch)}
            if name == "real":
                res["unknown"] = seqaudit.stats.optimality_test_unknown_h(batch)
            res["mi"] = seqaudit.stats.conditional_mi_plugin(batch)
            res["decomposition"] = seqaudit.stats.mi_decomposition(batch)
            out[name] = res
            del batch  # hold one records file at a time, as a user's command would
        tracer.op = "malformed"
        # exit 3 is a schema error; a file with a nan time must not pass
        malformed_ok = run_cli(["--out-dir", self.work, "test", self.dir / "malformed.csv"]) == 3
        self.results.append(out)
        return 3, (0 if malformed_ok else 1)

    def check(self):
        errors = []
        first = self.results[0]
        for res in self.results[1:]:
            for name in ("steps", "real"):
                if res[name]["mi"].value_bits != first[name]["mi"].value_bits:
                    errors.append(f"{name}: MI differs between rounds")
        last = self.results[-1]
        for name, (h, d, t) in (("steps", inputs.step_records(self.seed)),
                                ("real", inputs.real_records(self.seed))):
            res = last[name]
            errors += self._check_mi(name, h, d, t, res)
            panels = [(t[(h == 1) & (d == dd)], t[(h == 2) & (d == dd)]) for dd in (1, 2)]
            if name == "steps":
                for dd, ((a, b), rep) in enumerate(zip(panels, res["known"]), start=1):
                    errors += self._check_chi2(f"steps d{dd}", a, b, rep)
                    if not rep.p_value < LEVEL:
                        errors.append(f"steps d{dd}: H-dependent times not rejected, "
                                      f"p={rep.p_value}")
            else:
                panels.append((t[d == 1], t[d == 2]))
                reps = list(res["known"]) + [res["unknown"]]
                for label, (a, b), rep in zip(("d1", "d2", "unknown-h"), panels, reps):
                    ref = ks_2samp(a, b).statistic
                    if rep.method != "KS2" or not close(rep.statistic, ref):
                        errors.append(f"real {label}: KS {rep.statistic} vs scipy {ref}")
        return errors

    def _check_mi(self, name, h, d, t, res):
        errors = []
        est = res["mi"]
        edges = np.asarray(est.binning.edges)
        tb = np.searchsorted(edges, t, side="right")
        counts = np.zeros((2, 2, edges.size + 1))
        np.add.at(counts, (h - 1, d - 1, tb), 1)
        own = reference.conditional_mi_bits(counts)
        if not close(est.value_bits, own):
            errors.append(f"{name}: I(H;T|D) {est.value_bits} vs own table {own}")
        i_joint, i_decision, i_cond = res["decomposition"]
        if not close(i_joint, i_decision + i_cond):
            errors.append(f"{name}: chain rule gap {i_joint - i_decision - i_cond}")
        if name == "steps" and edges.size + 1 != np.unique(t).size:
            errors.append(f"steps: {edges.size + 1} bins for {np.unique(t).size} distinct times")
        if name == "real":
            nonempty = (counts.sum(axis=0) > 0).sum(axis=1)
            floor = float(np.sum(nonempty - 1)) / (2.0 * t.size * math.log(2.0))
            if not est.value_bits < NULL_MI_MULTIPLE * floor:
                errors.append(f"real: null MI {est.value_bits} above "
                              f"{NULL_MI_MULTIPLE} x bias floor {floor}")
        return errors

    def _check_chi2(self, label, a, b, rep):
        cuts = np.asarray(rep.bins)
        table = np.array([np.bincount(np.searchsorted(cuts[:-1], x, side="right"),
                                      minlength=cuts.size) for x in (a, b)])
        stat, p, _, expected = chi2_contingency(table, correction=False)
        errors = []
        if not (abs(rep.statistic - stat) <= 1e-9 * stat and close(rep.p_value, p)):
            errors.append(f"{label}: chi2 {rep.statistic}, p {rep.p_value} vs scipy {stat}, {p}")
        if expected.min() < MERGE_FLOOR:
            errors.append(f"{label}: merged bin expects {expected.min()} < {MERGE_FLOOR}")
        return errors


def read_meta(path: Path):
    return dict(line.strip().split("=", 1) for line in path.read_text().splitlines())


def read_records(path: Path):
    cols = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return cols[:, 0].astype(np.int8), cols[:, 1].astype(np.int8), cols[:, 2], cols[:, 3]


class Simulate:
    """Device families simulated and written as records CSV, one thread."""

    def __init__(self, seed, inputs_dir: Path, work: Path):
        self.dir, self.work = inputs_dir, work
        self.families = [f[0] for f in inputs.SIM_FAMILIES]

    def round(self, tracer):
        failed = 0
        for family in self.families:
            tracer.op = family
            if run_cli(["--threads", 1, "--out-dir", self.work / family, "simulate",
                        self.dir / f"{family}.ini"]) != 0:
                raise RuntimeError(f"seqaudit simulate failed on {family}")
            if family == "drift_diffusion" and self._alpha_gaps():
                failed += 1
        return len(self.families), failed

    def _alpha_gaps(self):
        """The .meta error rates more than SAMPLING_SE standard errors off the exact ones."""
        from seqaudit.analytic import continuous_llr_params, error_probs_continuous

        cfg = seqaudit.cli.build_experiment(seqaudit.cli.load_config(
            self.dir / "drift_diffusion.ini"))
        exact = error_probs_continuous(continuous_llr_params(cfg.model, cfg.model),
                                       cfg.thresholds)
        meta = read_meta(self.work / "drift_diffusion" / "records.meta")
        per_hypothesis = (cfg.trials - int(meta["truncated_count"])) / 2  # stratified
        gaps = []
        for key, a in zip(("alpha1_hat", "alpha2_hat"), exact):
            hat = float(meta[key])
            if abs(hat - a) > SAMPLING_SE * math.sqrt(a * (1 - a) / per_hypothesis):
                gaps.append((key, hat, a))
        return gaps

    def check(self):
        errors = []
        for family in self.families:
            cfg = seqaudit.cli.build_experiment(seqaudit.cli.load_config(
                self.dir / f"{family}.ini"))
            out = self.work / family
            h, d, t, s = read_records(out / "records.csv")
            meta = read_meta(out / "records.meta")
            if h.size + int(meta["truncated_count"]) != cfg.trials:
                errors.append(f"{family}: {h.size} decided + {meta['truncated_count']} "
                              f"truncated != {cfg.trials} trials")
            again = seqaudit.simulate.run_experiment(cfg).records
            if not all(np.array_equal(x, y) for x, y in (
                    (h, again.hypothesis), (d, again.decision), (t, again.time),
                    (s, again.terminal_llr))):
                errors.append(f"{family}: CSV does not read back to the simulated columns")
            if family in ("gaussian_iid", "markov_gaussian"):
                errors += self._wald_bounds(family, cfg.thresholds, h, d)
            if family == "lattice":
                errors += self._lattice_fit(cfg, h, d, t)
        threads2 = self.work / "threads2"
        run_cli(["--threads", 2, "--out-dir", threads2, "simulate",
                 self.dir / "gaussian_iid.ini"])
        if (threads2 / "records.csv").read_bytes() != (
                self.work / "gaussian_iid" / "records.csv").read_bytes():
            errors.append("gaussian_iid: --threads 2 records differ from --threads 1")
        return errors

    @staticmethod
    def _wald_bounds(family, th, h, d):
        n1, n2 = int((h == 1).sum()), int((h == 2).sum())
        a1 = int(((h == 2) & (d == 1)).sum()) / n2
        a2 = int(((h == 1) & (d == 2)).sum()) / n1
        errors = []
        for name, hat, bound, n in (("alpha1", a1, math.exp(-th.l1) * (1 - a2), n2),
                                    ("alpha2", a2, math.exp(th.l2) * (1 - a1), n1)):
            if hat > bound + SAMPLING_SE * math.sqrt(bound * (1 - bound) / n):
                errors.append(f"{family}: {name}_hat {hat} above Wald's bound {bound}")
        return errors

    @staticmethod
    def _lattice_fit(cfg, h, d, t):
        law = reference.lattice_law(cfg.model.p, cfg.model.m1, cfg.model.m2)
        observed, expected = [], []
        rest_obs = float(cfg.trials)
        rest_exp = float(cfg.trials)
        for hh, prior in ((1, cfg.p1), (2, 1 - cfg.p1)):
            for (k, dd), p in law[hh].items():
                e = cfg.trials * prior * p
                if e >= 5:
                    o = int(((h == hh) & (d == dd) & (t == k)).sum())
                    observed.append(o)
                    expected.append(e)
                    rest_obs -= o
                    rest_exp -= e
        stat, p = reference.chi2_gof(observed + [rest_obs], expected + [rest_exp])
        if p < 1e-9:
            return [f"lattice: cell frequencies misfit the exact law, chi2={stat} p={p}"]
        return []


class MIScan:
    """seqaudit mi-scan over device beliefs of a drift-diffusion device."""

    def __init__(self, seed, inputs_dir: Path, work: Path):
        self.dir, self.work = inputs_dir, work
        self.threads = min(2, os.cpu_count() or 1)

    def round(self, tracer):
        tracer.op = "mi-scan"
        if run_cli(["--threads", self.threads, "--out-dir", self.work, "mi-scan",
                    self.dir / "scan.ini"]) != 0:
            raise RuntimeError("seqaudit mi-scan failed")
        return len(inputs.SCAN_GRID), 0

    def check(self):
        with open(self.work / "mi_scan.csv") as f:
            rows = list(csv.DictReader(f))
        values = np.array([float(r["mu2"]) for r in rows])
        mi = np.array([float(r["mi_bits"]) for r in rows])
        if not np.array_equal(values, inputs.SCAN_GRID):
            return [f"mi-scan: grid {values.tolist()}"]
        at = int(np.argmin(mi))
        errors = []
        if abs(values[at] - 1.0) > 0.25 + 1e-9:
            errors.append(f"mi-scan: MI argmin at mu2={values[at]}, not within 0.25 of 1.0")
        if not all(m > mi[at] for i, m in enumerate(mi) if i != at):
            errors.append("mi-scan: another point's MI does not exceed the minimum")
        return errors


WORKLOADS = {"audit": Audit, "simulate": Simulate, "mi-scan": MIScan}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    reference.self_check()
    workload = WORKLOADS[args.workload](args.seed, args.inputs, args.work)
    tracer = Tracer()
    walls = {False: [], True: []}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install(seqaudit)
        t0 = time.perf_counter()
        n, f = workload.round(tracer)
        walls[traced].append(time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
        attempted += n
        failed += f
        rounds = len(walls[False]) + len(walls[True])
        if rounds >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = workload.check()
    result = {"attempted": attempted, "failed": failed, "errors": errors,
              "round_s": walls[False], "traced_round_s": walls[True],
              "peak_rss_mb": peak_rss_mb}
    if args.trace:
        layers = layer_metrics(tracer.spans, len(walls[True]))
        layers["trace.overhead_s"] = (statistics.median(walls[True])
                                      - statistics.median(walls[False]))
        result["layers"] = layers
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
