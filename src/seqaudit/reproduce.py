"""Desk-scale reproduction of the reference experiment figures.

Each figure family runs the full pipeline (simulate, then test or
estimate) at ``scale`` times the reference trial count and writes plain CSV
tables plus a matplotlib script that renders from those CSVs.  The toolkit
itself draws nothing.
"""
from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .analytic import continuous_llr_params, mutual_info_continuous, mutual_info_discretized
from .core import RecordBatch, Thresholds, ValidationError, write_table
from .models import DriftDiffusionModel, GaussianIIDModel, MarkovGaussianModel
from .oracle import diffusion_law
from .overshoot import overshoot_profile
from .simulate import ExperimentConfig, run_experiment
from .stats import (
    _chain_rule, _native_table, conditional_mi_plugin, native_binning, optimality_test_known_h,
)
from .cli import mi_scan_rows, mi_scan_table

DEFAULT_SEED = 20180115
IID_MODEL = GaussianIIDModel(mu1=0.0, mu2=1.0, sigma1=5.0, sigma2=10.0)
IID_TH = Thresholds(4.0, -2.0)
FIG8_OBS = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)
FIG8_ALPHA1, FIG8_L1 = 0.01, 4.0  # the error rate fig 8's beliefs hold, and its upper threshold
FIG8_TR = -math.log(FIG8_ALPHA1) / 0.02  # the matched mean decision time, panel c's resolution
PMF_COLUMNS = ("p_h1_d1", "p_h2_d1", "p_h1_d2", "p_h2_d2")
BELIEF = "believed mean under hypothesis 2"


class Panel(NamedTuple):
    """One axes of a figure: a line per y column (and per group value) against x."""

    csv: str
    x: str
    y: Tuple[str, ...]
    group: Optional[str] = None
    log: str = ""  # the axes on a log scale: "", "y" or "xy"
    xlabel: str = ""


PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Render {figure} from the CSVs next to this script."""
import csv
from pathlib import Path

import matplotlib.pyplot as plt

HERE = Path(__file__).parent
# (csv, x column, y columns, group column, log axes, x label) per axes
PANELS = {panels}

fig, axes = plt.subplots(1, len(PANELS), figsize=(4.5 * len(PANELS), 3.5), squeeze=False)
for ax, (name, x, ys, group, log, xlabel) in zip(axes[0], PANELS):
    with open(HERE / name) as f:
        rows = list(csv.DictReader(f))
    keys = sorted(set(r[group] for r in rows), key=float) if group else [None]
    for key in keys:
        sub = [r for r in rows if key is None or r[group] == key]
        for y in ys:
            label = y if key is None else y + ", " + group + "=" + key
            ax.plot([float(r[x]) for r in sub], [float(r[y]) for r in sub], "o-", ms=3,
                    label=label)
    ax.set_xscale("log" if "x" in log else "linear")
    ax.set_yscale("log" if "y" in log else "linear")
    ax.set_xlabel(xlabel)
    ax.legend(fontsize=7)
plt.tight_layout()
plt.savefig(HERE / "{figure}.png", dpi=150)
'''


def _plot_script(out_dir: Path, figure: str, panels: Tuple[Panel, ...]) -> str:
    """Write ``plot_<figure>.py``, which draws ``panels`` from the CSVs beside it."""
    path = out_dir / f"plot_{figure}.py"
    rows = "".join(f"    {tuple(p)!r},\n" for p in panels)
    path.write_text(PLOT_SCRIPT.format(figure=figure, panels=f"[\n{rows}]"))
    return str(path)


def _conditional_pmf_table(batch: RecordBatch, pool_hypotheses: bool = False) -> List[tuple]:
    """Rows (k, P(T=k|H=1,D=1), P(..|H=2,D=1), P(..|H=1,D=2), P(..|H=2,D=2)).

    With ``pool_hypotheses`` the rows are (k, P(T=k|D=1), P(T=k|D=2)).
    """
    ks, table = _native_table(batch.cell_code(), 4, batch.time)
    table = table.reshape(2, 2, -1)
    if pool_hypotheses:
        table = table.sum(axis=0, keepdims=True)
    pmf = table / np.maximum(table.sum(axis=2, keepdims=True), 1)
    # columns run (d, h) as in the header
    cols = pmf.transpose(1, 0, 2).reshape(-1, pmf.shape[2]).T.tolist()
    return [(k, *p) for k, p in zip(ks.astype(int).tolist(), cols)]


def _pmf_panels(out_dir: Path, figure: str, base: ExperimentConfig, panels, threads: int) -> List[str]:
    """Run each panel's device and write its conditional pmf and error rates.

    Panel ``name`` runs ``base`` with world model ``panels[name]`` and seed
    ``base.seed + ord(name)``.
    """
    outputs = []
    for name, wm in panels.items():
        cfg = replace(base, seed=base.seed + ord(name), world_model=wm)
        res = run_experiment(cfg, threads=threads)
        pmf = _conditional_pmf_table(res.records)
        alphas = [(res.alpha1_hat, res.alpha2_hat, cfg.trials, res.truncated_count)]
        outputs += [
            write_table(out_dir / f"{figure}{name}_pmf.csv", "k," + ",".join(PMF_COLUMNS), pmf),
            write_table(
                out_dir / f"{figure}{name}_alphas.csv", "alpha1_hat,alpha2_hat,trials,truncated",
                alphas,
            ),
        ]
    return outputs


def _fig2(out_dir: Path, scale: float, seed: int, threads: int) -> List[str]:
    trials = max(int(1_000_000 * scale), 10_000)
    base = ExperimentConfig(
        model=IID_MODEL, thresholds=IID_TH, trials=trials, seed=seed, window=400
    )
    panels = {"a": None, "b": GaussianIIDModel(mu1=0.0, mu2=5.0, sigma1=5.0, sigma2=10.0)}
    return _pmf_panels(out_dir, "fig2", base, panels, threads)


def _fig3(out_dir: Path, scale: float, seed: int, threads: int) -> List[str]:
    reps = max(int(10_000 * scale), 3)
    records_per_test = 100_000
    grid = np.linspace(-4.0, 6.0, 21)
    rows = []
    run_index = 0
    for mu1 in (0.0, -2.0):
        obs = replace(IID_MODEL, mu1=mu1)
        for mu2t in grid:
            p1s, p2s = [], []
            for r in range(reps):
                run_index += 1
                wm = replace(obs, mu2=float(mu2t))
                cfg = ExperimentConfig(
                    model=obs, thresholds=IID_TH, trials=records_per_test,
                    seed=seed + 6007 * run_index, world_model=wm, window=10,
                )
                batch = run_experiment(cfg, threads=threads).records
                try:
                    rep1, rep2 = optimality_test_known_h(batch)
                except ValueError:
                    continue  # an empty decision cell at extreme mismatch
                p1s.append(rep1.p_value)
                p2s.append(rep2.p_value)
            if p1s:
                p1, p2 = np.array(p1s), np.array(p2s)
                rows.append((mu1, float(mu2t), float(np.mean(p1)), float(np.mean(p2)),
                             float(np.mean(p1 < 0.05)), float(np.mean(p2 < 0.05)), len(p1s)))
    header = "mu1,mu2_tilde,mean_p_d1,mean_p_d2,reject_frac_d1,reject_frac_d2,reps"
    return [write_table(out_dir / "fig3_pvalues.csv", header, rows)]


def _fig4(out_dir: Path, scale: float, seed: int, threads: int) -> List[str]:
    trials = max(int(1_000_000_000 * scale), 100_000)
    base = ExperimentConfig(
        model=IID_MODEL, thresholds=IID_TH, trials=trials, seed=seed, window=10
    )
    rows = mi_scan_rows(base, "mu2", np.linspace(-4.0, 6.0, 21).tolist(), threads=threads)
    return [write_table(out_dir / "fig4_mi_scan.csv", *mi_scan_table("mu2_tilde", rows))]


def _fig5(out_dir: Path, scale: float, seed: int, threads: int) -> List[str]:
    trials = max(int(1_000_000 * scale), 10_000)
    model = GaussianIIDModel(mu1=1.0, mu2=-1.0, sigma1=5.0, sigma2=5.0)
    cfg = ExperimentConfig(
        model=model, thresholds=Thresholds(4.0, -4.0), trials=trials, seed=seed, window=800
    )
    batch = run_experiment(cfg, threads=threads).records
    rows = _conditional_pmf_table(batch, pool_hypotheses=True)
    return [write_table(out_dir / "fig5_pmf.csv", "k,p_t_given_d1,p_t_given_d2", rows)]


def _fig6(out_dir: Path, scale: float, seed: int, threads: int) -> List[str]:
    trials = max(int(10_000_000 * scale), 10_000)
    model = MarkovGaussianModel(v1=1.0, v2=-1.0, w1=-1.0, w2=-1.0, sigma1=5.0, sigma2=5.0)
    base = ExperimentConfig(
        model=model, thresholds=Thresholds(4.0, -4.0), trials=trials, seed=seed, window=800
    )
    panels = {"a": None, "b": replace(model, w2=-0.5)}
    return _pmf_panels(out_dir, "fig6", base, panels, threads)


FIG7_LAMBDAS = (0.08, 0.12, 0.16, 0.2, 0.28, 0.36, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)


def _fig7(out_dir: Path, scale: float, seed: int, threads: int) -> List[str]:
    n_max = max(int(1_000_000_000 * scale), 100_000)
    n_values = [n for n in (10_000, 100_000, 1_000_000, 10_000_000) if n <= n_max]
    rows_a = []
    for lam in FIG7_LAMBDAS:
        cfg = ExperimentConfig(
            model=IID_MODEL,
            thresholds=Thresholds(4.0 * lam, -2.0 * lam),
            trials=n_max,
            seed=seed + int(lam * 1000),
            window=4000,
        )
        batch = run_experiment(cfg, threads=threads).records
        for n in n_values:
            sub = RecordBatch(
                batch.hypothesis[:n], batch.decision[:n], batch.time[:n], time_kind=batch.time_kind
            )
            rows_a.append((lam, n, conditional_mi_plugin(sub).value_bits))
    path_a = write_table(out_dir / "fig7ab_mi.csv", "lambda,n,mi_bits", rows_a)

    rows_c = []
    for lam in (0.16, 0.36):
        cfg = ExperimentConfig(
            model=IID_MODEL,
            thresholds=Thresholds(4.0 * lam, -2.0 * lam),
            trials=n_max,
            seed=seed + int(lam * 7000),
            window=2000,
        )
        series = overshoot_profile(cfg, threads=threads)
        for k, v, c, m in zip(series.k, series.value, series.count, series.pmf):
            rows_c.append((lam, int(k), float(v), int(c), float(m)))
    path_c = write_table(out_dir / "fig7c_overshoot.csv", "lambda,k,value,count,pmf", rows_c)
    return [path_a, path_c]


def fig8_device(mu2_tilde: float) -> DriftDiffusionModel:
    """The believed device, its noise tuned to hold alpha1 at ``FIG8_ALPHA1``."""
    if not 0.0 < mu2_tilde < 2 * FIG8_OBS.mu2:
        raise ValidationError("believed mean must lie strictly between 0 and 2")
    ratio = -mu2_tilde / (2 * FIG8_OBS.mu2 - mu2_tilde)
    sigma_t = math.sqrt(FIG8_OBS.sigma**2 * ratio * math.log(FIG8_ALPHA1) / FIG8_L1)
    return DriftDiffusionModel(0.0, mu2_tilde, sigma_t)


def _fig8(out_dir: Path, scale: float, seed: int, threads: int) -> List[str]:
    l1, t_r = FIG8_L1, FIG8_TR
    grid = np.linspace(0.1, 1.9, 19)
    rows_a, rows_b = [], []
    for mu2t in grid:
        p = continuous_llr_params(FIG8_OBS, fig8_device(float(mu2t)))
        discretized = [mutual_info_discretized(p, l1, f * t_r) for f in (1.0, 0.1, 0.01)]
        rows_a.append((float(mu2t), mutual_info_continuous(p, l1), *discretized))
        rows_b.append((float(mu2t), l1 / abs(p.a1), l1 / abs(p.a2), t_r))
    header_a = "mu2_tilde,mi_continuous,mi_tr_full,mi_tr_tenth,mi_tr_hundredth"
    path_a = write_table(out_dir / "fig8a_mi.csv", header_a, rows_a)
    header_b = "mu2_tilde,t_d1_h1,t_d1_h2,wald_reference"
    path_b = write_table(out_dir / "fig8b_times.csv", header_b, rows_b)

    # panel c: the device read at resolution t_r, against its exact I(H;T|D)
    n_max = max(int(1_000_000 * scale), 20_000)
    rows_c = []
    for mu2t in (0.5, 1.0, 1.5):
        cfg = ExperimentConfig(
            FIG8_OBS, Thresholds(l1, -30.0), n_max, seed,
            world_model=fig8_device(mu2t), dt=t_r, window=2000 * t_r,
        )
        rec = run_experiment(cfg, threads=threads).records
        law = diffusion_law(cfg.model, cfg.thresholds, cfg.dt, cfg.window, cfg.device)
        theory = _chain_rule(law.pmf)[2]
        binning = native_binning(rec.time)  # one bin per dt cell
        n = 1000
        while n <= n_max:
            prefix = RecordBatch(rec.hypothesis[:n], rec.decision[:n], rec.time[:n])
            rows_c.append((mu2t, n, conditional_mi_plugin(prefix, binning).value_bits, theory))
            n *= 2
    path_c = write_table(out_dir / "fig8c_mi_runs.csv", "mu2_tilde,n,mi_bits,mi_theory", rows_c)
    return [path_a, path_b, path_c]


class Figure(NamedTuple):
    """A figure's runner, which writes its CSVs, and the panels its script draws."""

    run: Callable[[Path, float, int, int], List[str]]
    scale: float  # the default trial-count multiplier
    panels: Tuple[Panel, ...]


def _pmf_figure(run, scale: float, figure: str) -> Figure:
    """A figure of the two pmf tables, a and b, that ``_pmf_panels`` writes."""
    return Figure(run, scale, tuple(
        Panel(f"{figure}{name}_pmf.csv", "k", PMF_COLUMNS, xlabel="decision time k")
        for name in "ab"
    ))


FIGURES = {
    "fig2": _pmf_figure(_fig2, 0.1, "fig2"),
    "fig3": Figure(_fig3, 0.001, (
        Panel("fig3_pvalues.csv", "mu2_tilde", ("mean_p_d1",), "mu1", "y", BELIEF),
        Panel("fig3_pvalues.csv", "mu2_tilde", ("mean_p_d2",), "mu1", "y", BELIEF),
    )),
    "fig4": Figure(_fig4, 0.001, (
        Panel("fig4_mi_scan.csv", "mu2_tilde", ("mi_bits",), None, "y", BELIEF),
        Panel("fig4_mi_scan.csv", "mu2_tilde", ("time_ratio_minus_one",), xlabel=BELIEF),
    )),
    "fig5": Figure(_fig5, 0.1, (
        Panel("fig5_pmf.csv", "k", ("p_t_given_d1", "p_t_given_d2"), xlabel="decision time k"),
    )),
    "fig6": _pmf_figure(_fig6, 0.01, "fig6"),
    "fig7": Figure(_fig7, 0.001, (
        Panel("fig7ab_mi.csv", "lambda", ("mi_bits",), "n", "xy", "threshold distance factor"),
        Panel("fig7ab_mi.csv", "n", ("mi_bits",), "lambda", "xy", "number of runs"),
        Panel("fig7c_overshoot.csv", "k", ("value", "pmf"), "lambda", "", "termination step k"),
    )),
    "fig8": Figure(_fig8, 0.1, (
        Panel("fig8a_mi.csv", "mu2_tilde",
              ("mi_continuous", "mi_tr_full", "mi_tr_tenth", "mi_tr_hundredth"), xlabel=BELIEF),
        Panel("fig8b_times.csv", "mu2_tilde", ("t_d1_h1", "t_d1_h2", "wald_reference"),
              xlabel=BELIEF),
        Panel("fig8c_mi_runs.csv", "n", ("mi_bits", "mi_theory"), "mu2_tilde", "xy",
              "number of runs"),
    )),
}


def run_figure(
    figure: str,
    out_dir: Path,
    scale: float,
    seed: int = DEFAULT_SEED,
    threads: int = 1,
) -> List[str]:
    if figure not in FIGURES:
        raise ValidationError(
            f"unknown figure {figure!r}; valid ids: {', '.join(sorted(FIGURES))}"
        )
    if not (math.isfinite(scale) and scale > 0):
        raise ValidationError(f"scale must be positive and finite, got {scale}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    fig = FIGURES[figure]
    return fig.run(out_dir, scale, seed, threads) + [_plot_script(out_dir, figure, fig.panels)]
