"""Desk-scale reproduction of the reference experiment figures.

Each figure family runs the full pipeline (simulate, partition, test or
estimate) at ``scale`` times the reference trial count and writes plain CSV
tables plus a matplotlib script that renders from those CSVs.  The toolkit
itself draws nothing.
"""
from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

import numpy as np

from .analytic import (
    continuous_llr_params,
    mutual_info_continuous,
    mutual_info_discretized,
    sample_outcomes_asymptotic,
)
from .core import RecordBatch, Thresholds, ValidationError, write_table
from .models import DriftDiffusionModel, GaussianIIDModel, MarkovGaussianModel
from .overshoot import overshoot_profile
from .simulate import ExperimentConfig, run_experiment
from .stats import (
    DISCRETE_NATIVE,
    Binning,
    _hdt_table,
    conditional_mi_plugin,
    optimality_test_known_h,
)
from .cli import mi_scan_rows

DEFAULT_SCALE = {
    "fig2": 0.1,
    "fig3": 0.001,
    "fig4": 0.001,
    "fig5": 0.1,
    "fig6": 0.01,
    "fig7": 0.001,
    "fig8": 0.1,
}

IID_MODEL = GaussianIIDModel(mu1=0.0, mu2=1.0, sigma1=5.0, sigma2=10.0)
IID_TH = Thresholds(4.0, -2.0)


def _conditional_pmf_table(batch: RecordBatch, pool_hypotheses: bool = False) -> List[tuple]:
    """Rows (k, P(T=k|H=1,D=1), P(..|H=2,D=1), P(..|H=1,D=2), P(..|H=2,D=2)).

    With ``pool_hypotheses`` the rows are (k, P(T=k|D=1), P(T=k|D=2)).
    """
    _, table = _hdt_table(batch, DISCRETE_NATIVE)
    if pool_hypotheses:
        table = table.sum(axis=0, keepdims=True)
    pmf = table / np.maximum(table.sum(axis=2, keepdims=True), 1)
    # native bins are the distinct times; columns run (d, h) as in the header
    cols = pmf.transpose(1, 0, 2).reshape(-1, pmf.shape[2]).T.tolist()
    ks = np.unique(batch.time).astype(int).tolist()
    return [(k, *p) for k, p in zip(ks, cols)]


def _pmf_panels(out_dir: Path, figure: str, base: ExperimentConfig, panels, threads: int) -> List[str]:
    """Run each panel's device and write its conditional pmf and error rates.

    Panel ``name`` runs ``base`` with world model ``panels[name]`` and seed
    ``base.seed + ord(name)``.
    """
    outputs = []
    for name, wm in panels.items():
        cfg = replace(base, seed=base.seed + ord(name), world_model=wm)
        res = run_experiment(cfg, threads=threads)
        outputs.append(
            write_table(
                out_dir / f"{figure}{name}_pmf.csv",
                "k,p_h1_d1,p_h2_d1,p_h1_d2,p_h2_d2",
                _conditional_pmf_table(res.records),
            )
        )
        outputs.append(
            write_table(
                out_dir / f"{figure}{name}_alphas.csv",
                "alpha1_hat,alpha2_hat,trials,truncated",
                [(res.alpha1_hat, res.alpha2_hat, cfg.trials, res.truncated_count)],
            )
        )
    return outputs


def _plot_script(path: Path, body: str) -> str:
    text = (
        "#!/usr/bin/env python3\n"
        '"""Render the figure from the CSVs next to this script."""\n'
        "import csv\n"
        "from pathlib import Path\n\n"
        "import matplotlib.pyplot as plt\n\n"
        "HERE = Path(__file__).parent\n\n\n"
        "def load(name):\n"
        "    with open(HERE / name) as f:\n"
        "        rows = list(csv.DictReader(f))\n"
        "    return rows\n\n\n" + body
    )
    path.write_text(text)
    return str(path)


def _fig2(out_dir: Path, scale: float, seed: int, threads: int) -> List[str]:
    trials = max(int(1_000_000 * scale), 10_000)
    base = ExperimentConfig(
        model=IID_MODEL, thresholds=IID_TH, trials=trials, seed=seed, window=400
    )
    panels = {
        "a": None,
        "b": GaussianIIDModel(mu1=0.0, mu2=5.0, sigma1=5.0, sigma2=10.0),
    }
    outputs = _pmf_panels(out_dir, "fig2", base, panels, threads)
    body = (
        "fig, axes = plt.subplots(1, 2, figsize=(9, 3.5))\n"
        "for ax, panel in zip(axes, 'ab'):\n"
        "    rows = load(f'fig2{panel}_pmf.csv')\n"
        "    k = [int(r['k']) for r in rows]\n"
        "    for col, style in [('p_h1_d1', 'o-'), ('p_h2_d1', 's--'),\n"
        "                       ('p_h1_d2', '^-'), ('p_h2_d2', 'v--')]:\n"
        "        ax.plot(k, [float(r[col]) for r in rows], style, label=col, ms=3)\n"
        "    ax.set_xlabel('decision time k')\n"
        "    ax.set_ylabel('conditional pmf')\n"
        "    ax.set_xlim(0, 25)\n"
        "    ax.legend(fontsize=7)\n"
        "plt.tight_layout()\n"
        "plt.savefig(HERE / 'fig2.png', dpi=150)\n"
    )
    outputs.append(_plot_script(out_dir / "plot_fig2.py", body))
    return outputs


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
                    model=obs,
                    thresholds=IID_TH,
                    trials=records_per_test,
                    seed=seed + 6007 * run_index,
                    world_model=wm,
                    window=10,
                )
                batch = run_experiment(cfg, threads=threads).records
                try:
                    rep1, rep2 = optimality_test_known_h(batch)
                except ValueError:
                    continue  # an empty decision cell at extreme mismatch
                p1s.append(rep1.p_value)
                p2s.append(rep2.p_value)
            if p1s:
                rows.append(
                    (
                        mu1,
                        float(mu2t),
                        float(np.mean(p1s)),
                        float(np.mean(p2s)),
                        float(np.mean(np.array(p1s) < 0.05)),
                        float(np.mean(np.array(p2s) < 0.05)),
                        len(p1s),
                    )
                )
    path = write_table(
        out_dir / "fig3_pvalues.csv",
        "mu1,mu2_tilde,mean_p_d1,mean_p_d2,reject_frac_d1,reject_frac_d2,reps",
        rows,
    )
    body = (
        "rows = load('fig3_pvalues.csv')\n"
        "fig, axes = plt.subplots(1, 2, figsize=(9, 3.5))\n"
        "mu1s = sorted({r['mu1'] for r in rows})\n"
        "for mu1 in mu1s:\n"
        "    sub = [r for r in rows if r['mu1'] == mu1]\n"
        "    x = [float(r['mu2_tilde']) for r in sub]\n"
        "    axes[0].semilogy(x, [max(float(r['mean_p_d1']), 1e-12) for r in sub], 'o-', label=f'mu1={mu1}')\n"
        "    axes[1].semilogy(x, [max(float(r['mean_p_d2']), 1e-12) for r in sub], 'o-', label=f'mu1={mu1}')\n"
        "for ax, lbl in zip(axes, ['decision 1', 'decision 2']):\n"
        "    ax.set_xlabel('believed mean under hypothesis 2')\n"
        "    ax.set_ylabel(f'mean p-value ({lbl})')\n"
        "    ax.legend()\n"
        "plt.tight_layout()\n"
        "plt.savefig(HERE / 'fig3.png', dpi=150)\n"
    )
    return [path, _plot_script(out_dir / "plot_fig3.py", body)]


def _fig4(out_dir: Path, scale: float, seed: int, threads: int) -> List[str]:
    trials = max(int(1_000_000_000 * scale), 100_000)
    base = ExperimentConfig(
        model=IID_MODEL,
        thresholds=IID_TH,
        trials=trials,
        seed=seed,
        window=10,
    )
    rows = mi_scan_rows(base, "mu2", np.linspace(-4.0, 6.0, 21).tolist(), threads=threads)
    path = write_table(
        out_dir / "fig4_mi_scan.csv",
        "mu2_tilde,mi_bits,mean_time,mean_time_ref,time_ratio_minus_one,alpha1_hat,alpha2_hat",
        [
            (
                r.value,
                r.mi_bits,
                r.mean_time,
                r.mean_time_ref,
                r.time_ratio_minus_one,
                r.alpha1_hat,
                r.alpha2_hat,
            )
            for r in rows
        ],
    )
    body = (
        "rows = load('fig4_mi_scan.csv')\n"
        "x = [float(r['mu2_tilde']) for r in rows]\n"
        "fig, axes = plt.subplots(1, 2, figsize=(9, 3.5))\n"
        "axes[0].semilogy(x, [max(float(r['mi_bits']), 1e-9) for r in rows], 'o-')\n"
        "axes[0].set_ylabel('conditional MI (bits)')\n"
        "axes[1].plot(x, [float(r['time_ratio_minus_one']) for r in rows], 'o-')\n"
        "axes[1].set_ylabel('mean time ratio - 1')\n"
        "for ax, lbl in zip(axes, ['', '']):\n"
        "    ax.set_xlabel('believed mean under hypothesis 2')\n"
        "plt.tight_layout()\n"
        "plt.savefig(HERE / 'fig4.png', dpi=150)\n"
    )
    return [path, _plot_script(out_dir / "plot_fig4.py", body)]


def _fig5(out_dir: Path, scale: float, seed: int, threads: int) -> List[str]:
    trials = max(int(1_000_000 * scale), 10_000)
    model = GaussianIIDModel(mu1=1.0, mu2=-1.0, sigma1=5.0, sigma2=5.0)
    cfg = ExperimentConfig(
        model=model,
        thresholds=Thresholds(4.0, -4.0),
        trials=trials,
        seed=seed,
        window=800,
    )
    batch = run_experiment(cfg, threads=threads).records
    rows = _conditional_pmf_table(batch, pool_hypotheses=True)
    path = write_table(out_dir / "fig5_pmf.csv", "k,p_t_given_d1,p_t_given_d2", rows)
    body = (
        "rows = load('fig5_pmf.csv')\n"
        "k = [int(r['k']) for r in rows]\n"
        "plt.figure(figsize=(5, 3.5))\n"
        "plt.plot(k, [float(r['p_t_given_d1']) for r in rows], 'o-', label='decision 1', ms=3)\n"
        "plt.plot(k, [float(r['p_t_given_d2']) for r in rows], 's--', label='decision 2', ms=3)\n"
        "plt.xlabel('decision time k')\n"
        "plt.ylabel('pmf given decision')\n"
        "plt.legend()\n"
        "plt.tight_layout()\n"
        "plt.savefig(HERE / 'fig5.png', dpi=150)\n"
    )
    return [path, _plot_script(out_dir / "plot_fig5.py", body)]


def _fig6(out_dir: Path, scale: float, seed: int, threads: int) -> List[str]:
    trials = max(int(10_000_000 * scale), 10_000)
    model = MarkovGaussianModel(v1=1.0, v2=-1.0, w1=-1.0, w2=-1.0, sigma1=5.0, sigma2=5.0)
    base = ExperimentConfig(
        model=model, thresholds=Thresholds(4.0, -4.0), trials=trials, seed=seed, window=800
    )
    panels = {
        "a": None,
        "b": replace(model, w2=-0.5),
    }
    outputs = _pmf_panels(out_dir, "fig6", base, panels, threads)
    body = (
        "fig, axes = plt.subplots(1, 2, figsize=(9, 3.5))\n"
        "for ax, panel in zip(axes, 'ab'):\n"
        "    rows = load(f'fig6{panel}_pmf.csv')\n"
        "    k = [int(r['k']) for r in rows]\n"
        "    for col, style in [('p_h1_d1', 'o-'), ('p_h1_d2', '^--'),\n"
        "                       ('p_h2_d1', 's-'), ('p_h2_d2', 'v--')]:\n"
        "        ax.plot(k, [float(r[col]) for r in rows], style, label=col, ms=3)\n"
        "    ax.set_xlabel('decision time k')\n"
        "    ax.set_ylabel('conditional pmf')\n"
        "    ax.legend(fontsize=7)\n"
        "plt.tight_layout()\n"
        "plt.savefig(HERE / 'fig6.png', dpi=150)\n"
    )
    outputs.append(_plot_script(out_dir / "plot_fig6.py", body))
    return outputs


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
                batch.hypothesis[:n],
                batch.decision[:n],
                batch.time[:n],
                batch.terminal_llr[:n],
                time_kind=batch.time_kind,
            )
            est = conditional_mi_plugin(sub)
            rows_a.append((lam, n, est.value_bits))
    path_a = write_table(out_dir / "fig7ab_mi.csv", "lambda,n,mi_bits", rows_a)

    rows_c = []
    profile_trials = max(int(n_max), 100_000)
    for lam in (0.16, 0.36):
        series = overshoot_profile(
            IID_MODEL,
            IID_MODEL,
            Thresholds(4.0 * lam, -2.0 * lam),
            profile_trials,
            seed=seed + int(lam * 7000),
            max_steps=2000,
        )
        for k, v, c, m in zip(series.k, series.value, series.count, series.pmf):
            rows_c.append((lam, int(k), float(v), int(c), float(m)))
    path_c = write_table(out_dir / "fig7c_overshoot.csv", "lambda,k,value,count,pmf", rows_c)
    body = (
        "mi = load('fig7ab_mi.csv')\n"
        "ov = load('fig7c_overshoot.csv')\n"
        "fig, axes = plt.subplots(1, 3, figsize=(13, 3.5))\n"
        "ns = sorted({int(r['n']) for r in mi})\n"
        "for n in ns:\n"
        "    sub = [r for r in mi if int(r['n']) == n]\n"
        "    axes[0].loglog([float(r['lambda']) for r in sub],\n"
        "                   [max(float(r['mi_bits']), 1e-9) for r in sub], 'o-', label=f'N={n}')\n"
        "lams = sorted({float(r['lambda']) for r in mi})\n"
        "for lam in (0.16, 0.36, 1.0, 3.0):\n"
        "    sub = [r for r in mi if abs(float(r['lambda']) - lam) < 1e-9]\n"
        "    axes[1].loglog([int(r['n']) for r in sub],\n"
        "                   [max(float(r['mi_bits']), 1e-9) for r in sub], 'o-', label=f'lam={lam}')\n"
        "for lam in (0.16, 0.36):\n"
        "    sub = [r for r in ov if abs(float(r['lambda']) - lam) < 1e-9]\n"
        "    axes[2].plot([int(r['k']) for r in sub], [float(r['value']) for r in sub], 'o-', label=f'lam={lam}', ms=3)\n"
        "    axes[2].plot([int(r['k']) for r in sub], [float(r['pmf']) for r in sub], '--')\n"
        "axes[0].set_xlabel('threshold distance factor')\n"
        "axes[1].set_xlabel('number of runs')\n"
        "axes[2].set_xlabel('termination step k')\n"
        "for ax in axes: ax.legend(fontsize=7)\n"
        "plt.tight_layout()\n"
        "plt.savefig(HERE / 'fig7.png', dpi=150)\n"
    )
    return [path_a, path_c, _plot_script(out_dir / "plot_fig7.py", body)]


def fig8_device(mu2_tilde: float, alpha1: float = 0.01, l1: float = 4.0):
    """World model with the believed noise tuned to hold alpha1 fixed."""
    obs = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)
    mu1_t = 0.0
    ratio = (mu1_t - mu2_tilde) / (2 * obs.mu2 - mu1_t - mu2_tilde)
    if ratio >= 0:
        raise ValidationError("believed mean must lie strictly between 0 and 2")
    sigma_t = math.sqrt(obs.sigma**2 * ratio * math.log(alpha1) / l1)
    return continuous_llr_params(obs, DriftDiffusionModel(mu1_t, mu2_tilde, sigma_t))


def _fig8(out_dir: Path, scale: float, seed: int, threads: int) -> List[str]:
    l1 = 4.0
    e_wald = -math.log(0.01) / 0.02  # matched mean decision time
    grid = np.linspace(0.1, 1.9, 19)
    rows_a, rows_b = [], []
    for mu2t in grid:
        p = fig8_device(float(mu2t))
        cont = mutual_info_continuous(p, l1)
        rows_a.append(
            (
                float(mu2t),
                cont,
                mutual_info_discretized(p, l1, e_wald),
                mutual_info_discretized(p, l1, 0.1 * e_wald),
                mutual_info_discretized(p, l1, 0.01 * e_wald),
            )
        )
        rows_b.append((float(mu2t), l1 / abs(p.a1), l1 / abs(p.a2), e_wald))
    path_a = write_table(
        out_dir / "fig8a_mi.csv",
        "mu2_tilde,mi_continuous,mi_tr_full,mi_tr_tenth,mi_tr_hundredth",
        rows_a,
    )
    path_b = write_table(
        out_dir / "fig8b_times.csv", "mu2_tilde,t_d1_h1,t_d1_h2,wald_reference", rows_b
    )

    n_max = max(int(1_000_000 * scale), 20_000)
    th = Thresholds(l1, -30.0)
    rows_c = []
    rng = np.random.default_rng(seed)
    for mu2t in (0.5, 1.0, 1.5):
        p = fig8_device(float(mu2t))
        h, d, t = sample_outcomes_asymptotic(p, th, 0.5, n_max, rng)
        t_r = e_wald
        edges = tuple((np.arange(1, int(t.max() / t_r) + 2) * t_r).tolist())
        binning = Binning(edges=edges)
        theory = mutual_info_discretized(p, l1, t_r)
        n = 1000
        while n <= n_max:
            batch = RecordBatch(h[:n], d[:n], t[:n], time_kind="seconds")
            est = conditional_mi_plugin(batch, binning=binning)
            rows_c.append((float(mu2t), n, est.value_bits, theory))
            n *= 2
    path_c = write_table(
        out_dir / "fig8c_mi_runs.csv", "mu2_tilde,n,mi_bits,mi_theory", rows_c
    )
    body = (
        "a = load('fig8a_mi.csv')\n"
        "b = load('fig8b_times.csv')\n"
        "c = load('fig8c_mi_runs.csv')\n"
        "fig, axes = plt.subplots(1, 3, figsize=(13, 3.5))\n"
        "x = [float(r['mu2_tilde']) for r in a]\n"
        "for col in ('mi_continuous', 'mi_tr_full', 'mi_tr_tenth', 'mi_tr_hundredth'):\n"
        "    axes[0].plot(x, [float(r[col]) for r in a], label=col)\n"
        "xb = [float(r['mu2_tilde']) for r in b]\n"
        "for col in ('t_d1_h1', 't_d1_h2', 'wald_reference'):\n"
        "    axes[1].plot(xb, [float(r[col]) for r in b], label=col)\n"
        "for mu2t in (0.5, 1.0, 1.5):\n"
        "    sub = [r for r in c if abs(float(r['mu2_tilde']) - mu2t) < 1e-9]\n"
        "    axes[2].loglog([int(r['n']) for r in sub],\n"
        "                   [max(float(r['mi_bits']), 1e-9) for r in sub], 'o-', label=f'mu2~={mu2t}')\n"
        "    axes[2].axhline(max(float(sub[0]['mi_theory']), 1e-9), ls='--', lw=0.8)\n"
        "axes[0].set_xlabel('believed mean under hypothesis 2')\n"
        "axes[1].set_xlabel('believed mean under hypothesis 2')\n"
        "axes[2].set_xlabel('number of runs')\n"
        "for ax in axes: ax.legend(fontsize=7)\n"
        "plt.tight_layout()\n"
        "plt.savefig(HERE / 'fig8.png', dpi=150)\n"
    )
    return [path_a, path_b, path_c, _plot_script(out_dir / "plot_fig8.py", body)]


_FIGURES = {
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
}


def run_figure(
    figure: str,
    out_dir: Path,
    scale: float,
    seed: int = 20180115,
    threads: int = 1,
) -> List[str]:
    if figure not in _FIGURES:
        raise ValidationError(
            f"unknown figure {figure!r}; valid ids: {', '.join(sorted(_FIGURES))}"
        )
    if not (math.isfinite(scale) and scale > 0):
        raise ValidationError(f"scale must be positive and finite, got {scale}")
    return _FIGURES[figure](out_dir, scale, seed, threads)
