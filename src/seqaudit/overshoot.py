"""Overshoot diagnostics for discrete-time devices.

The discrete-time fluctuation relations require the conditional expectation
of the exponentiated threshold overshoot, E[e^M1 | stop at k, D=1, H=2], to
be flat in k.  This module estimates that profile and summarizes its
flatness over the range carrying the termination mass.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .core import ValidationError
from .simulate import ExperimentConfig, run_experiment


@dataclass
class OvershootSeries:
    """Per-step-count overshoot profile under hypothesis 2, decision 1.

    ``value[i]`` estimates E[e^M1 | T = k[i], D=1, H=2]; ``pmf[i]`` is the
    termination-time mass P(T = k[i] | D=1, H=2); ``count`` gives the raw
    sample support behind each point.
    """

    k: np.ndarray
    value: np.ndarray
    count: np.ndarray
    pmf: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.value[self.count > 0] < 1.0 - 1e-9):
            raise ValidationError("overshoot is positive, so e^M1 conditional means are >= 1")


def overshoot_profile(
    cfg: ExperimentConfig, estimator: str = "direct", threads: int = 1
) -> OvershootSeries:
    """Estimate the conditional exponentiated-overshoot profile of ``cfg``'s device.

    ``estimator="direct"`` runs trials under hypothesis 2 and averages
    e^(S_T - l1) over trials stopping at the upper threshold at each step
    count.  ``estimator="tilted"`` runs under hypothesis 1 and applies the
    exact change of measure e^{-S_T}: on {T=k, D=1} the likelihood ratio
    makes E[e^M1 | T=k, D=1, H=2] equal 1 / E[e^-M1 | T=k, D=1, H=1], which
    gives usable statistics when upper-boundary errors under hypothesis 2
    are too rare to simulate directly.  The estimator fixes the prior (0
    or 1) and turns stratification off; the trials are the records of
    ``run_experiment``, so the profile does not depend on ``threads``.
    """
    if cfg.is_continuous:
        raise ValidationError("overshoot diagnostics apply to discrete models only")
    if estimator not in ("direct", "tilted"):
        raise ValidationError(f"unknown estimator {estimator!r}")
    cfg = replace(cfg, p1=0.0 if estimator == "direct" else 1.0, stratified=False)
    records = run_experiment(cfg, threads=threads).records
    up = records.decision == 1
    k_all = records.time[up].astype(np.int64)
    m_all = records.terminal_llr[up] - cfg.thresholds.l1
    if k_all.size == 0:
        raise ValidationError("no upper-threshold decisions observed; increase trials")
    k_grid, idx = np.unique(k_all, return_inverse=True)
    counts = np.bincount(idx)
    if estimator == "direct":
        value = np.bincount(idx, weights=np.exp(m_all)) / counts
        mass = counts / counts.sum()
    else:
        wsum = np.bincount(idx, weights=np.exp(-m_all))
        value = counts / wsum
        mass = wsum / wsum.sum()
    return OvershootSeries(k=k_grid, value=value, count=counts, pmf=mass)


def condition51_flatness(series: OvershootSeries, mass_threshold: float = 0.9) -> float:
    """Max/min ratio of the overshoot profile over its mass-bearing range.

    The range is the shortest contiguous k-interval holding at least
    ``mass_threshold`` of the termination mass; a ratio of 1.0 means the
    time-independence condition holds exactly there.
    """
    if not (0.0 < mass_threshold <= 1.0):
        raise ValidationError("mass_threshold must lie in (0, 1]")
    if series.k.size == 0 or series.pmf.sum() <= 0:
        raise ValidationError("degenerate series: no termination mass")
    k, pmf = series.k, series.pmf
    n = k.size
    best: Tuple[float, int, int] | None = None
    lo = 0
    acc = 0.0
    for hi in range(n):
        acc += pmf[hi]
        while acc - pmf[lo] >= mass_threshold:
            acc -= pmf[lo]
            lo += 1
        if acc >= mass_threshold:
            span = k[hi] - k[lo]
            if best is None or span < best[0]:
                best = (span, lo, hi)
    if best is None:
        # all mass needed: use the full range
        best = (k[-1] - k[0], 0, n - 1)
    _, lo, hi = best
    window = series.value[lo : hi + 1][series.count[lo : hi + 1] > 0]
    return float(window.max() / window.min())

