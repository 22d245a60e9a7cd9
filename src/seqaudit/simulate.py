"""Monte Carlo harness: run many device trials and collect trial records.

Trials are grouped into fixed-size blocks; block i derives its own random
stream from the master seed by a counter-based split, so the output record
multiset depends only on (seed, parameters, trial count) - never on worker
count or scheduling.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .core import EmptyCellError, RecordBatch, SECONDS, STEPS, Thresholds, ValidationError
from .models import (
    DriftDiffusionModel,
    _wald_continuous_block,
    _wald_discrete_block,
)

BLOCK_SIZE = 1 << 15


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Deterministic per-block stream from the master seed."""
    ss = np.random.SeedSequence(seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully specified Monte Carlo experiment.

    ``window`` is the maximum number of observations for discrete devices
    and the maximum observation time for continuous ones; trials that do
    not decide within it are recorded as truncated.  ``world_model`` of
    None means the device is matched to the observation model.
    """

    model: object
    thresholds: Thresholds
    trials: int
    seed: int
    world_model: Optional[object] = None
    p1: float = 0.5
    window: float = 1000.0
    dt: Optional[float] = None
    stratified: bool = False

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if not (0.0 <= self.p1 <= 1.0):
            raise ValidationError("prior p1 must lie in [0, 1]")
        if self.window <= 0:
            raise ValidationError("observation window must be positive")
        if self.is_continuous:
            if self.dt is None or self.dt <= 0 or self.window <= self.dt:
                raise ValidationError("continuous runs need 0 < dt < window")
        elif self.dt is not None:
            raise ValidationError("dt applies to continuous models only")

    @property
    def is_continuous(self) -> bool:
        return isinstance(self.model, DriftDiffusionModel)

    @property
    def device(self):
        return self.model if self.world_model is None else self.world_model

    @property
    def time_kind(self) -> str:
        return SECONDS if self.is_continuous else STEPS


@dataclass
class ExperimentResult:
    """The records plus summary statistics of one experiment."""

    records: RecordBatch
    truncated_count: int
    alpha1_hat: float
    alpha2_hat: float
    mean_times: Dict[Tuple[int, int], float]
    config: ExperimentConfig

    @property
    def trials(self) -> int:
        return len(self.records) + self.truncated_count


def empirical_error_probs(records: RecordBatch) -> Tuple[float, float]:
    """Conditional error frequencies over decided trials.

    alpha1_hat = #(D=1, H=2) / #(H=2 decided) and
    alpha2_hat = #(D=2, H=1) / #(H=1 decided).
    """
    h, d = records.hypothesis, records.decision
    n_h1 = int((h == 1).sum())
    n_h2 = int((h == 2).sum())
    if n_h1 == 0 or n_h2 == 0:
        raise EmptyCellError("need at least one decided trial per hypothesis")
    alpha1 = int(((h == 2) & (d == 1)).sum()) / n_h2
    alpha2 = int(((h == 1) & (d == 2)).sum()) / n_h1
    return alpha1, alpha2


def _block_hypotheses(cfg: ExperimentConfig, start: int, n: int, rng) -> np.ndarray:
    if cfg.stratified:
        # exact alternation by global trial index; no draw consumed
        idx = np.arange(start, start + n)
        return np.where(idx % 2 == 0, 1, 2).astype(np.int8)
    return np.where(rng.random(n) < cfg.p1, 1, 2).astype(np.int8)


def _run_block(cfg: ExperimentConfig, block_index: int, start: int, n: int):
    rng = block_rng(cfg.seed, block_index)
    h = _block_hypotheses(cfg, start, n, rng)
    if cfg.is_continuous:
        from .analytic import continuous_llr_params

        p = continuous_llr_params(cfg.model, cfg.device)
        a = np.where(h == 1, p.a1, p.a2)
        times, decisions, terminal, decided = _wald_continuous_block(
            a, p.b, cfg.thresholds, cfg.dt, cfg.window, rng
        )
    else:
        times, decisions, terminal, decided = _wald_discrete_block(
            cfg.model, cfg.device, cfg.thresholds, h, int(cfg.window), rng
        )
    return h, times, decisions, terminal, decided


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run ``cfg.trials`` independent device trials.

    Deterministic for a given config: rerunning yields an identical record
    multiset regardless of ``threads``.
    """
    n_blocks = math.ceil(cfg.trials / BLOCK_SIZE)
    sizes = [
        min(BLOCK_SIZE, cfg.trials - i * BLOCK_SIZE) for i in range(n_blocks)
    ]
    starts = np.cumsum([0] + sizes[:-1]).tolist()

    def work(i):
        return _run_block(cfg, i, starts[i], sizes[i])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(work, range(n_blocks)))
    else:
        parts = [work(i) for i in range(n_blocks)]

    h = np.concatenate([p[0] for p in parts])
    times = np.concatenate([p[1] for p in parts])
    decisions = np.concatenate([p[2] for p in parts])
    terminal = np.concatenate([p[3] for p in parts])
    decided = np.concatenate([p[4] for p in parts])

    batch = RecordBatch(
        hypothesis=h[decided],
        decision=decisions[decided],
        time=times[decided],
        terminal_llr=terminal[decided],
        time_kind=cfg.time_kind,
    )
    truncated = int(cfg.trials - decided.sum())
    try:
        a1, a2 = empirical_error_probs(batch)
    except EmptyCellError:
        a1 = a2 = math.nan
    mean_times = {}
    for hh in (1, 2):
        for dd in (1, 2):
            cell = batch.cell_times(hh, dd)
            mean_times[(hh, dd)] = float(cell.mean()) if cell.size else math.nan
    return ExperimentResult(
        records=batch,
        truncated_count=truncated,
        alpha1_hat=a1,
        alpha2_hat=a2,
        mean_times=mean_times,
        config=cfg,
    )


def write_metadata(path, result: ExperimentResult) -> None:
    """Key=value sidecar next to the records CSV."""
    cfg = result.config
    with open(path, "w", newline="\n") as f:
        f.write(f"seed={cfg.seed}\n")
        f.write(f"trials={cfg.trials}\n")
        f.write(f"truncated_count={result.truncated_count}\n")
        f.write(f"alpha1_hat={result.alpha1_hat!r}\n")
        f.write(f"alpha2_hat={result.alpha2_hat!r}\n")
        f.write(f"stratified={str(cfg.stratified).lower()}\n")
        f.write(f"time_kind={result.records.time_kind}\n")
