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
from typing import Optional, Tuple

import numpy as np

from .core import (
    EmptyCellError, RecordBatch, SECONDS, STEPS, Thresholds, ValidationError, check_whole,
)
from .models import (
    DriftDiffusionModel, LatticeBernoulliModel, _exit_inverse, _wald_continuous_block,
    _wald_discrete_block, diffusion_cdfs,
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
    (a whole number, kept as an int) and the maximum observation time for
    continuous ones, rounded up to ceil(window/dt) whole ``dt`` steps;
    trials that do not decide within it are recorded as truncated.  A
    continuous trial that first crosses a threshold at time T is recorded
    at ceil(T/dt)*dt with the crossed threshold as its terminal LLR.
    ``world_model`` of None means the device is matched to the observation
    model; a lattice device is always matched.
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
        if isinstance(self.model, LatticeBernoulliModel) and self.device != self.model:
            raise ValidationError("lattice devices are always matched; remove belief overrides")
        for name in ("trials", "seed"):
            check_whole(name, getattr(self, name))
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if not (0.0 <= self.p1 <= 1.0):
            raise ValidationError("prior p1 must lie in [0, 1]")
        if self.stratified and self.p1 != 0.5:
            raise ValidationError(f"stratified runs alternate H at p1 = 0.5, got p1 = {self.p1}")
        if not 0 < self.window < math.inf:
            raise ValidationError(f"window must be positive and finite, got {self.window}")
        if self.is_continuous:
            if self.dt is None or not 0 < self.dt < self.window:
                raise ValidationError("continuous runs need 0 < dt < window")
        elif self.dt is not None:
            raise ValidationError("dt applies to continuous models only")
        elif not float(self.window).is_integer():
            raise ValidationError(f"discrete window must be a whole number, got {self.window}")
        else:
            object.__setattr__(self, "window", int(self.window))

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


def empirical_error_probs(records: RecordBatch) -> Tuple[float, float]:
    """Conditional error frequencies over decided trials.

    alpha1_hat = #(D=1, H=2) / #(H=2 decided) and
    alpha2_hat = #(D=2, H=1) / #(H=1 decided).
    """
    counts = records.cell_counts().tolist()
    n_h1, n_h2 = sum(counts[0]), sum(counts[1])
    if n_h1 == 0 or n_h2 == 0:
        raise EmptyCellError("need at least one decided trial per hypothesis")
    return counts[1][0] / n_h2, counts[0][1] / n_h1


def _block_hypotheses(cfg: ExperimentConfig, start: int, n: int, rng) -> np.ndarray:
    if cfg.stratified:
        # exact alternation by global trial index; no draw consumed
        idx = np.arange(start, start + n)
        return np.where(idx % 2 == 0, 1, 2).astype(np.int8)
    if cfg.p1 in (0.0, 1.0):
        # a certain hypothesis; no draw consumed
        return np.full(n, 1 if cfg.p1 == 1.0 else 2, dtype=np.int8)
    return np.where(rng.random(n) < cfg.p1, 1, 2).astype(np.int8)


def _exit_laws(cfg: ExperimentConfig):
    """The (cdf, guide) exit-law table of each hypothesis."""
    cdfs = diffusion_cdfs(cfg.model, cfg.thresholds, cfg.dt, cfg.window, cfg.device)
    return {h: _exit_inverse(f1, f2) for h, (f1, f2) in enumerate(cdfs, start=1)}


def _run_block(cfg: ExperimentConfig, laws, block_index: int):
    start = block_index * BLOCK_SIZE
    n = min(BLOCK_SIZE, cfg.trials - start)
    rng = block_rng(cfg.seed, block_index)
    h = _block_hypotheses(cfg, start, n, rng)
    if cfg.is_continuous:
        cols = _wald_continuous_block(laws, h, cfg.thresholds, cfg.dt, rng)
    else:
        cols = _wald_discrete_block(cfg.model, cfg.device, cfg.thresholds, h, cfg.window, rng)
    return (h, *cols)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run ``cfg.trials`` independent device trials.

    Deterministic for a given config: rerunning yields an identical record
    multiset regardless of ``threads``.
    """
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    blocks = range(math.ceil(cfg.trials / BLOCK_SIZE))
    laws = _exit_laws(cfg) if cfg.is_continuous else None
    with ThreadPoolExecutor(max_workers=threads) as ex:
        # one thread maps in the caller: on a lone worker thread discrete runs were slower
        mapper = ex.map if threads > 1 else map
        parts = list(mapper(lambda i: _run_block(cfg, laws, i), blocks))

    h, times, decisions, terminal = (np.concatenate(col) for col in zip(*parts))
    decided = decisions != 0

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
    return ExperimentResult(records=batch, truncated_count=truncated, alpha1_hat=a1, alpha2_hat=a2)
