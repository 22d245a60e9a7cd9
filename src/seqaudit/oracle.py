"""Exact ground truth on devices with zero threshold overshoot.

A two-point observation alphabet makes the log-likelihood ratio a simple
random walk on multiples of ln(p/(1-p)).  With thresholds placed on the
lattice the walk hits a boundary exactly, the time-independence condition
on the exponentiated overshoot holds trivially, and the conditional
decision-time laws can be enumerated to machine precision.  This supplies
the null distribution against which the statistical tests are calibrated.
A drift-diffusion device crosses its thresholds continuously, and its law
on a dt grid is read off the two-barrier exit CDFs.  The devices themselves
live in :mod:`seqaudit.models`; this module holds only their exact laws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Thresholds, ValidationError
from .models import LatticeBernoulliModel, diffusion_cdfs

SURVIVAL_TOL = 1e-12


@dataclass
class ExactLaw:
    """Exact joint law of (T, D) per hypothesis up to ``k_max``.

    ``pmf[h-1, d-1, k-1]`` is P(T in ((k-1) dt, k dt], D=d | H=h), the law
    of a record at time k dt; a lattice walk has ``dt`` 1, its cells being
    steps.  A lattice law is held in the extended precision it was
    enumerated in: a mass below the float64 range stays positive.
    ``surviving[h-1]`` is the mass still undecided at ``k_max``.
    """

    pmf: np.ndarray
    surviving: np.ndarray
    thresholds: Thresholds
    dt: float = 1.0

    @property
    def k_max(self) -> int:
        return self.pmf.shape[2]

    def decision_prob(self, d: int, h: int) -> float:
        return float(self.pmf[h - 1, d - 1].sum())

    def conditional_time_pmf(self, d: int, h: int) -> np.ndarray:
        """P(T=k | D=d, H=h) at index k-1."""
        cell = self.pmf[h - 1, d - 1]
        return (cell / cell.sum()).astype(np.float64)

    def mean_time(self, p1: float) -> float:
        """Mean recorded time of the decided trials under prior P(H=1) = ``p1``."""
        mass = p1 * self.pmf[0].sum(axis=0) + (1.0 - p1) * self.pmf[1].sum(axis=0)
        return float((mass * np.arange(1, self.k_max + 1)).sum() / mass.sum() * self.dt)

    def to_rows(self):
        """(k, d, h, probability) for every positive mass, in (k, d, h) order."""
        by_kdh = self.pmf.transpose(2, 1, 0)
        k, d, h = np.nonzero(by_kdh > 0)
        values = by_kdh[k, d, h].astype(np.float64)
        return zip((k + 1).tolist(), (d + 1).tolist(), (h + 1).tolist(), values.tolist())


def enumerate_exact_law(model: LatticeBernoulliModel, k_max: int | None = None) -> ExactLaw:
    """Dynamic programming over the bounded lattice walk.

    State is the current level in (-m2, m1); levels m1 and -m2 absorb.
    Both hypotheses' walks step together, one row each, so their laws cover
    the same steps.  Probabilities are accumulated in extended precision.
    When ``k_max`` is omitted, enumeration continues, for at most 100,000
    steps, until the surviving mass under both hypotheses falls below 1e-12.
    """
    if k_max is not None and k_max < model.m1:
        raise ValidationError("k_max must be at least m1")
    # row h-1 of each array is the walk under H=h; 1 - p is rounded in float64 first
    up = np.array([[model.p], [1.0 - model.p]], dtype=np.longdouble)
    down = np.longdouble(1.0) - up
    state = np.zeros((2, model.m1 + model.m2 - 1), dtype=np.longdouble)
    state[:, model.m2 - 1] = 1.0
    steps = []  # per step k, (P(T=k, D=1 | H=h), P(T=k, D=2 | H=h)) over h
    for _ in range(k_max or 100_000):
        nxt = np.zeros_like(state)
        nxt[:, 1:] += up * state[:, :-1]
        nxt[:, :-1] += down * state[:, 1:]
        steps.append((up[:, 0] * state[:, -1], down[:, 0] * state[:, 0]))
        state = nxt
        surviving = state.sum(axis=1).astype(np.float64)
        if k_max is None and (surviving < SURVIVAL_TOL).all():
            break
    # a C-ordered copy, so that sums over k add in the order of a one-walk array
    pmf = np.array(steps, dtype=np.longdouble).transpose(2, 1, 0).copy()
    return ExactLaw(pmf=pmf, surviving=surviving, thresholds=model.thresholds)


def diffusion_law(model, thresholds: Thresholds, dt: float, window: float, device=None) -> ExactLaw:
    """The law of the records of a drift-diffusion device, as ``run_experiment`` draws them.

    Cell k is the crossing time ((k-1) dt, k dt], the difference of the
    :func:`~seqaudit.models.diffusion_cdfs` tables that the simulator inverts.
    """
    cdfs = diffusion_cdfs(model, thresholds, dt, window, device)
    pmf = np.zeros((2, 2, max(len(f1) for f1, _ in cdfs)))
    for h, cells in enumerate(cdfs):
        pmf[h, :, : len(cells[0])] = np.diff(cells, axis=1, prepend=0.0)
    return ExactLaw(pmf=pmf, surviving=1.0 - pmf.sum(axis=(1, 2)), thresholds=thresholds, dt=dt)


def verify_fluctuation_relation(law: ExactLaw, tol: float = 1e-12):
    """Check the hypothesis-independence of conditional decision-time laws.

    Verifies |P(T=k | H=1, D=d) - P(T=k | H=2, D=d)| <= tol for both d and
    every enumerated k, plus the decision-probability ratio identity
    P(D=1|H=1)/P(D=1|H=2) = exp(l1).  Returns (ok, max_deviation).
    """
    for h in (1, 2):
        if law.surviving[h - 1] >= max(tol, SURVIVAL_TOL * 10):
            raise ValidationError(
                f"law covers too little mass under H={h}: surviving {law.surviving[h - 1]:.3g}"
            )
    conditional = law.pmf / law.pmf.sum(axis=2, keepdims=True)
    max_dev = float(np.abs(conditional[0] - conditional[1]).max())
    ratio = law.decision_prob(1, 1) / law.decision_prob(1, 2)
    ratio_dev = abs(ratio - math.exp(law.thresholds.l1)) / math.exp(law.thresholds.l1)
    max_dev = max(max_dev, ratio_dev)
    return max_dev <= tol, max_dev
