"""Exact ground truth on lattice walks with zero threshold overshoot.

A two-point observation alphabet makes the log-likelihood ratio a simple
random walk on multiples of ln(p/(1-p)).  With thresholds placed on the
lattice the walk hits a boundary exactly, the time-independence condition
on the exponentiated overshoot holds trivially, and the conditional
decision-time laws can be enumerated to machine precision.  This supplies
the null distribution against which the statistical tests are calibrated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .core import Thresholds, ValidationError

SURVIVAL_TOL = 1e-12


@dataclass(frozen=True)
class LatticeBernoulliModel:
    """Matched Wald device over a two-point alphabet.

    Observations are +1 with probability ``p`` under hypothesis 1 and with
    probability ``1-p`` under hypothesis 2, so each step moves the
    log-likelihood ratio by exactly +/- ln(p/(1-p)).  Thresholds sit at
    ``m1`` steps up and ``m2`` steps down.
    """

    p: float
    m1: int
    m2: int

    def __post_init__(self) -> None:
        if not (0.5 < self.p < 1.0):
            raise ValidationError(f"p must lie in (0.5, 1), got {self.p}")
        if self.m1 < 1 or self.m2 < 1:
            raise ValidationError("m1 and m2 must be positive integers")

    @property
    def step(self) -> float:
        return math.log(self.p / (1.0 - self.p))

    @property
    def thresholds(self) -> Thresholds:
        return Thresholds(l1=self.m1 * self.step, l2=-self.m2 * self.step)

    def sample(self, h, rng: np.random.Generator, size=None, x_prev=None):
        up_prob = np.where(np.asarray(h) == 1, self.p, 1.0 - self.p)
        u = rng.random(size=size)
        return np.where(u < up_prob, 1.0, -1.0)

    def llr_increment(self, x, x_prev=None):
        return np.asarray(x, dtype=np.float64) * self.step


@dataclass
class ExactLaw:
    """Exact joint law of (T, D) per hypothesis up to ``k_max``.

    ``table[(k, d, h)]`` is P(T=k, D=d | H=h); ``surviving[h]`` is the mass
    still unabsorbed at ``k_max``.
    """

    table: Dict[Tuple[int, int, int], float]
    surviving: Dict[int, float]
    k_max: int
    model: LatticeBernoulliModel

    def decision_prob(self, d: int, h: int) -> float:
        return sum(v for (k, dd, hh), v in self.table.items() if dd == d and hh == h)

    def conditional_time_pmf(self, d: int, h: int) -> Dict[int, float]:
        total = self.decision_prob(d, h)
        return {
            k: v / total
            for (k, dd, hh), v in sorted(self.table.items())
            if dd == d and hh == h and v > 0.0
        }

    def to_rows(self):
        for (k, d, h), v in sorted(self.table.items()):
            yield k, d, h, v


def enumerate_exact_law(model: LatticeBernoulliModel, k_max: int | None = None) -> ExactLaw:
    """Dynamic programming over the bounded lattice walk.

    State is the current level in (-m2, m1); levels m1 and -m2 absorb.
    Probabilities are accumulated in extended precision.  When ``k_max`` is
    omitted, enumeration continues until the surviving mass under both
    hypotheses falls below 1e-12.
    """
    if k_max is not None and k_max < model.m1:
        raise ValidationError("k_max must be at least m1")
    m1, m2 = model.m1, model.m2
    levels = np.arange(-m2 + 1, m1)
    n_levels = len(levels)
    start = np.zeros(n_levels, dtype=np.longdouble)
    start[np.where(levels == 0)[0][0]] = 1.0

    table: Dict[Tuple[int, int, int], float] = {}
    surviving: Dict[int, float] = {}
    hard_cap = k_max if k_max is not None else 100_000
    reached = 0
    for h in (1, 2):
        up = np.longdouble(model.p if h == 1 else 1.0 - model.p)
        down = np.longdouble(1.0) - up
        state = start.copy()
        k = 0
        while True:
            k += 1
            nxt = np.zeros(n_levels, dtype=np.longdouble)
            nxt[1:] += up * state[:-1]
            nxt[:-1] += down * state[1:]
            p_up = up * state[-1]
            p_down = down * state[0]
            if p_up > 0:
                table[(k, 1, h)] = float(p_up)
            if p_down > 0:
                table[(k, 2, h)] = float(p_down)
            state = nxt
            mass = float(state.sum())
            if k_max is not None and k >= k_max:
                break
            if k_max is None and (mass < SURVIVAL_TOL or k >= hard_cap):
                break
        surviving[h] = float(state.sum())
        reached = max(reached, k)
    return ExactLaw(table=table, surviving=surviving, k_max=reached, model=model)


def verify_fluctuation_relation(law: ExactLaw, tol: float = 1e-12):
    """Check the hypothesis-independence of conditional decision-time laws.

    Verifies |P(T=k | H=1, D=d) - P(T=k | H=2, D=d)| <= tol for both d and
    every enumerated k, plus the decision-probability ratio identity
    P(D=1|H=1)/P(D=1|H=2) = exp(l1).  Returns (ok, max_deviation).
    """
    for h in (1, 2):
        if law.surviving[h] >= max(tol, SURVIVAL_TOL * 10):
            raise ValidationError(
                f"law covers too little mass under H={h}: surviving {law.surviving[h]:.3g}"
            )
    max_dev = 0.0
    for d in (1, 2):
        pmf1 = law.conditional_time_pmf(d, 1)
        pmf2 = law.conditional_time_pmf(d, 2)
        for k in set(pmf1) | set(pmf2):
            dev = abs(pmf1.get(k, 0.0) - pmf2.get(k, 0.0))
            max_dev = max(max_dev, dev)
    ratio = law.decision_prob(1, 1) / law.decision_prob(1, 2)
    ratio_dev = abs(ratio - math.exp(law.model.thresholds.l1)) / math.exp(
        law.model.thresholds.l1
    )
    max_dev = max(max_dev, ratio_dev)
    return max_dev <= tol, max_dev

