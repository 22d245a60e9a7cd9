"""Observation processes and black-box Wald decision devices.

A device accumulates the log-likelihood ratio prescribed by its world model
(which may disagree with the process actually generating observations) and
stops when the sum exits the threshold interval.  The same dataclasses serve
as observation models and as world models; a matched device simply reuses
the observation model instance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError, check_finite


@dataclass(frozen=True)
class GaussianIIDModel:
    """i.i.d. Gaussian observations: X_k ~ N(mu_h, sigma_h^2) under hypothesis h."""

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float

    def __post_init__(self) -> None:
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValidationError("standard deviations must be positive")
        check_finite(self)

    def sample(self, h, rng: np.random.Generator, size=None, x_prev=None):
        mu = np.where(np.asarray(h) == 1, self.mu1, self.mu2)
        sigma = np.where(np.asarray(h) == 1, self.sigma1, self.sigma2)
        return rng.normal(mu, sigma, size=size)

    def llr_increment(self, x, x_prev=None):
        x = np.asarray(x, dtype=np.float64)
        return (
            math.log(self.sigma2 / self.sigma1)
            + (x - self.mu2) ** 2 / (2.0 * self.sigma2**2)
            - (x - self.mu1) ** 2 / (2.0 * self.sigma1**2)
        )


@dataclass(frozen=True)
class MarkovGaussianModel:
    """Gaussian AR observations: X_k | X_{k-1}=x ~ N(v_h + (w_h+1) x, sigma_h^2), X_0 = 0."""

    v1: float
    v2: float
    w1: float
    w2: float
    sigma1: float
    sigma2: float

    def __post_init__(self) -> None:
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValidationError("standard deviations must be positive")
        check_finite(self)

    def sample(self, h, rng: np.random.Generator, size=None, x_prev=0.0):
        h = np.asarray(h)
        v = np.where(h == 1, self.v1, self.v2)
        w = np.where(h == 1, self.w1, self.w2)
        sigma = np.where(h == 1, self.sigma1, self.sigma2)
        mean = v + (w + 1.0) * np.asarray(x_prev)
        return rng.normal(mean, sigma, size=size)

    def llr_increment(self, x, x_prev=0.0):
        x = np.asarray(x, dtype=np.float64)
        x_prev = np.asarray(x_prev, dtype=np.float64)
        r2 = x - x_prev - self.v2 - self.w2 * x_prev
        r1 = x - x_prev - self.v1 - self.w1 * x_prev
        return (
            math.log(self.sigma2 / self.sigma1)
            + r2**2 / (2.0 * self.sigma2**2)
            - r1**2 / (2.0 * self.sigma1**2)
        )


@dataclass(frozen=True)
class DriftDiffusionModel:
    """Ito observation process dX_t = mu_h dt + sigma dW_t, X_0 = 0."""

    mu1: float
    mu2: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValidationError("noise amplitude must be positive")
        check_finite(self)


def _wald_discrete_block(model, wm, th, h: np.ndarray, max_steps: int, rng):
    """Vectorized discrete trials; one stream drives the whole block.

    Returns (times, decisions, terminal_llrs) arrays over the block.  A
    trial still inside (l2, l1) after ``max_steps`` is truncated: decision
    0, time 0 and terminal NaN.
    """
    n = len(h)
    s = np.zeros(n)
    x_prev = np.zeros(n)
    times = np.zeros(n)
    decisions = np.zeros(n, dtype=np.int8)
    terminal = np.full(n, np.nan)
    alive = np.arange(n)
    h = np.asarray(h)
    for k in range(1, max_steps + 1):
        x = model.sample(h[alive], rng, size=alive.size, x_prev=x_prev[alive])
        s[alive] += wm.llr_increment(x, x_prev[alive])
        x_prev[alive] = x
        s_alive = s[alive]
        done = (s_alive >= th.l1) | (s_alive <= th.l2)
        if done.any():
            idx = alive[done]
            times[idx] = k
            decisions[idx] = np.where(s[idx] >= th.l1, 1, 2)
            terminal[idx] = s[idx]
            alive = alive[~done]
            if alive.size == 0:
                break
    return times, decisions, terminal


def _wald_continuous_block(a: np.ndarray, b: float, th, dt: float, t_max: float, rng):
    """Vectorized Euler-Maruyama runs of dS = a dt + sqrt(2b) dW per trial.

    The device's log-likelihood ratio is itself a drift-diffusion, so it is
    integrated directly; the terminal value is clamped to the crossed
    threshold, which is exact in the continuum limit.
    """
    n = len(a)
    s = np.zeros(n)
    times = np.zeros(n)
    decisions = np.zeros(n, dtype=np.int8)
    terminal = np.full(n, np.nan)
    alive = np.arange(n)
    drift = a * dt
    diff = math.sqrt(2.0 * b * dt)
    n_steps = int(math.ceil(t_max / dt))
    for k in range(1, n_steps + 1):
        s[alive] += drift[alive] + diff * rng.standard_normal(alive.size)
        s_alive = s[alive]
        done = (s_alive >= th.l1) | (s_alive <= th.l2)
        if done.any():
            idx = alive[done]
            times[idx] = k * dt
            up = s[idx] >= th.l1
            decisions[idx] = np.where(up, 1, 2)
            terminal[idx] = np.where(up, th.l1, th.l2)
            alive = alive[~done]
            if alive.size == 0:
                break
    return times, decisions, terminal
