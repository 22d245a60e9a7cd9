"""Closed-form quantities for continuous-time devices.

The device's log-likelihood ratio is a drift-diffusion with per-hypothesis
drift a_i and diffusion coefficient 2b, so error probabilities, decision-time
densities (in the deep-lower-threshold regime), mean decision times, and the
conditional mutual information all admit closed forms or one-dimensional
quadratures.  Exact samplers for the asymptotic laws allow figure-level
reproduction without path simulation.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr

from .core import Thresholds, ValidationError
from .models import DriftDiffusionModel

LN2 = math.log(2.0)
TAIL_MASS = 1e-12
REGIME_MIN_RATIO = 2.0


class RegimeError(ValueError):
    """Parameters violate the deep-lower-threshold asymptotic regime."""


class QuadratureError(RuntimeError):
    """A quadrature failed to reach the requested accuracy."""


@dataclass(frozen=True)
class ContinuousLLRParams:
    """Drift-diffusion parameters of the device's log-likelihood ratio.

    ``a1``/``a2`` are the drifts under hypothesis 1/2 in nats per unit time;
    the diffusion coefficient is ``2 * b`` in nats^2 per unit time.  A
    matched device has a1 = -a2 = b.
    """

    a1: float
    a2: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a1) and math.isfinite(self.a2)):
            raise ValidationError(f"drifts must be finite, got a1={self.a1}, a2={self.a2}")
        if not (0.0 < self.b < math.inf):
            raise ValidationError(f"diffusion parameter b must be positive and finite, got {self.b}")


def continuous_llr_params(
    obs: DriftDiffusionModel, wm: DriftDiffusionModel
) -> ContinuousLLRParams:
    """Drift and diffusion of the believed log-likelihood ratio.

    a_i = (mu1~ - mu2~)/sigma~^2 * (-(mu1~ + mu2~)/2 + mu_i) and
    b = (1/2) * (sigma * (mu1~ - mu2~)/sigma~^2)^2, where the tildes are the
    device's beliefs and the bare parameters describe the true process.
    """
    if wm.mu1 == wm.mu2:
        raise ValidationError("degenerate device: believed means coincide (b = 0)")
    scale = (wm.mu1 - wm.mu2) / wm.sigma**2
    a1 = scale * (-(wm.mu1 + wm.mu2) / 2.0 + obs.mu1)
    a2 = scale * (-(wm.mu1 + wm.mu2) / 2.0 + obs.mu2)
    b = 0.5 * (obs.sigma * (wm.mu1 - wm.mu2) / wm.sigma**2) ** 2
    return ContinuousLLRParams(a1=a1, a2=a2, b=b)


def _ratio_exp_diff(x_num: Tuple[float, float], x_den: Tuple[float, float]) -> float:
    """(e^p - e^q) / (e^r - e^s) rescaled to avoid overflow."""
    p, q = x_num
    r, s = x_den
    m = max(p, q, r, s)
    num = math.exp(p - m) - math.exp(q - m)
    den = math.exp(r - m) - math.exp(s - m)
    if den == 0.0:
        raise ValidationError("error-probability formula is degenerate for these parameters")
    return num / den


def error_probs_continuous(p: ContinuousLLRParams, th: Thresholds) -> Tuple[float, float]:
    """Exact error probabilities of the continuous device.

    alpha1 = (1 - e^{a2 l2 / b}) / (1 - e^{a2 (l2 - l1) / b}) and
    alpha2 = (e^{a1 l2 / b} - e^{a1 (l2 - l1) / b}) / (1 - e^{a1 (l2 - l1) / b}).
    Raises when a result falls outside [0, 1/2], the range for which the
    parameterization is meaningful.
    """
    x2 = p.a2 * th.l2 / p.b
    y2 = p.a2 * (th.l2 - th.l1) / p.b
    x1 = p.a1 * th.l2 / p.b
    y1 = p.a1 * (th.l2 - th.l1) / p.b
    alpha1 = _ratio_exp_diff((0.0, x2), (0.0, y2))
    alpha2 = _ratio_exp_diff((x1, y1), (0.0, y1))
    for name, val in (("alpha1", alpha1), ("alpha2", alpha2)):
        if not (0.0 <= val <= 0.5):
            raise ValidationError(
                f"{name} = {val:.6g} outside [0, 1/2]; parameters violate the "
                "restriction on (a1, a2, b, l1, l2)"
            )
    return alpha1, alpha2


def _check_regime(p: ContinuousLLRParams, th: Thresholds) -> None:
    """Raise unless |l2|*|a_i|/b >= REGIME_MIN_RATIO for both drifts.

    The asymptotic densities hold when |l2| is large against b/|a_i|.
    """
    ratios = (abs(th.l2) * abs(p.a1) / p.b, abs(th.l2) * abs(p.a2) / p.b)
    if min(ratios) < REGIME_MIN_RATIO:
        raise RegimeError(
            f"asymptotic regime violated: |l2|*|a_i|/b = {ratios[0]:.3g}, "
            f"{ratios[1]:.3g} (need >= {REGIME_MIN_RATIO:g})"
        )


def _ig_pdf(t, mean: float, shape: float):
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = np.sqrt(shape / (2.0 * np.pi * tp**3)) * np.exp(
        -shape * (tp - mean) ** 2 / (2.0 * mean**2 * tp)
    )
    return out


def _ig_cdf(t, mean: float, shape: float):
    """Inverse-Gaussian CDF, stable for large shape/mean ratios."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    rt = np.sqrt(shape / tp)
    out[pos] = ndtr(rt * (tp / mean - 1.0)) + np.exp(
        2.0 * shape / mean + log_ndtr(-rt * (tp / mean + 1.0))
    )
    return np.clip(out, 0.0, 1.0)


def _d1_params(p: ContinuousLLRParams, l1: float, h: int) -> Tuple[float, float]:
    a = abs(p.a1) if h == 1 else abs(p.a2)
    if a == 0.0:
        raise ValidationError("zero drift: the single-boundary density does not exist")
    return l1 / a, l1**2 / (2.0 * p.b)


def _d2_bracket(t, l1: float, l2: float, b: float):
    """Correction bracket of the lower-boundary densities, clamped at zero."""
    t = np.asarray(t, dtype=np.float64)
    l2a = abs(l2)
    raw = 0.5 * l2a - (l1 + 0.5 * l2a) * np.exp(-(l1**2 + l2a * l1) / (b * t))
    clamped = int(np.count_nonzero(raw < 0.0))
    if clamped:
        warnings.warn(
            f"lower-boundary density bracket clamped at 0 for {clamped} point(s); "
            "these lie beyond the validity range of the asymptotic formula",
            RuntimeWarning,
            stacklevel=3,
        )
    return np.maximum(raw, 0.0)


def decision_time_density(
    t,
    d: int,
    h: int,
    p: ContinuousLLRParams,
    th: Thresholds,
):
    """Asymptotic decision-time density for outcome ``d`` under hypothesis ``h``.

    The upper-boundary (d = 1) densities are inverse Gaussian with mean
    l1/|a_h| and shape l1^2/(2b); the lower-boundary densities carry a
    bracketed correction involving both thresholds.
    """
    _check_regime(p, th)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0):
        raise ValidationError("density defined for t > 0 only")
    a = abs(p.a1) if int(h) == 1 else abs(p.a2)
    b = p.b
    if int(d) == 1:
        mean, shape = _d1_params(p, th.l1, int(h))
        return _ig_pdf(t, mean, shape)
    norm = 1.0 / (1.0 - math.exp(-(a / b) * th.l1))
    core = t ** (-1.5) / math.sqrt(math.pi * b) * np.exp(
        -((a * t + th.l2) ** 2) / (4.0 * b * t)
    )
    return norm * core * _d2_bracket(t, th.l1, th.l2, b)


@dataclass(frozen=True)
class MeanDecisionTimes:
    """Leading-order mean decision times per (decision, hypothesis) cell.

    ``wald_d1`` is the upper-boundary mean time of the matched Wald test
    achieving the same error probabilities, the benchmark against which the
    device's suboptimality gap is measured.
    """

    d1_h1: float
    d1_h2: float
    d2_h1: float
    d2_h2: float
    wald_d1: float


def mean_decision_times(p: ContinuousLLRParams, th: Thresholds) -> MeanDecisionTimes:
    """Mean decision-time expressions in the deep-lower-threshold regime."""
    _check_regime(p, th)
    a1, a2, b = abs(p.a1), abs(p.a2), p.b
    l1, l2a = th.l1, abs(th.l2)
    q1 = math.exp(-(a1 / b) * l1)
    q2 = math.exp(-(a2 / b) * l1)
    alpha1, alpha2 = error_probs_continuous(p, th)
    a_matched = (p.a1 - p.a2) ** 2 / (4.0 * p.b)
    return MeanDecisionTimes(
        d1_h1=l1 / a1,
        d1_h2=l1 / a2,
        d2_h1=(l2a - 2.0 * l1 * q1 / (1.0 - q1)) / a1,
        d2_h2=(l2a - 2.0 * l1 * q2 / (1.0 - q2)) / a2,
        wald_d1=math.log((1.0 - alpha2) / alpha1) / a_matched,
    )


def _limit_alpha1(p: ContinuousLLRParams, l1: float) -> float:
    if not (0.0 < l1 < math.inf):
        raise ValidationError(f"l1 must be positive and finite, got {l1}")
    if p.a2 >= 0.0:
        raise ValidationError("need a2 < 0 for the lower-hypothesis drift")
    alpha1 = math.exp(p.a2 * l1 / p.b)
    if alpha1 > 0.5:
        raise ValidationError(f"alpha1 = {alpha1:.4g} exceeds 1/2; outside the valid range")
    return alpha1


def _log_density_gap(t, p: ContinuousLLRParams, l1: float):
    """log p2(t) - log p1(t) for the two upper-boundary densities (linear in t)."""
    a1, a2 = abs(p.a1), abs(p.a2)
    return (a1**2 - a2**2) * t / (4.0 * p.b) - l1 * (a1 - a2) / (2.0 * p.b)


def _upper_integration_limit(p: ContinuousLLRParams, l1: float) -> float:
    hi = 0.0
    for h in (1, 2):
        mean, shape = _d1_params(p, l1, h)
        t = mean
        while 1.0 - _ig_cdf(t, mean, shape) > TAIL_MASS * 0.1:
            t *= 2.0
        hi = max(hi, t)
    return hi


def mutual_info_continuous(p: ContinuousLLRParams, l1: float) -> float:
    """Conditional mutual information (bits) between hypothesis and decision
    time given the decision, in the limit of a deep lower threshold.

    Equal priors are assumed; alpha1 = exp(a2 l1 / b).  Vanishes exactly
    when |a1| = |a2| and is strictly positive otherwise.
    """
    alpha1 = _limit_alpha1(p, l1)
    if abs(p.a1) == abs(p.a2):
        return 0.0
    log_alpha = math.log(alpha1)
    mean1, shape1 = _d1_params(p, l1, 1)
    mean2, shape2 = _d1_params(p, l1, 2)

    def integrand1(t):
        return _ig_pdf(t, mean1, shape1) * np.logaddexp(
            0.0, log_alpha + _log_density_gap(t, p, l1)
        ) / LN2

    def integrand2(t):
        return _ig_pdf(t, mean2, shape2) * np.logaddexp(
            log_alpha, -_log_density_gap(t, p, l1)
        ) / LN2

    hi = _upper_integration_limit(p, l1)
    pts = sorted({mean1, mean2})
    total = (1.0 + alpha1) / 2.0 * math.log2(1.0 + alpha1)
    for weight, f in ((0.5, integrand1), (0.5 * alpha1, integrand2)):
        val, err = quad(f, 0.0, hi, points=pts, limit=400, epsabs=1e-12, epsrel=1e-10)
        if err > 1e-6 * max(1.0, abs(val)):
            raise QuadratureError(f"quadrature error estimate {err:.3g} too large")
        total -= weight * val
    return max(total, 0.0)


def mutual_info_discretized(p: ContinuousLLRParams, l1: float, t_r: float) -> float:
    """Conditional mutual information (bits) when decision times are measured
    on a grid of resolution ``t_r``.

    Per-bin masses come from the closed-form inverse-Gaussian CDF; the tail
    is truncated (as a single final bin) once the remaining mass of both
    densities falls below 1e-12.  Coarsening can only discard information,
    so the value never exceeds :func:`mutual_info_continuous`.
    """
    if t_r <= 0:
        raise ValidationError("resolution t_r must be positive")
    alpha1 = _limit_alpha1(p, l1)
    if abs(p.a1) == abs(p.a2):
        return 0.0
    mean1, shape1 = _d1_params(p, l1, 1)
    mean2, shape2 = _d1_params(p, l1, 2)
    hi = _upper_integration_limit(p, l1)
    n_bins = int(math.ceil(hi / t_r)) + 1
    edges = np.arange(0, n_bins + 1, dtype=np.float64) * t_r
    cdf1 = _ig_cdf(edges, mean1, shape1)
    cdf2 = _ig_cdf(edges, mean2, shape2)
    m1 = np.maximum(np.diff(cdf1), 0.0)  # rounding can leave -1e-17 residues
    m2 = np.maximum(np.diff(cdf2), 0.0)
    # fold everything past the last edge into one tail bin
    m1 = np.append(m1, max(1.0 - cdf1[-1], 0.0))
    m2 = np.append(m2, max(1.0 - cdf2[-1], 0.0))
    keep = (m1 > 0.0) | (m2 > 0.0)
    m1, m2 = m1[keep], m2[keep]

    total = (1.0 + alpha1) / 2.0 * math.log2(1.0 + alpha1)
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = np.where(m1 > 0.0, m1 * np.log2(1.0 + alpha1 * m2 / np.where(m1 > 0, m1, 1.0)), 0.0)
        term2 = np.where(m2 > 0.0, m2 * np.log2(alpha1 + m1 / np.where(m2 > 0, m2, 1.0)), 0.0)
    total -= 0.5 * float(term1.sum()) + 0.5 * alpha1 * float(term2.sum())
    return max(total, 0.0)


def sample_inverse_gaussian(mean: float, shape: float, rng: np.random.Generator, size=None):
    """Exact inverse-Gaussian variates.

    Transformation method: solve the quadratic relating the variate to a
    one-degree chi-square draw, then pick between the two roots with the
    appropriate probability.
    """
    if mean <= 0 or shape <= 0:
        raise ValidationError("mean and shape must be positive")
    nu = rng.standard_normal(size)
    y = nu * nu
    z = mean * y / (2.0 * shape)
    x = mean * (1.0 + z - np.sqrt(z * z + 2.0 * z))
    u = rng.random(size)
    return np.where(u <= mean / (mean + x), x, mean * mean / x)


def _sample_d2_times(
    h: int,
    n: int,
    p: ContinuousLLRParams,
    th: Thresholds,
    rng: np.random.Generator,
    max_rounds: int = 1000,
) -> np.ndarray:
    """Lower-boundary decision times by rejection against an inverse-Gaussian
    envelope (the density with the subtracted bracket term dropped)."""
    a = abs(p.a1) if h == 1 else abs(p.a2)
    l1, l2a, b = th.l1, abs(th.l2), p.b
    mean = l2a / a
    shape = l2a**2 / (2.0 * b)
    out = np.empty(n)
    filled = 0
    for _ in range(max_rounds):
        want = n - filled
        if want == 0:
            return out
        cand = sample_inverse_gaussian(mean, shape, rng, size=want)
        accept_prob = 1.0 - ((2.0 * l1 + l2a) / l2a) * np.exp(
            -l1 * (l1 + l2a) / (b * cand)
        )
        ok = rng.random(want) < np.maximum(accept_prob, 0.0)
        got = cand[ok]
        out[filled : filled + got.size] = got
        filled += got.size
    raise RuntimeError("rejection envelope failed to produce enough acceptances")


def sample_outcomes_asymptotic(
    p: ContinuousLLRParams,
    th: Thresholds,
    p1: float,
    n: int,
    rng: np.random.Generator,
):
    """Vectorized draw of ``n`` (hypothesis, decision, time) outcomes from the
    asymptotic laws.  Returns (h, d, t) integer/float arrays."""
    _check_regime(p, th)
    if not (0.0 <= p1 <= 1.0):
        raise ValidationError("prior p1 must lie in [0, 1]")
    alpha1, alpha2 = error_probs_continuous(p, th)
    h = np.where(rng.random(n) < p1, 1, 2).astype(np.int8)
    p_d1 = np.where(h == 1, 1.0 - alpha2, alpha1)
    d = np.where(rng.random(n) < p_d1, 1, 2).astype(np.int8)
    t = np.empty(n)
    for hyp in (1, 2):
        mean, shape = _d1_params(p, th.l1, hyp)
        sel = (h == hyp) & (d == 1)
        if sel.any():
            t[sel] = sample_inverse_gaussian(mean, shape, rng, size=int(sel.sum()))
        sel = (h == hyp) & (d == 2)
        if sel.any():
            t[sel] = _sample_d2_times(hyp, int(sel.sum()), p, th, rng)
    return h, d, t
