"""Closed-form quantities for continuous-time devices.

The device's log-likelihood ratio is a drift-diffusion with per-hypothesis
drift a_i and diffusion coefficient 2b, so error probabilities, decision-time
densities (in the deep-lower-threshold regime), mean decision times, and the
conditional mutual information all admit closed forms or one-dimensional
quadratures.  The map from a device to those drifts,
:func:`continuous_llr_params`, lives with the device in
:mod:`seqaudit.models`.  Exact samplers for the asymptotic laws let the
acceptance criteria and unit tests check the closed forms against draws;
every figure simulates its records with ``run_experiment``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import Thresholds, ValidationError
# continuous_llr_params stays importable from here, its former home
from .models import ContinuousLLRParams, _exit_mass, continuous_llr_params
from .stats import chain_rule

LN2 = math.log(2.0)
TAIL_MASS = 1e-12
REGIME_MIN_RATIO = 2.0
REJECTION_ROUNDS = 1000


class RegimeError(ValueError):
    """Parameters violate the deep-lower-threshold asymptotic regime."""


class QuadratureError(RuntimeError):
    """A quadrature failed to reach the requested accuracy."""


def error_probs_continuous(p: ContinuousLLRParams, th: Thresholds) -> Tuple[float, float]:
    """Exact error probabilities of the continuous device.

    alpha1 = (1 - e^{a2 l2 / b}) / (1 - e^{a2 (l2 - l1) / b}) and
    alpha2 = (e^{a1 l2 / b} - e^{a1 (l2 - l1) / b}) / (1 - e^{a1 (l2 - l1) / b}).
    At zero drift they take their limits, -l2 / (l1 - l2) and
    l1 / (l1 - l2).  Raises when a result falls outside [0, 1/2], the range
    for which the parameterization is meaningful.
    """
    w = th.l1 - th.l2
    alpha1 = _exit_mass(th.l1, p.a2, w, p.b)
    alpha2 = _exit_mass(-th.l2, -p.a1, w, p.b)
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
    from scipy.special import log_ndtr, ndtr  # here, so `import seqaudit` does not load it

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
    mean = l1 / a
    if not (math.isfinite(mean * mean) and math.isfinite(l1 * l1 / p.b)):
        raise ValidationError(
            f"|a{h}| = {a:g}, b = {p.b:g} and l1 = {l1:g} put the decision-time density "
            f"(mean {mean:.3g}) beyond float range"
        )
    return mean, l1**2 / (2.0 * p.b)


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
    from scipy.integrate import quad  # loaded by the one caller that integrates

    alpha1 = _limit_alpha1(p, l1)
    if abs(p.a1) == abs(p.a2):
        return 0.0
    log_alpha = p.a2 * l1 / p.b  # log(alpha1) would fail once alpha1 underflows to 0
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

    # Integrate over u = ln t: for a tiny drift the mean l1/|a| and the tail
    # limit run far past the mass near t ~ l1^2/b, which a grid in t misses.
    # Below min(shape, mean)/1500 the inverse-Gaussian exponent is under -749.
    lo = math.log(min(shape1, mean1, mean2) / 1500.0)
    hi = math.log(_upper_integration_limit(p, l1))
    pts = sorted({math.log(mean1), math.log(mean2)})
    total = (1.0 + alpha1) / 2.0 * math.log2(1.0 + alpha1)
    for weight, f in ((0.5, integrand1), (0.5 * alpha1, integrand2)):
        val, err = quad(
            lambda u: f(math.exp(u)) * math.exp(u), lo, hi,
            points=pts, limit=400, epsabs=1e-12, epsrel=1e-10,
        )
        if err > 1e-6 * max(1.0, abs(val)):
            raise QuadratureError(f"quadrature error estimate {err:.3g} too large")
        total -= weight * val
    return max(total, 0.0)


def mutual_info_discretized(p: ContinuousLLRParams, l1: float, t_r: float) -> float:
    """Conditional mutual information (bits) when decision times are measured
    on a grid of resolution ``t_r``.

    Per-bin masses come from the closed-form inverse-Gaussian CDF; the tail
    is truncated (as a single final bin) once the remaining mass of both
    densities falls below 1e-12.  The value is the chain rule of the
    (H, D, bin) law at equal priors, where H=2 decides 2 with mass
    1 - alpha1 in one bin.  Coarsening can only discard information, so the
    value never exceeds :func:`mutual_info_continuous`.
    """
    if t_r <= 0:
        raise ValidationError("resolution t_r must be positive")
    alpha1 = _limit_alpha1(p, l1)
    if abs(p.a1) == abs(p.a2):
        return 0.0
    hi = _upper_integration_limit(p, l1)
    n_bins = int(math.ceil(hi / t_r)) + 1
    if n_bins > 2**53:  # float64 edges k * t_r stop being distinct
        raise ValidationError(
            f"t_r = {t_r:g} needs {n_bins:.3g} bins up to the tail limit {hi:.3g} "
            f"of a1 = {p.a1:g}, a2 = {p.a2:g}, b = {p.b:g}"
        )
    edges = np.arange(0, n_bins + 1, dtype=np.float64) * t_r
    law = np.zeros((2, 2, n_bins + 1))
    for h, weight in ((1, 1.0), (2, alpha1)):
        cdf = _ig_cdf(edges, *_d1_params(p, l1, h))
        # rounding can leave -1e-17 residues; the mass past the last edge is one tail bin
        law[h - 1, 0] = weight * np.maximum(np.diff(cdf, append=1.0), 0.0)
    law[1, 1, 0] = 1.0 - alpha1
    return chain_rule(law)[2]


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
) -> np.ndarray:
    """Lower-boundary decision times by rejection against an inverse-Gaussian
    envelope (the density with the subtracted bracket term dropped)."""
    a = abs(p.a1) if h == 1 else abs(p.a2)
    l1, l2a, b = th.l1, abs(th.l2), p.b
    mean = l2a / a
    shape = l2a**2 / (2.0 * b)
    out = np.empty(n)
    filled = 0
    for _ in range(REJECTION_ROUNDS):
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
