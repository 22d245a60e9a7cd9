"""Observation processes and black-box Wald decision devices.

A device accumulates the log-likelihood ratio prescribed by its world model
(which may disagree with the process actually generating observations) and
stops when the sum exits the threshold interval.  The same dataclasses serve
as observation models and as world models; a matched device simply reuses
the observation model instance.  Four families live here: i.i.d. Gaussian,
Markov-Gaussian and two-point lattice observations, stepped one draw at a
time, and the drift-diffusion process, whose log-likelihood ratio is itself
a drift-diffusion (:func:`continuous_llr_params`) and whose trials are
drawn from its two-barrier exit law (:func:`diffusion_cdfs`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Thresholds, ValidationError, check_finite


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

    def draw_params(self, h):
        """Per-trial (mu, sigma) under hypotheses ``h``."""
        h = np.asarray(h)
        return np.where(h == 1, self.mu1, self.mu2), np.where(h == 1, self.sigma1, self.sigma2)

    def draw(self, params, rng: np.random.Generator, size=None, x_prev=None):
        """One observation per trial: the draws and float operations of
        ``rng.normal(mu, sigma, size)``."""
        mu, sigma = params
        return mu + sigma * rng.standard_normal(size)

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

    def draw_params(self, h):
        """Per-trial (v, w + 1, sigma) under hypotheses ``h``."""
        h = np.asarray(h)
        return (
            np.where(h == 1, self.v1, self.v2),
            np.where(h == 1, self.w1, self.w2) + 1.0,
            np.where(h == 1, self.sigma1, self.sigma2),
        )

    def draw(self, params, rng: np.random.Generator, size=None, x_prev=0.0):
        """One observation per trial: the draws and float operations of
        ``rng.normal(v + (w + 1) x_prev, sigma, size)``."""
        v, w1, sigma = params
        return v + w1 * np.asarray(x_prev) + sigma * rng.standard_normal(size)

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
        check_finite(self)

    @property
    def step(self) -> float:
        return math.log(self.p / (1.0 - self.p))

    @property
    def thresholds(self) -> Thresholds:
        return Thresholds(l1=self.m1 * self.step, l2=-self.m2 * self.step)

    def draw_params(self, h):
        """Per-trial up-probability under hypotheses ``h``."""
        return (np.where(np.asarray(h) == 1, self.p, 1.0 - self.p),)

    def draw(self, params, rng: np.random.Generator, size=None, x_prev=None):
        """One observation per trial, +1 or -1."""
        (up,) = params
        return np.where(rng.random(size) < up, 1.0, -1.0)

    def llr_increment(self, x, x_prev=None):
        return np.asarray(x, dtype=np.float64) * self.step


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


def _wald_discrete_block(model, wm, th, h: np.ndarray, max_steps: int, rng):
    """Vectorized discrete trials; one stream drives the whole block.

    Each trial's draw parameters (``model.draw_params``) are worked out once.
    The alive trials are held compacted: their indices, LLRs, previous
    observations and draw parameters shrink together on each step where a
    trial stops, and each step draws one observation per alive trial in
    trial order.

    Returns (times, decisions, terminal_llrs) arrays over the block.  A
    trial still inside (l2, l1) after ``max_steps`` is truncated: decision
    0, time 0 and terminal NaN.
    """
    n = len(h)
    times = np.zeros(n)
    decisions = np.zeros(n, dtype=np.int8)
    terminal = np.full(n, np.nan)
    alive = np.arange(n)
    s = np.zeros(n)
    x_prev = np.zeros(n)
    params = model.draw_params(h)
    for k in range(1, max_steps + 1):
        x = model.draw(params, rng, alive.size, x_prev)
        s += wm.llr_increment(x, x_prev)
        x_prev = x
        done = (s >= th.l1) | (s <= th.l2)
        stop = np.flatnonzero(done)
        if stop.size:
            idx, s_done = alive[stop], s[stop]
            times[idx] = k
            decisions[idx] = np.where(s_done >= th.l1, 1, 2)
            terminal[idx] = s_done
            keep = np.flatnonzero(~done)
            alive, s, x_prev = alive[keep], s[keep], x_prev[keep]
            params = tuple(p[keep] for p in params)
            if alive.size == 0:
                break
    return times, decisions, terminal


# Rows of the exit-law table filled per pass; bounds the series' temporaries.
TABLE_CHUNK = 256
# Stop the table once the undecided mass is below one float64 uniform step.
UNDECIDED_FLOOR = 2.0**-53
# Below u = t * 2b / (l1 - l2)^2 the image (small-time) series converges faster.
SMALL_TIME_U = 0.25
# Series terms are summed until one falls below this absolute size.
SERIES_TOL = 1e-20


def _exit_mass(d: float, mu: float, w: float, b: float) -> float:
    """P(leave through the barrier at distance ``d``), drift ``mu`` toward it.

    The other barrier lies at distance ``w - d``; the diffusion coefficient
    is 2b.  Written with ``expm1`` so that neither sign of ``mu`` overflows.
    """
    x, y = mu * (w - d) / b, mu * w / b
    if y == 0.0:  # zero drift, or one so small that mu * w / b underflows
        return (w - d) / w
    if mu > 0.0:
        return math.expm1(-x) / math.expm1(-y)
    return math.exp(mu * d / b) * math.expm1(x) / math.expm1(y)


def _small_time_cdf(t: np.ndarray, d: float, mu: float, w: float, b: float) -> np.ndarray:
    """Defective exit CDF by the method of images (Navarro & Fuss 2009).

    Each image at signed distance c contributes the single-barrier passage
    law of |c| under drift |mu|, in log space so no prefactor overflows.
    """
    from scipy.special import log_ndtr  # here, so `import seqaudit` does not load it

    s = np.sqrt(2.0 * b * t)
    m = abs(mu)
    lead = mu * d / (2.0 * b)

    def image(c: float) -> np.ndarray:
        ac = abs(c)
        near = np.exp(lead - ac * m / (2.0 * b) + log_ndtr((m * t - ac) / s))
        far = np.exp(lead + ac * m / (2.0 * b) + log_ndtr(-(m * t + ac) / s))
        return math.copysign(1.0, c) * (near + far)

    total = image(d)
    for j in range(1, 200):
        pair = (image(d + 2.0 * j * w), image(d - 2.0 * j * w))
        total += pair[0] + pair[1]
        if max(np.abs(pair[0]).max(), np.abs(pair[1]).max()) < SERIES_TOL:
            break
    return total


def _large_time_tail(t: np.ndarray, d: float, mu: float, w: float, b: float) -> np.ndarray:
    """Exit mass still to come after t, by the eigenfunction series.

    Termwise integral of the large-time density of Navarro & Fuss 2009, as in
    Blurton, Kesselmeier & Gondan 2012.
    """
    scale = 2.0 * math.pi * b / (w * w)
    lead = mu * d / (2.0 * b)
    total = np.zeros_like(t)
    for k in range(1, 200):
        lam = mu * mu / (4.0 * b) + (k * math.pi) ** 2 * b / (w * w)
        size = scale * k / lam * np.exp(lead - lam * t)
        total += math.sin(k * math.pi * d / w) * size
        if size.max() < SERIES_TOL:
            break
    return total


def _exit_cdf(t: np.ndarray, d: float, mu: float, w: float, b: float, mass: float):
    """(F(t), mass - F(t)) for the barrier at distance ``d``, on rows ``t``.

    The eigenfunction series carries the prefactor e^{mu d / 2b - mu^2 t / 4b}
    and loses that much absolute precision; the image series takes every row
    where it exceeds e, and every row below ``SMALL_TIME_U``.
    """
    lead = mu * d / (2.0 * b)
    t_switch = SMALL_TIME_U * w * w / (2.0 * b)
    if lead > 1.0:
        t_switch = max(t_switch, 4.0 * b * (lead - 1.0) / (mu * mu))
    small = t < t_switch
    f = np.empty_like(t)
    tail = np.empty_like(t)
    if small.any():
        f[small] = _small_time_cdf(t[small], d, mu, w, b)
        tail[small] = mass - f[small]
    if not small.all():
        tail[~small] = _large_time_tail(t[~small], d, mu, w, b)
        f[~small] = mass - tail[~small]
    return f, tail


def _exit_cdfs(a: float, b: float, l1: float, l2: float, dt: float, n_steps: int):
    """Defective CDFs (F_1, F_2) of the upper and lower exits at dt, 2dt, ...

    The LLR is S_t = a t + sqrt(2b) W_t from 0 between l2 < 0 < l1.  The
    rows run to ``n_steps`` or to the first one whose undecided mass is below
    ``UNDECIDED_FLOOR``, whichever comes first.
    """
    w = l1 - l2
    sides = ((l1, a), (-l2, -a))  # (distance to the barrier, drift toward it)
    masses = [_exit_mass(d, mu, w, b) for d, mu in sides]
    rows = ([], [])
    for start in range(1, n_steps + 1, TABLE_CHUNK):
        t = np.arange(start, min(start + TABLE_CHUNK, n_steps + 1)) * dt
        undecided = np.zeros_like(t)
        for (d, mu), mass, out in zip(sides, masses, rows):
            f, tail = _exit_cdf(t, d, mu, w, b, mass)
            out.append(f)
            undecided += tail
        done = np.flatnonzero(undecided < UNDECIDED_FLOOR)
        if done.size:
            for out in rows:
                out[-1] = out[-1][: done[0] + 1]
            break
    return tuple(np.maximum.accumulate(np.maximum(np.concatenate(out), 0.0)) for out in rows)


def diffusion_cdfs(model, thresholds: Thresholds, dt: float, window: float, device=None):
    """The exit CDFs ``[(F1, F2)]`` under H=1 and H=2 at dt, 2dt, ... over ceil(window/dt) steps.

    The simulator inverts them and ``oracle.diffusion_law`` differences them;
    ``device`` None is the matched device.
    """
    if not (0 < dt < math.inf and 0 < window < math.inf):
        raise ValidationError(
            f"exit law needs 0 < dt < inf and 0 < window < inf, got dt={dt}, window={window}"
        )
    p = continuous_llr_params(model, model if device is None else device)
    n_steps = math.ceil(window / dt)
    return [_exit_cdfs(a, p.b, thresholds.l1, thresholds.l2, dt, n_steps) for a in (p.a1, p.a2)]


def _exit_inverse(f1: np.ndarray, f2: np.ndarray):
    """The joint CDF of (decision, step) from ``_exit_cdfs``' (f1, f2), and its guide table.

    ``cdf`` runs over the upper exits at dt, 2dt, ..., then the lower ones
    added to the whole upper mass, then +inf, which no uniform reaches and
    which gives every bucket an entry to compare.  Over G buckets, G the least
    power of two at or above the finite entries' count,
    ``guide[g] = searchsorted(cdf, g / G, "right")`` for g = 0..G (Chen & Asau
    1974; Devroye 1986, section III.2.4).
    """
    cdf = np.concatenate((f1, f1[-1] + f2, [np.inf]))
    size = 1 << (len(cdf) - 2).bit_length()
    guide = np.searchsorted(cdf, np.arange(size + 1) / size, side="right").astype(np.int32)
    return cdf, guide


def _invert(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for uniforms ``u`` in [0, 1).

    The bucket of u holds the entries in (g/G, (g+1)/G]: with at most one,
    the cell is read off by one comparison; the uniforms in wider buckets
    are searched.
    """
    g = (u * (len(guide) - 1)).astype(np.intp)  # exact: G is a power of two
    lo, hi = guide[g], guide[g + 1]
    cell = lo + (u >= cdf[lo])
    wide = np.flatnonzero(hi - lo > 1)
    cell[wide] = np.searchsorted(cdf, u[wide], side="right")
    return cell


def _wald_continuous_block(laws, h: np.ndarray, th, dt: float, rng):
    """Exact trials of the device whose LLR is dS = a_h dt + sqrt(2b) dW.

    Each trial takes one uniform from ``rng`` and inverts the joint law of
    (decision, dt-step of the first crossing) under its hypothesis h through
    ``laws[h]``, the (cdf, guide) pair of ``_exit_inverse``: a crossing in
    ((k-1) dt, k dt] is recorded at time k dt with the crossed threshold as
    its terminal LLR.  Trials undecided past the table's last step are
    truncated: decision 0, time 0 and terminal NaN.
    """
    n = len(h)
    u = rng.random(n)
    times = np.zeros(n)
    decisions = np.zeros(n, dtype=np.int8)
    terminal = np.full(n, np.nan)
    for hyp, (cdf, guide) in laws.items():
        idx = np.flatnonzero(h == hyp)
        rows = (len(cdf) - 1) // 2
        cell = _invert(cdf, guide, u[idx])
        d = np.where(cell < rows, 1, np.where(cell < 2 * rows, 2, 0))
        decisions[idx] = d
        times[idx] = np.where(d > 0, cell % rows + 1, 0) * dt
        terminal[idx] = np.array([np.nan, th.l1, th.l2])[d]
    return times, decisions, terminal
