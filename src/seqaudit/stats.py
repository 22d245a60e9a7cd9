"""Two-sample tests and plug-in information estimates over trial records.

An optimal device produces decision times whose conditional law does not
depend on the true hypothesis; the tests here try to reject that null.
Real-valued times go through the two-sample Kolmogorov-Smirnov test,
step-valued times through a two-sample chi-squared homogeneity test, and the
divergence from optimality is scored by the plug-in conditional mutual
information between hypothesis and (binned) decision time given the decision.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammaincc, kolmogorov

from .core import STEPS, EmptyCellError, RecordBatch, ValidationError

DEFAULT_MERGE_FLOOR = 5.0
DEFAULT_QUANTILE_BINS = 32


@dataclass(frozen=True)
class TestReport:
    """Outcome of a two-sample test."""

    statistic: float
    p_value: float
    n1: int
    n2: int
    method: str  # "KS2" or "CHI2"
    bins: Optional[Tuple[float, ...]] = None


@dataclass(frozen=True)
class Binning:
    """Interior cut points partitioning the time axis.

    Bin j collects t with edges[j-1] <= t < edges[j] after extending the
    edge list by -inf and +inf, so every sample lands in exactly one bin.
    """

    edges: Tuple[float, ...]

    def __post_init__(self) -> None:
        e = np.asarray(self.edges, dtype=np.float64)
        if np.isnan(e).any():
            raise ValidationError("bin edges must not be NaN")
        if e.size and np.any(np.diff(e) <= 0):
            raise ValidationError("bin edges must be strictly increasing")

    def assign(self, times: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.asarray(self.edges), times, side="right")

    @property
    def n_bins(self) -> int:
        return len(self.edges) + 1


def quantile_binning(times: np.ndarray, n_bins: int = DEFAULT_QUANTILE_BINS) -> Binning:
    """Equal-mass bins from the pooled sample; robust to heavy right tails."""
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0:
        raise EmptyCellError("cannot bin an empty sample")
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    edges = np.unique(np.quantile(times, qs))
    return Binning(edges=tuple(edges.tolist()))


def native_binning(times: np.ndarray) -> Binning:
    """One bin per distinct value, cut at the midpoints between neighbours."""
    values = np.unique(times)
    return Binning(edges=tuple(((values[:-1] + values[1:]) / 2.0).tolist()))


# an explicit binning, or None for the default of the time kind
BinningSpec = Optional[Binning]


def _resolve_binning(times: np.ndarray, binning: BinningSpec, time_kind: str) -> Binning:
    """Native bins for step-valued times, quantile bins otherwise."""
    if isinstance(binning, Binning):
        return binning
    if binning is not None:
        raise ValidationError(f"unknown binning spec {binning!r}")
    return native_binning(times) if time_kind == STEPS else quantile_binning(times)


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> TestReport:
    """Two-sample Kolmogorov-Smirnov test for real-valued decision times.

    The statistic is the exact supremum over pooled points of the empirical
    CDF gap; the p-value uses the asymptotic Kolmogorov law at effective
    size n1*n2/(n1+n2).  Heavily tied data belongs in the chi-squared test
    instead and triggers a warning.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    n1, n2 = a.size, b.size
    if n1 < 1 or n2 < 1:
        raise EmptyCellError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    uniq, counts = np.unique(pooled, return_counts=True)
    tie_fraction = counts[counts > 1].sum() / pooled.size
    if tie_fraction > 0.01:
        warnings.warn(
            f"{tie_fraction:.1%} of pooled values are tied; "
            "discrete times should use the chi-squared test",
            RuntimeWarning,
            stacklevel=2,
        )
    cdf1 = np.searchsorted(a, uniq, side="right") / n1
    cdf2 = np.searchsorted(b, uniq, side="right") / n2
    d = float(np.max(np.abs(cdf1 - cdf2)))
    n_eff = n1 * n2 / (n1 + n2)
    p = float(kolmogorov(math.sqrt(n_eff) * d))
    return TestReport(statistic=d, p_value=p, n1=n1, n2=n2, method="KS2")


def chi2_two_sample(
    a: Sequence[float], b: Sequence[float], binning: BinningSpec = None
) -> TestReport:
    """Two-sample chi-squared homogeneity test for step-valued decision times.

    Native values become categories, then bins merge greedily to the right
    until every expected count reaches ``DEFAULT_MERGE_FLOOR``.  The p-value
    is the regularized upper incomplete gamma at (bins - 1) degrees of
    freedom.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 1 or b.size < 1:
        raise EmptyCellError("both samples must be nonempty")
    bng = _resolve_binning(np.concatenate([a, b]), binning, STEPS)
    return _chi2_counts(
        np.bincount(bng.assign(a), minlength=bng.n_bins),
        np.bincount(bng.assign(b), minlength=bng.n_bins),
        bng,
    )


def _chi2_counts(row_a: np.ndarray, row_b: np.ndarray, binning: Binning) -> TestReport:
    """The chi-squared test of two samples given as counts over ``binning``."""
    counts_a = np.asarray(row_a, dtype=np.float64)
    counts_b = np.asarray(row_b, dtype=np.float64)
    n1, n2 = int(counts_a.sum()), int(counts_b.sum())
    merged_a, merged_b, edges_out = _merge_bins(counts_a, counts_b, binning)
    k = merged_a.size
    if k < 2:
        raise ValidationError(
            "fewer than 2 bins remain after merging; the samples cannot support a "
            "chi-squared comparison"
        )
    n = n1 + n2
    pooled_counts = merged_a + merged_b
    stat = 0.0
    for counts, ni in ((merged_a, n1), (merged_b, n2)):
        expected = ni * pooled_counts / n
        stat += float(np.sum((counts - expected) ** 2 / expected))
    dof = k - 1
    p = float(gammaincc(dof / 2.0, stat / 2.0))
    return TestReport(
        statistic=stat, p_value=p, n1=n1, n2=n2, method="CHI2", bins=edges_out
    )


def _merge_bins(counts_a, counts_b, bng: Binning):
    """Greedy right-merge until each sample's expected count clears the floor."""
    n1, n2 = counts_a.sum(), counts_b.sum()
    n = n1 + n2
    n_min = min(n1, n2)
    pooled = counts_a + counts_b
    # a bin is viable when the smaller sample's expected count reaches the floor
    need = DEFAULT_MERGE_FLOOR * n / n_min if n_min > 0 else math.inf
    ends, acc = [], 0.0  # the last bin of each group
    for j, c in enumerate(pooled.tolist()):
        acc += c
        if acc >= need:
            ends.append(j)
            acc = 0.0
    if acc > 0:  # a non-empty remainder joins the last group, or is the only one
        ends[-1:] = [len(pooled) - 1]
    starts = np.add([-1, *ends], 1)[:-1]
    cuts = (*bng.edges, math.inf)
    merged_a, merged_b = (np.add.reduceat(c, starts) for c in (counts_a, counts_b))
    return merged_a, merged_b, tuple(cuts[e] for e in ends)


@dataclass(frozen=True)
class MIEstimate:
    """Plug-in mutual-information value in bits, with the binning used."""

    value_bits: float
    n: int
    binning: Binning

    def __post_init__(self) -> None:
        if self.value_bits < 0:
            raise ValidationError("plug-in MI must be clipped at zero")


def _entropy_bits(counts: np.ndarray) -> float:
    counts = counts[counts > 0].astype(np.float64)
    n = counts.sum()
    p = counts / n
    return float(-np.sum(p * np.log2(p)))


def _hdt_table(batch: RecordBatch, binning: BinningSpec) -> Tuple[Binning, np.ndarray]:
    """The binning and the (hypothesis, decision, time-bin) count table.

    One ``bincount`` fills the 2 x 2 x K table; every plug-in entropy below
    is a sum over it taken in (h, d, bin) order, and the step-valued
    chi-squared tests compare its rows.
    """
    if len(batch) == 0:
        raise EmptyCellError("no records")
    bng = _resolve_binning(batch.time, binning, batch.time_kind)
    k = bng.n_bins
    table = np.bincount(batch.cell_code() * k + bng.assign(batch.time), minlength=4 * k)
    return bng, table.reshape(2, 2, k)


def _chain_rule(table: np.ndarray) -> Tuple[float, float, float]:
    """(I(H;(D,T)), I(H;D), I(H;T|D)) in bits from an (H, D, bin) count table."""
    hd = table.sum(axis=2)
    h_ent = _entropy_bits(hd.sum(axis=1))
    d_ent = _entropy_bits(hd.sum(axis=0))
    hd_ent = _entropy_bits(hd)
    dt_ent = _entropy_bits(table.sum(axis=0))
    hdt_ent = _entropy_bits(table)
    # I(H;T|D) = H(H,D) + H(D,T) - H(D) - H(H,D,T)
    i_cond = hd_ent + dt_ent - d_ent - hdt_ent
    return h_ent + dt_ent - hdt_ent, h_ent + d_ent - hd_ent, max(i_cond, 0.0)


def mi_plugin(x_labels, y_values, binning: BinningSpec = None) -> MIEstimate:
    """Generic two-variable plug-in mutual information in bits.

    ``x_labels`` are categories (the table holds one row per distinct
    label); ``y_values`` fall into ``binning``, by default one bin per
    distinct value; negative rounding artifacts are clipped at zero.
    """
    x = np.asarray(x_labels)
    y = np.asarray(y_values, dtype=np.float64)
    if x.size != y.size:
        raise ValidationError("label and value arrays must have equal length")
    if x.size == 0:
        raise EmptyCellError("cannot estimate mutual information from no samples")
    bng = _resolve_binning(y, binning, STEPS)
    k = bng.n_bins
    labels, codes = np.unique(x, return_inverse=True)
    table = np.bincount(
        codes * k + bng.assign(y), minlength=labels.size * k
    ).reshape(labels.size, k)
    value = (
        _entropy_bits(table.sum(axis=1))
        + _entropy_bits(table.sum(axis=0))
        - _entropy_bits(table)
    )
    return MIEstimate(value_bits=max(value, 0.0), n=int(x.size), binning=bng)


def conditional_mi_plugin(records: RecordBatch, binning: BinningSpec = None) -> MIEstimate:
    """Plug-in estimate of I(hypothesis; time | decision) in bits.

    Times are binned once over the pooled sample (native values for
    step-valued records, equal-mass quantile bins otherwise); the estimate
    then satisfies the chain rule against :func:`mi_plugin` on the same
    table exactly.  A ``binning`` that is not a :class:`Binning` or None
    raises :class:`ValidationError`.  The plug-in estimator carries a positive bias
    of order (cells/N); no correction is applied.
    """
    bng, table = _hdt_table(records, binning)
    return MIEstimate(value_bits=_chain_rule(table)[2], n=len(records), binning=bng)


def mi_decomposition(records: RecordBatch, binning: BinningSpec = None):
    """The chain-rule triple (I(H;(D,T)), I(H;D), I(H;T|D)) from one table."""
    return _chain_rule(_hdt_table(records, binning)[1])


def optimality_test_known_h(records: RecordBatch, binning: BinningSpec = None) -> Tuple[TestReport, TestReport]:
    """Known-hypothesis optimality test.

    Compares decision times across hypotheses within each decision cell:
    (H=1, D=1) against (H=2, D=1) and (H=1, D=2) against (H=2, D=2).  A
    small p-value rejects the null that the device is optimal.  Step-valued
    records are compared on rows of the count table, real-valued ones by KS.
    """
    counts = records.cell_counts()
    for h in (1, 2):
        for d in (1, 2):
            if counts[h - 1, d - 1] == 0:
                raise EmptyCellError(f"no records with hypothesis {h} and decision {d}")
    if records.time_kind == STEPS:
        bng, table = _hdt_table(records, binning)
        return tuple(_chi2_counts(table[0, d], table[1, d], bng) for d in (0, 1))
    return tuple(
        ks_two_sample(records.cell_times(1, d), records.cell_times(2, d)) for d in (1, 2)
    )


def optimality_test_unknown_h(records: RecordBatch, binning: BinningSpec = None) -> TestReport:
    """Unknown-hypothesis optimality test.

    Compares decision times across decisions only; valid when the caller
    asserts the observation statistics are involution-symmetric and the
    device ran with symmetric error constraints (l1 = -l2).
    """
    if (records.cell_counts().sum(axis=0) == 0).any():
        raise EmptyCellError("both decisions must be present")
    if records.time_kind == STEPS:
        bng, table = _hdt_table(records, binning)
        by_decision = table.sum(axis=0)
        return _chi2_counts(by_decision[0], by_decision[1], bng)
    return ks_two_sample(records.time[records.decision == 1], records.time[records.decision == 2])
