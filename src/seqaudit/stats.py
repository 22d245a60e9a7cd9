"""Two-sample tests and plug-in information estimates over trial records.

An optimal device produces decision times whose conditional law does not
depend on the true hypothesis; the tests here try to reject that null.
Real-valued times go through the two-sample Kolmogorov-Smirnov test,
step-valued times through a two-sample chi-squared homogeneity test, and the
divergence from optimality is scored by the plug-in conditional mutual
information between hypothesis and (binned) decision time given the decision.
Every statistic counts one table, the samples of each row at each distinct
time (``_native_table``); a binning only groups that table's time columns,
and equal-mass quantile bins come from its cumulative counts.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

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
        if not (e[1:] > e[:-1]).all():
            raise ValidationError("bin edges must be strictly increasing")

    def assign(self, times: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.asarray(self.edges), times, side="right")

    @property
    def n_bins(self) -> int:
        return len(self.edges) + 1


def quantile_binning(times: np.ndarray, n_bins: int = DEFAULT_QUANTILE_BINS) -> Binning:
    """Equal-mass bins from the pooled sample; robust to heavy right tails."""
    if not isinstance(n_bins, numbers.Integral):
        raise ValidationError(f"n_bins must be a whole number, got {n_bins!r}")
    if n_bins < 1:
        raise ValidationError(f"n_bins must be >= 1, got {n_bins}")
    values, counts = np.unique(np.asarray(times, dtype=np.float64), return_counts=True)
    return _quantile_edges(values, np.cumsum(counts), n_bins)


def _quantile_edges(values: np.ndarray, cum: np.ndarray, n_bins: int) -> Binning:
    """``n_bins`` equal-mass bins of the sample with ``cum[i]`` times at or below ``values[i]``.

    ``np.quantile``'s default rule (Hyndman & Fan type 7): the q-quantile
    lies at position (n - 1) q of the sorted sample, between the order
    statistics either side, interpolated as numpy's ``_lerp`` does.  As there,
    a sample holding NaN has every quantile NaN, which :class:`Binning` rejects.
    """
    n = int(cum[-1]) if cum.size else 0
    if n == 0:
        raise EmptyCellError("cannot bin an empty sample")
    t, k = np.modf((n - 1) * np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
    # order statistic j is the first distinct value whose cumulative count exceeds j
    lo, hi = (values[np.searchsorted(cum, np.minimum(j, n - 1), side="right")] for j in (k, k + 1))
    diff = hi - lo
    edges = lo + diff * t
    np.subtract(hi, diff * (1 - t), out=edges, where=t >= 0.5)
    np.copyto(edges, values[-1], where=np.isnan(values[-1]))  # a NaN sorts last
    return Binning(edges=tuple(np.unique(edges).tolist()))


def native_binning(times: np.ndarray) -> Binning:
    """One bin per distinct value, cut at the midpoints between neighbours, or
    at the upper one where the midpoint rounds down onto the lower."""
    values = np.unique(times)
    mid = values[:-1] / 2.0 + values[1:] / 2.0  # halved first: no overflow near the largest float
    return Binning(edges=tuple(np.where(mid > values[:-1], mid, values[1:]).tolist()))


def _count_table(
    codes: np.ndarray, rows: int, times: np.ndarray, binning: Optional[Binning], time_kind: str
) -> Tuple[Binning, np.ndarray]:
    """The binning and the (row, time-bin) count table of samples ``(codes, times)``.

    ``binning`` None takes native bins for step-valued times and quantile
    bins otherwise; any other value that is not a :class:`Binning` raises
    :class:`ValidationError`.  Every table is the native one, whose columns
    a binning groups: bin j sums the columns at times in [edges[j-1], edges[j]).
    """
    values, table = _native_table(codes, rows, times)
    if binning is None and time_kind == STEPS:
        return native_binning(values), table
    # zero-prepended cumulative counts, differenced: ``np.add.reduceat`` gets empty bins wrong
    cum = np.zeros((rows, table.shape[1] + 1), dtype=table.dtype)
    np.cumsum(table, axis=1, out=cum[:, 1:])
    if binning is None:
        binning = _quantile_edges(values, cum[:, 1:].sum(axis=0), DEFAULT_QUANTILE_BINS)
    elif not isinstance(binning, Binning):
        raise ValidationError(f"unknown binning spec {binning!r}")
    cuts = np.r_[0, np.searchsorted(values, binning.edges), table.shape[1]]
    return binning, np.diff(cum[:, cuts], axis=1)


def _native_table(codes: np.ndarray, rows: int, times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct times and the ``rows`` x K table of samples at each.

    Whole, nonnegative times whose table from 0 to the largest holds at most
    two cells per sample (plus 4096) are counted by one ``bincount`` over
    ``time * rows + code``, and the all-zero columns are dropped; any other
    times are numbered by ``np.unique``.  An empty sample gets one empty column.
    """
    if times.size and times.min() >= 0 and (top := times.max()) <= (2 * times.size + 4096) / rows - 1:
        t = times.astype(np.int64)
        if np.array_equal(t, times):
            t *= rows  # in place: ``t * rows + codes`` would hold one more int64 column
            t += codes
            table = np.bincount(t, minlength=rows * (int(top) + 1)).reshape(-1, rows)
            keep = table.any(axis=1)
            return np.flatnonzero(keep).astype(np.float64), table[keep].T
    values, index = np.unique(times, return_inverse=True)
    index *= rows
    index += codes
    table = np.bincount(index, minlength=rows * max(values.size, 1))
    return values, table.reshape(-1, rows).T


def _two_sample_table(a: Sequence[float], b: Sequence[float]):
    """The sorted distinct times and the two rows of counts of two nonempty samples."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 1 or b.size < 1:
        raise EmptyCellError("both samples must be nonempty")
    values, table = _native_table(np.repeat([0, 1], [a.size, b.size]), 2, np.concatenate([a, b]))
    return (values, *table)


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> TestReport:
    """Two-sample Kolmogorov-Smirnov test for real-valued decision times.

    The statistic is the exact supremum over pooled points of the empirical
    CDF gap; the p-value uses the asymptotic Kolmogorov law at effective
    size n1*n2/(n1+n2).  Heavily tied data belongs in the chi-squared test
    instead and triggers a warning.
    """
    return _ks_counts(*_two_sample_table(a, b))


def _ks_counts(values: np.ndarray, row_a: np.ndarray, row_b: np.ndarray) -> TestReport:
    """The KS test of two rows of counts at the sorted distinct times ``values``; only their
    order enters."""
    from scipy.special import kolmogorov  # here, so `import seqaudit` does not load it

    n1, n2 = int(row_a.sum()), int(row_b.sum())
    pooled = row_a + row_b
    tie_fraction = pooled[pooled > 1].sum() / (n1 + n2)
    if tie_fraction > 0.01:
        warnings.warn(
            f"{tie_fraction:.1%} of pooled values are tied; "
            "discrete times should use the chi-squared test",
            RuntimeWarning,
            stacklevel=3,
        )
    d = float(np.max(np.abs(np.cumsum(row_a) / n1 - np.cumsum(row_b) / n2)))
    n_eff = n1 * n2 / (n1 + n2)
    p = float(kolmogorov(math.sqrt(n_eff) * d))
    return TestReport(statistic=d, p_value=p, n1=n1, n2=n2, method="KS2")


def chi2_two_sample(a: Sequence[float], b: Sequence[float]) -> TestReport:
    """Two-sample chi-squared homogeneity test for step-valued decision times.

    Native values become categories, then bins merge greedily to the right
    until every expected count reaches ``DEFAULT_MERGE_FLOOR``.  The p-value
    is the regularized upper incomplete gamma at (bins - 1) degrees of
    freedom.
    """
    return _chi2_counts(*_two_sample_table(a, b))


def _chi2_counts(values: np.ndarray, row_a: np.ndarray, row_b: np.ndarray) -> TestReport:
    """The chi-squared test of two samples given as counts at the distinct times ``values``,
    one category each before merging, cut at ``native_binning(values)``."""
    from scipy.special import gammaincc  # here, so `import seqaudit` does not load it

    counts_a = np.asarray(row_a, dtype=np.float64)
    counts_b = np.asarray(row_b, dtype=np.float64)
    n1, n2 = int(counts_a.sum()), int(counts_b.sum())
    merged_a, merged_b, edges_out = _merge_bins(counts_a, counts_b, native_binning(values))
    k = merged_a.size
    if k < 2:
        raise EmptyCellError(
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


def _hdt_table(batch: RecordBatch, binning: Optional[Binning]) -> Tuple[Binning, np.ndarray]:
    """The binning and the (hypothesis, decision, time-bin) count table.

    Its bins group the columns of the native (hypothesis, decision, time)
    table.  Every plug-in entropy below is a sum over the 2 x 2 x K table
    taken in (h, d, bin) order, and the step-valued chi-squared tests
    compare its rows.
    """
    if len(batch) == 0:
        raise EmptyCellError("no records")
    bng, table = _count_table(batch.cell_code(), 4, batch.time, binning, batch.time_kind)
    return bng, table.reshape(2, 2, -1)


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


def mi_plugin(x_labels, y_values, binning: Optional[Binning] = None) -> MIEstimate:
    """Generic two-variable plug-in mutual information in bits.

    ``x_labels`` are categories (the table holds one row per distinct
    label); ``y_values`` fall into ``binning``, by default one bin per
    distinct value; negative rounding artifacts are clipped at zero.
    """
    x = np.asarray(x_labels)
    y = np.asarray(y_values, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValidationError("labels and values must be one-dimensional")
    if x.size != y.size:
        raise ValidationError("label and value arrays must have equal length")
    if x.size == 0:
        raise EmptyCellError("cannot estimate mutual information from no samples")
    labels, codes = np.unique(x, return_inverse=True)
    bng, table = _count_table(codes, labels.size, y, binning, STEPS)
    # the joint term of the chain rule over a single decision is I(X;Y)
    value = _chain_rule(table[:, None, :])[0]
    return MIEstimate(value_bits=max(value, 0.0), n=int(x.size), binning=bng)


def conditional_mi_plugin(records: RecordBatch, binning: Optional[Binning] = None) -> MIEstimate:
    """Plug-in estimate of I(hypothesis; time | decision) in bits.

    The pooled (H, D, time) table is counted once and its time columns
    grouped: one bin per distinct value for step-valued records, equal-mass
    quantile bins from its cumulative counts otherwise.  The estimate
    then satisfies the chain rule against :func:`mi_plugin` on the same
    table exactly.  A ``binning`` that is not a :class:`Binning` or None
    raises :class:`ValidationError`.  The plug-in estimator carries a positive bias
    of order (cells/N); no correction is applied.
    """
    bng, table = _hdt_table(records, binning)
    return MIEstimate(value_bits=_chain_rule(table)[2], n=len(records), binning=bng)


def mi_decomposition(records: RecordBatch, binning: Optional[Binning] = None):
    """The chain-rule triple (I(H;(D,T)), I(H;D), I(H;T|D)) from one table."""
    return _chain_rule(_hdt_table(records, binning)[1])


def _test_table(records: RecordBatch):
    """The distinct times, native (H, D, time) table, its (H, D) cell sizes and the row test
    of the optimality tests: chi-squared for step-valued times, KS otherwise."""
    values, table = _native_table(records.cell_code(), 4, records.time)
    compare = _chi2_counts if records.time_kind == STEPS else _ks_counts
    # ``sum(axis=1)`` is slow on the table's strides
    return values, table.reshape(2, 2, -1), np.einsum("ck->c", table).reshape(2, 2), compare


def optimality_test_known_h(records: RecordBatch) -> Tuple[TestReport, TestReport]:
    """Known-hypothesis optimality test.

    Compares decision times across hypotheses within each decision cell:
    (H=1, D=1) against (H=2, D=1) and (H=1, D=2) against (H=2, D=2).  A
    small p-value rejects the null that the device is optimal.  Both panels
    compare rows of one count table, by chi-squared or by KS.
    """
    values, table, counts, compare = _test_table(records)
    for h in (1, 2):
        for d in (1, 2):
            if counts[h - 1, d - 1] == 0:
                raise EmptyCellError(f"no records with hypothesis {h} and decision {d}")
    return tuple(compare(values, *table[:, d]) for d in (0, 1))


def optimality_test_unknown_h(records: RecordBatch) -> TestReport:
    """Unknown-hypothesis optimality test.

    Compares decision times across decisions only; valid when the caller
    asserts the observation statistics are involution-symmetric and the
    device ran with symmetric error constraints (l1 = -l2).
    """
    values, table, counts, compare = _test_table(records)
    if (counts.sum(axis=0) == 0).any():
        raise EmptyCellError("both decisions must be present")
    return compare(values, *(table[0] + table[1]))  # ``sum(axis=0)`` is slow on the table's strides
