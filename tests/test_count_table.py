"""The (hypothesis, decision, time-bin) count table against sample-path formulas.

Every plug-in information estimate in ``seqaudit.stats``, both optimality
tests, the empirical error rates and the conditional pmf table of
``seqaudit.reproduce`` read one count table.  The reference functions below
are the formulas they replaced: joint entropies from ``np.unique(axis=0)``
over stacked label rows, equal-mass cut points from ``np.quantile`` over
the raw sample, per-cell ``np.unique`` counts, per-cell masks, chi-squared
tests binned apart on each panel's own samples, and the KS test on each
panel's sorted samples.  Both sides sum the same counts in the same
order, so the values must be equal, not merely close.
"""
import math
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaincc, kolmogorov
from scipy.stats import ks_2samp

from seqaudit import stats
from seqaudit.core import STEPS, EmptyCellError, RecordBatch, Thresholds, ValidationError
from seqaudit.oracle import LatticeBernoulliModel
from seqaudit.reproduce import _conditional_pmf_table
from seqaudit.simulate import ExperimentConfig, empirical_error_probs, run_experiment
from seqaudit.stats import (
    Binning,
    conditional_mi_plugin,
    hdt_table,
    ks_two_sample,
    mi_decomposition,
    mi_plugin,
    native_binning,
    optimality_test_known_h,
    optimality_test_unknown_h,
    quantile_binning,
)

CELLS = [(1, 1), (1, 2), (2, 1), (2, 2)]


def assign(binning, times):
    """Each time's bin under ``binning``, by searching its cut points."""
    return np.searchsorted(binning.edges, times, side="right")


def cell_times(batch, h, d):
    """The times of the records with hypothesis ``h`` and decision ``d``, by a per-cell mask."""
    return batch.time[(batch.hypothesis == h) & (batch.decision == d)]


def ref_entropy_bits(counts):
    counts = counts[counts > 0].astype(np.float64)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log2(p)))


def ref_joint_entropy(*labelings):
    stacked = np.stack(labelings, axis=1)
    _, counts = np.unique(stacked, axis=0, return_counts=True)
    return ref_entropy_bits(counts)


def ref_counts(x):
    return ref_entropy_bits(np.unique(x, return_counts=True)[1])


def ref_native_binning(times):
    values = np.unique(times)
    edges = [a / 2.0 + b / 2.0 for a, b in zip(values[:-1], values[1:])]
    # a midpoint that rounds onto the lower neighbour would merge two values
    return Binning(edges=tuple(m if m > a else b for a, b, m in zip(values, values[1:], edges)))


def ref_quantile_binning(times, n_bins=stats.DEFAULT_QUANTILE_BINS):
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    return Binning(edges=tuple(np.unique(np.quantile(times, qs)).tolist()))


def ref_binning(batch, binning):
    if isinstance(binning, Binning):
        return binning
    if batch.time_kind == STEPS:
        return ref_native_binning(batch.time)
    return ref_quantile_binning(batch.time)


def ref_conditional_mi(batch, binning=None):
    tb = assign(ref_binning(batch, binning), batch.time)
    h, d = batch.hypothesis, batch.decision
    value = (
        ref_joint_entropy(h, d)
        + ref_joint_entropy(d, tb)
        - ref_counts(d)
        - ref_joint_entropy(h, d, tb)
    )
    return max(value, 0.0)


def ref_mi_decomposition(batch, binning=None):
    tb = assign(ref_binning(batch, binning), batch.time)
    h, d = batch.hypothesis, batch.decision
    h_ent = ref_counts(h)
    i_joint = h_ent + ref_joint_entropy(d, tb) - ref_joint_entropy(h, d, tb)
    i_decision = h_ent + ref_counts(d) - ref_joint_entropy(h, d)
    return i_joint, i_decision, ref_conditional_mi(batch, binning)


def ref_mi_plugin(x, y, binning):
    x = np.asarray(x)
    y = np.asarray(y, dtype=np.float64)
    bng = binning if isinstance(binning, Binning) else ref_native_binning(y)
    yb = assign(bng, y)
    codes = np.unique(x, return_inverse=True)[1]
    value = ref_counts(x) + ref_counts(yb) - ref_joint_entropy(codes, yb)
    return max(value, 0.0)


def ref_conditional_pmf_table(batch):
    ks = np.unique(batch.time).astype(int)
    cols = []
    for d in (1, 2):
        for h in (1, 2):
            times = cell_times(batch, h, d)
            total = max(times.size, 1)
            counts = {k: 0 for k in ks}
            uk, uc = np.unique(times.astype(int), return_counts=True)
            counts.update(dict(zip(uk, uc)))
            cols.append({k: counts[k] / total for k in ks})
    return [(int(k), cols[0][k], cols[1][k], cols[2][k], cols[3][k]) for k in ks]


def ref_merge_bins(counts_a, counts_b, bng, merge_floor=5.0):
    n1, n2 = counts_a.sum(), counts_b.sum()
    n = n1 + n2
    n_min = min(n1, n2)
    pooled = counts_a + counts_b
    need = merge_floor * n / n_min if n_min > 0 else math.inf
    out_a, out_b, cuts = [], [], []
    acc_a = acc_b = 0.0
    inner_edges = list(bng.edges) + [math.inf]
    for j in range(len(pooled)):
        acc_a += counts_a[j]
        acc_b += counts_b[j]
        if acc_a + acc_b >= need:
            out_a.append(acc_a)
            out_b.append(acc_b)
            cuts.append(inner_edges[j])
            acc_a = acc_b = 0.0
    if acc_a + acc_b > 0:
        if out_a:
            out_a[-1] += acc_a
            out_b[-1] += acc_b
            cuts[-1] = math.inf
        else:
            out_a.append(acc_a)
            out_b.append(acc_b)
            cuts.append(math.inf)
    return np.asarray(out_a), np.asarray(out_b), tuple(cuts)


def ref_chi2_two_sample(a, b):
    """Chi-squared on one panel, binned on the panel's own pooled samples."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n1, n2 = a.size, b.size
    bng = ref_native_binning(np.concatenate([a, b]))
    idx_a = np.bincount(assign(bng, a), minlength=bng.n_bins).astype(np.float64)
    idx_b = np.bincount(assign(bng, b), minlength=bng.n_bins).astype(np.float64)
    merged_a, merged_b, edges_out = ref_merge_bins(idx_a, idx_b, bng)
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
    p = float(gammaincc((k - 1) / 2.0, stat / 2.0))
    return stats.TestReport(statistic=stat, p_value=p, n1=n1, n2=n2, method="CHI2", bins=edges_out)


def ref_ks_two_sample(a, b):
    """KS on the two sorted samples: empirical CDFs searched at the pooled distinct values."""
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
    return stats.TestReport(statistic=d, p_value=p, n1=n1, n2=n2, method="KS2")


def ref_panel_test(batch):
    """The per-panel test of the batch's time kind: chi-squared or KS."""
    return ref_chi2_two_sample if batch.time_kind == STEPS else ref_ks_two_sample


def ref_known_h(batch):
    cells = {(h, d): cell_times(batch, h, d) for h, d in CELLS}
    for (h, d), times in cells.items():
        if times.size == 0:
            raise EmptyCellError(f"no records with hypothesis {h} and decision {d}")
    test = ref_panel_test(batch)
    return tuple(test(cells[1, d], cells[2, d]) for d in (1, 2))


def ref_unknown_h(batch):
    t1, t2 = (np.concatenate([cell_times(batch, h, d) for h in (1, 2)]) for d in (1, 2))
    if t1.size == 0 or t2.size == 0:
        raise EmptyCellError("both decisions must be present")
    return ref_panel_test(batch)(t1, t2)


def ref_empirical_error_probs(batch):
    h, d = batch.hypothesis, batch.decision
    n_h1 = int((h == 1).sum())
    n_h2 = int((h == 2).sum())
    if n_h1 == 0 or n_h2 == 0:
        raise EmptyCellError("need at least one decided trial per hypothesis")
    return int(((h == 2) & (d == 1)).sum()) / n_h2, int(((h == 1) & (d == 2)).sum()) / n_h1


def outcome(fn, *args):
    """``fn``'s result, or the type and message of the domain error it raised."""
    try:
        return "ok", fn(*args)
    except (EmptyCellError, ValidationError) as exc:
        return "raised", type(exc), str(exc)


def warned_outcome(fn, *args):
    """:func:`outcome`, with the category and text of each warning ``fn`` issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = outcome(fn, *args)
    return result, [(w.category, str(w.message)) for w in caught]


# up to 201 native bins: the cell code (h, d) * K overflows int8 from K = 43
step_times = st.integers(0, 200).map(float)
real_times = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
# real times that tie often, with NaN, both zeros and a time too large to count by value
tied_real_times = st.one_of(real_times, st.sampled_from([0.0, -0.0, 0.5, 3.0, 1e12, math.nan]))


@st.composite
def batches(draw, kind=None, times=None):
    """Record batches over a nonempty subset of the four (H, D) cells."""
    if kind is None:
        kind = draw(st.sampled_from([STEPS, "seconds"]))
    cells = draw(st.lists(st.sampled_from(CELLS), min_size=1, max_size=4, unique=True))
    if times is None:
        times = step_times if kind == STEPS else real_times
    rows = draw(st.lists(st.tuples(st.sampled_from(cells), times), min_size=1, max_size=300))
    return RecordBatch(
        hypothesis=np.array([c[0] for c, _ in rows]),
        decision=np.array([c[1] for c, _ in rows]),
        time=np.array([t for _, t in rows]),
        time_kind=kind,
    )


# explicit bins: a single bin, or cut points that may leave bins empty
explicit_binnings = st.one_of(
    st.just(Binning(edges=())),
    st.lists(st.floats(-10.0, 150.0, allow_nan=False), max_size=12, unique=True).map(
        lambda e: Binning(edges=tuple(sorted(e)))
    ),
)
binning_specs = st.one_of(st.none(), explicit_binnings)


@st.composite
def batches_and_binnings(draw):
    """A batch with a binning spec: None, explicit cut points, its native bins
    or 1 to 40 quantile bins of its times."""
    batch = draw(batches())
    quantile = st.integers(1, 40).map(lambda n: quantile_binning(batch.time, n))
    return batch, draw(st.one_of(binning_specs, st.just(native_binning(batch.time)), quantile))


def assert_triple_equal(batch, binning):
    triple = mi_decomposition(batch, binning=binning)
    assert triple == ref_mi_decomposition(batch, binning)
    i_joint, i_dec, i_cond = triple
    assert abs(i_cond - (i_joint - i_dec)) <= 1e-12


def assert_reports_match(rep, ref, panel):
    """Equal tests; native cut points may move only where ``panel`` holds no time."""
    assert (rep.statistic, rep.p_value, rep.n1, rep.n2, rep.method) == (
        ref.statistic, ref.p_value, ref.n1, ref.n2, ref.method
    )
    assert len(rep.bins) == len(ref.bins)
    merged = [np.searchsorted(np.asarray(r.bins[:-1]), panel, side="right") for r in (rep, ref)]
    assert np.array_equal(*merged)


def assert_tests_match(batch):
    """Both optimality tests against the per-panel path: reports or errors."""
    by_decision = [batch.time[batch.decision == d] for d in (1, 2)]
    for test, ref_test, panels in (
        (optimality_test_known_h, ref_known_h, by_decision),
        (lambda *a: (optimality_test_unknown_h(*a),), lambda *a: (ref_unknown_h(*a),),
         [batch.time]),
    ):
        got, want = outcome(test, batch), outcome(ref_test, batch)
        if want[0] == "raised":
            assert got == want
            continue
        assert got[0] == "ok" and len(got[1]) == len(want[1])
        for rep, ref, panel in zip(got[1], want[1], panels):
            assert_reports_match(rep, ref, panel)


@st.composite
def step_batches(draw):
    """Step-valued batches: each cell holds 0-150 times drawn from its own range."""
    spans = st.tuples(st.integers(0, 200), st.integers(0, 200)).map(sorted)
    cells = draw(st.lists(st.tuples(st.integers(0, 150), spans), min_size=4, max_size=4))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, d, t = [], [], []
    for (hh, dd), (size, (lo, hi)) in zip(CELLS, cells):
        h += [hh] * size
        d += [dd] * size
        t += g.integers(lo, hi + 1, size=size).tolist()
    order = g.permutation(len(t))
    return RecordBatch(
        np.array(h, dtype=int)[order], np.array(d, dtype=int)[order],
        np.array(t, dtype=float)[order], time_kind=STEPS,
    )


class TestCountTableEqualsSamplePath:
    @given(batches_and_binnings())
    @settings(max_examples=300, deadline=None)
    def test_conditional_mi(self, case):
        batch, binning = case
        est = conditional_mi_plugin(batch, binning=binning)
        assert est.value_bits == ref_conditional_mi(batch, binning)

    @given(batches_and_binnings())
    @settings(max_examples=300, deadline=None)
    def test_mi_decomposition(self, case):
        assert_triple_equal(*case)

    @given(
        st.lists(
            st.tuples(st.sampled_from([-3, 0, 2, 7, 11]), step_times),
            min_size=1,
            max_size=300,
        ),
        st.one_of(st.none(), st.just(quantile_binning), explicit_binnings),
    )
    @settings(max_examples=300, deadline=None)
    def test_mi_plugin_any_labels(self, rows, binning):
        x = np.array([r[0] for r in rows])
        y = np.array([r[1] for r in rows])
        if callable(binning):
            binning = binning(y)
        assert mi_plugin(x, y, binning=binning).value_bits == ref_mi_plugin(x, y, binning)

    @given(st.lists(st.tuples(st.sampled_from(["b", "a", "c"]), real_times), min_size=1,
                    max_size=200))
    @settings(max_examples=100, deadline=None)
    @example(rows=[("b", 0.0), ("a", 5e-324)])  # the midpoint rounds to 0.0
    @example(rows=[("b", 1e308), ("a", 1.7e308)])  # their sum overflows
    def test_mi_plugin_string_labels_real_values(self, rows):
        x = np.array([r[0] for r in rows])
        y = np.array([r[1] for r in rows])
        for binning in (None, quantile_binning(y), Binning(edges=(10.0, 50.0))):
            assert mi_plugin(x, y, binning=binning).value_bits == ref_mi_plugin(x, y, binning)

    @pytest.mark.parametrize("empty", CELLS)
    def test_one_empty_cell(self, empty):
        g = np.random.default_rng(17)
        n = 4000
        h = g.integers(1, 3, size=n)
        d = g.integers(1, 3, size=n)
        keep = ~((h == empty[0]) & (d == empty[1]))
        t = np.round(g.exponential(12.0, size=n))
        for kind in (STEPS, "seconds"):
            times = t[keep] if kind == STEPS else t[keep] + g.random(keep.sum())
            batch = RecordBatch(h[keep], d[keep], times, time_kind=kind)
            assert conditional_mi_plugin(batch).value_bits == ref_conditional_mi(batch)
            assert_triple_equal(batch, None)

    def test_simulated_lattice_records(self):
        model = LatticeBernoulliModel(p=0.8, m1=2, m2=3)
        cfg = ExperimentConfig(
            model=model, thresholds=Thresholds(2.5, -2.5), trials=20_000, seed=5, window=300
        )
        batch = run_experiment(cfg).records
        for binning in (None, native_binning(batch.time), Binning(edges=(4.5, 9.5))):
            assert conditional_mi_plugin(batch, binning).value_bits == ref_conditional_mi(
                batch, binning
            )
            assert_triple_equal(batch, binning)
        assert_tests_match(batch)
        assert _conditional_pmf_table(batch) == ref_conditional_pmf_table(batch)
        assert empirical_error_probs(batch) == ref_empirical_error_probs(batch)


class TestOptimalityTestsOnCountTable:
    @given(step_batches())
    @settings(max_examples=400, deadline=None)
    def test_equal_to_per_panel_path(self, batch):
        assert_tests_match(batch)

    @pytest.mark.parametrize("empty", CELLS)
    @pytest.mark.parametrize("kind", [STEPS, "seconds"])
    def test_empty_cell_message(self, empty, kind):
        rows = [c for c in CELLS if c != empty] * 5
        batch = RecordBatch(
            np.array([h for h, _ in rows]), np.array([d for _, d in rows]),
            np.arange(len(rows), dtype=float), time_kind=kind,
        )
        message = f"no records with hypothesis {empty[0]} and decision {empty[1]}"
        with pytest.raises(EmptyCellError, match=message):
            optimality_test_known_h(batch)

    @pytest.mark.parametrize("kind", [STEPS, "seconds"])
    def test_one_decision_message(self, kind):
        batch = RecordBatch(np.array([1, 2, 1]), np.array([2, 2, 2]), np.array([1.0, 2.0, 3.0]),
                            time_kind=kind)
        with pytest.raises(EmptyCellError, match="both decisions must be present"):
            optimality_test_unknown_h(batch)

    def test_single_bin_rejected(self):
        h = np.array([1, 2] * 20)
        d = np.repeat([1, 2], 20)
        batch = RecordBatch(h, d, np.full(40, 7.0), time_kind=STEPS)
        for test in (optimality_test_known_h, optimality_test_unknown_h):
            with pytest.raises(EmptyCellError, match="fewer than 2 bins"):
                test(batch)

    def test_step_tests_read_only_the_table(self, monkeypatch):
        batches = [random_batch(3, kind) for kind in (STEPS, "seconds")]
        expected = [(optimality_test_known_h(b), optimality_test_unknown_h(b)) for b in batches]

        def forbidden(*args, **kwargs):
            raise AssertionError("optimality tests must read the count table")

        # a stand-in holding no record column: a per-cell mask has nothing to read
        tables = {b.time_kind: hdt_table(b) for b in batches}
        monkeypatch.setattr(stats, "hdt_table", lambda records: tables[records.time_kind])
        monkeypatch.setattr(stats, "chi2_two_sample", forbidden)
        monkeypatch.setattr(stats, "ks_two_sample", forbidden)
        stand_ins = [SimpleNamespace(time_kind=b.time_kind) for b in batches]
        got = [(optimality_test_known_h(b), optimality_test_unknown_h(b)) for b in stand_ins]
        assert got == expected

    def test_each_statistic_builds_one_count_table(self, monkeypatch):
        calls, depth = [], [0]  # (name, nesting depth) of each table build

        def count_calls(name):
            build = getattr(stats, name)

            def counted(*args, **kwargs):
                calls.append((name, depth[0]))
                depth[0] += 1
                try:
                    return build(*args, **kwargs)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(stats, name, counted)

        def forbidden(*args, **kwargs):
            raise AssertionError("statistics must group the native table, not bin the sample")

        def recount(*args, **kwargs):
            raise AssertionError("the optimality tests read the cell sizes off the native table")

        search = np.searchsorted

        def search_cut_points(a, v, *args, **kwargs):
            # searching cut points is grouping; searching every record would be binning
            if np.size(v) > stats.DEFAULT_QUANTILE_BINS:
                forbidden()
            return search(a, v, *args, **kwargs)

        count_calls("hdt_table")
        count_calls("_native_table")
        monkeypatch.setattr(np, "searchsorted", search_cut_points)
        monkeypatch.setattr(RecordBatch, "cell_counts", recount)
        monkeypatch.setattr(np, "quantile", forbidden)
        untied = random_batch(4, "seconds").time
        for kind in (STEPS, "seconds"):
            batch = random_batch(4, kind)
            h, t = batch.hypothesis, np.floor(batch.time)
            n = len(batch)
            # the two-sample tests compare rows of the native table
            explicit = Binning(edges=(5.0, 12.5, 20.0))
            for statistic, args, table in [
                (stats.chi2_two_sample, (t[:n // 2], t[n // 2:]), "_native_table"),
                (mi_plugin, (h, t), "_native_table"),
                (mi_plugin, (h, batch.time, explicit), "_native_table"),
                (conditional_mi_plugin, (batch,), "hdt_table"),
                (conditional_mi_plugin, (batch, explicit), "hdt_table"),
                (mi_decomposition, (batch,), "hdt_table"),
                (mi_decomposition, (batch, explicit), "hdt_table"),
                (optimality_test_known_h, (batch,), "hdt_table"),
                (optimality_test_unknown_h, (batch,), "hdt_table"),
                (ks_two_sample, (untied[:n // 2], untied[n // 2:]), "_native_table"),
            ]:
                calls.clear()
                statistic(*args)
                assert [c for c, d in calls if d == 0] == [table], (statistic.__name__, kind)
                assert [c for c, _ in calls].count("_native_table") == 1, (statistic.__name__, kind)


def random_batch(seed, kind):
    """2,000 records in all four cells at times 0-29, plus an untied fraction for real times."""
    g = np.random.default_rng(seed)
    n = 2000
    h, d = g.integers(1, 3, size=n), g.integers(1, 3, size=n)
    t = g.integers(0, 30, size=n).astype(float)
    return RecordBatch(h, d, t if kind == STEPS else t + g.random(n), time_kind=kind)


class TestKolmogorovSmirnovOnCountTable:
    @given(batches(kind="seconds", times=tied_real_times))
    @settings(max_examples=300, deadline=None)
    def test_equal_to_sorted_sample_path(self, batch):
        cells = {(h, d): cell_times(batch, h, d) for h, d in CELLS}
        panels = [(cells[1, d], cells[2, d]) for d in (1, 2)]
        panels.append(tuple(np.concatenate([cells[1, d], cells[2, d]]) for d in (1, 2)))
        for a, b in panels:
            got = warned_outcome(ks_two_sample, a, b)
            assert got == warned_outcome(ref_ks_two_sample, a, b)
            if got[0][0] == "ok" and not np.isnan(np.concatenate([a, b])).any():
                with warnings.catch_warnings():  # scipy's p-value divides by zero on tiny samples
                    warnings.simplefilter("ignore", RuntimeWarning)
                    scipy_d = ks_2samp(a, b, method="asymp").statistic
                assert abs(got[0][1].statistic - scipy_d) <= 1e-12
        for test, ref_test in ((optimality_test_known_h, ref_known_h),
                               (optimality_test_unknown_h, ref_unknown_h)):
            assert warned_outcome(test, batch) == warned_outcome(ref_test, batch)


class TestCellCounts:
    @given(batches())
    @settings(max_examples=200, deadline=None)
    def test_code_and_counts_equal_masks(self, batch):
        h, d = batch.hypothesis, batch.decision
        code = batch.cell_code()
        assert code.dtype == np.int64
        assert code.tolist() == [(int(a) - 1) * 2 + (int(b) - 1) for a, b in zip(h, d)]
        counts = batch.cell_counts()
        assert counts.shape == (2, 2)
        for hh, dd in CELLS:
            assert counts[hh - 1, dd - 1] == int(((h == hh) & (d == dd)).sum())
        assert outcome(empirical_error_probs, batch) == outcome(ref_empirical_error_probs, batch)


class TestConditionalPmfTable:
    @given(batches(kind=STEPS))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_cell_counts(self, batch):
        assert _conditional_pmf_table(batch) == ref_conditional_pmf_table(batch)


class TestNativeBinning:
    @given(st.lists(st.one_of(step_times, real_times), max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_midpoints_between_distinct_values(self, values):
        times = np.array(values, dtype=float)
        assert native_binning(times) == ref_native_binning(times)

    def test_native_table_near_the_largest_float(self):
        times = np.array([1e308, 1.7e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, table = stats._native_table(np.array([0, 1, 0]), 2, times)
            binning = native_binning(times)
        assert values.tolist() == [1e308, 1.7e308]
        assert table.tolist() == [[1, 1], [0, 1]]
        assert binning == Binning(edges=(1.35e308,))

    def test_mi_plugin_reports_the_binning_it_used(self):
        y = np.array([3.0, 1.0, 3.0, 7.0])
        est = mi_plugin(np.array([1, 2, 1, 2]), y)
        assert est.binning == native_binning(y) == Binning(edges=(2.0, 5.0))


class TestQuantileBinning:
    """Equal-mass cut points against ``np.quantile`` over the raw sample, on any time."""

    @given(st.lists(st.one_of(real_times, st.sampled_from([0.0, -0.0, 0.5, 3.0, 1e12, math.inf])),
                    min_size=1, max_size=300),
           st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    @example(values=[7.5], n_bins=32)
    @example(values=[math.inf], n_bins=32)  # the interpolation is NaN, as in np.quantile
    @example(values=[1.0, 2.0, math.inf], n_bins=2)
    @example(values=[3.0] * 50 + [1.0], n_bins=40)
    @example(values=[1.0, math.nan, 2.0], n_bins=4)  # every quantile NaN, as in np.quantile
    def test_equals_np_quantile(self, values, n_bins):
        times = np.array(values)
        assert warned_outcome(quantile_binning, times, n_bins) == warned_outcome(
            ref_quantile_binning, times, n_bins)

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptyCellError, match="cannot bin an empty sample"):
            quantile_binning(np.array([]))

    def test_nan_time_makes_default_edges_nan(self):
        batch = random_batch(5, "seconds")
        time = batch.time.copy()
        time[7] = math.nan
        batch = RecordBatch(batch.hypothesis, batch.decision, time, time_kind="seconds")
        for statistic in (conditional_mi_plugin, mi_decomposition):
            with pytest.raises(ValidationError, match="bin edges must not be NaN"):
                statistic(batch)

    def test_explicit_bins_put_nan_and_inf_last(self):
        times = np.array([0.5, math.nan, 1.5, math.inf, 2.5, 0.0, math.nan])
        codes = np.array([0, 1, 2, 3, 0, 1, 3])
        bng = Binning(edges=(1.0, 2.0))
        assert assign(bng, times).tolist() == [0, 2, 1, 2, 2, 0, 2]
        batch = RecordBatch(codes // 2 + 1, codes % 2 + 1, times)
        table = stats._grouped(*hdt_table(batch), bng, "seconds")[1]
        assert table.reshape(4, -1).tolist() == [[1, 0, 1], [1, 0, 1], [0, 1, 0], [0, 0, 2]]
        assert conditional_mi_plugin(batch, bng).value_bits == ref_conditional_mi(batch, bng)
        assert mi_plugin(codes, times, bng).value_bits == ref_mi_plugin(codes, times, bng)

    def test_one_infinite_time_keeps_finite_edges(self):
        g = np.random.default_rng(11)
        n = 200_000
        times = g.exponential(30.0, size=n)
        times[123] = math.inf
        batch = RecordBatch(g.integers(1, 3, size=n), g.integers(1, 3, size=n), times)
        edges = conditional_mi_plugin(batch).binning.edges
        assert np.isfinite(edges).all()
        assert edges == quantile_binning(times).edges == ref_quantile_binning(times).edges


class TestBinningDispatch:
    @pytest.mark.parametrize("spec", ["native", "quantile", ""])
    def test_unknown_spec_rejected(self, spec):
        batch = RecordBatch(
            np.array([1, 2, 1, 2]), np.array([1, 1, 2, 2]), np.array([1.5, 2.5, 3.5, 4.5])
        )
        with pytest.raises(ValidationError, match="unknown binning"):
            conditional_mi_plugin(batch, binning=spec)
        with pytest.raises(ValidationError, match="unknown binning"):
            mi_decomposition(batch, binning=spec)


@st.composite
def count_rows(draw):
    """Two whole-number count rows over one binning: zero rows, trailing zeros, one bin."""
    k = draw(st.integers(1, 40))
    row = st.lists(st.one_of(st.just(0), st.integers(0, 60)), min_size=k, max_size=k)
    a, b = draw(row), draw(row)
    zeros = draw(st.integers(0, k))  # a tail of empty bins in both rows
    a[k - zeros:] = b[k - zeros:] = [0] * zeros
    edges = tuple(float(e) for e in range(1, k))
    return np.array(a, dtype=np.float64), np.array(b, dtype=np.float64), Binning(edges)


class TestMergeBins:
    @given(count_rows())
    @settings(max_examples=200, deadline=None)
    @example((np.zeros(1), np.zeros(1), Binning(())))
    @example((np.zeros(5), np.zeros(5), Binning((1.0, 2.0, 3.0, 4.0))))
    @example((np.array([3.0]), np.array([9.0]), Binning(())))
    @example((np.array([5.0, 5.0]), np.array([5.0, 5.0]), Binning((1.0,))))  # sums hit the floor
    @example((np.array([9.0, 9.0, 0.0]), np.array([9.0, 9.0, 0.0]), Binning((1.0, 2.0))))
    @example((np.array([9.0, 9.0, 1.0]), np.array([9.0, 9.0, 0.0]), Binning((1.0, 2.0))))
    def test_equals_the_accumulating_loop(self, case):
        got, want = stats._merge_bins(*case), ref_merge_bins(*case)
        assert got[0].dtype == got[1].dtype == np.float64
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
        assert got[2] == want[2]


class TestTimeKeyedTable:
    """The native table searches no cut points.

    Whole-number times are counted by time directly; any other times are
    numbered by ``np.unique``.
    """

    # an empty batch has no column to key or search (``test_empty_batch_has_no_columns``)
    @given((batches(kind=STEPS) | step_batches()).filter(len))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_searched_table(self, batch):
        unique = mock.Mock(wraps=np.unique)
        with mock.patch.object(np, "unique", unique):
            keyed = stats._grouped(*hdt_table(batch), None, STEPS)
        assert time_numberings(unique) == []
        searched = stats._grouped(*hdt_table(batch), native_binning(batch.time), STEPS)
        assert keyed[0] == searched[0]
        assert keyed[1].dtype == searched[1].dtype and keyed[1].shape == searched[1].shape
        assert np.array_equal(keyed[1], searched[1])

    def test_leaves_the_callers_arrays_alone(self):
        codes, times = np.array([0, 3, 1, 2, 3]), np.array([4.0, 0.0, 4.0, 9.0, -0.0])
        before = codes.copy(), times.copy()
        values, native = stats._native_table(codes, 4, times)
        bng, table = stats._grouped(values, native, None, STEPS)
        ref_bng, ref_table = stats._grouped(values, native, native_binning(times), STEPS)
        assert bng == ref_bng == Binning(edges=(2.0, 6.5)) and np.array_equal(table, ref_table)
        assert np.array_equal(codes, before[0]) and np.array_equal(times, before[1])

    def test_huge_time_is_searched_in_little_memory(self):
        g = np.random.default_rng(8)
        n = 20_000
        batch = RecordBatch(g.integers(1, 3, size=n), g.integers(1, 3, size=n),
                            np.append(g.integers(0, 50, size=n - 1), 1e12).astype(float),
                            time_kind=STEPS)
        unique = mock.Mock(wraps=np.unique)
        tracemalloc.start()
        try:
            with mock.patch.object(np, "unique", unique):
                est = conditional_mi_plugin(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(time_numberings(unique)) == 1
        assert peak < 50e6
        assert est.binning.edges[-1] == (49.0 + 1e12) / 2
        assert est.value_bits == ref_conditional_mi(batch)

    @pytest.mark.parametrize("times", [
        [0.5, 1.5, 1.5, 3.0], [1.0, 2.0, 2.0, 3.5], [-1.0, 2.0, 2.0, 3.0], [0.0, 1.0, 2.0, np.nan],
        [0.0, 1.0, 2.0, np.inf],
    ], ids=["fractional", "one-fractional", "negative", "nan", "inf"])
    def test_other_values_are_searched(self, times):
        y = np.array(times * 5)
        x = np.array([1, 2, 2, 1, 1] * 4)
        unique = mock.Mock(wraps=np.unique)
        with mock.patch.object(np, "unique", unique):
            mi = outcome(lambda: mi_plugin(x, y).value_bits)
            chi2 = outcome(stats.chi2_two_sample, y[:10], y[10:])
        # NaN times are numbered too, then fail on native cut points that are NaN
        assert len(time_numberings(unique)) == 2
        assert mi == outcome(ref_mi_plugin, x, y, None)
        assert chi2 == outcome(ref_chi2_two_sample, y[:10], y[10:])

    @pytest.mark.parametrize("kind", [STEPS, "seconds"])
    def test_empty_batch_has_no_columns(self, kind):
        batch = RecordBatch(np.array([]), np.array([]), np.array([]), time_kind=kind)
        times, table = hdt_table(batch)
        assert times.shape == (0,) and table.shape == (2, 2, 0)
        for binning in (None, Binning(edges=(1.0,))):
            for statistic in (conditional_mi_plugin, mi_decomposition):
                with pytest.raises(EmptyCellError, match="no records"):
                    statistic(batch, binning)


def time_numberings(unique):
    """The calls of a mocked ``np.unique`` that numbered float times, not labels."""
    return [c for c in unique.call_args_list
            if c.kwargs.get("return_inverse") and np.asarray(c.args[0]).dtype == np.float64]
