"""The (hypothesis, decision, time-bin) count table against sample-path formulas.

Every plug-in information estimate in ``seqaudit.stats``, the step-valued
optimality tests, the empirical error rates and the conditional pmf table of
``seqaudit.reproduce`` read one count table.  The reference functions below
are the formulas they replaced: joint entropies from ``np.unique(axis=0)``
over stacked label rows, per-cell ``np.unique`` counts, per-cell masks, and
chi-squared tests binned apart on each panel's own samples.  Both sides sum
the same counts in the same order, so the values must be equal, not merely
close.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaincc

from seqaudit import stats
from seqaudit.core import STEPS, EmptyCellError, RecordBatch, Thresholds, ValidationError
from seqaudit.oracle import LatticeBernoulliModel
from seqaudit.reproduce import _conditional_pmf_table
from seqaudit.simulate import ExperimentConfig, empirical_error_probs, run_experiment
from seqaudit.stats import (
    Binning,
    conditional_mi_plugin,
    mi_decomposition,
    mi_plugin,
    native_binning,
    optimality_test_known_h,
    optimality_test_unknown_h,
    quantile_binning,
)

CELLS = [(1, 1), (1, 2), (2, 1), (2, 2)]


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
    return Binning(edges=tuple(((values[:-1] + values[1:]) / 2.0).tolist()))


def ref_binning(batch, binning):
    if isinstance(binning, Binning):
        return binning
    if batch.time_kind == STEPS:
        return ref_native_binning(batch.time)
    return quantile_binning(batch.time)


def ref_conditional_mi(batch, binning=None):
    tb = ref_binning(batch, binning).assign(batch.time)
    h, d = batch.hypothesis, batch.decision
    value = (
        ref_joint_entropy(h, d)
        + ref_joint_entropy(d, tb)
        - ref_counts(d)
        - ref_joint_entropy(h, d, tb)
    )
    return max(value, 0.0)


def ref_mi_decomposition(batch, binning=None):
    tb = ref_binning(batch, binning).assign(batch.time)
    h, d = batch.hypothesis, batch.decision
    h_ent = ref_counts(h)
    i_joint = h_ent + ref_joint_entropy(d, tb) - ref_joint_entropy(h, d, tb)
    i_decision = h_ent + ref_counts(d) - ref_joint_entropy(h, d)
    return i_joint, i_decision, ref_conditional_mi(batch, binning)


def ref_mi_plugin(x, y, binning):
    x = np.asarray(x)
    y = np.asarray(y, dtype=np.float64)
    bng = binning if isinstance(binning, Binning) else ref_native_binning(y)
    yb = bng.assign(y)
    codes = np.unique(x, return_inverse=True)[1]
    value = ref_counts(x) + ref_counts(yb) - ref_joint_entropy(codes, yb)
    return max(value, 0.0)


def ref_conditional_pmf_table(batch):
    ks = np.unique(batch.time).astype(int)
    cols = []
    for d in (1, 2):
        for h in (1, 2):
            times = batch.cell_times(h, d)
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


def ref_chi2_two_sample(a, b, binning=None):
    """Chi-squared on one panel, binned on the panel's own pooled samples."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n1, n2 = a.size, b.size
    bng = binning if isinstance(binning, Binning) else ref_native_binning(np.concatenate([a, b]))
    idx_a = np.bincount(bng.assign(a), minlength=bng.n_bins).astype(np.float64)
    idx_b = np.bincount(bng.assign(b), minlength=bng.n_bins).astype(np.float64)
    merged_a, merged_b, edges_out = ref_merge_bins(idx_a, idx_b, bng)
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
    p = float(gammaincc((k - 1) / 2.0, stat / 2.0))
    return stats.TestReport(statistic=stat, p_value=p, n1=n1, n2=n2, method="CHI2", bins=edges_out)


def ref_known_h(batch, binning=None):
    cells = {(h, d): batch.cell_times(h, d) for h, d in CELLS}
    for (h, d), times in cells.items():
        if times.size == 0:
            raise EmptyCellError(f"no records with hypothesis {h} and decision {d}")
    return tuple(ref_chi2_two_sample(cells[1, d], cells[2, d], binning) for d in (1, 2))


def ref_unknown_h(batch, binning=None):
    t1 = batch.time[batch.decision == 1]
    t2 = batch.time[batch.decision == 2]
    if t1.size == 0 or t2.size == 0:
        raise EmptyCellError("both decisions must be present")
    return ref_chi2_two_sample(t1, t2, binning)


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


# up to 201 native bins: the cell code (h, d) * K overflows int8 from K = 43
step_times = st.integers(0, 200).map(float)
real_times = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def batches(draw, kind=None):
    """Record batches over a nonempty subset of the four (H, D) cells."""
    if kind is None:
        kind = draw(st.sampled_from([STEPS, "seconds"]))
    cells = draw(st.lists(st.sampled_from(CELLS), min_size=1, max_size=4, unique=True))
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
def with_binning(draw, batch_strategy, quantile=False):
    """A batch with a binning spec: None, explicit cut points or its native bins.

    With ``quantile`` the spec may also be 1 to 40 quantile bins of its times.
    """
    batch = draw(batch_strategy)
    specs = [binning_specs, st.just(native_binning(batch.time))]
    if quantile:
        specs.append(st.integers(1, 40).map(lambda n: quantile_binning(batch.time, n)))
    return batch, draw(st.one_of(*specs))


def batches_and_binnings():
    return with_binning(batches(), quantile=True)


def assert_triple_equal(batch, binning):
    triple = mi_decomposition(batch, binning=binning)
    assert triple == ref_mi_decomposition(batch, binning)
    i_joint, i_dec, i_cond = triple
    assert abs(i_cond - (i_joint - i_dec)) <= 1e-12


def assert_reports_match(rep, ref, binning, panel):
    """Equal tests; native cut points may move only where ``panel`` holds no time."""
    assert (rep.statistic, rep.p_value, rep.n1, rep.n2, rep.method) == (
        ref.statistic, ref.p_value, ref.n1, ref.n2, ref.method
    )
    assert len(rep.bins) == len(ref.bins)
    if isinstance(binning, Binning):
        assert rep.bins == ref.bins
    merged = [np.searchsorted(np.asarray(r.bins[:-1]), panel, side="right") for r in (rep, ref)]
    assert np.array_equal(*merged)


def assert_tests_match(batch, binning):
    """Both optimality tests against the per-panel path: reports or errors."""
    by_decision = [batch.time[batch.decision == d] for d in (1, 2)]
    for test, ref_test, panels in (
        (optimality_test_known_h, ref_known_h, by_decision),
        (lambda *a: (optimality_test_unknown_h(*a),), lambda *a: (ref_unknown_h(*a),),
         [batch.time]),
    ):
        got, want = outcome(test, batch, binning), outcome(ref_test, batch, binning)
        if want[0] == "raised":
            assert got == want
            continue
        assert got[0] == "ok" and len(got[1]) == len(want[1])
        for rep, ref, panel in zip(got[1], want[1], panels):
            assert_reports_match(rep, ref, binning, panel)


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
            assert_tests_match(batch, binning)
        assert _conditional_pmf_table(batch) == ref_conditional_pmf_table(batch)
        assert empirical_error_probs(batch) == ref_empirical_error_probs(batch)


class TestOptimalityTestsOnCountTable:
    @given(with_binning(step_batches()))
    @settings(max_examples=400, deadline=None)
    def test_equal_to_per_panel_path(self, case):
        assert_tests_match(*case)

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
            with pytest.raises(ValidationError, match="fewer than 2 bins"):
                test(batch)

    def test_step_tests_read_only_the_table(self, monkeypatch):
        g = np.random.default_rng(3)
        n = 2000
        batch = RecordBatch(
            g.integers(1, 3, size=n), g.integers(1, 3, size=n),
            g.integers(0, 30, size=n).astype(float), time_kind=STEPS,
        )
        expected = optimality_test_known_h(batch), optimality_test_unknown_h(batch)

        def forbidden(*args, **kwargs):
            raise AssertionError("step-valued tests must read the count table")

        monkeypatch.setattr(RecordBatch, "cell_times", forbidden)
        monkeypatch.setattr(stats, "chi2_two_sample", forbidden)
        assert (optimality_test_known_h(batch), optimality_test_unknown_h(batch)) == expected


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

    def test_mi_plugin_reports_the_binning_it_used(self):
        y = np.array([3.0, 1.0, 3.0, 7.0])
        est = mi_plugin(np.array([1, 2, 1, 2]), y)
        assert est.binning == native_binning(y) == Binning(edges=(2.0, 5.0))


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
