"""The (hypothesis, decision, time-bin) count table against sample-path formulas.

Every plug-in information estimate in ``seqaudit.stats`` and the conditional
pmf table of ``seqaudit.reproduce`` read one count table.  The reference
functions below are the formulas they replaced: joint entropies from
``np.unique(axis=0)`` over stacked label rows, and per-cell ``np.unique``
counts.  Both sides sum the same counts in the same order, so the values
must be equal, not merely close.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqaudit.core import STEPS, RecordBatch, Thresholds, ValidationError
from seqaudit.oracle import LatticeBernoulliModel
from seqaudit.reproduce import _conditional_pmf_table
from seqaudit.simulate import ExperimentConfig, run_experiment
from seqaudit.stats import (
    DISCRETE_NATIVE,
    Binning,
    conditional_mi_plugin,
    mi_decomposition,
    mi_plugin,
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


def ref_binning(batch, binning, n_bins):
    if isinstance(binning, Binning):
        return binning
    if binning == DISCRETE_NATIVE or (binning is None and batch.time_kind == STEPS):
        return ref_native_binning(batch.time)
    return quantile_binning(batch.time, n_bins=n_bins)


def ref_conditional_mi(batch, binning=None, n_bins=32):
    tb = ref_binning(batch, binning, n_bins).assign(batch.time)
    h, d = batch.hypothesis, batch.decision
    value = (
        ref_joint_entropy(h, d)
        + ref_joint_entropy(d, tb)
        - ref_counts(d)
        - ref_joint_entropy(h, d, tb)
    )
    return max(value, 0.0)


def ref_mi_decomposition(batch, binning=None, n_bins=32):
    tb = ref_binning(batch, binning, n_bins).assign(batch.time)
    h, d = batch.hypothesis, batch.decision
    h_ent = ref_counts(h)
    i_joint = h_ent + ref_joint_entropy(d, tb) - ref_joint_entropy(h, d, tb)
    i_decision = h_ent + ref_counts(d) - ref_joint_entropy(h, d)
    return i_joint, i_decision, ref_conditional_mi(batch, binning, n_bins)


def ref_mi_plugin(x, y, binning):
    x = np.asarray(x)
    y = np.asarray(y, dtype=np.float64)
    if isinstance(binning, Binning):
        bng = binning
    elif binning == DISCRETE_NATIVE:
        bng = ref_native_binning(y)
    else:
        bng = quantile_binning(y)
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
binning_specs = st.one_of(st.none(), st.just(DISCRETE_NATIVE), explicit_binnings)


def assert_triple_equal(batch, binning, n_bins):
    triple = mi_decomposition(batch, binning=binning, n_bins=n_bins)
    assert triple == ref_mi_decomposition(batch, binning, n_bins)
    i_joint, i_dec, i_cond = triple
    assert abs(i_cond - (i_joint - i_dec)) <= 1e-12


class TestCountTableEqualsSamplePath:
    @given(batches(), binning_specs, st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_conditional_mi(self, batch, binning, n_bins):
        est = conditional_mi_plugin(batch, binning=binning, n_bins=n_bins)
        assert est.value_bits == ref_conditional_mi(batch, binning, n_bins)

    @given(batches(), binning_specs, st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_mi_decomposition(self, batch, binning, n_bins):
        assert_triple_equal(batch, binning, n_bins)

    @given(
        st.lists(
            st.tuples(st.sampled_from([-3, 0, 2, 7, 11]), step_times),
            min_size=1,
            max_size=300,
        ),
        st.one_of(st.just(DISCRETE_NATIVE), st.none(), explicit_binnings),
    )
    @settings(max_examples=300, deadline=None)
    def test_mi_plugin_any_labels(self, rows, binning):
        x = np.array([r[0] for r in rows])
        y = np.array([r[1] for r in rows])
        assert mi_plugin(x, y, binning=binning).value_bits == ref_mi_plugin(x, y, binning)

    @given(st.lists(st.tuples(st.sampled_from(["b", "a", "c"]), real_times), min_size=1,
                    max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_mi_plugin_string_labels_real_values(self, rows):
        x = np.array([r[0] for r in rows])
        y = np.array([r[1] for r in rows])
        for binning in (DISCRETE_NATIVE, None, Binning(edges=(10.0, 50.0))):
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
            assert_triple_equal(batch, None, 32)

    def test_simulated_lattice_records(self):
        model = LatticeBernoulliModel(p=0.8, m1=2, m2=3)
        cfg = ExperimentConfig(
            model=model, thresholds=Thresholds(2.5, -2.5), trials=20_000, seed=5, window=300
        )
        batch = run_experiment(cfg).records
        for binning in (None, DISCRETE_NATIVE, Binning(edges=(4.5, 9.5))):
            assert conditional_mi_plugin(batch, binning).value_bits == ref_conditional_mi(
                batch, binning
            )
            assert_triple_equal(batch, binning, 32)
        assert _conditional_pmf_table(batch) == ref_conditional_pmf_table(batch)


class TestConditionalPmfTable:
    @given(batches(kind=STEPS))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_cell_counts(self, batch):
        assert _conditional_pmf_table(batch) == ref_conditional_pmf_table(batch)


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

    def test_n_bins_sets_quantile_bins(self):
        t = np.linspace(0.5, 99.5, 400)
        h = np.tile([1, 2], 200)
        batch = RecordBatch(h, h, t)
        assert conditional_mi_plugin(batch, n_bins=5).binning.n_bins == 5
