import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.stats
from scipy.special import kolmogorov

from seqaudit.core import (
    EmptyCellError,
    RecordBatch,
    Thresholds,
    ValidationError,
)
from seqaudit.models import GaussianIIDModel, MarkovGaussianModel
from seqaudit.oracle import LatticeBernoulliModel, enumerate_exact_law
from seqaudit.simulate import ExperimentConfig, run_experiment
from seqaudit.stats import (
    Binning,
    chi2_two_sample,
    conditional_mi_plugin,
    ks_two_sample,
    mi_decomposition,
    mi_plugin,
    optimality_test_known_h,
    optimality_test_unknown_h,
    quantile_binning,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def make_batch(h, d, t, kind="steps"):
    return RecordBatch(
        hypothesis=np.asarray(h),
        decision=np.asarray(d),
        time=np.asarray(t, dtype=float),
        time_kind=kind,
    )


class TestKSTwoSample:
    def test_identical_samples(self):
        a = [0.3, 1.7, 2.2, 5.0]
        with pytest.warns(RuntimeWarning, match="tied"):
            rep = ks_two_sample(a, list(a))
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0

    def test_disjoint_samples_have_statistic_one(self):
        rep = ks_two_sample([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert rep.statistic == 1.0

    def test_tie_warning(self):
        with pytest.warns(RuntimeWarning, match="tied"):
            ks_two_sample([1.0, 1.0, 2.0], [1.0, 3.0, 3.0])

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptyCellError):
            ks_two_sample([], [1.0])

    @pytest.mark.filterwarnings("ignore:.*tied")
    def test_one_differing_time_in_large_cells_is_not_rejected(self):
        # lambda = 0.005: a truncated alternating series loses all precision here
        a = np.arange(20000.0)
        b = a.copy()
        b[0] = -1.0
        rep = ks_two_sample(a, b)
        assert rep.statistic == 1 / 20000 and rep.p_value == 1.0

    def test_p_value_is_the_kolmogorov_law(self):
        # b is a shifted by s + 1/2: no ties, D = (s + 1) / n, lambda = (s + 1) / 200
        a = np.arange(20000.0)
        lambdas = []
        for s in (0, 1, 4, 19, 39, 99, 199, 399, 599):
            rep = ks_two_sample(a, a + s + 0.5)
            lam = math.sqrt(rep.n1 * rep.n2 / (rep.n1 + rep.n2)) * rep.statistic
            assert rep.p_value == kolmogorov(lam)
            lambdas.append(lam)
        assert min(lambdas) == pytest.approx(0.005) and max(lambdas) == pytest.approx(3.0)

    def test_null_calibration_inverse_gaussian(self):
        from seqaudit.analytic import sample_inverse_gaussian

        g = rng(314)
        rejections = 0
        reps = 200
        for _ in range(reps):
            a = sample_inverse_gaussian(10.0, 30.0, g, size=2000)
            b = sample_inverse_gaussian(10.0, 30.0, g, size=2000)
            rejections += ks_two_sample(a, b).p_value < 0.05
        assert rejections / reps == pytest.approx(0.05, abs=0.04)


class TestChi2TwoSample:
    def test_identical_count_vectors(self):
        a = [1.0] * 30 + [2.0] * 20
        rep = chi2_two_sample(a, list(a))
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0

    def test_hand_value_single_dof(self):
        rep = chi2_two_sample([1.0] * 50, [2.0] * 50)
        assert rep.statistic == pytest.approx(100.0, abs=1e-12)
        assert rep.p_value == pytest.approx(1.5239706048321e-23, rel=1e-10)

    def test_merge_floor_respected(self):
        # a single observation of a rare value merges into a neighbor bin
        a = [1.0] * 50 + [9.0]
        b = [1.0] * 40 + [2.0] * 10
        rep = chi2_two_sample(a, b)
        assert rep.bins is not None

    def test_impossible_binning(self):
        with pytest.raises(EmptyCellError, match="fewer than 2 bins"):
            chi2_two_sample([1.0] * 3, [1.0] * 4)  # one category only

    def test_null_calibration_from_exact_law(self):
        law = enumerate_exact_law(LatticeBernoulliModel(p=0.8, m1=2, m2=2))
        pmf = law.conditional_time_pmf(1, 1)
        ks = np.flatnonzero(pmf > 0) + 1
        probs = pmf[ks - 1]
        probs = probs / probs.sum()
        g = rng(2718)
        reps = 200
        rejections = 0
        for _ in range(reps):
            a = g.choice(ks, size=2000, p=probs)
            b = g.choice(ks, size=2000, p=probs)
            rejections += chi2_two_sample(a, b).p_value < 0.05
        assert rejections / reps == pytest.approx(0.05, abs=0.04)


class TestMIPlugin:
    def test_independent_uniform_labels(self):
        # population table: every (label, value) combination equally often
        labels = np.tile([1, 2], 50)
        values = np.repeat([10.0, 20.0], 50)
        est = mi_plugin(labels, values)  # native bins
        assert est.value_bits == pytest.approx(0.0, abs=1e-12)

    def test_identity_map_is_one_bit(self):
        labels = np.tile([1, 2], 100)
        est = mi_plugin(labels, labels.astype(float))
        assert est.value_bits == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative(self):
        g = rng(5)
        labels = g.integers(1, 3, size=500)
        values = g.normal(size=500)
        est = mi_plugin(labels, values, binning=quantile_binning(values, 8))
        assert est.value_bits >= 0.0

    @pytest.mark.parametrize("shapes", [((2, 5), (10,)), ((10,), (2, 5)), ((2, 5), (2, 5))])
    def test_inputs_must_be_one_dimensional(self, shapes):
        labels, values = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValidationError, match="one-dimensional"):
            mi_plugin(labels, values)


class TestConditionalMIPlugin:
    def test_constant_time_gives_zero(self):
        batch = make_batch([1, 2, 1, 2], [1, 1, 2, 2], [7, 7, 7, 7])
        assert conditional_mi_plugin(batch).value_bits == 0.0

    def test_time_reveals_hypothesis_one_bit(self):
        # equal priors, decision constant, time 10 iff hypothesis 1 else 20
        h = np.tile([1, 2], 50)
        t = np.where(h == 1, 10.0, 20.0)
        batch = make_batch(h, np.ones_like(h), t)
        assert conditional_mi_plugin(batch).value_bits == pytest.approx(1.0, abs=1e-12)

    def test_chain_rule_identity_exact(self):
        g = rng(6)
        n = 5000
        h = g.integers(1, 3, size=n)
        d = g.integers(1, 3, size=n)
        t = np.round(g.exponential(5.0, size=n)) + 1
        batch = make_batch(h, d, t)
        i_joint, i_dec, i_cond = mi_decomposition(batch)
        assert i_cond == pytest.approx(i_joint - i_dec, abs=1e-12)

    def test_chain_rule_on_continuous_times(self):
        from seqaudit.analytic import sample_inverse_gaussian

        g = rng(7)
        n = 4000
        h = g.integers(1, 3, size=n)
        d = g.integers(1, 3, size=n)
        t = sample_inverse_gaussian(5.0, 10.0, g, size=n)
        batch = make_batch(h, d, t, kind="seconds")
        i_joint, i_dec, i_cond = mi_decomposition(batch)
        assert i_cond == pytest.approx(i_joint - i_dec, abs=1e-12)

    def test_decision_time_independent_of_decision_for_symmetric_wald(self):
        # symmetric observation model + matched device: decision and time
        # become independent, so the plug-in I(D;T) sits at bias level
        model = GaussianIIDModel(mu1=1.0, mu2=-1.0, sigma1=5.0, sigma2=5.0)
        cfg = ExperimentConfig(
            model=model,
            thresholds=Thresholds(4.0, -4.0),
            trials=100_000,
            seed=42,
            window=800,
        )
        res = run_experiment(cfg)
        batch = res.records
        est = mi_plugin(batch.decision, batch.time)
        k_cells = np.unique(batch.time).size
        bias_level = k_cells / (2 * len(batch) * math.log(2))
        assert est.value_bits < 6 * bias_level


class TestOptimalityTests:
    @staticmethod
    def lattice_records(seed, trials=40_000, p1=0.5):
        model = LatticeBernoulliModel(p=0.8, m1=2, m2=2)
        cfg = ExperimentConfig(
            model=model,
            thresholds=model.thresholds,
            trials=trials,
            seed=seed,
            p1=p1,
            window=300,
        )
        return run_experiment(cfg).records

    def test_known_h_null_acceptance_rate(self):
        rejections = 0
        reps = 40
        for i in range(reps):
            batch = self.lattice_records(seed=1000 + i)
            rep1, rep2 = optimality_test_known_h(batch)
            rejections += rep1.p_value < 0.05
        assert rejections / reps <= 0.15

    def test_known_h_missing_cell_signalled(self):
        batch = make_batch([1, 1, 2], [1, 1, 1], [1, 2, 3])
        with pytest.raises(EmptyCellError):
            optimality_test_known_h(batch)

    def test_known_h_detects_mismatched_device(self):
        # strong mismatch, reduced scale
        obs = GaussianIIDModel(mu1=-2.0, mu2=1.0, sigma1=5.0, sigma2=10.0)
        wm = GaussianIIDModel(mu1=-2.0, mu2=5.0, sigma1=5.0, sigma2=10.0)
        cfg = ExperimentConfig(
            model=obs,
            thresholds=Thresholds(4.0, -2.0),
            trials=100_000,
            seed=9,
            world_model=wm,
            window=10,
        )
        batch = run_experiment(cfg).records
        rep1, rep2 = optimality_test_known_h(batch)
        assert rep1.p_value < 1e-3

    def test_unknown_h_matched_markov_accepts(self):
        model = MarkovGaussianModel(v1=1.0, v2=-1.0, w1=-1.0, w2=-1.0, sigma1=5.0, sigma2=5.0)
        cfg = ExperimentConfig(
            model=model,
            thresholds=Thresholds(4.0, -4.0),
            trials=60_000,
            seed=11,
            window=600,
        )
        batch = run_experiment(cfg).records
        rep = optimality_test_unknown_h(batch)
        assert rep.p_value > 0.01

    def test_unknown_h_mismatched_markov_rejects(self):
        model = MarkovGaussianModel(v1=1.0, v2=-1.0, w1=-1.0, w2=-1.0, sigma1=5.0, sigma2=5.0)
        wm = MarkovGaussianModel(v1=1.0, v2=-1.0, w1=-1.0, w2=-0.5, sigma1=5.0, sigma2=5.0)
        cfg = ExperimentConfig(
            model=model,
            thresholds=Thresholds(4.0, -4.0),
            trials=100_000,
            seed=12,
            world_model=wm,
            window=600,
        )
        batch = run_experiment(cfg).records
        rep = optimality_test_unknown_h(batch)
        assert rep.p_value < 1e-6

    @staticmethod
    def wald_batch(seed, scale_d2, n=4000):
        # untied real-valued times whose law depends on D through scale_d2 only
        g = rng(seed)
        h = g.integers(1, 3, n)
        d = g.integers(1, 3, n)
        t = g.wald(10.0, 40.0, n) * np.where(d == 2, scale_d2, 1.0)
        return make_batch(h, d, t, kind="seconds"), d, t

    def test_unknown_h_ks_accepts_times_independent_of_decision(self):
        batch, d, t = self.wald_batch(seed=21, scale_d2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = optimality_test_unknown_h(batch)
        assert rep.method == "KS2"
        assert rep.p_value > 0.01
        assert rep.statistic == pytest.approx(scipy.stats.ks_2samp(t[d == 1], t[d == 2]).statistic)

    def test_unknown_h_ks_rejects_times_that_depend_on_decision(self):
        batch, _, _ = self.wald_batch(seed=22, scale_d2=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = optimality_test_unknown_h(batch)
        assert rep.p_value < 1e-6

    def test_unknown_h_single_decision_signalled(self):
        batch = make_batch([1, 2], [1, 1], [1, 2])
        with pytest.raises(EmptyCellError):
            optimality_test_unknown_h(batch)


class TestBinning:
    def test_edges_must_increase(self):
        with pytest.raises(ValidationError):
            Binning(edges=(1.0, 1.0))

    def test_equal_infinite_edges_rejected(self):
        # inf - inf is NaN, which no "<= 0" test catches
        with pytest.raises(ValidationError, match="strictly increasing"):
            Binning(edges=(math.inf, math.inf))

    @pytest.mark.parametrize("edges", [(math.nan,), (1.0, math.nan, 3.0)])
    def test_nan_edge_rejected(self, edges):
        with pytest.raises(ValidationError, match="NaN"):
            Binning(edges=edges)

    @pytest.mark.parametrize("edges", [5.0, [[1.0, 2.0]]])
    def test_edges_must_be_one_dimensional(self, edges):
        with pytest.raises(ValidationError, match="bin edges must be one-dimensional"):
            Binning(edges=edges)

    def test_every_sample_lands_in_one_bin(self):
        bng = Binning(edges=(0.0, 1.0, 2.0))
        t = np.array([-5.0, 0.0, 0.5, 1.0, 3.0])
        idx = np.searchsorted(bng.edges, t, side="right")
        assert idx.min() >= 0 and idx.max() < bng.n_bins

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_quantile_binning_covers(self, values):
        t = np.asarray(values)
        bng = quantile_binning(t, n_bins=8)
        idx = np.searchsorted(bng.edges, t, side="right")
        assert np.all((idx >= 0) & (idx < bng.n_bins))

    @pytest.mark.parametrize("n_bins", [2.5, 2.0, "3", True])
    def test_quantile_binning_needs_a_whole_number(self, n_bins):
        with pytest.raises(ValidationError, match="n_bins must be a whole number"):
            quantile_binning(np.arange(10.0), n_bins)

    @pytest.mark.parametrize("n_bins", [0, -1])
    def test_quantile_binning_needs_a_bin(self, n_bins):
        with pytest.raises(ValidationError, match="n_bins must be >= 1"):
            quantile_binning(np.arange(10.0), n_bins)
