import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from seqaudit.analytic import (
    ContinuousLLRParams,
    RegimeError,
    continuous_llr_params,
    decision_time_density,
    error_probs_continuous,
    mean_decision_times,
    mutual_info_continuous,
    mutual_info_discretized,
    sample_inverse_gaussian,
    sample_outcomes_asymptotic,
    _ig_cdf,
)
from seqaudit.core import ErrorSpec, Thresholds, ValidationError, thresholds_from_alphas
from seqaudit.models import DriftDiffusionModel
from seqaudit.stats import ks_two_sample, mi_decomposition
from seqaudit.core import RecordBatch

MATCHED = ContinuousLLRParams(a1=0.02, a2=-0.02, b=0.02)
TH44 = Thresholds(4.0, -4.0)
ALPHA1_EXACT = 0.017986209962091558  # (1-e^4)/(1-e^8) at 50-digit precision


def rng(seed=0):
    return np.random.default_rng(seed)


def fig8_device(mu2_tilde, alpha1=0.01, l1=4.0):
    """World model of the fixed-error-probability continuous family."""
    obs = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)
    mu1_t = 0.0
    sigma_t = math.sqrt(
        obs.sigma**2
        * (mu1_t - mu2_tilde)
        / (2 * obs.mu2 - mu1_t - mu2_tilde)
        * math.log(alpha1)
        / l1
    )
    wm = DriftDiffusionModel(mu1=mu1_t, mu2=mu2_tilde, sigma=sigma_t)
    return continuous_llr_params(obs, wm)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("field", ["a1", "a2", "b"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite(self, field, bad):
        values = {"a1": 0.02, "a2": -0.01, "b": 0.02, field: bad}
        with pytest.raises(ValidationError, match="finite"):
            ContinuousLLRParams(**values)

    @pytest.mark.parametrize("l1", [math.nan, math.inf])
    def test_mutual_information_rejects_non_finite_l1(self, l1):
        p = ContinuousLLRParams(a1=0.02, a2=-0.01, b=0.02)
        with pytest.raises(ValidationError, match="l1 must be positive and finite"):
            mutual_info_continuous(p, l1)
        with pytest.raises(ValidationError, match="l1 must be positive and finite"):
            mutual_info_discretized(p, l1, 10.0)


class TestContinuousLLRParams:
    def test_matched_fig_parameters(self):
        obs = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)
        p = continuous_llr_params(obs, obs)
        assert p.a1 == pytest.approx(0.02, abs=1e-15)
        assert p.a2 == pytest.approx(-0.02, abs=1e-15)
        assert p.b == pytest.approx(0.02, abs=1e-15)

    def test_mean_sum_condition_gives_antisymmetric_drifts(self):
        obs = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)
        wm = DriftDiffusionModel(mu1=-0.5, mu2=1.5, sigma=3.0)  # sums match
        p = continuous_llr_params(obs, wm)
        assert p.a1 == pytest.approx(-p.a2, rel=1e-12)

    @given(
        st.floats(-3, 3),
        st.floats(0.1, 3.0),
        st.floats(0.5, 5.0),
    )
    @settings(max_examples=30)
    def test_matched_device_has_a1_eq_b(self, mu1, gap, sigma):
        obs = DriftDiffusionModel(mu1=mu1, mu2=mu1 + gap, sigma=sigma)
        p = continuous_llr_params(obs, obs)
        assert p.a1 == pytest.approx(p.b, rel=1e-12)
        assert p.a2 == pytest.approx(-p.b, rel=1e-12)

    def test_degenerate_device_rejected(self):
        obs = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)
        wm = DriftDiffusionModel(mu1=1.0, mu2=1.0, sigma=5.0)
        with pytest.raises(ValidationError):
            continuous_llr_params(obs, wm)


class TestErrorProbsContinuous:
    def test_hand_value(self):
        a1, a2 = error_probs_continuous(MATCHED, TH44)
        assert a1 == pytest.approx(ALPHA1_EXACT, abs=1e-9)
        assert a2 == pytest.approx(ALPHA1_EXACT, abs=1e-9)

    def test_symmetric_case_equal_alphas(self):
        p = ContinuousLLRParams(a1=0.05, a2=-0.05, b=0.03)
        a1, a2 = error_probs_continuous(p, Thresholds(2.0, -2.0))
        assert a1 == pytest.approx(a2, rel=1e-12)

    def test_deep_lower_threshold_limit(self):
        p = MATCHED
        a1, _ = error_probs_continuous(p, Thresholds(4.0, -60.0))
        assert a1 == pytest.approx(math.exp(p.a2 * 4.0 / p.b), rel=1e-9)

    @given(st.floats(0.005, 0.45), st.floats(0.005, 0.45))
    @settings(max_examples=40)
    def test_round_trip_through_wald_thresholds(self, alpha1, alpha2):
        # matched device (a = +-b): plugging the threshold formulas back in
        # recovers the alphas exactly
        th = thresholds_from_alphas(ErrorSpec(alpha1, alpha2))
        p = ContinuousLLRParams(a1=1.0, a2=-1.0, b=1.0)
        back1, back2 = error_probs_continuous(p, th)
        assert back1 == pytest.approx(alpha1, abs=1e-12)
        assert back2 == pytest.approx(alpha2, abs=1e-12)

    def test_out_of_range_signalled(self):
        # device drift with the wrong sign under H2 drives alpha1 past 1/2
        p = ContinuousLLRParams(a1=0.02, a2=0.02, b=0.02)
        with pytest.raises(ValidationError):
            error_probs_continuous(p, TH44)


class TestDecisionTimeDensity:
    def test_upper_density_normalizes(self):
        val, err = quad(
            lambda t: decision_time_density(t, 1, 1, MATCHED, TH44),
            0.0,
            5000.0,
            limit=300,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_lower_density_normalizes(self):
        # deep regime: the bracket never clamps where mass lives, and the
        # bracketed form integrates to one exactly
        th = Thresholds(4.0, -12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            val, err = quad(
                lambda t: decision_time_density(t, 2, 2, MATCHED, th),
                0.0,
                60000.0,
                limit=400,
            )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_mode_near_ratio_for_small_noise(self):
        p = ContinuousLLRParams(a1=0.02, a2=-0.02, b=0.0005)
        grid = np.linspace(150.0, 250.0, 20001)
        dens = decision_time_density(grid, 1, 1, p, Thresholds(4.0, -4.0))
        mode = grid[np.argmax(dens)]
        assert mode == pytest.approx(200.0, rel=0.02)

    def test_upper_densities_coincide_when_drifts_antisymmetric(self):
        t = np.linspace(1.0, 1200.0, 500)
        d_h1 = decision_time_density(t, 1, 1, MATCHED, TH44)
        d_h2 = decision_time_density(t, 1, 2, MATCHED, TH44)
        assert np.allclose(d_h1, d_h2, rtol=0, atol=0)

    def test_regime_violation_signalled(self):
        with pytest.raises(RegimeError):
            decision_time_density(10.0, 1, 1, MATCHED, Thresholds(4.0, -0.5))

    def test_bracket_clamp_warns(self):
        # far beyond the crossing point the bracket would go negative
        t_star = 4.0 * (4.0 + 4.0) / (0.02 * math.log((4.0 + 8.0) / 4.0))
        with pytest.warns(RuntimeWarning, match="clamped"):
            val = decision_time_density(5 * t_star, 2, 1, MATCHED, TH44)
        assert val == 0.0

    def test_densities_nonnegative(self):
        t = np.geomspace(0.1, 30000.0, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for d in (1, 2):
                for h in (1, 2):
                    assert np.all(decision_time_density(t, d, h, MATCHED, TH44) >= 0.0)


class TestMeanDecisionTimes:
    def test_upper_cell_hand_value(self):
        m = mean_decision_times(MATCHED, TH44)
        assert m.d1_h1 == pytest.approx(200.0, abs=1e-9)

    def test_matched_equals_wald_reference(self):
        m = mean_decision_times(MATCHED, TH44)
        assert m.d1_h1 == pytest.approx(m.wald_d1, rel=1e-9)

    def test_formulas_agree_with_density_quadrature(self):
        th = Thresholds(4.0, -12.0)  # deep enough that the bracket never clamps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            m = mean_decision_times(MATCHED, th)
            val, _ = quad(
                lambda t: t * decision_time_density(t, 2, 1, MATCHED, th),
                0.0,
                80000.0,
                limit=400,
            )
        assert val == pytest.approx(m.d2_h1, rel=1e-6)

    def test_suboptimality_gap_nonnegative_over_family(self):
        for mu2t in [0.3, 0.6, 0.9, 1.0, 1.2, 1.5, 1.8]:
            p = fig8_device(mu2t)
            th = Thresholds(4.0, -12.0)
            m = mean_decision_times(p, th)
            assert m.d1_h1 >= m.wald_d1 - 1e-9


class TestMutualInfoContinuous:
    def test_symmetric_drifts_give_zero(self):
        assert mutual_info_continuous(MATCHED, 4.0) == 0.0

    def test_asymmetric_positive(self):
        p = ContinuousLLRParams(a1=0.02, a2=-0.01, b=0.02)
        val = mutual_info_continuous(p, 4.0)
        assert val > 0.0

    def test_zero_iff_symmetric_over_grid(self):
        for mu2t in [0.5, 0.8, 1.0, 1.3, 1.7]:
            p = fig8_device(mu2t)
            val = mutual_info_continuous(p, 4.0)
            if mu2t == 1.0:
                assert val == 0.0
            else:
                assert val > 1e-6

    def test_against_monte_carlo_plugin(self):
        # sample the limiting joint law directly and compare the plug-in
        # estimate at 10^6 records: H fair; H=1 always decides 1; H=2
        # decides 1 with probability alpha1; time from the matching
        # inverse-Gaussian; decision-2 times carry no hypothesis information
        p = ContinuousLLRParams(a1=0.02, a2=-0.01, b=0.02)
        l1 = 4.0
        alpha1 = math.exp(p.a2 * l1 / p.b)
        exact = mutual_info_continuous(p, l1)
        g = rng(505)
        n = 1_000_000
        h = np.where(g.random(n) < 0.5, 1, 2).astype(np.int8)
        d = np.ones(n, dtype=np.int8)
        d[(h == 2) & (g.random(n) > alpha1)] = 2
        t = np.empty(n)
        m1 = (h == 1) & (d == 1)
        m2 = (h == 2) & (d == 1)
        t[m1] = sample_inverse_gaussian(l1 / abs(p.a1), l1**2 / (2 * p.b), g, size=int(m1.sum()))
        t[m2] = sample_inverse_gaussian(l1 / abs(p.a2), l1**2 / (2 * p.b), g, size=int(m2.sum()))
        rest = d == 2
        t[rest] = sample_inverse_gaussian(50.0, 100.0, g, size=int(rest.sum()))
        batch = RecordBatch(h, d, t, time_kind="seconds")
        from seqaudit.stats import quantile_binning

        n_bins = 256  # fine enough that binning loss sits below the bias level
        bng = quantile_binning(t, n_bins=n_bins)
        i_joint, i_dec, i_cond = mi_decomposition(batch, binning=bng)
        # delta method: the plug-in is the mean of per-record information
        # densities, so its sampling error follows from their variance
        tb = bng.assign(t)
        code = (h.astype(np.int64) * 2 + d) * (tb.max() + 1) + tb
        dcode = d.astype(np.int64) * (tb.max() + 1) + tb
        hd = h.astype(np.int64) * 2 + d
        cnt_hdt = np.bincount(code)
        cnt_dt = np.bincount(dcode)
        cnt_hd = np.bincount(hd)
        cnt_d = np.bincount(d.astype(np.int64))
        gvals = (
            np.log2(cnt_hdt[code] / cnt_hd[hd])
            - np.log2(cnt_dt[dcode] / cnt_d[d.astype(np.int64)])
        )
        se = gvals.std() / math.sqrt(n)
        bias = (n_bins - 1) / (2 * n * math.log(2))
        assert i_cond == pytest.approx(exact, abs=bias + 3 * se)


class TestMutualInfoDiscretized:
    def test_symmetric_zero_for_any_resolution(self):
        for t_r in [1.0, 10.0, 100.0]:
            assert mutual_info_discretized(MATCHED, 4.0, t_r) == 0.0

    def test_never_exceeds_continuous(self):
        p = fig8_device(0.5)
        cont = mutual_info_continuous(p, 4.0)
        for t_r in [1.0, 5.0, 23.0, 100.0, 400.0]:
            assert mutual_info_discretized(p, 4.0, t_r) <= cont + 1e-9

    def test_monotone_under_doubling(self):
        p = fig8_device(1.4)
        values = [mutual_info_discretized(p, 4.0, t_r) for t_r in [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)

    def test_fine_resolution_within_five_percent(self):
        # resolution at a tenth of the matched test's mean decision time
        t_r = 0.1 * (-math.log(0.01) / 0.02)
        for mu2t in (0.5, 1.5):
            p = fig8_device(mu2t)
            cont = mutual_info_continuous(p, 4.0)
            disc = mutual_info_discretized(p, 4.0, t_r)
            assert disc == pytest.approx(cont, rel=0.05)

    def test_coarse_limit_is_zero(self):
        p = fig8_device(0.5)
        assert mutual_info_discretized(p, 4.0, 1e9) == pytest.approx(0.0, abs=1e-12)


class TestSampleInverseGaussian:
    def test_moments(self):
        mean, shape = 7.0, 21.0
        draws = sample_inverse_gaussian(mean, shape, rng(8), size=1_000_000)
        var = mean**3 / shape
        sem = math.sqrt(var / draws.size)
        assert draws.mean() == pytest.approx(mean, abs=3 * sem)
        assert draws.var() == pytest.approx(var, rel=0.05)

    def test_concentrates_as_shape_grows(self):
        draws = sample_inverse_gaussian(5.0, 5e6, rng(9), size=100_000)
        assert draws.var() < 1e-3
        assert draws.mean() == pytest.approx(5.0, abs=0.01)

    def test_distribution_matches_closed_form_cdf(self):
        mean, shape = 3.0, 10.0
        draws = np.sort(sample_inverse_gaussian(mean, shape, rng(10), size=10_000))
        grid_cdf = _ig_cdf(draws, mean, shape)
        emp = np.arange(1, draws.size + 1) / draws.size
        assert np.max(np.abs(grid_cdf - emp)) < 0.025

    def test_validation(self):
        with pytest.raises(ValidationError):
            sample_inverse_gaussian(-1.0, 1.0, rng(0))


class TestAsymptoticOutcomeSampler:
    def test_decision_frequencies_match_closed_form(self):
        g = rng(11)
        h, d, t = sample_outcomes_asymptotic(MATCHED, TH44, 0.5, 100_000, g)
        alpha1, alpha2 = error_probs_continuous(MATCHED, TH44)
        n2 = (h == 2).sum()
        frac = ((h == 2) & (d == 1)).sum() / n2
        sigma = math.sqrt(alpha1 * (1 - alpha1) / n2)
        assert frac == pytest.approx(alpha1, abs=3 * sigma)

    def test_matched_symmetric_ks_acceptance_rate(self):
        accept = 0
        reps = 20
        for i in range(reps):
            g = rng(200 + i)
            h, d, t = sample_outcomes_asymptotic(MATCHED, TH44, 0.5, 30_000, g)
            a = t[(h == 1) & (d == 1)]
            b = t[(h == 2) & (d == 1)]
            accept += ks_two_sample(a, b).p_value >= 0.05
        assert accept >= 0.9 * reps

    def test_degenerate_prior(self):
        h, d, t = sample_outcomes_asymptotic(MATCHED, TH44, 1.0, 5000, rng(12))
        assert np.all(h == 1)

    def test_lower_boundary_mean_time(self):
        g = rng(13)
        h, d, t = sample_outcomes_asymptotic(MATCHED, TH44, 0.0, 200_000, g)
        sel = (h == 2) & (d == 2)
        m = mean_decision_times(MATCHED, TH44)
        sem = t[sel].std() / math.sqrt(sel.sum())
        assert t[sel].mean() == pytest.approx(m.d2_h2, abs=4 * sem)

    def test_single_record_interface(self):
        h, d, t = sample_outcomes_asymptotic(MATCHED, TH44, 0.5, 1, rng(14))
        assert t.shape == (1,) and t[0] > 0
        assert h[0] in (1, 2) and d[0] in (1, 2)
