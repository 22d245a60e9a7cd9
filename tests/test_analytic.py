import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import seqaudit
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
    _d1_params,
    _ig_cdf,
    _limit_alpha1,
    _upper_integration_limit,
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


class TestTinyDrift:
    def test_overflowing_mean_time_named(self):
        # l1/|a1| = 4e300, whose square the inverse-Gaussian density needs
        p = ContinuousLLRParams(a1=1e-300, a2=-0.01, b=0.02)
        with pytest.raises(ValidationError, match=r"\|a1\| = 1e-300, b = 0.02 and l1 = 4"):
            mutual_info_continuous(p, 4.0)
        with pytest.raises(ValidationError, match=r"\|a1\| = 1e-300, b = 0.02 and l1 = 4"):
            mutual_info_discretized(p, 4.0, 10.0)

    def test_grid_past_float_resolution_named(self):
        # the tail limit 4e100 needs 4e99 bins of width 10
        p = ContinuousLLRParams(a1=1e-100, a2=-0.01, b=0.02)
        with pytest.raises(ValidationError, match="t_r = 10 needs 4e"):
            mutual_info_discretized(p, 4.0, 10.0)


def log_time_trapezoid_mi(a1, a2, b, l1, n=100_000):
    """The deep-lower-threshold I(H;T|D) in bits by the trapezoid rule over u = ln t.

    Written out apart from ``seqaudit.analytic``: with equal priors and
    alpha1 = exp(a2 l1 / b), only decision 1 carries information, and its
    times are inverse Gaussian with mean l1/|a_h| and shape l1^2/(2b).
    """
    u = np.linspace(-10.0, 80.0, n)
    t = np.exp(u)
    shape = l1**2 / (2.0 * b)
    m1, m2 = l1 / abs(a1), l1 / abs(a2)
    pdf = lambda m: np.sqrt(shape / (2.0 * np.pi * t**3)) * np.exp(
        -shape * (t - m) ** 2 / (2.0 * m**2 * t)
    )
    gap = shape / 2.0 * (t * (1.0 / m1**2 - 1.0 / m2**2) - 2.0 / m1 + 2.0 / m2)  # log p2 - log p1
    log_alpha = a2 * l1 / b
    alpha1 = math.exp(log_alpha)
    info1 = np.trapezoid(t * pdf(m1) * np.logaddexp(0.0, log_alpha + gap), u) / math.log(2.0)
    info2 = np.trapezoid(t * pdf(m2) * np.logaddexp(log_alpha, -gap), u) / math.log(2.0)
    return (1.0 + alpha1) / 2.0 * math.log2(1.0 + alpha1) - 0.5 * info1 - 0.5 * alpha1 * info2


class TestTinyDriftMutualInformation:
    @pytest.mark.parametrize("a1", [1e-4, 1e-8, 1e-20, 1e-100])
    def test_equals_log_time_trapezoid(self, a1):
        # the mass near t ~ l1^2/b must be found however far the mean l1/a1 lies;
        # at 4e6 points the trapezoid gives 0.04420315201 (1e-8) and 0.04420323953 (1e-20)
        p = ContinuousLLRParams(a1=a1, a2=-0.01, b=0.02)
        expected = log_time_trapezoid_mi(a1, -0.01, 0.02, 4.0)
        assert mutual_info_continuous(p, 4.0) == pytest.approx(expected, rel=0.0, abs=1e-8)


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

    def test_zero_drift_takes_the_limit(self):
        p = ContinuousLLRParams(0.02, 0.0, 0.02)
        a1, a2 = error_probs_continuous(p, Thresholds(4.0, -2.0))
        assert a1 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert a2 == pytest.approx((math.exp(-2) - math.exp(-6)) / (1 - math.exp(-6)), rel=1e-14)

    def test_near_zero_drift_accurate(self):
        # 50-digit mpmath value of (1 - e^{a2 l2 / b}) / (1 - e^{a2 (l2 - l1) / b})
        p = ContinuousLLRParams(0.02, -1e-9, 0.02)
        a1, _ = error_probs_continuous(p, Thresholds(4.0, -2.0))
        assert a1 == pytest.approx(0.33333330000000055555561, rel=1e-14)

    @pytest.mark.parametrize("a2", [5e-324, -5e-324])
    def test_drift_below_float_range_takes_the_zero_drift_limit(self, a2):
        # a2 * (l1 - l2) / b underflows to 0, so the expm1 ratio would be 0/0
        p = ContinuousLLRParams(0.02, a2, 4.0)
        assert error_probs_continuous(p, Thresholds(1.0, -1.0))[0] == 0.5

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

    @pytest.mark.parametrize("l1,former", [
        (4.0, 0.0822972183443042), (40.0, 2.2941419536134664e-08),
    ])
    def test_log_alpha_matches_former_log_of_exp(self, l1, former):
        # ``former`` was computed with log_alpha = math.log(math.exp(a2 * l1 / b)),
        # by the same quadrature over u = ln t
        p = ContinuousLLRParams(a1=0.03, a2=-0.01, b=0.02)
        assert mutual_info_continuous(p, l1) == pytest.approx(former, rel=1e-12, abs=0.0)

    def test_underflowing_alpha1_gives_zero(self):
        # alpha1 = exp(-1000) underflows to 0; its logarithm is still -1000
        p = ContinuousLLRParams(a1=0.03, a2=-0.01, b=0.02)
        assert mutual_info_continuous(p, 2000.0) == 0.0

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
        tb = np.searchsorted(bng.edges, t, side="right")
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


def ref_mutual_info_discretized(p, l1, t_r):
    """The closed-form sum over time bins of the discretized conditional MI."""
    alpha1 = _limit_alpha1(p, l1)
    mean1, shape1 = _d1_params(p, l1, 1)
    mean2, shape2 = _d1_params(p, l1, 2)
    n_bins = int(math.ceil(_upper_integration_limit(p, l1) / t_r)) + 1
    edges = np.arange(0, n_bins + 1, dtype=np.float64) * t_r
    cdf1 = _ig_cdf(edges, mean1, shape1)
    cdf2 = _ig_cdf(edges, mean2, shape2)
    m1 = np.append(np.maximum(np.diff(cdf1), 0.0), max(1.0 - cdf1[-1], 0.0))
    m2 = np.append(np.maximum(np.diff(cdf2), 0.0), max(1.0 - cdf2[-1], 0.0))
    keep = (m1 > 0.0) | (m2 > 0.0)
    m1, m2 = m1[keep], m2[keep]
    total = (1.0 + alpha1) / 2.0 * math.log2(1.0 + alpha1)
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = np.where(m1 > 0.0, m1 * np.log2(1.0 + alpha1 * m2 / np.where(m1 > 0, m1, 1.0)), 0.0)
        term2 = np.where(m2 > 0.0, m2 * np.log2(alpha1 + m1 / np.where(m2 > 0, m2, 1.0)), 0.0)
    total -= 0.5 * float(term1.sum()) + 0.5 * alpha1 * float(term2.sum())
    return max(total, 0.0)


class TestDiscretizedChainRule:
    @pytest.mark.parametrize("t_r", [1.0, 2.3, 23.0, 64.0, 230.0])
    def test_matches_the_closed_sum(self, t_r):
        # the 19 believed means of the fig8 scan; t_r = 230 is the matched mean time
        for mu2t in np.linspace(0.1, 1.9, 19):
            p = fig8_device(float(mu2t))
            got, want = mutual_info_discretized(p, 4.0, t_r), ref_mutual_info_discretized(p, 4.0, t_r)
            assert abs(got - want) <= max(1e-10 * abs(want), 1e-15), (mu2t, got, want)


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


def loaded_on_import(module: str) -> bool:
    """Whether ``import seqaudit`` in a fresh interpreter loads ``module``."""
    probe = f"import sys, seqaudit; print({module!r} in sys.modules)"
    src = str(Path(seqaudit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip() == "True"


def test_import_leaves_quadrature_unloaded():
    # only mutual_info_continuous integrates; every other command skips scipy.integrate
    assert not loaded_on_import("scipy.integrate")


def test_import_leaves_special_functions_unloaded():
    # the normal, gamma and Kolmogorov functions are imported at their four call sites
    assert not loaded_on_import("scipy.special")
