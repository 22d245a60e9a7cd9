import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqaudit.core import Thresholds, ValidationError
from seqaudit.models import (
    DriftDiffusionModel,
    GaussianIIDModel,
    MarkovGaussianModel,
    _wald_continuous_block,
    _wald_discrete_block,
)
from seqaudit.oracle import LatticeBernoulliModel
from seqaudit.simulate import ExperimentConfig


def rng(seed=0):
    return np.random.default_rng(seed)


def one_trial(model, wm, th, h, max_steps, g):
    """One discrete trial: a one-row block on the caller's generator."""
    times, decisions, terminal = _wald_discrete_block(
        model, wm, th, np.array([h], dtype=np.int8), max_steps, g
    )
    return times[0], decisions[0], terminal[0], decisions[0] != 0


class TestLLRIncrementIID:
    def test_fig2_worldmodel_at_zero(self):
        wm = GaussianIIDModel(mu1=0.0, mu2=1.0, sigma1=5.0, sigma2=10.0)
        # ln 2 + 0.005
        assert wm.llr_increment(0.0) == pytest.approx(0.6981471805599453, abs=1e-12)

    def test_symmetry_point_is_exact_zero(self):
        wm = GaussianIIDModel(mu1=2.0, mu2=-2.0, sigma1=3.0, sigma2=3.0)
        assert wm.llr_increment(0.0) == 0.0

    def test_symmetric_unit_variance_closed_form(self):
        wm = GaussianIIDModel(mu1=1.0, mu2=-1.0, sigma1=1.0, sigma2=1.0)
        assert wm.llr_increment(0.5) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(-50, 50))
    def test_symmetric_model_increment_is_odd(self, x):
        # sign-flipping the observation flips the increment exactly, the
        # involution behind the unknown-hypothesis test
        wm = GaussianIIDModel(mu1=1.5, mu2=-1.5, sigma1=2.0, sigma2=2.0)
        assert wm.llr_increment(-x) == -wm.llr_increment(x)


class TestLLRIncrementMarkov:
    WM = MarkovGaussianModel(v1=1.0, v2=-1.0, w1=-1.0, w2=-1.0, sigma1=5.0, sigma2=5.0)

    def test_symmetric_residuals_cancel(self):
        assert self.WM.llr_increment(0.0, 0.0) == 0.0

    def test_hand_value(self):
        assert self.WM.llr_increment(1.0, 0.0) == pytest.approx(0.08, abs=1e-15)

    def test_residual_free_case_gives_pure_log_term(self):
        wm = MarkovGaussianModel(v1=0.0, v2=0.0, w1=-1.0, w2=-1.0, sigma1=2.0, sigma2=4.0)
        # both residuals vanish at x_cur = 0, x_prev = 0
        assert wm.llr_increment(0.0, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)


class TestSampleObservation:
    def test_degenerate_sigma_concentrates_at_mean(self):
        model = GaussianIIDModel(mu1=3.0, mu2=0.0, sigma1=1e-12, sigma2=1.0)
        x = model.sample(1, rng(1))
        assert x == pytest.approx(3.0, abs=1e-6)

    def test_sample_mean_matches_h2_mean(self):
        model = GaussianIIDModel(mu1=0.0, mu2=1.0, sigma1=5.0, sigma2=10.0)
        draws = model.sample(np.full(100_000, 2), rng(2), size=100_000)
        # 3 sigma of the mean at sigma2 = 10
        assert draws.mean() == pytest.approx(1.0, abs=3 * 10 / math.sqrt(100_000))

    def test_markov_full_mean_reversion(self):
        model = MarkovGaussianModel(v1=2.0, v2=-2.0, w1=-1.0, w2=-1.0, sigma1=5.0, sigma2=5.0)
        draws = model.sample(np.full(100_000, 1), rng(3), size=100_000, x_prev=7.3)
        assert draws.mean() == pytest.approx(2.0, abs=3 * 5 / math.sqrt(100_000))


class TestRunWaldDiscrete:
    def test_immediate_exit_when_thresholds_tiny(self):
        model = LatticeBernoulliModel(p=0.8, m1=2, m2=2)
        th = Thresholds(l1=0.1, l2=-0.1)  # below the ln 4 step size
        for seed in range(5):
            time, _, _, _ = one_trial(model, model, th, 1, 100, rng(seed))
            assert time == 1.0

    def test_truncation_flagged(self):
        model = GaussianIIDModel(mu1=0.0, mu2=0.1, sigma1=50.0, sigma2=50.0)
        th = Thresholds(l1=500.0, l2=-500.0)
        _, decision, _, decided = one_trial(model, model, th, 1, 5, rng(4))
        assert not decided and decision == 0

    def test_gamblers_ruin_decision_probability(self):
        model = LatticeBernoulliModel(p=0.8, m1=2, m2=2)
        th = model.thresholds
        assert th.l1 == pytest.approx(2 * math.log(4.0))
        g = rng(5)
        n = 4000
        wins = 0
        for _ in range(n):
            _, decision, _, _ = one_trial(model, model, th, 1, 200, g)
            wins += decision == 1
        p_exact = 0.9411764705882353
        sigma = math.sqrt(p_exact * (1 - p_exact) / n)
        assert wins / n == pytest.approx(p_exact, abs=3 * sigma)

    def test_terminal_llr_outside_interval(self):
        model = GaussianIIDModel(mu1=0.0, mu2=1.0, sigma1=5.0, sigma2=10.0)
        th = Thresholds(l1=4.0, l2=-2.0)
        g = rng(6)
        for _ in range(50):
            _, _, s, decided = one_trial(model, model, th, 2, 500, g)
            if decided:
                assert s >= th.l1 or s <= th.l2


class TestMartingaleProperty:
    def test_exp_llr_mean_is_one_under_h2(self):
        # matched device, no stopping: E[e^{S_k} | H=2] = 1 for every k
        model = GaussianIIDModel(mu1=0.0, mu2=0.5, sigma1=1.0, sigma2=1.0)
        g = rng(7)
        n, k_max = 200_000, 5
        x = model.sample(np.full((k_max, n), 2), g, size=(k_max, n))
        s = np.cumsum(model.llr_increment(x), axis=0)
        for k in range(k_max):
            vals = np.exp(s[k])
            sem = vals.std() / math.sqrt(n)
            assert vals.mean() == pytest.approx(1.0, abs=3.5 * sem)


class TestScaleFamilyOptimality:
    @given(st.floats(-30, 30))
    def test_condition_satisfying_device_scales_increments(self, x):
        obs = GaussianIIDModel(mu1=0.0, mu2=1.0, sigma1=5.0, sigma2=5.0)
        # believed means shifted but mu1~ + mu2~ = mu1 + mu2 holds
        wm = GaussianIIDModel(mu1=-1.0, mu2=2.0, sigma1=4.0, sigma2=4.0)
        c = (obs.sigma1 / wm.sigma1) ** 2 * (wm.mu1 - wm.mu2) / (obs.mu1 - obs.mu2)
        lhs = wm.llr_increment(x)
        rhs = c * obs.llr_increment(x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestRunWaldContinuous:
    def test_driftless_symmetric_decides_half_half(self):
        obs = DriftDiffusionModel(mu1=0.0, mu2=0.0, sigma=1.0)
        wm = DriftDiffusionModel(mu1=-1.0, mu2=1.0, sigma=1.0)
        th = Thresholds(l1=1.0, l2=-1.0)
        g = rng(8)
        n = 10_000
        d1 = 0
        decided = 0
        from seqaudit.analytic import continuous_llr_params

        p = continuous_llr_params(obs, wm)
        assert p.a1 == 0.0 and p.a2 == 0.0
        times, decisions, terminal = _wald_continuous_block(
            np.zeros(n), p.b, th, 0.001, 50.0, g
        )
        decided = (decisions != 0).sum()
        d1 = (decisions == 1).sum()
        assert decided == n
        sigma = math.sqrt(0.25 / n)
        assert d1 / n == pytest.approx(0.5, abs=3 * sigma)

    def test_mean_upper_decision_time(self):
        obs = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)
        th = Thresholds(l1=4.0, l2=-10.0)  # deep lower threshold
        from seqaudit.analytic import continuous_llr_params

        p = continuous_llr_params(obs, obs)
        g = rng(9)
        outs = []
        for _ in range(800):
            times, decisions, _ = _wald_continuous_block(
                np.full(1, p.a1), p.b, th, 1.0, 4000.0, g
            )
            if decisions[0] == 1:
                outs.append(times[0])
        mean_t = float(np.mean(outs))
        assert mean_t == pytest.approx(200.0, rel=0.05)

    def test_alpha1_extrapolates_to_closed_form(self):
        # Euler-Maruyama misses boundary crossings at rate O(sqrt(dt));
        # fit alpha(dt) ~ a0 + c sqrt(dt) and compare the intercept
        obs = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)
        th = Thresholds(l1=4.0, l2=-4.0)
        from seqaudit.analytic import continuous_llr_params

        p = continuous_llr_params(obs, obs)
        n = 40_000
        dts = [8.0, 2.0, 0.5]
        alphas = []
        for i, dt in enumerate(dts):
            g = rng(100 + i)
            _, decisions, _ = _wald_continuous_block(
                np.full(n, p.a2), p.b, th, dt, 20_000.0, g
            )
            alphas.append((decisions == 1).sum() / (decisions != 0).sum())
        x = np.sqrt(dts)
        coeffs = np.polyfit(x, alphas, 1)
        intercept = coeffs[1]
        exact = 0.017986209962091558
        assert abs(alphas[-1] - exact) < abs(alphas[0] - exact) + 0.003
        assert intercept == pytest.approx(exact, abs=0.004)

    def test_decision_probability_ratio_approaches_exp_l1(self):
        obs = DriftDiffusionModel(mu1=-0.5, mu2=0.5, sigma=1.0)
        th = Thresholds(l1=1.0, l2=-1.0)
        from seqaudit.analytic import continuous_llr_params

        p = continuous_llr_params(obs, obs)
        n = 30_000
        ratios = []
        for dt in (0.02, 0.002):
            g = rng(11)
            _, d_h1, _ = _wald_continuous_block(np.full(n, p.a1), p.b, th, dt, 100.0, g)
            _, d_h2, _ = _wald_continuous_block(np.full(n, p.a2), p.b, th, dt, 100.0, g)
            p1 = (d_h1 == 1).sum() / (d_h1 != 0).sum()
            p2 = (d_h2 == 1).sum() / (d_h2 != 0).sum()
            ratios.append(p1 / p2)
        target = math.exp(th.l1)
        assert abs(ratios[1] - target) < abs(ratios[0] - target)
        assert ratios[1] == pytest.approx(target, rel=0.06)

    def test_validation(self):
        obs = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)
        with pytest.raises(ValidationError):
            ExperimentConfig(
                model=obs, thresholds=Thresholds(1, -1), trials=1, seed=0, window=10.0, dt=0.0
            )


class TestModelValidation:
    def test_positive_sigmas_required(self):
        with pytest.raises(ValidationError):
            GaussianIIDModel(0.0, 1.0, -1.0, 1.0)
        with pytest.raises(ValidationError):
            MarkovGaussianModel(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            DriftDiffusionModel(0.0, 1.0, 0.0)

    @pytest.mark.parametrize("cls,args,field", [
        (GaussianIIDModel, (0.0, math.nan, 1.0, 1.0), "mu2"),
        (GaussianIIDModel, (0.0, 1.0, math.inf, 1.0), "sigma1"),
        (MarkovGaussianModel, (0.0, 0.0, -math.inf, 0.0, 1.0, 1.0), "w1"),
        (DriftDiffusionModel, (math.nan, 1.0, 1.0), "mu1"),
        (LatticeBernoulliModel, (0.8, math.inf, 2), "m1"),
    ])
    def test_non_finite_field_is_named(self, cls, args, field):
        with pytest.raises(ValidationError, match=f"^{field} must be finite, got"):
            cls(*args)
