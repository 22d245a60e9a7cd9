import math

import numpy as np
import pytest

from seqaudit.core import Thresholds, ValidationError
from seqaudit.models import DriftDiffusionModel, GaussianIIDModel
from seqaudit.oracle import LatticeBernoulliModel
from seqaudit.overshoot import OvershootSeries, condition51_flatness, overshoot_profile
from seqaudit.simulate import ExperimentConfig, run_experiment

FIG7_MODEL = GaussianIIDModel(mu1=0.0, mu2=1.0, sigma1=5.0, sigma2=10.0)


def fig7_thresholds(lam: float) -> Thresholds:
    return Thresholds(4.0 * lam, -2.0 * lam)


def fig7_config(lam: float, trials: int, seed: int, window: int = 1000) -> ExperimentConfig:
    return ExperimentConfig(FIG7_MODEL, fig7_thresholds(lam), trials, seed, window=window)


class TestOvershootProfile:
    def test_lattice_walk_has_no_overshoot(self):
        model = LatticeBernoulliModel(p=0.8, m1=2, m2=2)
        series = overshoot_profile(ExperimentConfig(model, model.thresholds, 50_000, seed=1))
        assert np.all(series.count[series.value > 0] >= 0)
        assert np.allclose(series.value, 1.0, atol=1e-12)

    def test_small_thresholds_profile_is_visibly_nonflat(self):
        series = overshoot_profile(fig7_config(0.16, 200_000, seed=2))
        assert condition51_flatness(series) > 1.2

    def test_third_minimum_lambda_is_flatter(self):
        s016 = overshoot_profile(fig7_config(0.16, 200_000, seed=3))
        s036 = overshoot_profile(fig7_config(0.36, 200_000, seed=3))
        assert condition51_flatness(s036) < condition51_flatness(s016)

    def test_tilted_estimator_agrees_with_direct(self):
        # at moderate thresholds both estimators have support; they target
        # the same conditional expectation through an exact change of measure
        direct = overshoot_profile(fig7_config(1.0, 800_000, seed=4), estimator="direct")
        tilted = overshoot_profile(fig7_config(1.0, 200_000, seed=5), estimator="tilted")
        k_direct = float((direct.pmf * direct.value).sum())
        k_tilted = float((tilted.pmf * tilted.value).sum())
        assert k_direct == pytest.approx(k_tilted, rel=0.05)
        # termination-time pmfs agree within multinomial noise of the
        # ~10^4 decide-1-under-H2 samples behind the direct estimate
        common = np.intersect1d(direct.k, tilted.k)
        pd = {k: v for k, v in zip(direct.k, direct.pmf)}
        pt = {k: v for k, v in zip(tilted.k, tilted.pmf)}
        mass_gap = sum(abs(pd[k] - pt[k]) for k in common)
        assert mass_gap < 0.08

    def test_corrected_decision_ratio_identity(self):
        # P(D=1|H=1) / P(D=1|H=2) = e^l1 * E[e^M1 | D=1, H=2]
        th = fig7_thresholds(1.0)
        series = overshoot_profile(fig7_config(1.0, 400_000, seed=6))
        k_mean = float((series.pmf * series.value).sum())
        cfg1 = ExperimentConfig(
            model=FIG7_MODEL, thresholds=th, trials=400_000, seed=7, p1=1.0, window=1000
        )
        cfg2 = ExperimentConfig(
            model=FIG7_MODEL, thresholds=th, trials=400_000, seed=8, p1=0.0, window=1000
        )
        p_d1_h1 = np.mean(run_experiment(cfg1).records.decision == 1)
        p_d1_h2 = np.mean(run_experiment(cfg2).records.decision == 1)
        lhs = p_d1_h1 / p_d1_h2
        rhs = math.exp(th.l1) * k_mean
        assert lhs == pytest.approx(rhs, rel=0.06)

    @pytest.mark.parametrize("estimator,p1", [("direct", 0.0), ("tilted", 1.0)])
    def test_profile_reduces_run_experiment_records(self, estimator, p1):
        th = fig7_thresholds(0.36)
        series = overshoot_profile(fig7_config(0.36, 40_000, seed=12), estimator=estimator)
        cfg = ExperimentConfig(model=FIG7_MODEL, thresholds=th, trials=40_000, seed=12, p1=p1)
        records = run_experiment(cfg).records
        assert np.all(records.hypothesis == (2 if p1 == 0.0 else 1))
        up = records.decision == 1
        k, counts = np.unique(records.time[up], return_counts=True)
        assert series.k.tolist() == k.tolist()
        assert series.count.tolist() == counts.tolist()
        m = records.terminal_llr[up] - th.l1
        times = records.time[up]
        if estimator == "direct":
            value = [np.exp(m[times == t]).mean() for t in k]
        else:
            value = [1.0 / np.exp(-m[times == t]).mean() for t in k]
        np.testing.assert_allclose(series.value, value, rtol=1e-12)

    def test_threads_do_not_change_the_profile(self):
        cfg = fig7_config(0.36, 70_000, seed=3)
        one, two = (overshoot_profile(cfg, threads=t) for t in (1, 2))
        for field in ("k", "value", "count", "pmf"):
            assert getattr(one, field).tobytes() == getattr(two, field).tobytes()

    def test_validation(self):
        # trials and seed are checked where the experiment is specified
        with pytest.raises(ValidationError, match="trials must be >= 1"):
            fig7_config(1.0, 0, seed=0)
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            fig7_config(1.0, 10, seed=-1)
        with pytest.raises(ValidationError, match="threads must be >= 1"):
            overshoot_profile(fig7_config(1.0, 10, seed=0), threads=0)
        ddm = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)
        with pytest.raises(ValidationError, match="discrete models only"):
            overshoot_profile(ExperimentConfig(ddm, fig7_thresholds(1.0), 10, seed=0, dt=0.5))
        with pytest.raises(ValidationError, match="unknown estimator"):
            overshoot_profile(fig7_config(1.0, 10, seed=0), estimator="weird")


class TestCondition51Flatness:
    def test_constant_series_ratio_one(self):
        series = OvershootSeries(
            k=np.array([1, 2, 3]),
            value=np.array([1.5, 1.5, 1.5]),
            count=np.array([10, 20, 30]),
            pmf=np.array([1 / 6, 2 / 6, 3 / 6]),
        )
        assert condition51_flatness(series) == 1.0

    def test_single_mass_point(self):
        series = OvershootSeries(
            k=np.array([4]), value=np.array([2.0]), count=np.array([9]), pmf=np.array([1.0])
        )
        assert condition51_flatness(series) == 1.0

    def test_mass_threshold_excludes_tail(self):
        # nearly all mass at k=1,2 with value 1; a noisy far tail point is
        # ignored at the 0.9 mass level
        series = OvershootSeries(
            k=np.array([1, 2, 50]),
            value=np.array([1.0, 1.0, 3.0]),
            count=np.array([500, 480, 2]),
            pmf=np.array([0.5, 0.48, 0.02]),
        )
        assert condition51_flatness(series, mass_threshold=0.9) == 1.0
        assert condition51_flatness(series, mass_threshold=1.0) == 3.0

    def test_monotone_trend_in_threshold_distance(self):
        ratios = []
        for lam, est in [(0.16, "direct"), (1.0, "tilted"), (3.0, "tilted")]:
            cfg = fig7_config(lam, 200_000, seed=10, window=2000)
            series = overshoot_profile(cfg, estimator=est)
            ratios.append(condition51_flatness(series))
        assert ratios[0] > ratios[1] > ratios[2]

    def test_degenerate_series_rejected(self):
        series = OvershootSeries(
            k=np.array([], dtype=int),
            value=np.array([]),
            count=np.array([], dtype=int),
            pmf=np.array([]),
        )
        with pytest.raises(ValidationError):
            condition51_flatness(series)
