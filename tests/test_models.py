import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqaudit import models, simulate
from seqaudit.analytic import continuous_llr_params
from seqaudit.core import Thresholds, ValidationError
from seqaudit.models import (
    DriftDiffusionModel,
    GaussianIIDModel,
    MarkovGaussianModel,
    _exit_cdfs,
    _exit_inverse,
    _invert,
    _wald_continuous_block,
    _wald_discrete_block,
)
from seqaudit.oracle import LatticeBernoulliModel
from seqaudit.simulate import ExperimentConfig, run_experiment


def rng(seed=0):
    return np.random.default_rng(seed)


def one_trial(model, wm, th, h, max_steps, g):
    """One discrete trial: a one-row block on the caller's generator."""
    times, decisions, terminal = _wald_discrete_block(
        model, wm, th, np.array([h], dtype=np.int8), max_steps, g
    )
    return times[0], decisions[0], terminal[0], decisions[0] != 0


def reference_draw(model, h, g, x_prev):
    """One step's observations as the per-step loop drew them: ``Generator.normal``
    broadcast over per-trial means and scales looked up from ``h``, or uniforms
    against the lattice's per-trial up-probability."""
    h = np.asarray(h)
    if isinstance(model, LatticeBernoulliModel):
        up = np.where(h == 1, model.p, 1.0 - model.p)
        return np.where(g.random(size=h.size) < up, 1.0, -1.0)
    if isinstance(model, MarkovGaussianModel):
        v = np.where(h == 1, model.v1, model.v2)
        w = np.where(h == 1, model.w1, model.w2)
        sigma = np.where(h == 1, model.sigma1, model.sigma2)
        return g.normal(v + (w + 1.0) * np.asarray(x_prev), sigma, size=h.size)
    mu = np.where(h == 1, model.mu1, model.mu2)
    sigma = np.where(h == 1, model.sigma1, model.sigma2)
    return g.normal(mu, sigma, size=h.size)


def reference_block(model, wm, th, h, max_steps, g):
    """The per-step loop that the compacted kernel replaced: each step looks the
    alive trials' hypotheses, LLRs and previous observations up by index."""
    n = len(h)
    s = np.zeros(n)
    x_prev = np.zeros(n)
    times = np.zeros(n)
    decisions = np.zeros(n, dtype=np.int8)
    terminal = np.full(n, np.nan)
    alive = np.arange(n)
    h = np.asarray(h)
    for k in range(1, max_steps + 1):
        x = reference_draw(model, h[alive], g, x_prev[alive])
        s[alive] += wm.llr_increment(x, x_prev[alive])
        x_prev[alive] = x
        s_alive = s[alive]
        done = (s_alive >= th.l1) | (s_alive <= th.l2)
        if done.any():
            idx = alive[done]
            times[idx] = k
            decisions[idx] = np.where(s[idx] >= th.l1, 1, 2)
            terminal[idx] = s[idx]
            alive = alive[~done]
            if alive.size == 0:
                break
    return times, decisions, terminal


def assert_same_bits(got, want):
    """Times, decisions and terminal LLRs equal as bit patterns, NaNs included."""
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        if a.dtype == np.float64:
            a, b = a.view(np.int64), b.view(np.int64)
        assert np.array_equal(a, b)


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
        x = model.draw(model.draw_params(1), rng(1))
        assert x == pytest.approx(3.0, abs=1e-6)

    def test_sample_mean_matches_h2_mean(self):
        model = GaussianIIDModel(mu1=0.0, mu2=1.0, sigma1=5.0, sigma2=10.0)
        draws = model.draw(model.draw_params(np.full(100_000, 2)), rng(2), size=100_000)
        # 3 sigma of the mean at sigma2 = 10
        assert draws.mean() == pytest.approx(1.0, abs=3 * 10 / math.sqrt(100_000))

    def test_markov_full_mean_reversion(self):
        model = MarkovGaussianModel(v1=2.0, v2=-2.0, w1=-1.0, w2=-1.0, sigma1=5.0, sigma2=5.0)
        params = model.draw_params(np.full(100_000, 1))
        draws = model.draw(params, rng(3), size=100_000, x_prev=7.3)
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


LATTICE = LatticeBernoulliModel(p=0.8, m1=2, m2=2)
# (observation model, world model, thresholds, window long enough to decide nearly all)
DISCRETE_DEVICES = {
    "gaussian_matched": (GaussianIIDModel(0.0, 1.0, 5.0, 10.0), None, Thresholds(4.0, -2.0), 1000),
    "gaussian_mismatched": (GaussianIIDModel(0.0, 1.0, 5.0, 10.0),
                            GaussianIIDModel(-1.0, 2.0, 4.0, 6.0), Thresholds(4.0, -2.0), 1000),
    "markov_matched": (MarkovGaussianModel(1.0, -1.0, -1.0, -1.0, 5.0, 5.0), None,
                       Thresholds(4.0, -4.0), 800),
    # an autoregressive process (w + 1 != 0), so x_prev enters the draws
    "markov_mismatched": (MarkovGaussianModel(1.0, -1.0, -0.6, -0.4, 5.0, 4.0),
                          MarkovGaussianModel(0.5, -1.5, -0.8, -1.2, 4.0, 6.0),
                          Thresholds(4.0, -4.0), 800),
    "lattice_matched": (LATTICE, None, LATTICE.thresholds, 200),
    # a world model over another lattice step, with thresholds off either lattice
    "lattice_mismatched": (LATTICE, LatticeBernoulliModel(p=0.7, m1=3, m2=2),
                           Thresholds(2.5, -1.9), 200),
}


class TestCompactedKernelBits:
    """The compacted kernel draws and adds exactly what the per-step loop did."""

    @pytest.mark.parametrize("n", [1, 1001, 4096])
    @pytest.mark.parametrize("truncating", [False, True], ids=["full", "truncating"])
    @pytest.mark.parametrize("device", list(DISCRETE_DEVICES))
    def test_block_matches_the_per_step_loop(self, device, truncating, n):
        model, wm, th, window = DISCRETE_DEVICES[device]
        wm = model if wm is None else wm
        window = 10 if truncating else window
        h = np.where(rng(20).random(n) < 0.5, 1, 2).astype(np.int8)
        got = _wald_discrete_block(model, wm, th, h, window, rng(21))
        want = reference_block(model, wm, th, h, window, rng(21))
        assert_same_bits(got, want)
        if truncating and n > 1:
            assert (got[1] == 0).any() and (got[1] != 0).any()

    @pytest.mark.parametrize("device", ["gaussian_matched", "markov_mismatched", "lattice_matched"])
    def test_sample_is_the_per_step_draw(self, device):
        model = DISCRETE_DEVICES[device][0]
        h = np.where(rng(22).random(999) < 0.5, 1, 2)
        x_prev = rng(23).normal(size=999)
        got = model.draw(model.draw_params(h), rng(24), size=999, x_prev=x_prev)
        want = reference_draw(model, h, rng(24), x_prev)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# the four simulate configs of the benchmark, with a fixed window each
BENCHMARK_RUNS = {
    "gaussian_iid": dict(model=GaussianIIDModel(0.0, 1.0, 5.0, 10.0),
                         thresholds=Thresholds(4.0, -2.0), trials=200_000, window=1000),
    "markov_gaussian": dict(model=MarkovGaussianModel(1.0, -1.0, -1.0, -1.0, 5.0, 5.0),
                            thresholds=Thresholds(4.0, -4.0), trials=100_000, window=800),
    "lattice": dict(model=LATTICE, thresholds=LATTICE.thresholds, trials=200_000, window=200),
    "drift_diffusion": dict(model=DriftDiffusionModel(0.0, 1.0, 5.0),
                            thresholds=Thresholds(4.0, -2.0), trials=400_000, window=5000.0,
                            dt=4.0, stratified=True),
}


@pytest.mark.parametrize("seed", [5, 20180115])
@pytest.mark.parametrize("family", list(BENCHMARK_RUNS))
def test_run_experiment_matches_the_reference_kernels(monkeypatch, family, seed):
    cfg = ExperimentConfig(seed=seed, **BENCHMARK_RUNS[family])
    got = [run_experiment(cfg, threads=threads).records for threads in (1, 2)]
    with monkeypatch.context() as m:
        m.setattr(simulate, "_wald_discrete_block", reference_block)
        m.setattr(models, "_invert", lambda cdf, guide, u: np.searchsorted(cdf, u, side="right"))
        want = run_experiment(cfg).records
    for records in got:
        assert_same_bits(
            (records.time, records.decision, records.terminal_llr, records.hypothesis),
            (want.time, want.decision, want.terminal_llr, want.hypothesis),
        )


class TestMartingaleProperty:
    def test_exp_llr_mean_is_one_under_h2(self):
        # matched device, no stopping: E[e^{S_k} | H=2] = 1 for every k
        model = GaussianIIDModel(mu1=0.0, mu2=0.5, sigma1=1.0, sigma2=1.0)
        g = rng(7)
        n, k_max = 200_000, 5
        x = model.draw(model.draw_params(np.full((k_max, n), 2)), g, size=(k_max, n))
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
        p = continuous_llr_params(obs, wm)
        assert p.a1 == 0.0 and p.a2 == 0.0
        laws = {1: _exit_inverse(*_exit_cdfs(0.0, p.b, th.l1, th.l2, 0.001, 50_000))}
        times, decisions, terminal = _wald_continuous_block(
            laws, np.ones(n, dtype=np.int8), th, 0.001, g
        )
        decided = (decisions != 0).sum()
        d1 = (decisions == 1).sum()
        assert decided == n
        sigma = math.sqrt(0.25 / n)
        assert d1 / n == pytest.approx(0.5, abs=3 * sigma)

    def test_mean_upper_decision_time(self):
        obs = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)
        th = Thresholds(l1=4.0, l2=-10.0)  # deep lower threshold
        p = continuous_llr_params(obs, obs)
        laws = {1: _exit_inverse(*_exit_cdfs(p.a1, p.b, th.l1, th.l2, 1.0, 4000))}
        g = rng(9)
        outs = []
        for _ in range(800):
            times, decisions, _ = _wald_continuous_block(
                laws, np.ones(1, dtype=np.int8), th, 1.0, g
            )
            if decisions[0] == 1:
                outs.append(times[0])
        mean_t = float(np.mean(outs))
        assert mean_t == pytest.approx(200.0, rel=0.05)

    def test_alpha1_extrapolates_to_closed_form(self):
        # exact first-passage draws carry no O(sqrt(dt)) bias of a grid
        # check: the fit alpha(dt) ~ a0 + c sqrt(dt) has the closed form as
        # its intercept, and each rate lies within 4 SE of it
        obs = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)
        th = Thresholds(l1=4.0, l2=-4.0)
        p = continuous_llr_params(obs, obs)
        n = 40_000
        dts = [8.0, 2.0, 0.5]
        alphas = []
        for i, dt in enumerate(dts):
            laws = {2: _exit_inverse(*_exit_cdfs(p.a2, p.b, th.l1, th.l2, dt, math.ceil(20_000.0 / dt)))}
            g = rng(100 + i)
            _, decisions, _ = _wald_continuous_block(
                laws, np.full(n, 2, dtype=np.int8), th, dt, g
            )
            alphas.append((decisions == 1).sum() / (decisions != 0).sum())
        x = np.sqrt(dts)
        coeffs = np.polyfit(x, alphas, 1)
        intercept = coeffs[1]
        exact = 0.017986209962091558
        assert abs(alphas[-1] - exact) < abs(alphas[0] - exact) + 0.003
        assert intercept == pytest.approx(exact, abs=0.004)
        se = math.sqrt(exact * (1.0 - exact) / n)
        assert all(abs(alpha - exact) < 4.0 * se for alpha in alphas)

    def test_decision_probability_ratio_is_exp_l1_at_every_dt(self):
        # the decision law does not depend on the reporting grid, so the same
        # stream draws the same decisions at both dt
        obs = DriftDiffusionModel(mu1=-0.5, mu2=0.5, sigma=1.0)
        th = Thresholds(l1=1.0, l2=-1.0)
        p = continuous_llr_params(obs, obs)
        n = 30_000
        ratios, columns = [], []
        for dt in (0.02, 0.002):
            steps = math.ceil(100.0 / dt)
            laws = {h: _exit_inverse(*_exit_cdfs(a, p.b, th.l1, th.l2, dt, steps))
                    for h, a in ((1, p.a1), (2, p.a2))}
            g = rng(11)
            _, d_h1, _ = _wald_continuous_block(laws, np.full(n, 1, dtype=np.int8), th, dt, g)
            _, d_h2, _ = _wald_continuous_block(laws, np.full(n, 2, dtype=np.int8), th, dt, g)
            p1 = (d_h1 == 1).sum() / (d_h1 != 0).sum()
            p2 = (d_h2 == 1).sum() / (d_h2 != 0).sum()
            ratios.append(p1 / p2)
            columns.append(np.concatenate((d_h1, d_h2)))
        target = math.exp(th.l1)
        assert ratios[0] == pytest.approx(target, rel=0.06)
        assert ratios[1] == pytest.approx(target, rel=0.06)
        assert np.array_equal(columns[0], columns[1])

    def test_window_truncates_the_table_mass_past_it(self):
        # a table of 151 whole steps of dt = 1, as a run with window 150.5 builds
        n = 40_000
        th = Thresholds(4.0, -2.0)
        laws = {1: _exit_inverse(*_exit_cdfs(0.02, 0.02, th.l1, th.l2, 1.0, 151))}
        times, decisions, terminal = _wald_continuous_block(
            laws, np.ones(n, dtype=np.int8), th, 1.0, rng(12)
        )
        f1, f2 = _exit_cdfs(0.02, 0.02, 4.0, -2.0, 1.0, 151)
        assert len(f1) == 151
        undecided = 1.0 - f1[-1] - f2[-1]
        cut = decisions == 0
        assert abs(cut.mean() - undecided) < 4.0 * math.sqrt(undecided * (1.0 - undecided) / n)
        assert np.all(times[cut] == 0.0) and np.all(np.isnan(terminal[cut]))
        assert times[~cut].max() == 151.0 and np.all(times[~cut] == np.ceil(times[~cut]))

    def test_validation(self):
        obs = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)
        with pytest.raises(ValidationError):
            ExperimentConfig(
                model=obs, thresholds=Thresholds(1, -1), trials=1, seed=0, window=10.0, dt=0.0
            )


class TestExitTable:
    """The tabulated two-barrier exit law behind ``_wald_continuous_block``."""

    @pytest.mark.parametrize("ratio", [4.0, 20.0, 40.0])
    def test_upper_cdf_is_inverse_gaussian_for_a_deep_lower_threshold(self, ratio):
        from seqaudit.analytic import _ig_cdf

        a = b = 0.5
        l1, l2 = ratio * b / a, -400.0  # P(reach l2) ~ e^{-a |l2| / b}
        dt = 0.05
        f1, f2 = _exit_cdfs(a, b, l1, l2, dt, 10**6)
        t = np.arange(1, len(f1) + 1) * dt
        assert np.abs(f1 - _ig_cdf(t, l1 / a, l1**2 / (2.0 * b))).max() < 1e-12
        assert f2[-1] < 1e-80

    @pytest.mark.parametrize("a,b,l1,l2,dt", [
        (0.02, 0.02, 4.0, -2.0, 1.0),      # the mi-scan device, matched
        (-0.02, 0.02, 4.0, -2.0, 4.0),
        (0.005, 0.0125, 4.0, -2.0, 1.0),   # a mismatched belief
        (0.0, 2.0, 1.0, -3.0, 0.01),       # zero drift
    ])
    def test_wald_mean_time_between_riemann_sums(self, a, b, l1, l2, dt):
        f1, f2 = _exit_cdfs(a, b, l1, l2, dt, 10**6)
        survival = np.concatenate(([1.0], 1.0 - f1 - f2))
        p1, p2 = f1[-1], f2[-1]
        assert p1 + p2 == pytest.approx(1.0, abs=1e-15)
        if a == 0.0:
            mean = l1 * -l2 / (2.0 * b)
        else:
            mean = (l1 * p1 + l2 * p2) / a
        assert dt * survival[1:].sum() < mean < dt * survival[:-1].sum()

    def test_zero_drift_masses_split_by_distance(self):
        f1, f2 = _exit_cdfs(0.0, 0.5, 1.0, -3.0, 0.01, 10**6)
        assert f1[-1] == pytest.approx(0.75, abs=1e-15)
        assert f2[-1] == pytest.approx(0.25, abs=1e-15)
        assert np.all(np.diff(f1) >= 0.0) and np.all(np.diff(f2) >= 0.0)

    def test_huge_window_stops_at_the_undecided_floor(self):
        f1, f2 = _exit_cdfs(0.5, 0.5, 1.0, -1.0, 1e-3, int(math.ceil(1e9 / 1e-3)))
        # the undecided mass decays as e^{-1.36 t}: below 2^-53 by t ~ 27
        assert len(f1) == len(f2) < 30_000
        assert 1.0 - f1[-1] - f2[-1] < 1e-15


class TestGuideTable:
    """``_invert`` reads the same cells as a binary search of the joint CDF."""

    TABLES = {
        "mi_scan_matched": (0.02, 0.02, 4.0, -2.0, 1.0, 5000),
        "mi_scan_belief_0.5": (0.005, 0.0125, 4.0, -2.0, 1.0, 5000),
        "small_dt": (0.02, 0.02, 4.0, -2.0, 0.05, 100_000),
        "truncated": (0.02, 0.02, 4.0, -2.0, 1.0, 151),
        "zero_drift": (0.0, 2.0, 1.0, -3.0, 0.01, 10**6),
    }

    @staticmethod
    def edge_uniforms(cdf, guide):
        size = len(guide) - 1
        points = np.concatenate((np.arange(size + 1) / size, cdf[:-1], [0.0, 1.0 - 2.0**-53]))
        u = np.concatenate((points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)))
        return u[(u >= 0.0) & (u < 1.0)]

    @pytest.mark.parametrize("table", list(TABLES))
    def test_cells_equal_searchsorted_at_every_edge(self, table):
        cdf, guide = _exit_inverse(*_exit_cdfs(*self.TABLES[table]))
        u = self.edge_uniforms(cdf, guide)
        assert np.array_equal(_invert(cdf, guide, u), np.searchsorted(cdf, u, side="right"))
        u = rng(25).random(100_000)
        assert np.array_equal(_invert(cdf, guide, u), np.searchsorted(cdf, u, side="right"))

    def test_small_dt_tail_buckets_hold_many_entries(self):
        cdf, guide = _exit_inverse(*_exit_cdfs(*self.TABLES["small_dt"]))
        assert np.diff(guide).max() > 100

    def test_uniforms_past_a_truncated_mass_are_undecided(self):
        cdf, guide = _exit_inverse(*_exit_cdfs(*self.TABLES["truncated"]))
        total = cdf[-2]
        assert total < 1.0 - 1e-3
        past = np.concatenate(([total], np.linspace(total, 1.0, 1001, endpoint=False)[1:],
                               [np.nextafter(total, 2.0), 1.0 - 2.0**-53]))
        assert np.all(_invert(cdf, guide, past) == len(cdf) - 1)

    @pytest.mark.parametrize("table", list(TABLES))
    def test_guide_shape(self, table):
        cdf, guide = _exit_inverse(*_exit_cdfs(*self.TABLES[table]))
        f1, f2 = _exit_cdfs(*self.TABLES[table])
        assert np.array_equal(cdf, np.concatenate((f1, f1[-1] + f2, [np.inf])))
        size = len(guide) - 1
        assert guide.dtype == np.int32 and size & (size - 1) == 0
        assert cdf.flags.writeable and guide.flags.writeable  # each run owns its tables
        assert len(cdf) - 1 <= size < 2 * (len(cdf) - 1)


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
