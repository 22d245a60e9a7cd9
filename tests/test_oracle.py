import math
import re

import numpy as np
import pytest

from seqaudit.analytic import (
    continuous_llr_params, error_probs_continuous, mutual_info_discretized,
)
from seqaudit.core import Thresholds, ValidationError
from seqaudit import models, simulate
from seqaudit.models import DriftDiffusionModel, _exit_cdfs, _wald_continuous_block
from seqaudit.oracle import (
    ExactLaw,
    LatticeBernoulliModel,
    diffusion_cdfs,
    diffusion_law,
    enumerate_exact_law,
    verify_fluctuation_relation,
)
from seqaudit.reproduce import FIG8_L1, FIG8_OBS, FIG8_TR, fig8_device
from seqaudit.simulate import ExperimentConfig, run_experiment
from seqaudit.stats import chain_rule, conditional_mi_plugin


def ruin_probability(p_up: float, m_up: int, m_down: int) -> float:
    """Classic gambler's-ruin absorption probability at the upper boundary."""
    r = (1.0 - p_up) / p_up
    return (1.0 - r**m_down) / (1.0 - r ** (m_up + m_down))


def ref_law_rows(model: LatticeBernoulliModel, k_max: int):
    """(k, d, h, probability) rows of a dict keyed by (k, d, h), filled step by step.

    A cell enters the dict when its extended-precision mass is positive, even
    where that mass rounds to 0.0 as a float.
    """
    table = {}
    for h in (1, 2):
        up = np.longdouble(model.p if h == 1 else 1.0 - model.p)
        down = np.longdouble(1.0) - up
        state = np.zeros(model.m1 + model.m2 - 1, dtype=np.longdouble)
        state[model.m2 - 1] = 1.0
        for k in range(1, k_max + 1):
            for d, mass in ((1, up * state[-1]), (2, down * state[0])):
                if mass > 0:
                    table[(k, d, h)] = float(mass)
            nxt = np.zeros_like(state)
            nxt[1:] += up * state[:-1]
            nxt[:-1] += down * state[1:]
            state = nxt
    return [(k, d, h, v) for (k, d, h), v in sorted(table.items())]


class TestEnumerateExactLaw:
    @pytest.mark.parametrize("p,m1,m2,k_max", [(0.8, 2, 2, 5000), (0.7, 3, 5, 300), (0.9, 1, 1, 3)])
    def test_rows_equal_dict_enumeration(self, p, m1, m2, k_max):
        model = LatticeBernoulliModel(p=p, m1=m1, m2=m2)
        rows = list(enumerate_exact_law(model, k_max=k_max).to_rows())
        assert rows == ref_law_rows(model, k_max)
        if k_max == 5000:
            # far-tail masses below the float64 range keep their rows
            assert sum(v == 0.0 for *_, v in rows) == 7388

    def test_single_step_model(self):
        law = enumerate_exact_law(LatticeBernoulliModel(p=0.8, m1=1, m2=1))
        # pmf[h-1, d-1, k-1] = P(T=k, D=d | H=h)
        assert law.pmf[0, 0, 0] == pytest.approx(0.8, abs=1e-15)
        assert law.pmf[0, 1, 0] == pytest.approx(0.2, abs=1e-15)
        assert law.decision_prob(1, 1) == pytest.approx(0.8, abs=1e-15)
        assert law.surviving[0] == 0.0

    def test_two_step_model_against_ruin_formula(self):
        model = LatticeBernoulliModel(p=0.8, m1=2, m2=2)
        law = enumerate_exact_law(model)
        assert law.pmf[0, 0, 1] == pytest.approx(0.64, abs=1e-14)
        # enumeration stops once surviving mass < 1e-12, so totals are short
        # by at most that much
        assert law.decision_prob(1, 1) == pytest.approx(
            ruin_probability(0.8, 2, 2), abs=5e-12
        )
        pmf = law.conditional_time_pmf(1, 1)
        assert pmf[1] == pytest.approx(0.68, abs=1e-12)  # k = 2

    def test_conditional_time_laws_agree_across_hypotheses(self):
        law = enumerate_exact_law(LatticeBernoulliModel(p=0.8, m1=2, m2=2))
        pmf_h1 = law.conditional_time_pmf(1, 1)
        pmf_h2 = law.conditional_time_pmf(1, 2)
        assert pmf_h2[1] == pytest.approx(0.68, abs=1e-12)  # k = 2
        assert pmf_h1 == pytest.approx(pmf_h2, abs=1e-12)

    def test_mass_conservation(self):
        model = LatticeBernoulliModel(p=0.7, m1=3, m2=2)
        law = enumerate_exact_law(model)
        for h in (1, 2):
            total = float(law.pmf[h - 1].sum())
            assert total + law.surviving[h - 1] == pytest.approx(1.0, abs=1e-12)
            assert law.surviving[h - 1] < 1e-12

    def test_cells_are_steps(self):
        model = LatticeBernoulliModel(p=0.7, m1=3, m2=2)
        law = enumerate_exact_law(model)
        assert (law.thresholds, law.dt) == (model.thresholds, 1.0)
        # a single-step walk decides at its first step under either prior
        assert enumerate_exact_law(LatticeBernoulliModel(p=0.8, m1=1, m2=1)).mean_time(0.3) == 1.0

    def test_k_max_validation(self):
        with pytest.raises(ValidationError):
            enumerate_exact_law(LatticeBernoulliModel(p=0.8, m1=3, m2=3), k_max=2)

    @pytest.mark.parametrize("k_max", [2.5, True, 3.0])
    def test_k_max_must_be_whole(self, k_max):
        with pytest.raises(ValidationError, match="^k_max must be a whole number, got"):
            enumerate_exact_law(LatticeBernoulliModel(p=0.8, m1=2, m2=2), k_max=k_max)

    @pytest.mark.parametrize("p,m1,m2", [(0.7, 3, 5), (0.9, 1, 4)])
    def test_both_hypotheses_cover_the_same_steps(self, p, m1, m2):
        # the walk that dies out first is not cut short: both rows end at one step
        pmf = enumerate_exact_law(LatticeBernoulliModel(p=p, m1=m1, m2=m2)).pmf
        assert np.array_equal(pmf[0] > 0, pmf[1] > 0)


class TestVerifyFluctuationRelation:
    @pytest.mark.parametrize("p,m1,m2", [(0.8, 2, 2), (0.7, 3, 2), (0.9, 1, 4)])
    def test_holds_for_lattice_models(self, p, m1, m2):
        law = enumerate_exact_law(LatticeBernoulliModel(p=p, m1=m1, m2=m2))
        ok, dev = verify_fluctuation_relation(law, tol=1e-10)
        assert ok, f"max deviation {dev}"

    def test_detects_injected_violation(self):
        law = enumerate_exact_law(LatticeBernoulliModel(p=0.8, m1=2, m2=2))
        k, d, h = 2, 1, 1
        law.pmf[h - 1, d - 1, k - 1] += 1e-3
        ok, dev = verify_fluctuation_relation(law, tol=1e-10)
        assert not ok
        assert dev > 1e-4

    def test_symmetric_model_involution(self):
        # m1 = m2 makes the H2 walk the sign flip of the H1 walk, so
        # decision-1 and decision-2 time laws coincide as well
        law = enumerate_exact_law(LatticeBernoulliModel(p=0.8, m1=2, m2=2))
        pmf_d1 = law.conditional_time_pmf(1, 1)
        pmf_d2 = law.conditional_time_pmf(2, 1)
        assert pmf_d1 == pytest.approx(pmf_d2, abs=1e-12)

    def test_population_conditional_mi_is_zero(self):
        # the conditional information functional of the exact joint law
        # (equal priors) vanishes because the conditional time pmfs agree
        law = enumerate_exact_law(LatticeBernoulliModel(p=0.8, m1=2, m2=2))
        joint = 0.5 * law.pmf.astype(np.float64)  # [h-1, d-1, k-1], P(h) = 1/2
        total = 0.0
        for d in (0, 1):
            p_d = joint[:, d].sum()
            for k in range(law.k_max):
                p_k_d = joint[:, d, k].sum() / p_d
                for h in (0, 1):
                    p_hdk = joint[h, d, k]
                    if p_hdk > 0:
                        p_h_d = joint[h, d].sum() / p_d
                        p_k_hd = p_hdk / (p_h_d * p_d)
                        total += p_hdk * math.log2(p_k_hd / p_k_d)
        assert abs(total) < 1e-12


# the mi-scan device: its belief mu2~ = 1.0 is the matched device
SCAN_MODEL = DriftDiffusionModel(0.0, 1.0, 5.0)
SCAN_TH = Thresholds(4.0, -2.0)
# at mu2~ = 0.5 the H1 table needs 14,325 steps to complete
SCAN_WINDOW = 20_000.0


def scan_law(belief: float) -> ExactLaw:
    return diffusion_law(SCAN_MODEL, SCAN_TH, 1.0, SCAN_WINDOW, DriftDiffusionModel(0.0, belief, 5.0))


class TestDiffusionLaw:
    @pytest.mark.parametrize("belief", [0.5, 1.0, 1.5, 2.0])
    def test_decision_probabilities_are_the_closed_forms(self, belief):
        law = scan_law(belief)
        assert law.surviving.max() < 1e-15
        p = continuous_llr_params(SCAN_MODEL, DriftDiffusionModel(0.0, belief, 5.0))
        alpha1, alpha2 = error_probs_continuous(p, SCAN_TH)
        assert abs(law.decision_prob(1, 2) - alpha1) < 1e-12
        assert abs(law.decision_prob(2, 1) - alpha2) < 1e-12

    @pytest.mark.parametrize("dt,window", [
        (0.0, 150.0), (-1.0, 150.0), (1.0, 0.0), (math.nan, 150.0), (1.0, math.inf),
    ])
    def test_dt_and_window_must_be_positive_and_finite(self, dt, window):
        model = DriftDiffusionModel(0.0, 1.0, 5.0)
        message = f"0 < dt < inf and 0 < window < inf, got dt={dt}, window={window}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            diffusion_law(model, Thresholds(4.0, -2.0), dt, window)

    def test_fluctuation_relation_holds_on_the_matched_device(self):
        ok, dev = verify_fluctuation_relation(scan_law(1.0), tol=1e-12)
        assert ok, f"max deviation {dev}"

    def test_fluctuation_relation_fails_off_the_matched_device(self):
        law = scan_law(1.5)
        ok, _ = verify_fluctuation_relation(law, tol=1e-12)
        assert not ok
        conditional = law.pmf / law.pmf.sum(axis=2, keepdims=True)
        assert np.abs(conditional[0] - conditional[1]).max() > 1e-3

    def test_mean_time_weighs_the_hypotheses_by_the_prior(self):
        law = diffusion_law(SCAN_MODEL, SCAN_TH, 4.0, SCAN_WINDOW)
        k = np.arange(1, law.k_max + 1) * 4.0
        mass = law.pmf.sum(axis=1)
        means = [(mass[h] * k).sum() / mass[h].sum() for h in (0, 1)]
        assert law.mean_time(1.0) == pytest.approx(means[0], rel=1e-14)
        assert law.mean_time(0.0) == pytest.approx(means[1], rel=1e-14)
        p1 = 0.3
        w = np.array([p1 * mass[0].sum(), (1 - p1) * mass[1].sum()])
        assert law.mean_time(p1) == pytest.approx((w * means).sum() / w.sum(), rel=1e-14)

    def test_run_inverts_the_tables_the_law_differences(self, monkeypatch):
        # one tabulation per hypothesis; a window of 150.5 rounds up to 151 steps
        calls, inverted = [], []

        def recording(*args):
            calls.append(args)
            return _exit_cdfs(*args)

        def kernel(laws, *rest):
            inverted.append(laws)
            return _wald_continuous_block(laws, *rest)

        monkeypatch.setattr(models, "_exit_cdfs", recording)
        monkeypatch.setattr(simulate, "_wald_continuous_block", kernel)
        run_experiment(ExperimentConfig(SCAN_MODEL, SCAN_TH, trials=1000, seed=3, dt=1.0,
                                        window=150.5))
        run_calls = calls[:]
        calls.clear()
        diffusion_law(SCAN_MODEL, SCAN_TH, 1.0, 150.5)
        p = continuous_llr_params(SCAN_MODEL, SCAN_MODEL)
        assert run_calls == calls == [(a, p.b, 4.0, -2.0, 1.0, 151) for a in (p.a1, p.a2)]
        assert len(inverted) == 1  # one block
        for h, (f1, f2) in enumerate(diffusion_cdfs(SCAN_MODEL, SCAN_TH, 1.0, 150.5), start=1):
            cdf = np.concatenate((f1, f1[-1] + f2, [np.inf]))
            assert np.array_equal(inverted[0][h][0], cdf)


def fig8_conditional_mi(mu2_tilde: float, l2: float):
    """I(H;T|D) at resolution FIG8_TR of the fig 8 device, from the exact two-barrier
    law at lower threshold ``l2`` and from the inverse-Gaussian law without one."""
    device = fig8_device(mu2_tilde)
    law = diffusion_law(FIG8_OBS, Thresholds(FIG8_L1, l2), FIG8_TR, 2000 * FIG8_TR, device)
    limit = mutual_info_discretized(continuous_llr_params(FIG8_OBS, device), FIG8_L1, FIG8_TR)
    return chain_rule(law.pmf)[2], limit


class TestDeepLowerThreshold:
    @pytest.mark.parametrize("mu2_tilde", [0.5, 1.5])
    def test_exact_law_meets_the_inverse_gaussian_limit(self, mu2_tilde):
        exact, limit = fig8_conditional_mi(mu2_tilde, -120.0)
        assert abs(exact - limit) <= 1e-9 * limit

    def test_panel_thresholds_move_the_value(self):
        # why fig 8c's theory line is the law at (4, -30), not the limit
        exact, limit = fig8_conditional_mi(0.5, -30.0)
        assert abs(exact - limit) > 0.01 * limit


class TestMonteCarloConsistency:
    def test_simulated_law_converges_to_exact(self):
        model = LatticeBernoulliModel(p=0.8, m1=2, m2=2)
        law = enumerate_exact_law(model)
        for h in (1, 2):
            cfg = ExperimentConfig(
                model=model,
                thresholds=model.thresholds,
                trials=100_000,
                seed=20240 + h,
                p1=1.0 if h == 1 else 0.0,
                window=200,
            )
            result = run_experiment(cfg)
            assert result.truncated_count == 0
            batch = result.records
            tv = 0.0
            for d in (1, 2):
                times = batch.time[(batch.hypothesis == h) & (batch.decision == d)]
                ks, counts = np.unique(times, return_counts=True)
                emp = dict(zip(ks.astype(int), counts / len(batch)))
                exact = dict(enumerate(law.pmf[h - 1, d - 1].astype(float).tolist(), start=1))
                for k in set(emp) | set(exact):
                    tv += abs(emp.get(k, 0.0) - exact.get(k, 0.0))
            assert tv / 2.0 < 0.01
