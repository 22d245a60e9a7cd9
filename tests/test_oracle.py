import math

import numpy as np
import pytest

from seqaudit.core import ValidationError
from seqaudit.oracle import (
    LatticeBernoulliModel,
    enumerate_exact_law,
    verify_fluctuation_relation,
)
from seqaudit.simulate import ExperimentConfig, run_experiment
from seqaudit.stats import conditional_mi_plugin


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

    def test_k_max_validation(self):
        with pytest.raises(ValidationError):
            enumerate_exact_law(LatticeBernoulliModel(p=0.8, m1=3, m2=3), k_max=2)


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
                times = batch.cell_times(h, d)
                ks, counts = np.unique(times, return_counts=True)
                emp = dict(zip(ks.astype(int), counts / len(batch)))
                exact = dict(enumerate(law.pmf[h - 1, d - 1].astype(float).tolist(), start=1))
                for k in set(emp) | set(exact):
                    tv += abs(emp.get(k, 0.0) - exact.get(k, 0.0))
            assert tv / 2.0 < 0.01
