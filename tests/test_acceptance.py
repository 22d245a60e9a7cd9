"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module takes several minutes at the stated trial counts.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from seqaudit.analytic import (
    ContinuousLLRParams,
    decision_time_density,
    error_probs_continuous,
    mutual_info_continuous,
    mutual_info_discretized,
    sample_inverse_gaussian,
    sample_outcomes_asymptotic,
)
from seqaudit.cli import mi_scan_rows
from seqaudit.core import (
    ErrorSpec,
    RecordBatch,
    Thresholds,
    thresholds_from_alphas,
)
from seqaudit.models import DriftDiffusionModel, GaussianIIDModel, MarkovGaussianModel
from seqaudit.oracle import LatticeBernoulliModel, enumerate_exact_law
from seqaudit.overshoot import condition51_flatness, overshoot_profile
from seqaudit.simulate import ExperimentConfig, run_experiment
from seqaudit.stats import (
    chi2_two_sample,
    conditional_mi_plugin,
    ks_two_sample,
    mi_decomposition,
    optimality_test_known_h,
)

FIG2A_MODEL = GaussianIIDModel(mu1=0.0, mu2=1.0, sigma1=5.0, sigma2=10.0)
FIG2A_TH = Thresholds(4.0, -2.0)
MATCHED_P = ContinuousLLRParams(a1=0.02, a2=-0.02, b=0.02)
DIFFUSION_MODEL = DriftDiffusionModel(mu1=0.0, mu2=1.0, sigma=5.0)  # gives MATCHED_P
TH44 = Thresholds(4.0, -4.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def fig2a_result():
    cfg = ExperimentConfig(
        model=FIG2A_MODEL,
        thresholds=FIG2A_TH,
        trials=1_000_000,
        seed=20180115,
        window=1000,
    )
    return run_experiment(cfg)


def test_criterion_01_threshold_formulas():
    th = thresholds_from_alphas(ErrorSpec(0.01, 0.01))
    target = 4.59511985013459  # ln(99) at 50-digit precision
    ok = abs(th.l1 - target) < 1e-5 and abs(th.l2 + target) < 1e-5
    report(1, ok, f"l1={th.l1:.6f}, l2={th.l2:.6f} vs +-{target:.6f}")
    assert abs(th.l1 - target) < 1e-5
    assert abs(th.l2 + target) < 1e-5


def test_criterion_02_wald_error_guarantee(fig2a_result):
    # the reference empirical pair for this configuration is (0.0133, 0.041);
    # alpha1_hat is the decide-1-under-H2 rate, the smaller of the two here
    res = fig2a_result
    ok1 = abs(res.alpha1_hat - 0.0133) <= 0.002
    ok2 = abs(res.alpha2_hat - 0.041) <= 0.003
    report(
        2,
        ok1 and ok2,
        f"alpha1_hat={res.alpha1_hat:.5f} (target 0.0133+-0.002), "
        f"alpha2_hat={res.alpha2_hat:.5f} (target 0.041+-0.003), "
        f"truncated={res.truncated_count}",
    )
    assert ok1 and ok2


def test_criterion_03_exact_lattice_law():
    model = LatticeBernoulliModel(p=0.8, m1=2, m2=2)
    law = enumerate_exact_law(model)
    pmf1 = law.conditional_time_pmf(1, 1)
    pmf2 = law.conditional_time_pmf(1, 2)
    exact_ok = abs(pmf1[1] - 0.68) < 1e-12 and abs(pmf2[1] - 0.68) < 1e-12  # k = 2
    tvs = []
    for h in (1, 2):
        cfg = ExperimentConfig(
            model=model,
            thresholds=model.thresholds,
            trials=100_000,
            seed=1000 + h,
            p1=1.0 if h == 1 else 0.0,
            window=200,
        )
        batch = run_experiment(cfg).records
        tv = 0.0
        for d in (1, 2):
            times = batch.cell_times(h, d)
            ks, counts = np.unique(times, return_counts=True)
            emp = dict(zip(ks.astype(int), counts / len(batch)))
            exact = dict(enumerate(law.pmf[h - 1, d - 1].astype(float).tolist(), start=1))
            for k in set(emp) | set(exact):
                tv += abs(emp.get(k, 0.0) - exact.get(k, 0.0))
        tvs.append(tv / 2.0)
    mc_ok = max(tvs) < 0.01
    report(
        3,
        exact_ok and mc_ok,
        f"P(T=2|D=1,H=1)={pmf1[1]:.15f}, P(T=2|D=1,H=2)={pmf2[1]:.15f}, "
        f"MC TV distances={tvs[0]:.4f}/{tvs[1]:.4f} (<0.01)",
    )
    assert exact_ok and mc_ok


FIG3_OBS = GaussianIIDModel(mu1=-2.0, mu2=1.0, sigma1=5.0, sigma2=10.0)


def test_criterion_04a_known_h_test_power():
    # strong mismatch rejected at 1e-3 in >= 95/100 reps
    wm5 = GaussianIIDModel(mu1=-2.0, mu2=5.0, sigma1=5.0, sigma2=10.0)
    hits = 0
    for r in range(100):
        cfg = ExperimentConfig(
            model=FIG3_OBS,
            thresholds=FIG2A_TH,
            trials=100_000,
            seed=50_000 + r,
            world_model=wm5,
            window=10,
        )
        rep1, _ = optimality_test_known_h(run_experiment(cfg).records)
        hits += rep1.p_value < 1e-3
    power_ok = hits >= 95
    report(4, power_ok, f"power: {hits}/100 reps with p < 1e-3 (need >= 95)")
    assert power_ok


def test_criterion_04b_known_h_matched_calibration():
    # Size of the known-h test on a matched device, 500 reps of 1e5 trials,
    # both decision panels.  The size is measured where the null holds
    # exactly: the matched lattice walk of criterion 3 steps onto its
    # thresholds without overshoot, so P(T | D, H) does not depend on H.
    # A discrete Gaussian device is no such null.  On the matched FIG3
    # device with a 10-observation window the exact law gives
    # P(T=6 | D=1, H=1) = 0.0586 against P(T=6 | D=1, H=2) = 0.0673
    # (tests/test_window_law.py); at the d1 cell sizes of 1e5 trials
    # (about 25,630 and 356 records) that predicts a d1 rejection rate near
    # 0.08 at level 0.05 (0.078 from the noncentral chi-squared law on the
    # merged bins; observed 0.090), whatever the test's calibration.
    model = LatticeBernoulliModel(p=0.8, m1=2, m2=2)
    rej1 = rej2 = 0
    for r in range(500):
        cfg = ExperimentConfig(
            model=model,
            thresholds=model.thresholds,
            trials=100_000,
            seed=640_000 + r,
            window=200,
        )
        rep1, rep2 = optimality_test_known_h(run_experiment(cfg).records)
        rej1 += rep1.p_value < 0.05
        rej2 += rep2.p_value < 0.05
    rate1 = rej1 / 500
    rate2 = rej2 / 500
    calib_ok = rate1 <= 0.07 and rate2 <= 0.07
    report(
        4,
        calib_ok,
        f"matched lattice rejection rate at 0.05: d1={rate1:.3f}, d2={rate2:.3f} "
        "(bound 0.07 each)",
    )
    assert calib_ok, (
        f"matched lattice rejection rates d1={rate1:.3f}, d2={rate2:.3f} at level "
        "0.05 exceed 0.07 where the null holds exactly: the known-h test is "
        "miscalibrated"
    )


@pytest.fixture(scope="module")
def mi_scan_curves():
    """The criterion-5b scan: 21 belief points, 1e6 trials per point.

    The mean-time curve needs untruncated decision times (the matched
    reference Wald test's mean time already exceeds 10 observations), so
    the window is 100 observations.
    """
    base = ExperimentConfig(
        model=FIG2A_MODEL,
        thresholds=FIG2A_TH,
        trials=1_000_000,
        seed=20180115,
        window=100,
        stratified=True,
    )
    return mi_scan_rows(base, "mu2", np.linspace(-4.0, 6.0, 21).tolist())


def test_criterion_05a_mi_scan_minimum_location():
    # I(H;T|D) vanishes for an optimal device, by the fluctuation relation,
    # which is exact in continuous time.  For the diffusion behind MATCHED_P,
    # mutual_info_continuous is zero only where |a1| = |a2|, i.e. at the
    # matched belief mu2~ = 1; the grid leaves out 0, where b = 0.
    # The Fig-4 Gaussian device (window 10) is no such device: its exact
    # curve (tests/test_window_law.py) has its grid minimum at mu2~ = -1.0
    # with 3.33e-6 bits, ahead of 1.5 (3.93e-6) and the matched 1.0
    # (4.64e-6), so its plug-in argmin converges away from 1.0 as trials
    # grow.  A window of 100 moves the exact minimum to 1.0, but by 0.8e-6
    # bits, far under the plug-in bias of about 100 time bins; at lambda = 3
    # errors are so rare that every value is about 1e-7.  On the diffusion
    # the dip is wide: 1e5 trials per point already put 4.8e-4 bits at 1.0
    # (the plug-in bias floor is 4.5e-4) against 7.5e-3 at 1.25 and 1.45e-2
    # at 0.75.  The diffusion trials are exact first-passage draws, so the
    # device has no overshoot; dt = 1 only rounds the recorded times up.
    grid = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
    base = ExperimentConfig(
        model=DIFFUSION_MODEL,
        thresholds=FIG2A_TH,
        trials=100_000,
        seed=20180115,
        window=5000.0,
        dt=1.0,
        stratified=True,
    )
    rows = mi_scan_rows(base, "mu2", grid)
    values = np.array([r.value for r in rows])
    mi = np.array([r.mi_bits for r in rows])
    mi_at = values[int(np.argmin(mi))]
    mi_ok = abs(mi_at - 1.0) <= 0.25 + 1e-9
    report(
        5,
        mi_ok,
        f"MI grid minimum at mu2~={mi_at:.2f} (needs 1.0 +- one 0.25 grid step); "
        + ", ".join(f"mi({v})={m:.2e}" for v, m in zip(values, mi)),
    )
    assert mi_ok, (
        f"MI grid minimum at mu2~={mi_at:.2f}, not at the matched belief 1.0 "
        "where the continuous-time I(H;T|D) vanishes"
    )


def test_criterion_05b_mean_time_minimum_location(mi_scan_curves):
    rows = mi_scan_curves
    values = np.array([r.value for r in rows])
    ratio = np.array([r.time_ratio_minus_one for r in rows])
    ratio_at = values[int(np.argmin(ratio))]
    ratio_ok = abs(ratio_at - 1.0) <= 0.5 + 1e-9
    report(
        5,
        ratio_ok,
        f"normalized mean-time minimum at mu2~={ratio_at:.1f} "
        "(needs 1.0 +- one 0.5 grid step)",
    )
    assert ratio_ok


def test_criterion_06_continuous_closed_forms():
    a1, a2 = error_probs_continuous(MATCHED_P, TH44)
    target = 0.017986209962091558  # (1-e^4)/(1-e^8) at 50-digit precision
    probs_ok = abs(a1 - target) < 1e-9 and abs(a2 - target) < 1e-9
    norms = []
    for h in (1, 2):
        val, _ = quad(
            lambda t: decision_time_density(t, 1, h, MATCHED_P, TH44),
            0.0,
            5000.0,
            limit=300,
        )
        norms.append(val)
    norm_ok = all(abs(v - 1.0) < 1e-6 for v in norms)
    report(
        6,
        probs_ok and norm_ok,
        f"alpha1={a1:.12f} (target {target:.12f}, tol 1e-9); "
        f"density normalizations={norms[0]:.9f}, {norms[1]:.9f} (tol 1e-6)",
    )
    assert probs_ok and norm_ok


def _fig8_params(mu2_tilde):
    from seqaudit.reproduce import fig8_device

    return fig8_device(mu2_tilde)


def test_criterion_07_continuous_mutual_information():
    zero_ok = mutual_info_continuous(MATCHED_P, 4.0) == 0.0
    t_r_ref = 0.1 * (-math.log(0.01) / 0.02)  # a tenth of the matched mean time
    mono_ok = True
    five_pct_ok = True
    details = []
    for mu2t in (0.5, 1.5):
        p = _fig8_params(mu2t)
        cont = mutual_info_continuous(p, 4.0)
        seq = [mutual_info_discretized(p, 4.0, t_r_ref * 2**j) for j in range(6)]
        mono_ok &= all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))
        disc = mutual_info_discretized(p, 4.0, t_r_ref)
        five_pct_ok &= abs(disc - cont) <= 0.05 * cont
        details.append(f"mu2~={mu2t}: cont={cont:.5f}, disc={disc:.5f}")
    ok = zero_ok and mono_ok and five_pct_ok
    report(
        7,
        ok,
        f"symmetric case exactly zero: {zero_ok}; non-increasing under doubling: "
        f"{mono_ok}; within 5% at t_r=0.1*E[T]: {five_pct_ok} ({'; '.join(details)})",
    )
    assert ok


def test_criterion_08_sampler_correctness():
    mean, shape = 7.0, 21.0
    g = np.random.default_rng(808)
    draws = sample_inverse_gaussian(mean, shape, g, size=1_000_000)
    var = mean**3 / shape
    # central moments of the law give the sampling noise of mean and variance
    m4 = 15 * mean**7 / shape**3 + 3 * mean**6 / shape**2
    sem_mean = math.sqrt(var / draws.size)
    sem_var = math.sqrt((m4 - var**2) / draws.size)
    mean_ok = abs(draws.mean() - mean) < 3 * sem_mean
    var_ok = abs(draws.var() - var) < 3 * sem_var

    h, d, t = sample_outcomes_asymptotic(MATCHED_P, TH44, 0.5, 100_000, g)
    alpha1, _ = error_probs_continuous(MATCHED_P, TH44)
    n2 = int((h == 2).sum())
    frac = int(((h == 2) & (d == 1)).sum()) / n2
    sem_frac = math.sqrt(alpha1 * (1 - alpha1) / n2)
    freq_ok = abs(frac - alpha1) < 3 * sem_frac
    ok = mean_ok and var_ok and freq_ok
    report(
        8,
        ok,
        f"IG mean {draws.mean():.4f} vs {mean} (3sig={3*sem_mean:.4f}); "
        f"IG var {draws.var():.4f} vs {var:.4f} (3sig={3*sem_var:.4f}); "
        f"P(D=1|H=2) {frac:.5f} vs {alpha1:.5f} (3sig={3*sem_frac:.5f})",
    )
    assert ok


def test_criterion_09_overshoot_diagnostics():
    lattice = LatticeBernoulliModel(p=0.8, m1=2, m2=2)
    series_lat = overshoot_profile(ExperimentConfig(lattice, lattice.thresholds, 200_000, seed=9))
    lat_ratio = condition51_flatness(series_lat)
    lattice_ok = lat_ratio == 1.0

    s016 = overshoot_profile(
        ExperimentConfig(FIG2A_MODEL, Thresholds(4.0 * 0.16, -2.0 * 0.16), 1_000_000, seed=10)
    )
    # decide-1-under-H2 events at lambda=3 are ~3e-6 likely; the tilted
    # estimator reweights abundant H1 runs through the exact change of
    # measure instead
    s300 = overshoot_profile(
        ExperimentConfig(FIG2A_MODEL, Thresholds(12.0, -6.0), 1_000_000, seed=11, window=2000),
        estimator="tilted",
    )
    f016 = condition51_flatness(s016)
    f300 = condition51_flatness(s300)
    flat_ok = f300 < f016

    # persistence: at lambda=0.16 the time-independence condition is badly
    # violated, so the estimate saturates at its genuinely positive value
    # already at 1e6 runs (a halved sample gives the same value, whereas a
    # pure-bias estimate would halve)
    cfg = ExperimentConfig(
        model=FIG2A_MODEL,
        thresholds=Thresholds(4.0 * 0.16, -2.0 * 0.16),
        trials=1_000_000,
        seed=12,
        window=2000,
    )
    batch = run_experiment(cfg).records
    est_full = conditional_mi_plugin(batch)
    half = RecordBatch(
        batch.hypothesis[:500_000],
        batch.decision[:500_000],
        batch.time[:500_000],
        batch.terminal_llr[:500_000],
        time_kind=batch.time_kind,
    )
    est_half = conditional_mi_plugin(half)
    bias_floor = 0.0
    for d in (1, 2):
        k_cells = np.unique(batch.time[batch.decision == d]).size
        bias_floor += (k_cells - 1) / (2 * len(batch) * math.log(2))
    persist_ok = (
        est_full.value_bits > 3 * bias_floor
        and est_full.value_bits > 0.7 * est_half.value_bits
    )
    ok = lattice_ok and flat_ok and persist_ok
    report(
        9,
        ok,
        f"lattice flatness={lat_ratio} (exact 1.0); flatness lam=0.16: {f016:.3f} "
        f"vs lam=3: {f300:.3f} (must decrease); MI persistence at lam=0.16, 1e6 "
        f"runs: {est_full.value_bits:.2e} vs bias floor {bias_floor:.2e} and "
        f"half-sample {est_half.value_bits:.2e}",
    )
    assert ok


def test_criterion_10_estimator_identities(fig2a_result):
    # chain rule on every dataset generated across model families
    datasets = [fig2a_result.records]
    markov = MarkovGaussianModel(v1=1.0, v2=-1.0, w1=-1.0, w2=-1.0, sigma1=5.0, sigma2=5.0)
    datasets.append(
        run_experiment(
            ExperimentConfig(
                model=markov, thresholds=TH44, trials=200_000, seed=77, window=800
            )
        ).records
    )
    lattice = LatticeBernoulliModel(p=0.8, m1=2, m2=2)
    datasets.append(
        run_experiment(
            ExperimentConfig(
                model=lattice, thresholds=lattice.thresholds, trials=200_000, seed=78, window=200
            )
        ).records
    )
    g = np.random.default_rng(79)
    h, d, t = sample_outcomes_asymptotic(MATCHED_P, TH44, 0.5, 200_000, g)
    datasets.append(RecordBatch(h, d, t, time_kind="seconds"))
    chain_gaps = []
    for batch in datasets:
        i_joint, i_dec, i_cond = mi_decomposition(batch)
        chain_gaps.append(abs(i_cond - (i_joint - i_dec)))
    chain_ok = max(chain_gaps) < 1e-12

    # null calibration of both tests at levels 0.01 / 0.05 / 0.10
    levels = (0.01, 0.05, 0.10)
    reps = 500
    ks_p = np.empty(reps)
    chi_p = np.empty(reps)
    law = enumerate_exact_law(lattice)
    pmf = law.conditional_time_pmf(1, 1)
    ks_vals = np.flatnonzero(pmf > 0) + 1
    probs = pmf[ks_vals - 1]
    probs /= probs.sum()
    for r in range(reps):
        a = sample_inverse_gaussian(10.0, 30.0, g, size=10_000)
        b = sample_inverse_gaussian(10.0, 30.0, g, size=10_000)
        ks_p[r] = ks_two_sample(a, b).p_value
        ca = g.choice(ks_vals, size=2000, p=probs)
        cb = g.choice(ks_vals, size=2000, p=probs)
        chi_p[r] = chi2_two_sample(ca, cb).p_value
    calib = {}
    calib_ok = True
    for name, pvals in (("KS", ks_p), ("CHI2", chi_p)):
        for level in levels:
            rate = float((pvals < level).mean())
            calib[f"{name}@{level}"] = rate
            calib_ok &= abs(rate - level) <= 0.02
    ok = chain_ok and calib_ok
    report(
        10,
        ok,
        f"max chain-rule gap {max(chain_gaps):.2e} over {len(datasets)} datasets "
        f"(tol 1e-12); rejection rates {calib} (each within +-0.02 of nominal)",
    )
    assert ok
