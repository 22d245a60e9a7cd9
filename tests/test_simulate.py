import math

import numpy as np
import pytest
import scipy.stats

from seqaudit.core import (
    EmptyCellError, RecordBatch, Thresholds, ValidationError, thresholds_from_alphas, ErrorSpec,
    read_records_csv, write_records_csv,
)
from seqaudit.analytic import continuous_llr_params, error_probs_continuous
from seqaudit import simulate
from seqaudit.models import (
    DriftDiffusionModel, GaussianIIDModel, MarkovGaussianModel, _exit_inverse,
)
from seqaudit.oracle import LatticeBernoulliModel, diffusion_law
from seqaudit.simulate import (
    BLOCK_SIZE,
    ExperimentConfig,
    _block_hypotheses,
    block_rng,
    empirical_error_probs,
    run_experiment,
)
from seqaudit.cli import write_metadata

FIG2A_MODEL = GaussianIIDModel(mu1=0.0, mu2=1.0, sigma1=5.0, sigma2=10.0)
FIG2A_TH = Thresholds(l1=4.0, l2=-2.0)


def small_cfg(**kwargs):
    base = dict(
        model=FIG2A_MODEL,
        thresholds=FIG2A_TH,
        trials=20_000,
        seed=1234,
        window=500,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValidationError):
            small_cfg(trials=0)

    @pytest.mark.parametrize("name,value", [
        ("trials", 2.5), ("trials", "10"), ("trials", 10.0), ("seed", 1.5), ("seed", None),
    ])
    def test_trials_and_seed_must_be_integers(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be an integer, got {value!r}"):
            small_cfg(**{name: value})

    def test_numpy_integers_run_as_ints(self):
        a = run_experiment(small_cfg(trials=2000)).records
        b = run_experiment(small_cfg(trials=np.int64(2000), seed=np.uint32(1234))).records
        assert np.array_equal(a.time, b.time) and np.array_equal(a.decision, b.decision)
        assert np.array_equal(a.hypothesis, b.hypothesis)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be nonnegative, got -1"):
            small_cfg(seed=-1)

    def test_bad_prior_rejected(self):
        with pytest.raises(ValidationError):
            small_cfg(p1=1.5)

    def test_stratified_run_needs_the_even_prior(self):
        # a stratified run alternates H by trial index and never reads p1
        with pytest.raises(ValidationError, match=r"stratified runs .* p1 = 0.5, got p1 = 0.3"):
            small_cfg(stratified=True, p1=0.3)
        assert small_cfg(stratified=True).p1 == 0.5

    def test_lattice_device_must_be_matched(self):
        model = LatticeBernoulliModel(0.8, 2, 2)
        with pytest.raises(ValidationError, match="lattice devices are always matched"):
            small_cfg(model=model, world_model=LatticeBernoulliModel(0.7, 2, 2))
        with pytest.raises(ValidationError, match="lattice devices are always matched"):
            small_cfg(model=model, world_model=FIG2A_MODEL)
        # a world model equal to the model is the matched device
        assert small_cfg(model=model, world_model=LatticeBernoulliModel(0.8, 2, 2)).device == model

    def test_continuous_needs_dt(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(
                model=DriftDiffusionModel(0.0, 1.0, 5.0),
                thresholds=FIG2A_TH,
                trials=10,
                seed=0,
                window=100.0,
            )

    @pytest.mark.parametrize("window", [0.0, math.nan, math.inf])
    def test_window_must_be_positive_and_finite(self, window):
        with pytest.raises(ValidationError, match="positive and finite"):
            ExperimentConfig(
                model=DriftDiffusionModel(0.0, 1.0, 5.0),
                thresholds=FIG2A_TH,
                trials=10,
                seed=0,
                window=window,
                dt=1.0,
            )

    @pytest.mark.parametrize("dt", [0.0, math.nan, 100.0])
    def test_dt_must_lie_inside_window(self, dt):
        with pytest.raises(ValidationError, match="0 < dt < window"):
            ExperimentConfig(
                model=DriftDiffusionModel(0.0, 1.0, 5.0),
                thresholds=FIG2A_TH,
                trials=10,
                seed=0,
                window=100.0,
                dt=dt,
            )

    def test_dt_forbidden_for_discrete(self):
        with pytest.raises(ValidationError):
            small_cfg(dt=0.1)

    @pytest.mark.parametrize("window", [0.5, 10.7])
    def test_fractional_discrete_window_rejected(self, window):
        with pytest.raises(ValidationError, match="whole number"):
            small_cfg(window=window)

    def test_whole_discrete_window_kept_as_int(self):
        window = small_cfg(window=10.0).window
        assert window == 10 and isinstance(window, int)


class TestRunExperiment:
    def test_degenerate_prior_yields_single_hypothesis(self):
        result = run_experiment(small_cfg(trials=2000, p1=1.0))
        assert np.all(result.records.hypothesis == 1)

    @pytest.mark.parametrize("p1,h", [(0.0, 2), (1.0, 1)])
    def test_certain_hypothesis_draws_nothing(self, p1, h):
        rng = block_rng(1234, 0)
        hyp = _block_hypotheses(small_cfg(p1=p1), 0, 100, rng)
        assert hyp.dtype == np.int8 and np.all(hyp == h)
        assert rng.random(5).tolist() == block_rng(1234, 0).random(5).tolist()

    def test_conservation(self):
        result = run_experiment(small_cfg(trials=5000, window=8))
        assert len(result.records) + result.truncated_count == 5000
        assert result.truncated_count > 0  # window 8 clips the slow tail

    @pytest.mark.parametrize("kwargs", [
        {},
        # three blocks on two threads share the run's exit-law tables
        {"model": DriftDiffusionModel(0.0, 1.0, 5.0), "dt": 1.0, "window": 5000.0},
    ], ids=["gaussian_iid", "drift_diffusion"])
    def test_determinism_and_thread_independence(self, kwargs):
        cfg = small_cfg(trials=70_000, **kwargs)
        r1 = run_experiment(cfg, threads=1)
        r2 = run_experiment(cfg, threads=2)
        assert np.array_equal(r1.records.time, r2.records.time)
        assert np.array_equal(r1.records.hypothesis, r2.records.hypothesis)
        assert np.array_equal(r1.records.decision, r2.records.decision)
        assert np.array_equal(
            r1.records.terminal_llr, r2.records.terminal_llr, equal_nan=True
        )

    def test_exit_laws_are_built_once_per_run(self, monkeypatch):
        # four blocks share one table per hypothesis at either thread count
        cfg = small_cfg(model=DriftDiffusionModel(0.0, 1.0, 5.0), trials=4 * BLOCK_SIZE,
                        dt=1.0, window=150.5)
        calls = []

        def counting(f1, f2):
            calls.append(len(f1))
            return _exit_inverse(f1, f2)

        monkeypatch.setattr(simulate, "_exit_inverse", counting)
        columns = []
        for threads in (1, 2):
            calls.clear()
            rec = run_experiment(cfg, threads=threads).records
            assert calls == [151, 151]
            columns.append([c.tobytes() for c in
                            (rec.hypothesis, rec.decision, rec.time, rec.terminal_llr)])
        assert columns[0] == columns[1]

    def test_different_seeds_differ(self):
        r1 = run_experiment(small_cfg(seed=1))
        r2 = run_experiment(small_cfg(seed=2))
        assert not np.array_equal(r1.records.time, r2.records.time)

    def test_stratified_split(self):
        result = run_experiment(small_cfg(trials=10_000, stratified=True, window=500))
        h = result.records.hypothesis
        n1 = int((h == 1).sum())
        # exact alternation before truncation; truncation removes a few
        assert abs(n1 - len(result.records) / 2) < 0.02 * len(result.records)

    def test_fig2a_alphas_reduced_scale(self):
        # the reported pair is (0.041, 0.0133); in this toolkit's convention
        # alpha1_hat is the decide-1-under-H2 rate, which is the smaller one
        result = run_experiment(small_cfg(trials=100_000, seed=777))
        assert result.alpha1_hat == pytest.approx(0.0133, abs=0.004)
        assert result.alpha2_hat == pytest.approx(0.041, abs=0.006)


class TestEmpiricalErrorProbs:
    def test_perfect_device(self):
        batch = RecordBatch(
            hypothesis=np.array([1, 1, 2, 2]),
            decision=np.array([1, 1, 2, 2]),
            time=np.ones(4),
            time_kind="steps",
        )
        assert empirical_error_probs(batch) == (0.0, 0.0)

    def test_counting(self):
        h = np.array([2] * 20 + [1] * 10)
        d = np.array([1] + [2] * 19 + [1] * 10)
        batch = RecordBatch(h, d, np.ones(30), time_kind="steps")
        a1, a2 = empirical_error_probs(batch)
        assert a1 == pytest.approx(0.05)
        assert a2 == 0.0

    def test_empty_cell_signalled(self):
        batch = RecordBatch(
            hypothesis=np.array([1, 1]),
            decision=np.array([1, 2]),
            time=np.ones(2),
            time_kind="steps",
        )
        with pytest.raises(EmptyCellError):
            empirical_error_probs(batch)

    def test_wald_guarantee(self):
        # thresholds built from the error budget keep empirical errors below it
        spec = ErrorSpec(0.05, 0.05)
        cfg = ExperimentConfig(
            model=GaussianIIDModel(mu1=0.0, mu2=1.0, sigma1=1.0, sigma2=1.0),
            thresholds=thresholds_from_alphas(spec),
            trials=100_000,
            seed=99,
            window=400,
        )
        result = run_experiment(cfg)
        n2 = (result.records.hypothesis == 2).sum()
        n1 = (result.records.hypothesis == 1).sum()
        slack1 = 3 * math.sqrt(spec.alpha1 * (1 - spec.alpha1) / n2)
        slack2 = 3 * math.sqrt(spec.alpha2 * (1 - spec.alpha2) / n1)
        assert result.alpha1_hat <= spec.alpha1 + slack1
        assert result.alpha2_hat <= spec.alpha2 + slack2


class TestMetadata:
    def test_sidecar_contents(self, tmp_path):
        cfg = small_cfg(trials=2000)
        result = run_experiment(cfg)
        path = tmp_path / "records.meta"
        write_metadata(path, cfg, result)
        text = path.read_text()
        assert "seed=1234" in text
        assert f"truncated_count={result.truncated_count}" in text
        assert "alpha1_hat=" in text


DIFFUSION_MODEL = DriftDiffusionModel(0.0, 1.0, 5.0)


def gof_p_value(observed: np.ndarray, expected: np.ndarray) -> float:
    """Chi-squared goodness of fit of counts against expected counts per row.

    Consecutive cells of each row are merged until each group expects at
    least 5; a remainder below that, the low-mass tail, joins the last group.
    """
    stat, groups = 0.0, 0
    for obs, exp in zip(observed, expected):
        starts, acc = [0], 0.0
        for j, e in enumerate(exp.tolist()):
            acc += e
            if acc >= 5.0:
                starts.append(j + 1)
                acc = 0.0
        # the last start opens the remainder or lies past the row; it joins the group before
        o, e = (np.add.reduceat(a, starts[:-1]) for a in (obs, exp))
        stat += float(((o - e) ** 2 / e).sum())
        groups += len(o)
    return float(scipy.stats.chi2.sf(stat, groups - 1))


@pytest.mark.parametrize("mu2,dt", [(1.0, 1.0), (1.0, 4.0), (0.75, 1.0), (1.5, 4.0)])
def test_diffusion_records_follow_the_exit_law(mu2, dt):
    # mu2 is the device's belief; 1.0 is the matched device
    cfg = small_cfg(model=DIFFUSION_MODEL, world_model=DriftDiffusionModel(0.0, mu2, 5.0),
                    trials=100_000, stratified=True, dt=dt, window=5000.0)
    result = run_experiment(cfg)
    rec = result.records
    alphas = error_probs_continuous(continuous_llr_params(cfg.model, cfg.device), cfg.thresholds)
    law = diffusion_law(cfg.model, cfg.thresholds, dt, cfg.window, cfg.device)
    for h, hat, alpha in ((2, result.alpha1_hat, alphas[0]), (1, result.alpha2_hat, alphas[1])):
        times = rec.time[rec.hypothesis == h]
        assert abs(hat - alpha) < 4.0 * math.sqrt(alpha * (1.0 - alpha) / times.size)
        # mean of the recorded ceil(T/dt)*dt under the tabulated law
        mean = law.mean_time(1.0 if h == 1 else 0.0)
        assert abs(times.mean() - mean) < 4.0 * times.std() / math.sqrt(times.size)
        # the (decision, cell) counts against the law's cells
        cell = np.rint(times / dt).astype(np.int64) - 1
        d = rec.decision[rec.hypothesis == h].astype(np.int64) - 1
        observed = np.bincount(d * law.k_max + cell, minlength=2 * law.k_max)
        pmf = law.pmf[h - 1]
        assert observed.size == pmf.size
        expected = times.size * pmf / pmf.sum()
        assert gof_p_value(observed.reshape(2, -1).astype(float), expected) > 0.001
    assert np.all(rec.terminal_llr == np.where(rec.decision == 1, 4.0, -2.0))


LATTICE = LatticeBernoulliModel(p=0.8, m1=2, m2=2)


@pytest.mark.parametrize("cfg", [
    small_cfg(trials=5000),
    small_cfg(model=MarkovGaussianModel(1.0, -1.0, -1.0, -1.0, 5.0, 5.0),
              thresholds=Thresholds(4.0, -4.0), trials=5000),
    small_cfg(model=LATTICE, thresholds=LATTICE.thresholds, trials=5000),
    small_cfg(model=DriftDiffusionModel(0.0, 1.0, 5.0), dt=4.0, window=5000.0, trials=5000),
], ids=["gaussian_iid", "markov_gaussian", "lattice", "drift_diffusion"])
def test_records_csv_round_trip(tmp_path, cfg):
    records = run_experiment(cfg).records
    assert np.isfinite(records.terminal_llr).all()
    write_records_csv(tmp_path / "records.csv", records)
    # explicit: diffusion times on a dt grid of whole seconds would infer as steps
    back = read_records_csv(tmp_path / "records.csv", records.time_kind)
    for name in ("hypothesis", "decision", "time", "terminal_llr"):
        column = getattr(back, name)
        assert column.dtype == getattr(records, name).dtype
        assert np.array_equal(column, getattr(records, name)), name
