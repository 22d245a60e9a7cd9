import ast
import contextlib
import json
import math
import signal
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest

from seqaudit import cli, reproduce
from seqaudit.cli import MODEL_FIELDS, main
from seqaudit.analytic import ContinuousLLRParams
from seqaudit.core import Thresholds, ValidationError
from seqaudit.models import DriftDiffusionModel, GaussianIIDModel
from seqaudit.oracle import LatticeBernoulliModel
from seqaudit.overshoot import overshoot_profile
from seqaudit.simulate import ExperimentConfig, run_experiment

BASE_CONFIG = """
[experiment]
trials = 8000
seed = 314
p1 = 0.5
window = 300

[model]
kind = gaussian_iid
mu1 = 0.0
mu2 = 1.0
sigma1 = 5.0
sigma2 = 10.0

[device]
l1 = 4.0
l2 = -2.0
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail the enclosed block once it runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSimulateCommand:
    def test_writes_records_meta_and_manifest(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "simulate", config_path) == 0
        assert (out / "records.csv").exists()
        assert (out / "records.meta").exists()
        manifest = json.loads((out / "manifest_simulate.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 314
        assert manifest["config"]["model"]["kind"] == "gaussian_iid"

    def test_rerun_is_byte_identical(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("--out-dir", out1, "simulate", config_path) == 0
        assert run_cli("--out-dir", out2, "simulate", config_path) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("--out-dir", out1, "simulate", config_path)
        run_cli("--out-dir", out2, "--seed", 999, "simulate", config_path)
        assert (out1 / "records.csv").read_bytes() != (out2 / "records.csv").read_bytes()

    def test_missing_trials_names_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("trials = 8000", ""))
        assert run_cli("--out-dir", tmp_path, "simulate", bad) == 2
        assert "trials" in capsys.readouterr().err

    def test_unknown_model_kind(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("gaussian_iid", "pelican"))
        assert run_cli("--out-dir", tmp_path, "simulate", bad) == 2
        assert "pelican" in capsys.readouterr().err


    def test_unparsable_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("seed = 314", "seed = 314\nseed = 315"))
        assert run_cli("--out-dir", tmp_path, "simulate", bad) == 2
        assert "seed" in capsys.readouterr().err

    def test_fractional_window_is_config_error(self, tmp_path, config_path, capsys):
        config_path.write_text(BASE_CONFIG.replace("window = 300", "window = 0.5"))
        assert run_cli("--out-dir", tmp_path, "simulate", config_path) == 2
        assert "window" in capsys.readouterr().err

    def test_boolean_typo_names_key(self, tmp_path, config_path, capsys):
        config_path.write_text(BASE_CONFIG.replace("window = 300", "window = 300\nstratified = ture"))
        assert run_cli("--out-dir", tmp_path, "simulate", config_path) == 2
        assert "stratified" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, config_path, capsys, threads):
        assert run_cli("--out-dir", tmp_path, "--threads", threads, "simulate", config_path) == 2
        assert "threads" in capsys.readouterr().err
        assert not (tmp_path / "records.csv").exists()

    def test_run_experiment_rejects_threads_below_one(self):
        model = GaussianIIDModel(mu1=0.0, mu2=1.0, sigma1=5.0, sigma2=10.0)
        cfg = ExperimentConfig(model=model, thresholds=Thresholds(4.0, -2.0), trials=10, seed=1)
        with pytest.raises(ValidationError, match="threads"):
            run_experiment(cfg, threads=0)

    def test_lattice_fields_cast_from_annotations(self, tmp_path, capsys):
        assert MODEL_FIELDS["lattice"] == {"p": float, "m1": int, "m2": int}
        assert MODEL_FIELDS["drift_diffusion"] == {"mu1": float, "mu2": float, "sigma": float}
        bad = tmp_path / "bad.ini"
        bad.write_text(overshoot_config().replace("m1 = 2", "m1 = 2.5"))
        assert run_cli("--out-dir", tmp_path, "overshoot", bad) == 2
        assert "m1" in capsys.readouterr().err


# one fault of a config per row, each an edit of BASE_CONFIG and its message; the groups
# are in the order build_experiment reports them: model values, belief overrides,
# thresholds, [experiment], then dt and ExperimentConfig's own checks
CONFIG_FAULTS = [
    [("sigma1 = 5.0", "sigma1 = 0", "standard deviations must be positive")],
    [("[device]\n", "[device]\nmu2 = nan\n", "mu2 must be finite, got nan"),
     ("[device]\n", "[device]\nmu1 = zero\n",
      "key 'mu1' in [device]: could not convert string to float: 'zero'")],
    [("l2 = -2.0\n", "", "thresholds need both l1 and l2"),
     ("l1 = 4.0", "l1 = -4", "l1 must be a positive finite real, got -4.0")],
    [("[experiment]\ntrials = 8000\nseed = 314\np1 = 0.5\nwindow = 300\n", "",
      "missing [experiment] section"),
     ("trials = 8000", "trials = many",
      "key 'trials' in [experiment]: invalid literal for int() with base 10: 'many'")],
    [("[device]\n", "[device]\ndt = soon\n",
      "key 'dt' in [device]: could not convert string to float: 'soon'"),
     ("[device]\n", "[device]\ndt = 0.5\n", "dt applies to continuous models only")],
]
TWO_FAULTS = [
    (first, second)
    for i, group in enumerate(CONFIG_FAULTS)
    for first in group
    for later in CONFIG_FAULTS[i + 1:]
    for second in later
]


class TestConfigBoundary:
    @pytest.mark.parametrize("first,second", TWO_FAULTS)
    def test_first_of_two_faults_is_reported(self, tmp_path, capsys, first, second):
        text = BASE_CONFIG
        for old, new, _ in (second, first):
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        assert run_cli("--out-dir", tmp_path, "simulate", cfg) == 2
        assert capsys.readouterr().err == f"config error: {first[2]}\n"

    @pytest.mark.parametrize("old,new,message", [
        ("sigma1 = 5.0", "sigma1 = -1", "standard deviations must be positive"),
        ("l1 = 4.0", "l1 = -4", "l1 must be a positive finite real, got -4.0"),
        ("p1 = 0.5", "p1 = 2", "prior p1 must lie in [0, 1]"),
        ("p1 = 0.5", "p1 = 0.3\nstratified = true",
         "stratified runs alternate H at p1 = 0.5, got p1 = 0.3"),
    ])
    def test_invalid_value_is_config_error(self, tmp_path, config_path, capsys, old, new, message):
        config_path.write_text(BASE_CONFIG.replace(old, new))
        assert run_cli("--out-dir", tmp_path, "simulate", config_path) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command,old,new,field", [
        ("simulate", "mu2 = 1.0", "mu2 = nan", "mu2"),
        ("simulate", "sigma1 = 5.0", "sigma1 = nan", "sigma1"),
        ("simulate", "sigma1 = 5.0", "sigma1 = inf", "sigma1"),
    ])
    def test_non_finite_model_value_is_named(self, tmp_path, capsys, command, old, new, field):
        cfg = tmp_path / "exp.ini"
        cfg.write_text((BASE_CONFIG + "\n[scan]\nparameter = mu2\n").replace(old, new))
        assert run_cli("--out-dir", tmp_path, command, cfg) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field} must be finite, got ")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command,extra", [
        ("simulate", "[device]\np = 0.7\n"),
        ("overshoot", "[device]\np = 0.7\n"),
        ("mi-scan", "[scan]\nparameter = p\nvalues = 0.6,0.8,0.95\n"),
    ])
    def test_lattice_device_is_matched_under_every_command(self, tmp_path, capsys, command, extra):
        cfg = tmp_path / "lattice.ini"
        cfg.write_text(overshoot_config(seed="3", window="1000") + extra)
        assert run_cli("--out-dir", tmp_path, command, cfg) == 2
        err = capsys.readouterr().err
        assert err == "config error: lattice devices are always matched; remove belief overrides\n"

    def test_lattice_override_equal_to_the_model_runs_matched(self, tmp_path):
        cfg = tmp_path / "lattice.ini"
        plain = overshoot_config(seed="3", window="1000")
        cfg.write_text(plain + "[device]\np = 0.8\n")
        assert run_cli("--out-dir", tmp_path / "a", "simulate", cfg) == 0
        cfg.write_text(plain)
        assert run_cli("--out-dir", tmp_path / "b", "simulate", cfg) == 0
        a, b = (tmp_path / d / "records.csv" for d in "ab")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("old,new,named", [
        ("p1 = 0.5", "stratifed = true", "['stratifed'] in section [experiment]"),
        ("l2 = -2.0", "l2 = -2.0\nmu22 = 5.0", "['mu22'] in section [device]"),
        ("kind = gaussian_iid", "kind = gaussian_iid\nwindow = 9", "['window'] in section [model]"),
        ("[device]", "[devise]", "unknown section [devise]"),
    ])
    def test_unknown_key_or_section_is_named(self, tmp_path, config_path, capsys, old, new, named):
        config_path.write_text(BASE_CONFIG.replace(old, new))
        assert run_cli("--out-dir", tmp_path, "simulate", config_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown") and named in err
        assert not (tmp_path / "records.csv").exists()

    def test_unknown_overshoot_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "over.ini"
        cfg.write_text(overshoot_config(trails="10"))
        assert run_cli("--out-dir", tmp_path, "overshoot", cfg) == 2
        assert "['trails'] in section [overshoot]" in capsys.readouterr().err

    def test_unread_section_and_default_keys_pass(self, tmp_path, config_path):
        # [scan] is not read by simulate; [DEFAULT] keys reach every section
        config_path.write_text(
            "[DEFAULT]\nnote = bench run\n" + BASE_CONFIG + "\n[scan]\nparameter = mu2\n"
        )
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "simulate", config_path) == 0
        plain = tmp_path / "plain"
        config_path.write_text(BASE_CONFIG)
        assert run_cli("--out-dir", plain, "simulate", config_path) == 0
        assert (out / "records.csv").read_bytes() == (plain / "records.csv").read_bytes()

    def test_experiment_keys_are_the_scalar_fields(self):
        assert {name: cli.CASTS[f.type] for name, f in cli.EXPERIMENT_FIELDS.items()} == {
            "trials": int, "seed": int, "p1": float, "window": float, "stratified": bool
        }
        required = {name for name, f in cli.EXPERIMENT_FIELDS.items() if f.default is MISSING}
        assert required == {"trials", "seed"}

    def test_seed_override_needs_no_seed_key(self, tmp_path, config_path):
        config_path.write_text(BASE_CONFIG.replace("seed = 314\n", "").replace("p1 = 0.5\n", ""))
        cfg = cli.build_experiment(cli.load_config(config_path), seed_override=7)
        assert (cfg.seed, cfg.trials, cfg.window) == (7, 8000, 300)
        assert (cfg.p1, cfg.stratified) == (0.5, False)  # the dataclass defaults


class TestTestCommand:
    def test_known_h_on_simulated_records(self, tmp_path, config_path):
        out = tmp_path / "out"
        run_cli("--out-dir", out, "simulate", config_path)
        code = run_cli("--out-dir", out, "test", out / "records.csv", "--mode", "known-h")
        assert code == 0
        report = (out / "test_report.csv").read_text().splitlines()
        assert report[0] == "comparison,method,statistic,p_value,n1,n2"
        assert len(report) == 3
        assert "CHI2" in report[1]

    def test_unknown_h_warns_about_symmetry_assertion(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        run_cli("--out-dir", out, "simulate", config_path)
        code = run_cli("--out-dir", out, "test", out / "records.csv", "--mode", "unknown-h")
        assert code == 0
        assert "caller assertion" in capsys.readouterr().out

    def test_schema_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        assert run_cli("--out-dir", tmp_path, "test", bad) == 3

    def test_empty_cell_exit_code(self, tmp_path):
        rec = tmp_path / "records.csv"
        rec.write_text("hypothesis,decision,time,terminal_llr\n1,1,3,\n2,1,4,\n")
        assert run_cli("--out-dir", tmp_path, "test", rec, "--mode", "known-h") == 4

    @pytest.mark.parametrize("mode", ["known-h", "unknown-h"])
    def test_too_few_chi2_bins_exit_code(self, tmp_path, capsys, mode):
        # a valid file whose chi-squared comparison merges down to one bin
        rec = tmp_path / "records.csv"
        rec.write_text("hypothesis,decision,time,terminal_llr\n1,1,1,\n2,1,2,\n1,2,1,\n2,2,3,\n")
        assert run_cli("--out-dir", tmp_path, "test", rec, "--mode", mode) == 4
        assert "fewer than 2 bins remain after merging" in capsys.readouterr().err
        assert not (tmp_path / "test_report.csv").exists()

    def test_fractional_time_under_steps_is_schema_error(self, tmp_path, capsys):
        rec = tmp_path / "records.csv"
        rec.write_text("hypothesis,decision,time,terminal_llr\n1,1,3,\n2,1,4.5,\n")
        assert run_cli("--out-dir", tmp_path, "test", rec, "--time-type", "steps") == 3
        assert "record 2: time 4.5 is not a whole number" in capsys.readouterr().err
        assert not (tmp_path / "test_report.csv").exists()

    def test_nan_time_under_steps_is_schema_error(self, tmp_path, capsys):
        # 40 valid step-valued rows, then one NaN time
        rec = tmp_path / "malformed.csv"
        cells = [(1, 1), (1, 2), (2, 1), (2, 2)] * 10
        rows = "".join(f"{h},{d},{1 + i % 7},\n" for i, (h, d) in enumerate(cells))
        rec.write_text("hypothesis,decision,time,terminal_llr\n" + rows + "1,1,nan,\n")
        assert run_cli("--out-dir", tmp_path, "test", rec, "--time-type", "steps") == 3
        assert "record 41: time nan is not a whole number of steps" in capsys.readouterr().err
        assert not (tmp_path / "test_report.csv").exists()

    @pytest.mark.parametrize("time_type,expected", [
        (None, "steps"),
        # KS on step-valued times warns about its ties, as it should
        pytest.param("seconds", "seconds", marks=pytest.mark.filterwarnings("ignore:.*tied")),
    ])
    def test_manifest_records_effective_time_kind(self, tmp_path, config_path, time_type, expected):
        out = tmp_path / "out"
        run_cli("--out-dir", out, "simulate", config_path)
        flag = [] if time_type is None else ["--time-type", time_type]
        assert run_cli("--out-dir", out, "test", out / "records.csv", *flag) == 0
        manifest = json.loads((out / "manifest_test.json").read_text())
        assert manifest["time_kind"] == expected


# mi_scan.csv of the scan in test_gaussian_scan_csv_is_pinned, as the simulated
# reference wrote it before drift-diffusion scans took theirs from the exit law
GAUSSIAN_SCAN_CSV = """\
mu2,mi_bits,mean_time,mean_time_ref,time_ratio_minus_one,alpha1_hat,alpha2_hat,truncated_fraction
0.5,0.004797532374180236,5.180303030303031,5.241549876339654,-0.01168487326870471,\
0.012114537444933921,0.0970873786407767,0.34
1.0,0.0062222157858471405,5.106676899462778,4.563559322033898,0.1190118368367834,\
0.004550625711035267,0.07783018867924528,0.3485
1.5,0.006732830739259565,5.296898079763663,4.464435146443515,0.18646545554218874,\
0.004454342984409799,0.08991228070175439,0.323
"""


class TestMiScanCommand:
    def test_single_point_grid(self, tmp_path):
        cfg = tmp_path / "scan.ini"
        cfg.write_text(
            BASE_CONFIG.replace("window = 300", "window = 10")
            + "\n[scan]\nparameter = mu2\nvalues = 1.0\n"
        )
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "mi-scan", cfg) == 0
        rows = (out / "mi_scan.csv").read_text().splitlines()
        assert len(rows) == 2  # header + one grid point

    def test_table_header_is_the_csv_header(self):
        header, rows = cli.mi_scan_table("mu2", [])
        assert header == (
            "mu2,mi_bits,mean_time,mean_time_ref,time_ratio_minus_one,"
            "alpha1_hat,alpha2_hat,truncated_fraction"
        )

    def test_bad_parameter_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "scan.ini"
        cfg.write_text(BASE_CONFIG + "\n[scan]\nparameter = volume\nvalues = 1.0\n")
        assert run_cli("--out-dir", tmp_path, "mi-scan", cfg) == 2
        assert "volume" in capsys.readouterr().err


    def test_bad_grid_value_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "scan.ini"
        cfg.write_text(BASE_CONFIG + "\n[scan]\nparameter = mu2\nvalues = 0.8,abc\n")
        assert run_cli("--out-dir", tmp_path, "mi-scan", cfg) == 2
        assert "values" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["nan,1.0", "inf,1.0", "1.0,inf"])
    def test_non_finite_grid_names_key(self, tmp_path, capsys, values):
        cfg = tmp_path / "scan.ini"
        cfg.write_text(BASE_CONFIG + f"\n[scan]\nparameter = mu2\nvalues = {values}\n")
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "mi-scan", cfg) == 2
        assert f"key 'values' in [scan]: grid '{values}' has a non-finite point" in (
            capsys.readouterr().err
        )
        assert not (out / "mi_scan.csv").exists()

    def test_negative_points_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "scan.ini"
        cfg.write_text(BASE_CONFIG + "\n[scan]\nparameter = mu2\nvalues = 0.5:1.5:-1\n")
        assert run_cli("--out-dir", tmp_path, "mi-scan", cfg) == 2
        assert "values" in capsys.readouterr().err

    def test_range_and_list_grids_agree(self, tmp_path):
        small = BASE_CONFIG.replace("trials = 8000", "trials = 2000").replace(
            "window = 300", "window = 10"
        )
        tables = []
        for i, values in enumerate(("0.5:1.5:5", "0.5,0.75,1.0,1.25,1.5")):
            out = tmp_path / f"out{i}"
            cfg = tmp_path / "scan.ini"
            cfg.write_text(small + f"\n[scan]\nparameter = mu2\nvalues = {values}\n")
            assert run_cli("--out-dir", out, "mi-scan", cfg) == 0
            tables.append((out / "mi_scan.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_gaussian_scan_csv_is_pinned(self, tmp_path):
        # a discrete device's reference is a same-seed run of its own
        cfg = tmp_path / "scan.ini"
        cfg.write_text(
            BASE_CONFIG.replace("trials = 8000", "trials = 2000").replace("window = 300", "window = 10")
            + "\n[scan]\nparameter = mu2\nvalues = 0.5,1.0,1.5\n"
        )
        assert run_cli("--out-dir", tmp_path / "out", "mi-scan", cfg) == 0
        assert (tmp_path / "out" / "mi_scan.csv").read_text() == GAUSSIAN_SCAN_CSV

    @pytest.mark.parametrize("model,dt,runs", [
        (DriftDiffusionModel(0.0, 1.0, 5.0), 1.0, 1),
        (GaussianIIDModel(0.0, 1.0, 5.0, 10.0), None, 2),
    ], ids=["drift_diffusion", "gaussian_iid"])
    def test_simulated_runs_per_point(self, monkeypatch, model, dt, runs):
        calls = []

        def counted(cfg, threads=1):
            calls.append(cfg)
            return run_experiment(cfg, threads)

        monkeypatch.setattr(cli, "run_experiment", counted)
        base = ExperimentConfig(model=model, thresholds=Thresholds(4.0, -2.0), trials=2000,
                                seed=5, window=500, dt=dt, stratified=True)
        cli.mi_scan_rows(base, "mu2", [0.75, 1.0, 1.5])
        assert len(calls) == 3 * runs

    def test_exact_reference_is_the_simulated_one(self, monkeypatch):
        # the grid, seed and trials of acceptance criterion 5a
        base = ExperimentConfig(model=DriftDiffusionModel(0.0, 1.0, 5.0),
                                thresholds=Thresholds(4.0, -2.0), trials=100_000, seed=20180115,
                                window=5000.0, dt=1.0, stratified=True)
        laws, exact = [], cli.diffusion_law

        def recorded(*args):
            laws.append(args)
            return exact(*args)

        monkeypatch.setattr(cli, "diffusion_law", recorded)
        rows = cli.mi_scan_rows(base, "mu2", [0.5, 0.75, 1.0, 1.25, 1.5, 2.0])
        assert len(laws) == len(rows)
        for row, (model, thresholds, dt, window) in zip(rows, laws):
            assert (model, dt, window) == (base.model, base.dt, base.window)
            ref = run_experiment(replace(base, thresholds=thresholds)).records.time
            se = ref.std() / math.sqrt(ref.size)
            assert abs(ref.mean() - row.mean_time_ref) < 4.0 * se, row.value
            assert row.time_ratio_minus_one == row.mean_time / row.mean_time_ref - 1.0

    @pytest.mark.parametrize("key", ["start", "stop", "points"])
    def test_range_keys_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "scan.ini"
        cfg.write_text(BASE_CONFIG + f"\n[scan]\nparameter = mu2\nvalues = 1.0\n{key} = 1\n")
        assert run_cli("--out-dir", tmp_path, "mi-scan", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown key") and repr(key) in err


def overshoot_config(**overrides):
    """Lattice device with a small experiment, ``overrides`` applied.

    ``trials``, ``seed`` and ``window`` go to [experiment], every other key
    to [overshoot], which comes last.
    """
    settings = {"trials": "2000", "window": "200", "seed": "5", **overrides}
    sections = {"experiment": [], "overshoot": []}
    for key, value in settings.items():
        name = "experiment" if key in ("trials", "seed", "window") else "overshoot"
        sections[name].append(f"{key} = {value}\n")
    return "[model]\nkind = lattice\np = 0.8\nm1 = 2\nm2 = 2\n" + "".join(
        f"\n[{name}]\n" + "".join(lines) for name, lines in sections.items()
    )


class TestOvershootCommand:
    def test_lattice_profile_and_manifest(self, tmp_path):
        cfg = tmp_path / "over.ini"
        cfg.write_text(overshoot_config())
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "overshoot", cfg) == 0
        rows = (out / "overshoot.csv").read_text().splitlines()
        assert len(rows) > 1
        manifest = json.loads((out / "manifest_overshoot.json").read_text())
        assert manifest["command"] == "overshoot"
        assert manifest["seed"] == 5

    @pytest.mark.parametrize(
        "key,bad", [("trials", "abc"), ("mass_threshold", "high"), ("window", "2.5"), ("seed", "x")]
    )
    def test_bad_value_names_key(self, tmp_path, capsys, key, bad):
        cfg = tmp_path / "over.ini"
        cfg.write_text(overshoot_config(**{key: bad}))
        assert run_cli("--out-dir", tmp_path, "overshoot", cfg) == 2
        assert key in capsys.readouterr().err

    def test_missing_thresholds_named(self, tmp_path, capsys):
        cfg = tmp_path / "over.ini"
        cfg.write_text(
            BASE_CONFIG.replace("l1 = 4.0\nl2 = -2.0\n", "") + "[overshoot]\nmass_threshold = 0.9\n"
        )
        assert run_cli("--out-dir", tmp_path, "overshoot", cfg) == 2
        assert "l1/l2" in capsys.readouterr().err

    def test_zero_threads_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "over.ini"
        cfg.write_text(overshoot_config())
        assert run_cli("--out-dir", tmp_path, "--threads", 0, "overshoot", cfg) == 2
        assert "threads" in capsys.readouterr().err

    def test_drift_diffusion_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "over.ini"
        cfg.write_text(
            "[experiment]\ntrials = 10\nseed = 1\n\n"
            "[model]\nkind = drift_diffusion\nmu1 = 0\nmu2 = 1\nsigma = 5\n\n"
            "[device]\nl1 = 4\nl2 = -4\ndt = 0.5\n\n[overshoot]\n"
        )
        assert run_cli("--out-dir", tmp_path, "overshoot", cfg) == 2
        assert "discrete models only" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["trials", "seed", "max_steps"])
    def test_experiment_key_under_overshoot_is_named(self, tmp_path, capsys, key):
        # trials, seed and window are read from [experiment] only
        cfg = tmp_path / "over.ini"
        cfg.write_text(overshoot_config() + f"{key} = 10\n")
        assert run_cli("--out-dir", tmp_path, "overshoot", cfg) == 2
        assert capsys.readouterr().err == (
            f"config error: unknown key(s) ['{key}'] in section [overshoot]\n"
        )

    def test_missing_experiment_section_named(self, tmp_path, capsys):
        cfg = tmp_path / "over.ini"
        cfg.write_text("[model]\nkind = lattice\np = 0.8\nm1 = 2\nm2 = 2\n\n[overshoot]\n")
        assert run_cli("--out-dir", tmp_path, "overshoot", cfg) == 2
        assert capsys.readouterr().err == "config error: missing [experiment] section\n"

    def test_tilted_rejects_a_belief_override(self, tmp_path, config_path, capsys):
        config_path.write_text(
            BASE_CONFIG.replace("l1 = 4.0", "sigma2 = 6.0\nl1 = 4.0")
            + "\n[overshoot]\nestimator = tilted\n"
        )
        assert run_cli("--out-dir", tmp_path, "overshoot", config_path) == 2
        assert capsys.readouterr().err == (
            "config error: the tilted estimator needs a matched device; "
            "remove belief overrides or use the direct estimator\n"
        )
        assert not (tmp_path / "overshoot.csv").exists()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("estimator", ["direct", "tilted"])
    def test_csv_is_the_library_profile(self, tmp_path, config_path, estimator, threads):
        config_path.write_text(BASE_CONFIG + f"\n[overshoot]\nestimator = {estimator}\n")
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "--threads", threads, "overshoot", config_path) == 0
        exp = ExperimentConfig(
            GaussianIIDModel(mu1=0.0, mu2=1.0, sigma1=5.0, sigma2=10.0),
            Thresholds(4.0, -2.0), trials=8000, seed=314, window=300,
        )
        series = overshoot_profile(exp, estimator=estimator)
        rows = zip(*(getattr(series, f).tolist() for f in ("k", "value", "count", "pmf")))
        assert (out / "overshoot.csv").read_text().splitlines()[1:] == [
            ",".join(map(str, row)) for row in rows
        ]


class TestAnalyticCommand:
    def test_error_probs_hand_value(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "analytic", "--quantity", "error-probs",
            "--a1", "0.02", "--a2", "-0.02", "--b", "0.02", "--l1", "4", "--l2", "-4",
        )
        assert code == 0
        line = (out / "analytic_error_probs.csv").read_text().splitlines()[1]
        a1 = float(line.split(",")[0])
        assert a1 == pytest.approx(0.017986209962091558, abs=1e-9)

    def test_error_probs_at_zero_drift(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "analytic", "--quantity", "error-probs",
            "--a1", "0.02", "--a2", "0", "--b", "0.02", "--l1", "4", "--l2", "-2",
        )
        assert code == 0
        line = (out / "analytic_error_probs.csv").read_text().splitlines()[1]
        assert line == "0.3333333333333333,0.1331866678026651"

    def test_mi_continuous_symmetric_zero(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "analytic", "--quantity", "mi-continuous",
            "--a1", "0.02", "--a2", "-0.02", "--b", "0.02", "--l1", "4",
        )
        assert code == 0
        line = (out / "analytic_mi_continuous.csv").read_text().splitlines()[1]
        assert float(line.split(",")[1]) == 0.0

    def test_mi_continuous_underflowing_alpha1(self, tmp_path):
        # alpha1 = exp(a2 l1 / b) = exp(-1000) underflows to 0
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "analytic", "--quantity", "mi-continuous",
            "--a1", "0.03", "--a2=-0.01", "--b", "0.02", "--l1", "2000",
        )
        assert code == 0
        line = (out / "analytic_mi_continuous.csv").read_text().splitlines()[1]
        assert line == "2000.0,0.0"

    def test_mi_discretized_non_increasing(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "analytic", "--quantity", "mi-discretized",
            "--a1", "0.013028", "--a2", "-0.0390857", "--b", "0.033947", "--l1", "4",
            "--grid", "10,20,40,80,160",
        )
        assert code == 0
        lines = (out / "analytic_mi_discretized.csv").read_text().splitlines()[1:]
        assert [float(l.split(",")[0]) for l in lines] == [10.0, 20.0, 40.0, 80.0, 160.0]
        vals = [float(l.split(",")[1]) for l in lines]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_regime_violation_exit_code(self, tmp_path, capsys):
        code = run_cli(
            "--out-dir", tmp_path, "analytic", "--quantity", "mean-times",
            "--a1", "0.02", "--a2", "-0.02", "--b", "0.02", "--l1", "4", "--l2", "-0.01",
        )
        assert code == 4
        assert "regime" in capsys.readouterr().err

    @pytest.mark.parametrize("quantity", ["mi-continuous", "mi-discretized"])
    @pytest.mark.parametrize("option,bad", [
        ("--a1", "nan"), ("--a1", "inf"), ("--l1", "nan"), ("--l1", "inf"),
    ])
    def test_non_finite_parameter_rejected(self, tmp_path, capsys, quantity, option, bad):
        values = {"--a1": "0.02", "--a2": "-0.01", "--b": "0.02", "--l1": "4", option: bad}
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "analytic", "--quantity", quantity, "--grid", "10,20",
            *[item for pair in values.items() for item in pair],
        )
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / f"analytic_{quantity.replace('-', '_')}.csv").exists()

    @pytest.mark.parametrize("quantity,a1", [
        ("mi-continuous", "1e-300"), ("mi-discretized", "1e-300"), ("mi-discretized", "1e-100"),
    ])
    def test_tiny_drift_rejected(self, tmp_path, capsys, quantity, a1):
        out = tmp_path / "out"
        with time_limit(30):
            code = run_cli(
                "--out-dir", out, "analytic", "--quantity", quantity, "--grid", "10,20",
                "--a1", a1, "--a2=-0.01", "--b", "0.02", "--l1", "4",
            )
        assert code == 2
        assert f"a1 = {a1}" in capsys.readouterr().err.replace("|", "")
        assert not (out / f"analytic_{quantity.replace('-', '_')}.csv").exists()

    @pytest.mark.parametrize("quantity", ["error-probs", "mean-times", "density"])
    def test_missing_l2_names_option(self, tmp_path, capsys, quantity):
        code = run_cli(
            "--out-dir", tmp_path, "analytic", "--quantity", quantity,
            "--a1", "0.02", "--a2", "-0.02", "--b", "0.02", "--l1", "4",
        )
        assert code == 2
        assert "--l2" in capsys.readouterr().err

    @pytest.mark.parametrize("quantity,grid", [("mi-discretized", "nan,10"), ("density", "10,nan")])
    def test_non_finite_grid_rejected(self, tmp_path, capsys, quantity, grid):
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "analytic", "--quantity", quantity,
            "--a1", "0.02", "--a2", "-0.02", "--b", "0.02", "--l1", "4", "--l2", "-4",
            "--grid", grid,
        )
        assert code == 2
        assert grid in capsys.readouterr().err
        assert not (out / f"analytic_{quantity.replace('-', '_')}.csv").exists()

    @pytest.mark.parametrize("quantity", ["mi-discretized", "density"])
    def test_empty_grid_rejected(self, tmp_path, capsys, quantity):
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "analytic", "--quantity", quantity,
            "--a1", "0.02", "--a2", "-0.02", "--b", "0.02", "--l1", "4", "--l2", "-4",
            "--grid", "1:10:0",
        )
        assert code == 2
        assert "1:10:0" in capsys.readouterr().err
        assert not (out / f"analytic_{quantity.replace('-', '_')}.csv").exists()

    def test_density_table(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "analytic", "--quantity", "density",
            "--a1", "0.02", "--a2", "-0.02", "--b", "0.02", "--l1", "4", "--l2", "-4",
            "--grid", "50:400:8",
        )
        assert code == 0
        lines = (out / "analytic_density.csv").read_text().splitlines()
        assert lines[0] == "t,d,h,density"
        assert len(lines) == 1 + 4 * 8  # both decisions x both hypotheses
        assert all(float(l.split(",")[3]) >= 0 for l in lines[1:])


# each subcommand's usage line as argparse prints it, whitespace collapsed
USAGE = {
    "simulate": "[-h] config",
    "test": "[-h] [--mode {known-h,unknown-h}] [--time-type {steps,seconds}] records",
    "mi-scan": "[-h] config",
    "overshoot": "[-h] config",
    "analytic": "[-h] --quantity {error-probs,density,mean-times,mi-continuous,mi-discretized}"
                " --a1 A1 --a2 A2 --b B --l1 L1 [--l2 L2] [--grid GRID]",
    "oracle": "[-h] --p P --m1 M1 --m2 M2 [--k-max K_MAX]",
    "reproduce": "[-h] [--scale SCALE] {fig2,fig3,fig4,fig5,fig6,fig7,fig8}",
}


def required_options(capsys, command):
    """The options argparse names as missing when ``command`` is given none."""
    with pytest.raises(SystemExit) as exit_:
        main([command])
    assert exit_.value.code == 2
    return capsys.readouterr().err.split("arguments are required: ")[1].strip().split(", ")


@dataclass(frozen=True)
class WiderParams:
    a1: float
    a2: float
    b: float
    c: float


class TestOptionsFromDataclasses:
    @pytest.mark.parametrize("command", sorted(USAGE))
    def test_help_lists_the_same_options(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert " ".join(usage.split()) == f"usage: seqaudit {command} {USAGE[command]}"

    def test_oracle_requires_the_lattice_fields(self, capsys, monkeypatch):
        assert required_options(capsys, "oracle") == [
            f"--{f.name}" for f in fields(LatticeBernoulliModel)
        ]
        monkeypatch.setitem(MODEL_FIELDS, "lattice", {**MODEL_FIELDS["lattice"], "q": float})
        assert required_options(capsys, "oracle") == ["--p", "--m1", "--m2", "--q"]

    def test_analytic_requires_the_drift_diffusion_fields(self, capsys, monkeypatch):
        names = [f"--{f.name}" for f in fields(ContinuousLLRParams)]
        assert required_options(capsys, "analytic") == ["--quantity", *names, "--l1"]
        monkeypatch.setattr(cli, "ContinuousLLRParams", WiderParams)
        assert required_options(capsys, "analytic") == [
            "--quantity", "--a1", "--a2", "--b", "--c", "--l1"
        ]


class TestOracleCommand:
    def test_exact_law_csv(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "oracle", "--p", "0.8", "--m1", "2", "--m2", "2") == 0
        lines = (out / "exact_law.csv").read_text().splitlines()
        assert lines[0] == "k,d,h,probability"
        first = lines[1].split(",")
        assert first[:3] == ["2", "1", "1"]
        assert float(first[3]) == pytest.approx(0.64, abs=1e-12)


class TestReproduceCommand:
    def test_unknown_figure_lists_valid_ids(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "fig99"])
        assert exc.value.code == 2
        assert "fig2" in capsys.readouterr().err

    def test_fig5_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("--out-dir", out, "--seed", "7", "reproduce", "fig5", "--scale", "0.01")
        assert code == 0
        assert (out / "fig5_pmf.csv").exists()
        assert (out / "plot_fig5.py").exists()
        manifest = json.loads((out / "manifest_reproduce_fig5.json").read_text())
        assert manifest["figure"] == "fig5"

    def test_fig8_mi_columns_ordered(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("--out-dir", out, "reproduce", "fig8", "--scale", "0.02")
        assert code == 0
        rows = (out / "fig8a_mi.csv").read_text().splitlines()[1:]
        for row in rows:
            vals = [float(v) for v in row.split(",")]
            # coarser resolution discards more information
            assert vals[2] <= vals[1] + 1e-12  # t_r = mean time vs continuous
            assert vals[3] <= vals[1] + 1e-12

    def test_fig2_panel_pmfs_normalize(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("--out-dir", out, "--seed", "3", "reproduce", "fig2", "--scale", "0.03")
        assert code == 0
        for panel in "ab":
            rows = (out / f"fig2{panel}_pmf.csv").read_text().splitlines()[1:]
            cols = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
            assert np.allclose(cols.sum(axis=0), 1.0, atol=1e-9)
        alphas = (out / "fig2a_alphas.csv").read_text().splitlines()[1].split(",")
        assert float(alphas[0]) == pytest.approx(0.0133, abs=0.01)

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_bad_scale_rejected(self, tmp_path, capsys, scale):
        assert run_cli("--out-dir", tmp_path, "reproduce", "fig5", "--scale", scale) == 2
        assert "scale" in capsys.readouterr().err
        assert not (tmp_path / "fig5_pmf.csv").exists()

    def test_run_figure_rejects_bad_scale(self, tmp_path):
        with pytest.raises(ValidationError, match="scale"):
            reproduce.run_figure("fig5", tmp_path, scale=0.0)

    def test_manifest_records_default_scale(self, tmp_path, monkeypatch):
        monkeypatch.setitem(reproduce.FIGURES, "fig5", reproduce.FIGURES["fig5"]._replace(scale=0.01))
        assert run_cli("--out-dir", tmp_path, "reproduce", "fig5") == 0
        manifest = json.loads((tmp_path / "manifest_reproduce_fig5.json").read_text())
        assert manifest["scale"] == 0.01


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["simulate", "overshoot", "fig5", "fig8"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        exp = tmp_path / "exp.ini"
        exp.write_text(BASE_CONFIG.replace("seed = 314", "seed = -5"))
        over = tmp_path / "over.ini"
        over.write_text(overshoot_config())
        argv = {
            "simulate": ["simulate", exp],
            "overshoot": ["--seed", "-1", "overshoot", over],
            "fig5": ["--seed", "-1", "reproduce", "fig5", "--scale", "0.01"],
            "fig8": ["--seed", "-1", "reproduce", "fig8", "--scale", "0.01"],
        }[command]
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, *argv) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))


def small_run(command, tmp_path):
    """Arguments that run ``command`` at small scale; `test` reads simulated records."""
    exp = tmp_path / "exp.ini"
    exp.write_text(BASE_CONFIG + "\n[scan]\nparameter = mu2\nvalues = 1.0\n")
    over = tmp_path / "over.ini"
    over.write_text(overshoot_config())
    if command == "test":
        assert run_cli("--out-dir", tmp_path / "rec", "simulate", exp) == 0
    return {
        "simulate": ["simulate", exp],
        "test": ["test", tmp_path / "rec" / "records.csv"],
        "mi-scan": ["mi-scan", exp],
        "overshoot": ["overshoot", over],
        "analytic": ["analytic", "--quantity", "mean-times", "--a1", "0.02", "--a2", "-0.02",
                     "--b", "0.02", "--l1", "4", "--l2", "-4"],
        "oracle": ["oracle", "--p", "0.8", "--m1", "2", "--m2", "2"],
        "reproduce": ["reproduce", "fig5", "--scale", "0.01"],
    }[command]


def _runner_calls(tree: ast.AST):
    """(command, call) for each manifest write, mkdir or clock read inside a ``cmd_*``."""
    return [
        (func.name, ast.unparse(call.func))
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_")
        for call in ast.walk(func)
        if isinstance(call, ast.Call)
        and (
            ast.unparse(call.func) in ("write_manifest", "time.time")
            or getattr(call.func, "attr", None) == "mkdir"
        )
    ]


class TestOneRunner:
    @pytest.mark.parametrize(
        "command", ["simulate", "test", "mi-scan", "overshoot", "analytic", "oracle", "reproduce"]
    )
    def test_every_command_writes_its_manifest(self, tmp_path, command):
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, *small_run(command, tmp_path)) == 0
        name = "reproduce-fig5" if command == "reproduce" else command
        manifest = json.loads((out / f"manifest_{name.replace('-', '_')}.json").read_text())
        assert manifest["command"] == name
        assert manifest["outputs"]
        assert all(Path(p).parent == out and Path(p).exists() for p in manifest["outputs"])

    def test_only_main_writes_manifests_makes_dirs_or_reads_the_clock(self):
        assert _runner_calls(ast.parse(Path(cli.__file__).read_text())) == []

    def test_guard_sees_each_call(self):
        tree = ast.parse(
            "def cmd_x(args, out_dir):\n    t0 = time.time()\n    out_dir.mkdir()\n"
            "    write_manifest(out_dir, 'x', {}, [], t0)\n"
        )
        assert [call for _, call in _runner_calls(tree)] == [
            "time.time", "out_dir.mkdir", "write_manifest"
        ]


def _package_imports(path: Path):
    """The seqaudit modules that the module at ``path`` imports, in any spelling."""
    local = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "seqaudit"):
            module = (node.module or "").removeprefix("seqaudit").lstrip(".")
            local |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            local |= {alias.name.removeprefix("seqaudit.") for alias in node.names
                      if alias.name.split(".")[0] == "seqaudit"}
    return local


LIBRARY = {"core", "models", "stats", "simulate", "oracle", "analytic", "overshoot"}
# each package module -> the package modules it may import
LAYERS = {
    "core": set(),
    "models": {"core"},
    "stats": {"core"},
    "simulate": {"core", "models"},
    "oracle": {"core", "models"},
    "analytic": {"core", "models", "stats"},
    "overshoot": {"core", "simulate"},
    "__init__": LIBRARY,
    "cli": LIBRARY | {"__version__", "reproduce"},
    # reproduce takes the belief scan from cli; the edge goes once the scan
    # moves into the library (ROADMAP item 4)
    "reproduce": LIBRARY | {"cli"},
}


def _layer_breaches(package: Path):
    """(module, imported module) for each import in ``package`` that ``LAYERS`` does not allow."""
    return sorted(
        (path.stem, module)
        for path in package.glob("*.py")
        for module in _package_imports(path) - LAYERS.get(path.stem, set())
    )


def _private_stats_imports(package: Path):
    """(module, name) for each ``_``-prefixed name that a module other than ``stats`` imports
    from ``stats``."""
    return sorted(
        (path.stem, alias.name)
        for path in package.glob("*.py") if path.stem != "stats"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.split(".")[0] == "seqaudit")
        and (node.module or "").removeprefix("seqaudit").lstrip(".") == "stats"
        for alias in node.names if alias.name.startswith("_")
    )


class TestImportRule:
    def test_no_module_imports_a_private_stats_name(self):
        assert _private_stats_imports(Path(cli.__file__).parent) == []

    def test_private_rule_sees_each_spelling(self, tmp_path):
        others = sorted(set(LAYERS) - {"stats"})
        spellings = ["from .stats import chain_rule, _x", "from seqaudit.stats import _x"]
        for i, name in enumerate(others):
            (tmp_path / f"{name}.py").write_text(f"import numpy\n{spellings[i % 2]}\n")
        (tmp_path / "stats.py").write_text("from .stats import _x\nfrom .core import _y\n")
        assert _private_stats_imports(tmp_path) == [(name, "_x") for name in others]

    def test_only_reproduce_imports_the_cli(self):
        assert {module for module, allowed in LAYERS.items() if "cli" in allowed} == {"reproduce"}

    def test_each_module_imports_only_its_layers(self):
        package = Path(cli.__file__).parent
        assert {path.stem for path in package.glob("*.py")} == set(LAYERS)
        assert _layer_breaches(package) == []

    def test_rule_sees_each_spelling(self, tmp_path):
        for name, line in [
            ("core", "from .cli import main"), ("models", "from . import cli"),
            ("stats", "from seqaudit.cli import main"), ("simulate", "from seqaudit import cli"),
            ("oracle", "import seqaudit.cli"), ("overshoot", "from .core import STEPS"),
            ("reproduce", "from .cli import mi_scan_rows"),
        ]:
            (tmp_path / f"{name}.py").write_text(f"import numpy\n{line}\n")
        (tmp_path / "analytic.py").write_text(
            "from .core import STEPS\nfrom . import models\nfrom seqaudit.stats import LN2\n"
            "from seqaudit.oracle import diffusion_law\nimport seqaudit.simulate\n"
            "from scipy.special import ndtr\n"
        )
        assert _layer_breaches(tmp_path) == [
            ("analytic", "oracle"), ("analytic", "simulate"), ("core", "cli"), ("models", "cli"),
            ("oracle", "cli"), ("simulate", "cli"), ("stats", "cli"),
        ]

