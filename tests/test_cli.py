import json
import math
from pathlib import Path

import numpy as np
import pytest

from seqaudit.cli import main

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

    def test_negative_points_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "scan.ini"
        cfg.write_text(
            BASE_CONFIG + "\n[scan]\nparameter = mu2\nstart = 0.5\nstop = 1.5\npoints = -1\n"
        )
        assert run_cli("--out-dir", tmp_path, "mi-scan", cfg) == 2
        assert "points" in capsys.readouterr().err


def overshoot_config(**overrides):
    """Lattice device with small [overshoot] settings, ``overrides`` applied."""
    settings = {"trials": "2000", "max_steps": "200", "seed": "5", **overrides}
    return "[model]\nkind = lattice\np = 0.8\nm1 = 2\nm2 = 2\n\n[overshoot]\n" + "".join(
        f"{key} = {value}\n" for key, value in settings.items()
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
        "key,bad", [("trials", "abc"), ("mass_threshold", "high"), ("max_steps", "2.5"), ("seed", "x")]
    )
    def test_bad_value_names_key(self, tmp_path, capsys, key, bad):
        cfg = tmp_path / "over.ini"
        cfg.write_text(overshoot_config(**{key: bad}))
        assert run_cli("--out-dir", tmp_path, "overshoot", cfg) == 2
        assert key in capsys.readouterr().err

    def test_missing_thresholds_named(self, tmp_path, capsys):
        cfg = tmp_path / "over.ini"
        cfg.write_text(BASE_CONFIG.replace("l1 = 4.0\nl2 = -2.0\n", "") + "[overshoot]\ntrials = 10\n")
        assert run_cli("--out-dir", tmp_path, "overshoot", cfg) == 2
        assert "l1/l2" in capsys.readouterr().err


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

    def test_mi_continuous_symmetric_zero(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "--out-dir", out, "analytic", "--quantity", "mi-continuous",
            "--a1", "0.02", "--a2", "-0.02", "--b", "0.02", "--l1", "4",
        )
        assert code == 0
        line = (out / "analytic_mi_continuous.csv").read_text().splitlines()[1]
        assert float(line.split(",")[1]) == 0.0

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

    @pytest.mark.parametrize("quantity", ["error-probs", "mean-times", "density"])
    def test_missing_l2_names_option(self, tmp_path, capsys, quantity):
        code = run_cli(
            "--out-dir", tmp_path, "analytic", "--quantity", quantity,
            "--a1", "0.02", "--a2", "-0.02", "--b", "0.02", "--l1", "4",
        )
        assert code == 2
        assert "--l2" in capsys.readouterr().err

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
