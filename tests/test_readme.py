"""The README's configuration and library examples run as written."""
import contextlib
import io
import json
import re
from pathlib import Path

from seqaudit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(lang: str) -> str:
    [block] = re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)
    return block


def test_config_example_simulates_and_scans(tmp_path):
    ini = fenced("ini")
    assert "trials = 1000000\n" in ini
    cfg = tmp_path / "experiment.ini"
    cfg.write_text(ini.replace("trials = 1000000\n", "trials = 2000\n"))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "simulate", str(cfg)]) == 0
    assert main(["--out-dir", str(out), "mi-scan", str(cfg)]) == 0
    assert len((out / "mi_scan.csv").read_text().splitlines()) == 1 + 21


def test_overshoot_runs_the_config_example_experiment(tmp_path):
    # overshoot reads [experiment] like simulate: trials, seed and window
    cfg = tmp_path / "experiment.ini"
    cfg.write_text(fenced("ini").replace("trials = 1000000\n", "trials = 2000\n"))
    for argv, seed in ([], 12345), (["--seed", "7"], 7):
        out = tmp_path / f"out{seed}"
        assert main(["--out-dir", str(out), *argv, "overshoot", str(cfg)]) == 0
        assert json.loads((out / "manifest_overshoot.json").read_text())["seed"] == seed


def test_library_example_rejects_the_mismatched_device():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(fenced("python"), "README.md", "exec"), namespace)
    assert namespace["d1_report"].p_value < 1e-6
    assert len(printed.getvalue().splitlines()) == 2
