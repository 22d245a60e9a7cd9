"""Each figure's plot script compiles and names only CSVs and columns it wrote.

matplotlib is not a dependency, so the scripts are compiled, their panel
table read and their code run against a stub ``pyplot``, not rendered.
"""
import ast
import csv
import math
import sys
import types

import numpy as np
import pytest

from seqaudit import reproduce
from seqaudit.analytic import continuous_llr_params
from seqaudit.core import Thresholds, ValidationError
from seqaudit.oracle import diffusion_law
from seqaudit.simulate import ExperimentConfig, run_experiment
from seqaudit.stats import chain_rule, conditional_mi_plugin, native_binning


@pytest.fixture(scope="module", params=sorted(reproduce.FIGURES))
def figure_run(request, tmp_path_factory):
    """One run per figure at the floor trial counts, shared by the tests below."""
    figure = request.param
    out = tmp_path_factory.mktemp(figure)
    return figure, out, reproduce.run_figure(figure, out, scale=1e-9)


def script_panels(text: str):
    """The ``PANELS`` literal of a plot script."""
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "PANELS":
            return ast.literal_eval(node.value)
    raise AssertionError("the script assigns no PANELS")


def test_plot_script_compiles(figure_run):
    figure, out, outputs = figure_run
    path = out / f"plot_{figure}.py"
    assert str(path) in outputs
    compile(path.read_text(), str(path), "exec")


def test_panels_name_written_csvs_and_columns(figure_run):
    figure, out, outputs = figure_run
    panels = script_panels((out / f"plot_{figure}.py").read_text())
    assert panels == [tuple(p) for p in reproduce.FIGURES[figure].panels]
    for name, x, ys, group, log, xlabel in panels:
        assert str(out / name) in outputs
        with open(out / name) as f:
            header = set(next(csv.reader(f)))
        assert {x, *ys, *([group] if group else [])} <= header
        assert set(log) <= {"x", "y"} and xlabel


class StubAxes:
    """Records the lines an axes is asked to draw."""

    def __init__(self):
        self.lines = []

    def plot(self, x, y, *args, **kwargs):
        self.lines.append((list(x), list(y)))

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


def test_plot_script_draws_every_panel(figure_run, monkeypatch):
    figure, out, _ = figure_run
    axes = []

    def subplots(nrows, ncols, **kwargs):
        axes.extend(StubAxes() for _ in range(ncols))
        return None, [axes]

    pyplot = types.SimpleNamespace(subplots=subplots, tight_layout=lambda: None,
                                   savefig=lambda *args, **kwargs: None)
    monkeypatch.setitem(sys.modules, "matplotlib", types.ModuleType("matplotlib"))
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    path = out / f"plot_{figure}.py"
    exec(compile(path.read_text(), str(path), "exec"), {"__file__": str(path)})
    assert len(axes) == len(reproduce.FIGURES[figure].panels)
    for ax in axes:
        assert ax.lines and all(len(x) == len(y) > 0 for x, y in ax.lines)


@pytest.mark.parametrize("mu2_tilde", [0.0, 2.0, 2.5])
def test_fig8_device_rejects_beliefs_outside_the_open_interval(mu2_tilde):
    # 2.0 divided by zero before the check
    with pytest.raises(ValidationError, match="strictly between 0 and 2"):
        reproduce.fig8_device(mu2_tilde)


def test_fig8_grid_devices_hold_the_error_rate():
    for mu2_tilde in np.linspace(0.1, 1.9, 19):
        p = continuous_llr_params(reproduce.FIG8_OBS, reproduce.fig8_device(float(mu2_tilde)))
        assert math.exp(p.a2 * reproduce.FIG8_L1 / p.b) == pytest.approx(reproduce.FIG8_ALPHA1)


def test_fig8c_theory_is_the_exact_law_of_its_runs(tmp_path):
    path = reproduce.run_figure("fig8", tmp_path, scale=1e-9)[2]
    with open(path) as f:
        theory = {float(r["mu2_tilde"]): float(r["mi_theory"]) for r in csv.DictReader(f)}
    assert theory[1.0] == 0.0
    assert theory[0.5] == pytest.approx(0.0027855680711197, rel=1e-12)
    assert theory[1.5] == pytest.approx(0.018044065766960715, rel=1e-12)


@pytest.mark.parametrize("mu2_tilde", [0.5, 1.0, 1.5])
def test_fig8c_plugin_centres_on_the_theory(mu2_tilde):
    # the panel's estimate at n = 1e5 over 20 seeds, against its theory line
    values = []
    for seed in range(reproduce.DEFAULT_SEED, reproduce.DEFAULT_SEED + 20):
        cfg = ExperimentConfig(
            reproduce.FIG8_OBS, Thresholds(reproduce.FIG8_L1, -30.0), 100_000, seed,
            world_model=reproduce.fig8_device(mu2_tilde), dt=reproduce.FIG8_TR,
            window=2000 * reproduce.FIG8_TR,
        )
        result = run_experiment(cfg)
        assert result.truncated_count == 0
        rec = result.records
        values.append(conditional_mi_plugin(rec, native_binning(rec.time)).value_bits)
    law = diffusion_law(cfg.model, cfg.thresholds, cfg.dt, cfg.window, cfg.device)
    theory = chain_rule(law.pmf)[2]
    assert abs(np.mean(values) - theory) <= 4.0 * np.std(values, ddof=1)
