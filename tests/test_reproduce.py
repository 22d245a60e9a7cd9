"""Each figure's plot script compiles and names only CSVs and columns it wrote.

matplotlib is not a dependency, so the scripts are compiled, their panel
table read and their code run against a stub ``pyplot``, not rendered.
"""
import ast
import csv
import sys
import types

import pytest

from seqaudit import reproduce


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
