"""The code-line counter in ``tools/code_lines.py`` and the pairs runner in
``tools/bench_pairs.py``."""
import importlib.util
import json
import shutil
import statistics
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
import math  # a comment

# a comment line


class A:
    """Class docstring."""

    x = """a string that is data,
    not a docstring"""

    def f(self):
        """Function docstring."""
        return math.pi


def g(): """one-line docstring"""; return 1
'''


def test_counts_lines_outside_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    # import, class, the data string's two lines, def, return, and g's line
    assert code_lines.code_lines(path) == 7


def test_counts_the_package(capsys):
    assert code_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].split()[1] == "total"
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])


PAIRS_TOOL = TOOL.parent / "bench_pairs.py"
pairs_spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS_TOOL)
bench_pairs = importlib.util.module_from_spec(pairs_spec)
pairs_spec.loader.exec_module(bench_pairs)


class StubRunner:
    """Stands in for ``bench/run.py``: a result line per call, and the calls in order."""

    def __init__(self, round_s):
        self.round_s = round_s  # {side: [value per pair]}
        self.calls = []

    def __call__(self, checkout, workload, seed, seconds):
        side = checkout.name
        self.calls.append((side, workload, seed, seconds))
        i = sum(1 for c in self.calls if c[:2] == (side, workload)) - 1
        values = {"setup_s": 0.2 + 0.01 * i, "round_s": self.round_s[side][i],
                  "peak_rss_mb": 100.0 + i}
        return {"correct": True, "attempted": 6, "failed": 1 if workload == "audit" else 0,
                "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def run_pairs(tmp_path, round_s, workloads=("mi-scan",), seconds=("--seconds", "10")):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir(parents=True)
    shutil.copy(TOOL.parent.parent / "BENCHMARK.json", tmp_path / "change")
    out = tmp_path / "BENCH.json"
    stub = StubRunner(round_s)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--pairs", str(len(round_s["parent"])), "--first-seed", "81", "--out", str(out),
            *seconds]
    for w in workloads:
        argv += ["--workload", w]
    assert bench_pairs.main(argv, run=stub) == 0
    return json.loads(out.read_text()), stub


def test_bench_pairs_alternates_and_summarises(tmp_path):
    parent = [0.15, 0.14, 0.16, 0.13, 0.15, 0.17, 0.14, 0.15, 0.16, 0.15]
    change = [p - 0.03 for p in parent]
    result, stub = run_pairs(tmp_path, {"parent": parent, "change": change},
                             workloads=("mi-scan", "audit"))
    # pair i runs every workload on seed 81 + i, parent first in even pairs
    assert stub.calls[:4] == [("parent", "mi-scan", 81, 10.0), ("change", "mi-scan", 81, 10.0),
                              ("parent", "audit", 81, 10.0), ("change", "audit", 81, 10.0)]
    assert stub.calls[4:6] == [("change", "mi-scan", 82, 10.0), ("parent", "mi-scan", 82, 10.0)]
    assert len(stub.calls) == 40
    entry = result["workloads"]["mi-scan"]
    assert entry["seeds"] == list(range(81, 91))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="exclusive")
    assert entry["round_s"]["parent"] == {"median": round(statistics.median(parent), 4),
                                          "q1": round(q1, 4), "q3": round(q3, 4),
                                          "runs": parent}
    assert entry["round_s"]["pairs_change_lower"] == "10/10"
    assert set(entry) == {"seeds", "setup_s", "round_s", "peak_rss_mb",
                          "failed/attempted per run", "all correct"}
    assert result["workloads"]["audit"]["failed/attempted per run"]["change"][0] == "1/6"
    claim = result["claim"]
    assert (claim["workload"], claim["metric"], claim["pairs_won"]) == ("mi-scan", "round_s", "10/10")
    assert claim["parent_iqr"] == round(q3 - q1, 4)
    assert claim["change_over_parent"] == round(claim["change_median"] / claim["parent_median"], 3)
    assert claim["met"] is True


def test_bench_pairs_claim_needs_nine_pairs_and_a_gap_above_the_iqr(tmp_path):
    parent = [0.15, 0.14, 0.16, 0.13, 0.15, 0.17, 0.14, 0.15, 0.16, 0.15]
    eight = [p - 0.03 for p in parent[:8]] + [p + 0.01 for p in parent[8:]]
    result, stub = run_pairs(tmp_path / "a", {"parent": parent, "change": eight}, seconds=())
    assert result["claim"]["pairs_won"] == "8/10" and result["claim"]["met"] is False
    assert stub.calls[0][3] == 25  # BENCHMARK.json's run_seconds
    narrow = [p - 0.005 for p in parent]  # every pair won, by less than the IQR
    result, _ = run_pairs(tmp_path / "b", {"parent": parent, "change": narrow})
    assert result["claim"]["pairs_won"] == "10/10" and result["claim"]["met"] is False
