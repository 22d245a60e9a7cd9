import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import seqaudit
from seqaudit.core import (
    CSV_HEADER,
    ErrorSpec,
    RecordBatch,
    SchemaError,
    Thresholds,
    ValidationError,
    read_records_csv,
    thresholds_from_alphas,
    write_records_csv,
    write_table,
)


class TestThresholdsFromAlphas:
    def test_symmetric_one_percent(self):
        th = thresholds_from_alphas(ErrorSpec(0.01, 0.01))
        # ln(0.99/0.01) evaluated at high precision
        assert th.l1 == pytest.approx(4.59511985013459, abs=1e-10)
        assert th.l2 == pytest.approx(-4.59511985013459, abs=1e-10)

    def test_fig2a_empirical_alphas(self):
        th = thresholds_from_alphas(ErrorSpec(0.041, 0.0133))
        assert th.l1 == pytest.approx(3.18079397515881, abs=1e-10)
        assert th.l2 == pytest.approx(-4.27812703965573, abs=1e-10)

    @given(st.floats(0.001, 0.499))
    def test_equal_alphas_give_symmetric_thresholds(self, a):
        th = thresholds_from_alphas(ErrorSpec(a, a))
        assert th.l1 == pytest.approx(-th.l2, rel=1e-12)

    @given(
        st.floats(0.001, 0.4),
        st.floats(0.001, 0.4),
        st.floats(0.0001, 0.0009),
    )
    def test_strict_monotonicity(self, a1, a2, eps):
        base = thresholds_from_alphas(ErrorSpec(a1, a2))
        tighter1 = thresholds_from_alphas(ErrorSpec(a1 - eps, a2))
        tighter2 = thresholds_from_alphas(ErrorSpec(a1, a2 - eps))
        assert tighter1.l1 > base.l1
        assert tighter2.l2 < base.l2

    @pytest.mark.parametrize("a1,a2", [(0.0, 0.1), (0.5, 0.1), (0.1, -0.2), (0.1, 0.6)])
    def test_rejects_out_of_range(self, a1, a2):
        with pytest.raises(ValidationError):
            ErrorSpec(a1, a2)


class TestThresholds:
    def test_sign_invariants(self):
        with pytest.raises(ValidationError):
            Thresholds(l1=-1.0, l2=-1.0)
        with pytest.raises(ValidationError):
            Thresholds(l1=1.0, l2=0.0)


def cell_times(rows):
    """The four (hypothesis, decision) cells of ``RecordBatch.cell_times``.

    ``rows`` are (hypothesis, decision, time) triples, built into columns.
    """
    batch = RecordBatch(
        hypothesis=np.array([h for h, _, _ in rows], dtype=np.int8),
        decision=np.array([d for _, d, _ in rows], dtype=np.int8),
        time=np.array([t for _, _, t in rows], dtype=np.float64),
    )
    return {(h, d): batch.cell_times(h, d) for h in (1, 2) for d in (1, 2)}


class TestPartitionRecords:
    """The records split into their four (hypothesis, decision) cells."""

    def test_empty_input(self):
        cells = cell_times([])
        assert sum(t.size for t in cells.values()) == 0

    def test_single_record(self):
        cells = cell_times([(1, 2, 5.0)])
        assert list(cells[1, 2]) == [5.0]
        assert cells[1, 1].size == 0 and cells[2, 1].size == 0 and cells[2, 2].size == 0

    def test_cardinality_conservation(self):
        rows = [(1, 1, 1.0), (1, 2, 2.0), (2, 1, 3.0), (2, 2, 4.0), (2, 2, 4.0), (1, 1, 1.0)]
        cells = cell_times(rows)
        assert sum(t.size for t in cells.values()) == 6

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([1, 2]),
                st.sampled_from([1, 2]),
                st.floats(0, 1e6, allow_nan=False),
            ),
            max_size=50,
        )
    )
    def test_round_trip_multiset(self, rows):
        cells = cell_times(rows)
        rebuilt = []
        for h in (1, 2):
            for d in (1, 2):
                rebuilt.extend((h, d, t) for t in cells[h, d])
        assert sorted(rebuilt) == sorted((h, d, t) for h, d, t in rows)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        batch = RecordBatch(
            hypothesis=np.array([1, 2, 1]),
            decision=np.array([1, 1, 2]),
            time=np.array([3.0, 7.0, 2.0]),
            terminal_llr=np.array([4.1, np.nan, -2.2]),
            time_kind="steps",
        )
        path = tmp_path / "records.csv"
        write_records_csv(path, batch)
        back = read_records_csv(path)
        assert back.time_kind == "steps"
        assert np.array_equal(back.hypothesis, batch.hypothesis)
        assert np.array_equal(back.decision, batch.decision)
        assert np.array_equal(back.time, batch.time)
        assert np.isnan(back.terminal_llr[1])
        assert back.terminal_llr[0] == 4.1

    def test_infers_seconds_for_fractional_times(self, tmp_path):
        batch = RecordBatch(
            hypothesis=np.array([1]),
            decision=np.array([2]),
            time=np.array([3.25]),
            time_kind="seconds",
        )
        path = tmp_path / "records.csv"
        write_records_csv(path, batch)
        assert read_records_csv(path).time_kind == "seconds"

    def test_fractional_time_under_explicit_steps_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("hypothesis,decision,time,terminal_llr\n1,1,3,\n2,1,4.5,\n")
        with pytest.raises(SchemaError, match="record 2: time 4.5 is not a whole number"):
            read_records_csv(path, time_kind="steps")
        assert read_records_csv(path).time_kind == "seconds"
        assert read_records_csv(path, time_kind="seconds").time[1] == 4.5

    def test_header_only_file_reads_as_empty_batch(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("hypothesis,decision,time,terminal_llr\n")
        back = read_records_csv(path)
        assert len(back) == 0 and back.time_kind == "steps"
        assert back.hypothesis.dtype == np.int8 and back.time.dtype == np.float64

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("h,d,t,s\n1,1,1,\n")
        with pytest.raises(SchemaError):
            read_records_csv(path)

    def test_bad_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("hypothesis,decision,time,terminal_llr\n3,1,1.0,\n")
        with pytest.raises(SchemaError):
            read_records_csv(path)
        path.write_text("hypothesis,decision,time,terminal_llr\n1,1,-1.0,\n")
        with pytest.raises(SchemaError):
            read_records_csv(path)

    def test_negative_time_rejected_in_record(self):
        with pytest.raises(ValidationError):
            RecordBatch(hypothesis=np.array([1]), decision=np.array([1]), time=np.array([-0.5]))


def reference_write_records_csv(path, batch: RecordBatch) -> None:
    """The per-row writer the columnar ``write_records_csv`` must match."""
    with open(path, "w", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        for h, d, t, s in zip(batch.hypothesis, batch.decision, batch.time, batch.terminal_llr):
            time = str(int(t)) if batch.time_kind == "steps" else repr(float(t))
            tail = "" if np.isnan(s) else repr(float(s))
            f.write(f"{h},{d},{time},{tail}\n")


LLRS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-310]),
    st.floats(allow_nan=False),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-9.9, 9.9), st.integers(-300, 300)),
)


@st.composite
def record_batches(draw):
    kind = draw(st.sampled_from(["steps", "seconds"]))
    times = st.integers(0, 2**53).map(float) if kind == "steps" else st.floats(0.0, 1e300)
    label = st.sampled_from([1, 2])
    rows = draw(st.lists(st.tuples(label, label, times, LLRS), max_size=40))
    h, d, t, s = (list(col) for col in zip(*rows)) if rows else ([], [], [], [])
    return RecordBatch(np.array(h), np.array(d), np.array(t), np.array(s), time_kind=kind)


class TestWriteTable:
    @given(record_batches())
    @example(RecordBatch(np.array([]), np.array([]), np.array([]), time_kind="steps"))
    @example(RecordBatch(np.array([]), np.array([]), np.array([]), time_kind="seconds"))
    def test_records_bytes_match_row_writer(self, tmp_path_factory, batch):
        out = tmp_path_factory.mktemp("records")
        write_records_csv(out / "new.csv", batch)
        reference_write_records_csv(out / "ref.csv", batch)
        assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()

    def test_mixed_row_matches_repr_formatting(self, tmp_path):
        rows = [("d1_cells", 7, 0.1 + 0.2), ("x", -3, 1e16), ("y", 0, 1.5e-7), ("z", 2, -0.0)]
        path = write_table(tmp_path / "t.csv", "name,n,value", rows)
        expected = "name,n,value\n" + "".join(f"{a},{b},{c!r}\n" for a, b, c in rows)
        assert path == str(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()


# the functions allowed to open a file for writing: one per output format
WRITERS = {
    ("core", "write_table"),
    ("cli", "write_manifest"),
    ("simulate", "write_metadata"),
    ("reproduce", "_plot_script"),
}


def _write_opens(tree: ast.AST):
    """Names of the functions holding an ``open(..., "w")``, ``.write_text`` or
    ``.write_bytes`` call, one per call."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(isinstance(m, ast.Constant) and "w" in str(m.value) for m in modes):
                found.append(func)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
            "write_text", "write_bytes"
        ):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


class TestOneWriter:
    def test_only_the_table_writer_opens_csv_files(self):
        src = Path(seqaudit.__file__).parent
        stray = [
            (path.stem, func)
            for path in sorted(src.glob("*.py"))
            for func in _write_opens(ast.parse(path.read_text()))
            if (path.stem, func) not in WRITERS
        ]
        assert stray == []

    def test_guard_sees_a_write_open(self):
        tree = ast.parse('def f(p):\n    with open(p, "w") as fh:\n        pass\n')
        assert _write_opens(tree) == ["f"]

    def test_guard_sees_path_writes(self):
        tree = ast.parse('def g(p):\n    p.write_text("x")\n\ndef h(p):\n    p.write_bytes(b"")\n')
        assert _write_opens(tree) == ["g", "h"]
