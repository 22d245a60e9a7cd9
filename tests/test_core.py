import ast
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import seqaudit
from seqaudit import core
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns when handed no rows
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


def line_parser_outcome(path, time_kind=None):
    """``read_records_csv`` with the bulk path switched off, or its error message."""
    with mock.patch.object(core, "_parse_bulk", lambda f, capacity: None):
        return reader_outcome(path, time_kind)


def reader_outcome(path, time_kind=None):
    """``read_records_csv``'s batch or error message; no warning may escape it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = read_records_csv(path, time_kind)
        except SchemaError as exc:
            outcome = str(exc)
    assert not caught, [str(w.message) for w in caught]
    return outcome


def assert_same_batch(a: RecordBatch, b: RecordBatch) -> None:
    assert a.time_kind == b.time_kind
    for name in ("hypothesis", "decision", "time", "terminal_llr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True), name


def label_fields(v, fallback):
    padded = [str(v), f"+{v}", f" {v}", f"{v} ", f"0{v}"]
    return st.sampled_from(padded + [f"\u00a0{v}"] * fallback)  # loadtxt takes only ASCII


def time_fields(step, fallback):
    if step:
        times = st.integers(0, 10**6).map(str) | st.just("7.0")
    else:
        times = st.floats(0.0, 1e6).map(repr) | st.sampled_from(["nan", " 2.5 "])
    return times | st.just("1_0") if fallback else times  # loadtxt rejects the underscore


LLR_FIELDS = st.one_of(
    st.sampled_from(["", "nan", "NaN", " -1.5", "inf"]), st.floats(allow_nan=False).map(repr)
)
# lines the line parser rejects, one per check it makes
BROKEN_LINES = st.sampled_from([
    "1,1,3", "1,1,3,4,5", "1.0,1,3,", "1,0,3,", "300,1,3,", "1,1,-2,", "#1,1,3,",
    "1,1,abc,", "1,x,3,", "1,1,,", "1,\x1c1,3,",
])


@st.composite
def records_files(draw, broken=False):
    """Records CSV text; ``fallback`` files hold fields only the line parser reads."""
    fallback = draw(st.booleans())
    label = st.integers(1, 2).flatmap(lambda v: label_fields(v, fallback))
    row = st.builds(lambda h, d, t, s: f"{h},{d},{t},{s}",
                    label, label, time_fields(draw(st.booleans()), fallback), LLR_FIELDS)
    blank = st.sampled_from(["", "  ", "\t"] if fallback else [""])  # loadtxt skips only ""
    lines = draw(st.lists(row | row | blank, max_size=30))
    if broken:
        lines.insert(draw(st.integers(0, len(lines))), draw(BROKEN_LINES))
    ends = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = CSV_HEADER + ends + ends.join(lines)
    if lines and draw(st.booleans()):
        text += ends
    return text


def loadtxt_casting(fname, dtype, delimiter, comments, ndmin):
    """``np.loadtxt`` as numpy 1.23 deprecated it: a label that is not an int8
    literal is parsed as a float and cast to int8, with only a DeprecationWarning."""
    rows = []
    for line in fname.read().splitlines():
        h, d, t, s = line.split(delimiter)
        labels = []
        for field in (h, d):
            try:
                v = int(field)
                assert -128 <= v < 128
            except (ValueError, AssertionError):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
                v = (int(float(field)) + 128) % 256 - 128
            labels.append(v)
        rows.append((*labels, float(t), float(s)))
    return np.array(rows, dtype=dtype)


class TestBulkReader:
    """The ``np.loadtxt`` path reads exactly what the line parser reads."""

    @given(text=records_files(), chunk=st.integers(1, 80), kind=st.sampled_from([None, "steps", "seconds"]))
    @example(text=CSV_HEADER + "\n1,2,1_0,\n2,1,3,", chunk=80, kind=None)
    @settings(max_examples=300, deadline=None)
    def test_valid_files_read_alike(self, tmp_path_factory, text, chunk, kind):
        path = tmp_path_factory.mktemp("records") / "r.csv"
        path.write_bytes(text.encode())
        expected = line_parser_outcome(path, kind)
        with mock.patch.object(core, "_CHUNK_CHARS", chunk):
            got = reader_outcome(path, kind)
        if isinstance(expected, str):  # only a fractional time under explicit steps
            assert got == expected and "whole number" in expected
        else:
            assert_same_batch(got, expected)

    @given(text=records_files(broken=True), chunk=st.integers(1, 80))
    @settings(max_examples=200, deadline=None)
    def test_broken_files_raise_the_line_parsers_error(self, tmp_path_factory, text, chunk):
        path = tmp_path_factory.mktemp("records") / "r.csv"
        path.write_bytes(text.encode())
        expected = line_parser_outcome(path)
        with mock.patch.object(core, "_CHUNK_CHARS", chunk):
            got = reader_outcome(path)
        assert isinstance(expected, str) and expected.startswith("line ")
        assert got == expected

    def test_underscored_time_reads_through_the_fallback(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(CSV_HEADER + "\n1,1,1_0,\n")
        with open(path) as f:
            f.readline()
            assert core._parse_bulk(f, 3) is None
        assert read_records_csv(path).time.tolist() == [10.0]

    @pytest.mark.parametrize("loadtxt", [np.loadtxt, loadtxt_casting], ids=["numpy", "casting"])
    @pytest.mark.parametrize("label", ["1.5", "2.0", "1e0", "257", "-255"])
    def test_float_cast_labels_fall_back(self, tmp_path, loadtxt, label):
        path = tmp_path / "r.csv"
        path.write_text(CSV_HEADER + f"\n1,1,3,\n{label},2,4,\n")
        expected = line_parser_outcome(path)
        assert expected.startswith("line 3: ")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # as by default, DeprecationWarning unseen
            with mock.patch.object(np, "loadtxt", loadtxt), pytest.raises(SchemaError) as got:
                read_records_csv(path)
        assert str(got.value) == expected

    def test_non_ascii_never_reaches_loadtxt(self, tmp_path):
        # numpy 2.4's loadtxt can crash on a high code point in an integer field;
        # a no-break space is harmless to it, and must still be declined
        path = tmp_path / "r.csv"
        path.write_text(CSV_HEADER + "\n1,1,3,\n1,\u00a01,3,\n", encoding="utf-8")
        with open(path, encoding="utf-8") as f:
            f.readline()
            assert core._parse_bulk(f, 4) is None

    @pytest.mark.parametrize("chunk", [5, 1 << 19])
    def test_plain_file_takes_the_bulk_path(self, tmp_path, chunk):
        # chunks of 5 characters end mid-line; the last LLR is empty and unterminated
        path = tmp_path / "r.csv"
        path.write_text(CSV_HEADER + "\n1,1,3,nan\n2,1,4,0.5\n\n1,2,7,")
        with open(path) as f, mock.patch.object(core, "_CHUNK_CHARS", chunk):
            f.readline()
            h, d, t, s = core._parse_bulk(f, 5)
        assert h.tolist() == [1, 2, 1] and d.tolist() == [1, 1, 2] and t.tolist() == [3, 4, 7]
        assert np.isnan(s[0]) and s[1] == 0.5 and np.isnan(s[2])

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("final", [True, False], ids=["final-end", "no-final-end"])
    def test_minimal_rows_take_the_bulk_path(self, tmp_path, end, final):
        # 1,1,0, is the shortest row: 7 bytes with a one-byte line end, 6 unterminated
        path = tmp_path / "r.csv"
        path.write_bytes((end.join([CSV_HEADER] + ["1,1,0,", "2,2,0,"] * 500) + end * final).encode())
        parse_bulk, bulk_calls = core._parse_bulk, []

        def bulk(f, capacity):
            bulk_calls.append((capacity, parse_bulk(f, capacity)))
            return bulk_calls[-1][1]

        with mock.patch.object(core, "_parse_bulk", bulk):
            got = reader_outcome(path)
        [(capacity, columns)] = bulk_calls
        assert capacity == path.stat().st_size // 7 + 1 and columns is not None
        assert len(got) == 1000
        assert_same_batch(got, line_parser_outcome(path))

    def test_file_is_opened_once(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(CSV_HEADER + "\n1,1,3,\n2,1,4,0.5\n")
        with mock.patch.object(core, "open", side_effect=open, create=True) as opened:
            read_records_csv(path)
        assert opened.call_count == 1


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


def _calls(tree: ast.AST):
    """(enclosing function name, call node) for every call in ``tree``."""

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            yield func, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    return list(visit(tree, None))


def _write_opens(tree: ast.AST):
    """Names of the functions holding an ``open(..., "w")``, ``.write_text`` or
    ``.write_bytes`` call, one per call."""
    found = []
    for func, call in _calls(tree):
        if getattr(call.func, "id", None) == "open":
            modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
            if any(isinstance(m, ast.Constant) and "w" in str(m.value) for m in modes):
                found.append(func)
        if getattr(call.func, "attr", None) in ("write_text", "write_bytes"):
            found.append(func)
    return found


KERNELS = ("_wald_discrete_block", "_wald_continuous_block")


def _kernel_calls(tree: ast.AST):
    """Names of the functions holding a device-kernel call, one per call."""
    return [
        func
        for func, call in _calls(tree)
        if getattr(call.func, "id", getattr(call.func, "attr", None)) in KERNELS
    ]


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


class TestOneKernelCaller:
    def test_only_the_block_runner_calls_a_kernel(self):
        src = Path(seqaudit.__file__).parent
        callers = {
            (path.stem, func)
            for path in sorted(src.glob("*.py"))
            for func in _kernel_calls(ast.parse(path.read_text()))
        }
        assert callers == {("simulate", "_run_block")}

    def test_guard_sees_a_kernel_call(self):
        # kernel calls outside the block runner, by name and by attribute
        tree = ast.parse(
            "def overshoot_profile(model, wm, th, h, max_steps, rng):\n"
            "    times, decisions, terminal, decided = _wald_discrete_block(\n"
            "        model, wm, th, h, max_steps, rng\n"
            "    )\n\n"
            "def g(a, b, th, rng):\n"
            "    return models._wald_continuous_block(a, b, th, 0.1, 1.0, rng)\n"
        )
        assert _kernel_calls(tree) == ["overshoot_profile", "g"]
