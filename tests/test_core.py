import ast
import contextlib
import decimal
import math
import warnings
from fractions import Fraction
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

    def test_step_times_beyond_int64_round_trip(self, tmp_path):
        # an int64 cast would write both as -9223372036854775808
        time = np.array([2.0**63, 1e19])
        batch = RecordBatch(np.array([1, 2]), np.array([1, 2]), time, time_kind="steps")
        path = tmp_path / "records.csv"
        write_records_csv(path, batch)
        assert path.read_text().splitlines()[1:] == [
            "1,1,9223372036854775808,", "2,2,10000000000000000000,"
        ]
        back = read_records_csv(path)
        assert back.time_kind == "steps" and np.array_equal(back.time, time)

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

    @pytest.mark.parametrize("label", [
        257, -255, 1.9, "1",
        pytest.param(np.array([b"1", b"2"]), id="bytes"),
        pytest.param(np.array(["1", 2], dtype=object), id="object"),
        pytest.param(np.array([True, False]), id="bool"),
    ])
    @pytest.mark.parametrize("column", ["hypothesis", "decision"])
    def test_labels_checked_before_narrowing(self, column, label):
        # int8 narrowing would read 257 and -255 as 1, 1.9 as 1, and "1" as 1
        labels = {"hypothesis": np.array([1, 2]), "decision": np.array([2, 1])}
        labels[column] = label if isinstance(label, np.ndarray) else np.array([label, 2])
        with pytest.raises(ValidationError, match="must be 1 or 2"):
            RecordBatch(**labels, time=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [1.5, math.nan, math.inf])
    def test_step_time_rule_in_record(self, bad):
        # the writer would put 1.5 down as 1, and NaN as -9223372036854775808
        with pytest.raises(ValidationError, match=f"record 2: time {bad} is not a whole number"):
            RecordBatch([1, 2], [1, 1], [3.0, bad], time_kind="steps")
        with pytest.raises(ValidationError, match="record 1: time 1.5 is not a whole number"):
            RecordBatch([1], [1], [1.5], time_kind="steps")

    @pytest.mark.parametrize("llr", [[0.5], [0.5, 1.0, 2.0], []])
    def test_terminal_llr_length_checked(self, llr):
        # a short LLR column would make the writer drop the records past its end
        with pytest.raises(ValidationError, match="equal length"):
            RecordBatch([1, 2], [1, 2], [3.0, 4.0], terminal_llr=llr)

    @pytest.mark.parametrize("column", ["hypothesis", "decision", "time", "terminal_llr"])
    def test_columns_must_be_one_dimensional(self, column):
        columns = {"hypothesis": [1, 2], "decision": [2, 1], "time": [3.0, 4.0],
                   "terminal_llr": [0.5, -0.5]}
        columns[column] = np.array([columns[column]] * 2)  # shape (2, 2)
        with pytest.raises(ValidationError, match="one-dimensional"):
            RecordBatch(**columns)
        columns[column] = columns[column][0, 0]  # a scalar
        with pytest.raises(ValidationError, match="one-dimensional"):
            RecordBatch(**columns)

    def test_inf_time_infers_seconds(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(CSV_HEADER + "\n1,1,3,\n2,1,inf,\n")
        assert read_records_csv(path).time_kind == "seconds"
        with pytest.raises(SchemaError, match="record 2: time inf is not a whole number of steps"):
            read_records_csv(path, time_kind="steps")

    def test_unknown_time_kind_rejected_before_reading(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown time kind 'minutes'") as got:
            read_records_csv(tmp_path / "absent.csv", time_kind="minutes")
        assert not isinstance(got.value, SchemaError)


def line_parser_outcome(path, time_kind=None):
    """``read_records_csv`` with the byte tier switched off, or its error message."""
    with mock.patch.object(core, "_parse_bytes", lambda f: None):
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


@contextlib.contextmanager
def fallbacks():
    """The texts converted one field at a time by ``core``'s ``float``, and the
    files the line parser reads, as two lists filled while the context is open.
    The line parser's own ``float`` conversions count as fields too."""
    fields, files = [], []

    def spy(convert):
        def converted(text):
            fields.append(text)
            return convert(text)
        return converted

    parse_lines = core._parse_lines

    def lines(f):
        files.append(f)
        return parse_lines(f)

    with mock.patch.object(core, "float", spy(float), create=True), \
            mock.patch.object(core, "_parse_lines", lines):
        yield fields, files


def assert_same_batch(a: RecordBatch, b: RecordBatch) -> None:
    assert a.time_kind == b.time_kind
    for name in ("hypothesis", "decision", "time", "terminal_llr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True), name


def label_fields(v, fallback):
    padded = [str(v), f"+{v}", f" {v}", f"{v} ", f"0{v}"]
    return st.sampled_from(padded + [f"\u00a0{v}"] * fallback)  # non-ASCII: the line parser


def time_fields(step, fallback):
    if step:
        times = st.integers(0, 10**6).map(str) | st.just("7.0")
    else:
        times = st.floats(0.0, 1e6).map(repr) | st.sampled_from(["nan", " 2.5 "])
    return times | st.just("1_0") if fallback else times  # read by float() alone


LLR_FIELDS = st.one_of(
    st.sampled_from(["", "nan", "NaN", " -1.5", "inf"]), st.floats(allow_nan=False).map(repr)
)
# lines the line parser rejects, one per check it makes
BROKEN_LINES = st.sampled_from([
    "1,1,3", "1,1,3,4,5", "1.0,1,3,", "1,0,3,", "300,1,3,", "1,1,-2,", "#1,1,3,",
    "1,1,abc,", "1,x,3,", "1,1,,", "1,\x1c1,3,", "1,1,3\r,",
])


@st.composite
def records_files(draw, broken=False):
    """Records CSV text; ``fallback`` files hold fields only the line parser reads."""
    fallback = draw(st.booleans())
    label = st.integers(1, 2).flatmap(lambda v: label_fields(v, fallback))
    row = st.builds(lambda h, d, t, s: f"{h},{d},{t},{s}",
                    label, label, time_fields(draw(st.booleans()), fallback), LLR_FIELDS)
    blank = st.sampled_from(["", "  ", "\t"] if fallback else [""])  # the byte tier skips only ""
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
    """The byte tier reads exactly what the line parser reads."""

    @given(text=records_files(), chunk=st.integers(1, 80), kind=st.sampled_from([None, "steps", "seconds"]))
    @example(text=CSV_HEADER + "\n1,2,1_0,\n2,1,3,", chunk=80, kind=None)
    @settings(max_examples=300, deadline=None)
    def test_valid_files_read_alike(self, tmp_path_factory, text, chunk, kind):
        path = tmp_path_factory.mktemp("records") / "r.csv"
        path.write_bytes(text.encode())
        expected = line_parser_outcome(path, kind)
        with mock.patch.object(core, "_BLOCK_BYTES", chunk):
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
        with mock.patch.object(core, "_BLOCK_BYTES", chunk):
            got = reader_outcome(path)
        assert isinstance(expected, str) and expected.startswith("line ")
        assert got == expected

    def test_underscored_time_reads_through_the_fallback(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(CSV_HEADER + "\n1,1,1_0,\n")
        with fallbacks() as (fields, files):
            assert read_records_csv(path).time.tolist() == [10.0]
        assert fields == ["1_0"] and not files

    @pytest.mark.parametrize("loadtxt", [np.loadtxt, loadtxt_casting], ids=["numpy", "casting"])
    @pytest.mark.parametrize("label", ["1.5", "2.0", "1e0", "257", "-255"])
    def test_float_cast_labels_fall_back(self, tmp_path, loadtxt, label):
        # neither a strict nor a float-casting np.loadtxt may decide the labels
        path = tmp_path / "r.csv"
        path.write_text(CSV_HEADER + f"\n1,1,3,\n{label},2,4,\n")
        expected = line_parser_outcome(path)
        assert expected.startswith("line 3: ")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # as by default, DeprecationWarning unseen
            with mock.patch.object(np, "loadtxt", side_effect=loadtxt) as called, \
                    pytest.raises(SchemaError) as got:
                read_records_csv(path)
        assert str(got.value) == expected
        called.assert_not_called()

    def test_non_ascii_goes_to_the_line_parser(self, tmp_path):
        # int() reads a no-break space as white space; the byte tier leaves the file to it
        path = tmp_path / "r.csv"
        path.write_text(CSV_HEADER + "\n1,1,3,\n1,\u00a01,3,\n", encoding="utf-8")
        with open(path, "rb") as f:
            f.readline()
            assert core._parse_bytes(f) is None
        with fallbacks() as (fields, files):
            assert read_records_csv(path).decision.tolist() == [1, 1]
        assert len(files) == 1

    @pytest.mark.parametrize("chunk", [5, 1 << 19])
    def test_plain_file_takes_the_bulk_path(self, tmp_path, chunk):
        # blocks of 5 bytes end mid-line; the last LLR is empty and unterminated
        path = tmp_path / "r.csv"
        path.write_text(CSV_HEADER + "\n1,1,3,nan\n2,1,4,0.5\n\n1,2,7,")
        with open(path, "rb") as f, mock.patch.object(core, "_BLOCK_BYTES", chunk):
            f.readline()
            h, d, t, s = core._parse_bytes(f)
        assert h.tolist() == [1, 2, 1] and d.tolist() == [1, 1, 2] and t.tolist() == [3, 4, 7]
        assert np.isnan(s[0]) and s[1] == 0.5 and np.isnan(s[2])

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("final", [True, False], ids=["final-end", "no-final-end"])
    def test_minimal_rows_take_the_bulk_path(self, tmp_path, end, final):
        # 1,1,0, is the shortest row; a lone carriage return leaves the file to the line parser
        path = tmp_path / "r.csv"
        path.write_bytes((end.join([CSV_HEADER] + ["1,1,0,", "2,2,0,"] * 500) + end * final).encode())
        with fallbacks() as (fields, files):
            got = reader_outcome(path)
        if end == "\r":
            assert len(files) == 1
        else:
            assert not fields and not files
        assert len(got) == 1000
        assert_same_batch(got, line_parser_outcome(path))

    def test_file_is_opened_once(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(CSV_HEADER + "\n1,1,3,\n2,1,4,0.5\n")
        with mock.patch.object(core, "open", side_effect=open, create=True) as opened:
            read_records_csv(path)
        assert opened.call_count == 1


def decimals(texts):
    """``core._decimals`` on ``texts`` laid out as comma-ended fields: values and decided."""
    block = "".join(f"{t}," for t in texts).encode()
    buf = np.frombuffer(block + bytes(core._FIELD_BYTES), dtype=np.uint8)
    end = np.flatnonzero(buf == ord(","))
    start = np.concatenate(([0], end[:-1] + 1))
    return core._decimals(buf, start, end)


def assert_reads_as_float(tmp_path, texts):
    """Every text, as a terminal LLR and (unsigned) as a time, reads bit for bit as
    ``float`` reads it; returns the share the byte tier decided."""
    texts = list(texts)
    path = tmp_path / "r.csv"
    path.write_text(CSV_HEADER + "\n" + "".join(f"1,2,{t.lstrip('-')},{t}\n" for t in texts))
    with fallbacks() as (fields, files):
        batch = read_records_csv(path, "seconds")
    assert not files
    expected = np.array([float(t) for t in texts])
    assert np.array_equal(batch.terminal_llr.view(np.int64), expected.view(np.int64))
    assert np.array_equal(batch.time.view(np.int64), np.abs(expected).view(np.int64))
    value, decided = decimals(texts)
    assert np.array_equal(value[decided].view(np.int64), expected[decided].view(np.int64))
    return decided.mean() if texts else 1.0


def midpoint_texts(x: float, digits: int):
    """The midpoint between ``x`` and the next double up, rounded to ``digits``
    significant digits half-even, down and up, in positional form."""
    mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    exact = decimal.Decimal(mid.numerator) / decimal.Decimal(mid.denominator)
    texts = []
    for rounding in (decimal.ROUND_HALF_EVEN, decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
        with decimal.localcontext(prec=digits, rounding=rounding):
            texts.append(format(+exact, "f"))
    return texts


class TestDecimalDecode:
    """The byte tier's doubles are ``float``'s, bit for bit."""

    @given(st.lists(st.floats(1e-30, 1e30), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_reprs_of_doubles(self, tmp_path_factory, xs):
        tmp = tmp_path_factory.mktemp("records")
        assert_reads_as_float(tmp, map(repr, xs))
        assert_reads_as_float(tmp, (np.format_float_positional(x) for x in xs))

    @given(st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_reprs_of_wald_draws(self, tmp_path_factory, seed):
        draws = np.random.default_rng(seed).wald(20.0, 40.0, 200)
        tmp = tmp_path_factory.mktemp("records")
        assert assert_reads_as_float(tmp, map(repr, draws.tolist())) > 0.9

    @given(st.integers(0, 10**19 - 1), st.integers(1, 19), st.integers(0, 10), st.data())
    @settings(max_examples=300, deadline=None)
    def test_decimal_strings_with_every_dot_position(self, tmp_path_factory, m, digits, zeros, data):
        text = "0" * zeros + str(m % 10**digits).zfill(digits)
        texts = [text] + [f"{text[:k]}.{text[k:]}" for k in range(len(text) + 1)]
        texts += ["-" + t for t in texts]
        assert_reads_as_float(tmp_path_factory.mktemp("records"), texts)

    @given(st.floats(1e-4, 1e19), st.integers(17, 19))
    @settings(max_examples=300, deadline=None)
    def test_strings_rounded_from_midpoints(self, tmp_path_factory, x, digits):
        assert_reads_as_float(tmp_path_factory.mktemp("records"), midpoint_texts(x, digits))

    @pytest.mark.parametrize("digits", [17, 18, 19])
    def test_exact_midpoints_are_left_to_float(self, tmp_path, digits):
        # a midpoint of two doubles above 2**53 is a whole number of at most 19 digits
        xs = [float(2**k) for k in range(54, 63)] + [9007199254740994.0, 1e18 + 128.0]
        texts = [t for x in xs for t in midpoint_texts(x, digits)]
        assert_reads_as_float(tmp_path, texts)
        value, decided = decimals(["9007199254740993", "4503599627370496.5"])
        assert not decided.any()

    def test_near_midpoints_are_left_to_float(self, tmp_path):
        # m / 10**22 with m * 2**42 = M * 5**22 + r, M odd, lies within |r| * 2.1e-16 ulp of
        # a midpoint of two doubles near 4.9e-4: as near as the residual's own rounding error
        texts = ["0.0004900844983832881494", "0.0004901147164633410107",
                 "0.0004901818047460893891", "0.0004901953925195356109",
                 "0.0004902289366609098001"]
        for text in texts:
            x = Fraction(float(text))
            y = Fraction(math.nextafter(float(text), math.inf if Fraction(text) > x else -math.inf))
            assert 0 < abs(Fraction(text) - (x + y) / 2) < abs(y - x) * Fraction(1, 10**9)
        value, decided = decimals(texts)
        assert not decided.any()
        assert_reads_as_float(tmp_path, texts)

    @pytest.mark.parametrize("prefix", [str(k * 2**64) for k in range(1, 6)])
    def test_mantissas_past_19_digits_are_left_to_float(self, tmp_path, prefix):
        # 20 digits that are a multiple of 2**64: the uint64 mantissa wraps to 0
        texts = [f"{prefix[:k]}.{prefix[k:]}" for k in range(len(prefix) + 1)]
        texts += [prefix, prefix + "000", prefix + ".000000", "0.00" + prefix]
        texts += ["-" + t for t in texts]
        value, decided = decimals(texts)
        assert not decided.any()
        assert_reads_as_float(tmp_path, texts)

    def test_powers_of_two_and_their_neighbours(self, tmp_path):
        texts = []
        for k in range(-13, 64):
            x = 2.0**k
            for y in (math.nextafter(x, 0), x, math.nextafter(x, math.inf)):
                texts += [repr(y), np.format_float_positional(y)]
                texts += midpoint_texts(y, 17) + midpoint_texts(y, 19)
        share = assert_reads_as_float(tmp_path, texts)
        assert share > 0.5

    def test_signed_zero_and_negative_llrs(self, tmp_path):
        texts = ["-0.0", "-0", "0.0", "-1.5", "-2.772588722239781", "-123456789012345678",
                 "-0.30000000000000004", "-9007199254740993", "-4.0"]
        assert assert_reads_as_float(tmp_path, texts) > 0.7
        value, decided = decimals(["-0.0", "-0"])
        assert decided.all() and np.signbit(value).all()

    def test_repr_of_random_doubles_mostly_decided(self, tmp_path):
        g = np.random.default_rng(5)
        xs = np.concatenate([g.wald(20.0, 40.0, 3000), g.normal(0, 5, 3000),
                             np.exp(g.uniform(-9, 36, 3000))])
        assert assert_reads_as_float(tmp_path, map(repr, xs.tolist())) > 0.98


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
    @given(record_batches(), st.sampled_from([1, 2, 3, 7, core._WRITE_CHUNK_ROWS]))
    @example(RecordBatch(np.array([]), np.array([]), np.array([]), time_kind="steps"), 1)
    @example(RecordBatch(np.array([]), np.array([]), np.array([]), time_kind="seconds"), 1)
    def test_records_bytes_match_row_writer(self, tmp_path_factory, batch, chunk):
        out = tmp_path_factory.mktemp("records")
        with mock.patch.object(core, "_WRITE_CHUNK_ROWS", chunk):  # rows per written chunk
            write_records_csv(out / "new.csv", batch)
        reference_write_records_csv(out / "ref.csv", batch)
        assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["steps", "seconds"])
    def test_batch_longer_than_one_chunk(self, tmp_path, kind):
        # each chunk of rows holds its own times and LLRs, and LLRs repeat within one
        n = 2 * core._WRITE_CHUNK_ROWS + 1000
        g = np.random.default_rng(11)
        chunk = np.arange(n) // core._WRITE_CHUNK_ROWS
        time = chunk * 100.0 + g.integers(0, 100, size=n)
        if kind == "seconds":
            time *= 0.25
        llr = np.round(g.normal(chunk * 3.0, 1.0), 2)
        llr[g.random(n) < 0.1] = np.nan
        batch = RecordBatch(g.integers(1, 3, size=n), g.integers(1, 3, size=n), time, llr,
                            time_kind=kind)
        write_records_csv(tmp_path / "new.csv", batch)
        reference_write_records_csv(tmp_path / "ref.csv", batch)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert_same_batch(read_records_csv(tmp_path / "new.csv", kind), batch)

    @pytest.mark.parametrize("kind", ["steps", "seconds"])
    def test_special_values(self, tmp_path, kind):
        other_nan = np.array([0x7FF8_0000_0000_0001], dtype=np.int64).view(np.float64)[0]
        llr = np.array([-0.0, 0.0, np.nan, other_nan, -np.nan, np.inf, -np.inf, 5e-324,
                        -2.2250738585072e-310, 0.0, -0.0, np.nan])
        time = np.array([-0.0, 0.0, 1.0, -0.0, 2.0, 0.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        n = len(llr)
        batch = RecordBatch(np.array([1, 2] * (n // 2)), np.repeat([1, 2], n // 2), time, llr,
                            time_kind=kind)
        write_records_csv(tmp_path / "new.csv", batch)
        reference_write_records_csv(tmp_path / "ref.csv", batch)
        text = (tmp_path / "new.csv").read_text()
        assert text == (tmp_path / "ref.csv").read_text()
        times = ["0", "0", "1", "0", "2", "0", "3", "4"] if kind == "steps" else [
            "-0.0", "0.0", "1.0", "-0.0", "2.0", "0.0", "3.0", "4.0"]
        llrs = ["-0.0", "0.0", "", "", "", "inf", "-inf", "5e-324"]
        cells = ["1,1", "2,1", "1,1", "2,1", "1,1", "2,1", "1,2", "2,2"]
        assert text.splitlines()[1:9] == [f"{c},{t},{s}" for c, t, s in zip(cells, times, llrs)]

    def test_mixed_row_matches_repr_formatting(self, tmp_path):
        rows = [("d1_cells", 7, 0.1 + 0.2), ("x", -3, 1e16), ("y", 0, 1.5e-7), ("z", 2, -0.0)]
        path = write_table(tmp_path / "t.csv", "name,n,value", rows)
        expected = "name,n,value\n" + "".join(f"{a},{b},{c!r}\n" for a, b, c in rows)
        assert path == str(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()


# the benchmark's four device families, at fewer trials
FAMILY_CONFIGS = {
    "gaussian_iid": "[model]\nkind = gaussian_iid\nmu1 = 0.0\nmu2 = 1.0\nsigma1 = 5.0\n"
                    "sigma2 = 10.0\n[device]\nl1 = 4.0\nl2 = -2.0\n",
    "markov_gaussian": "[model]\nkind = markov_gaussian\nv1 = 1.0\nv2 = -1.0\nw1 = -1.0\n"
                       "w2 = -1.0\nsigma1 = 5.0\nsigma2 = 5.0\n[device]\nl1 = 4.0\nl2 = -4.0\n",
    "lattice": "[model]\nkind = lattice\np = 0.8\nm1 = 2\nm2 = 2\n",
    "drift_diffusion": "[model]\nkind = drift_diffusion\nmu1 = 0.0\nmu2 = 1.0\nsigma = 5.0\n"
                       "[device]\nl1 = 4.0\nl2 = -2.0\ndt = 4.0\n",
}


@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
def test_simulate_output_reads_back_to_the_run(tmp_path, family):
    from seqaudit import cli
    from seqaudit.simulate import run_experiment

    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\ntrials = 4000\nseed = 20\nwindow = 1000\n"
                   + FAMILY_CONFIGS[family])
    with mock.patch.object(core, "_WRITE_CHUNK_ROWS", 1000):  # several chunks
        assert cli.main(["--out-dir", str(tmp_path / "out"), "simulate", str(ini)]) == 0
    records = run_experiment(cli.build_experiment(cli.load_config(ini))).records
    assert len(records) > 3000
    path = tmp_path / "out" / "records.csv"
    # explicit: diffusion times on a dt grid of whole seconds would infer as steps
    with fallbacks() as (fields, files):
        assert_same_batch(read_records_csv(path, records.time_kind), records)
    assert not files and all("e" in field for field in fields)  # only exponent forms
    reference_write_records_csv(tmp_path / "ref.csv", records)
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


# the functions allowed to open a file for writing: one per output format
WRITERS = {
    ("core", "write_table"),
    ("cli", "write_manifest"),
    ("cli", "write_metadata"),
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
SAMPLERS = ("sample_outcomes_asymptotic", "_sample_d2_times", "sample_inverse_gaussian")


def _calls_to(tree: ast.AST, names):
    """Names of the functions holding a call to one of ``names``, by name or as an
    attribute, one per call."""
    return [
        func
        for func, call in _calls(tree)
        if getattr(call.func, "id", getattr(call.func, "attr", None)) in names
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
            for func in _calls_to(ast.parse(path.read_text()), KERNELS)
        }
        assert callers == {("simulate", "_run_block")}

    def test_guard_sees_a_kernel_call(self):
        # kernel calls outside the block runner, by name and by attribute
        tree = ast.parse(
            "def overshoot_profile(model, wm, th, h, max_steps, rng):\n"
            "    times, decisions, terminal, decided = _wald_discrete_block(\n"
            "        model, wm, th, h, max_steps, rng\n"
            "    )\n\n"
            "def g(laws, h, th, rng):\n"
            "    return models._wald_continuous_block(laws, h, th, 0.1, rng)\n"
        )
        assert _calls_to(tree, KERNELS) == ["overshoot_profile", "g"]


class TestOneDiffusionSampler:
    """Every simulated diffusion record comes from the block runner; the
    asymptotic samplers serve only ``analytic`` and its tests."""

    def test_only_analytic_calls_the_asymptotic_samplers(self):
        src = Path(seqaudit.__file__).parent
        callers = [
            (path.stem, func)
            for path in sorted(src.glob("*.py"))
            if path.stem != "analytic"
            for func in _calls_to(ast.parse(path.read_text()), SAMPLERS)
        ]
        assert callers == []

    def test_guard_sees_a_sampler_call(self):
        # a figure drawing its own records, by name and by attribute
        tree = ast.parse(
            "def _fig8(p, th, n_max, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    h, d, t = sample_outcomes_asymptotic(p, th, 0.5, n_max, rng)\n\n"
            "def g(rng):\n"
            "    return analytic.sample_inverse_gaussian(2.0, 3.0, rng)\n\n"
            "def k(p, th, rng):\n"
            "    return analytic._sample_d2_times(1, 10, p, th, rng)\n"
        )
        assert _calls_to(tree, SAMPLERS) == ["_fig8", "g", "k"]


CACHE_DECORATORS = ("lru_cache", "cache", "cached_property")


def _cached_functions(tree: ast.AST):
    """Names of the functions decorated with a ``functools`` cache, bare or called."""
    def name(dec):
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return getattr(dec, "id", getattr(dec, "attr", None))

    return sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(name(dec) in CACHE_DECORATORS for dec in node.decorator_list)
    )


class TestNoProcessCache:
    def test_no_function_is_cached(self):
        src = Path(seqaudit.__file__).parent
        cached = [
            (path.stem, func)
            for path in sorted(src.glob("*.py"))
            for func in _cached_functions(ast.parse(path.read_text()))
        ]
        assert cached == []

    def test_guard_sees_a_cached_function(self):
        tree = ast.parse(
            "@functools.lru_cache(maxsize=16)\n"
            "def f(a):\n    return a\n\n"
            "@cache\n"
            "def g(a):\n    return a\n\n"
            "class C:\n"
            "    @functools.cached_property\n"
            "    def h(self):\n        return 1\n\n"
            "    @staticmethod\n"
            "    def k():\n        return 2\n"
        )
        assert _cached_functions(tree) == ["f", "g", "h"]
