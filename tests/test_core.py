import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqaudit.core import (
    ErrorSpec,
    RecordBatch,
    SchemaError,
    Thresholds,
    ValidationError,
    read_records_csv,
    thresholds_from_alphas,
    write_records_csv,
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
