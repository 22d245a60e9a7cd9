"""Shared domain types: thresholds, error specifications, trial records.

Log-likelihood ratios are carried in nats throughout; information-theoretic
quantities are converted to bits only inside the estimators.
"""
from __future__ import annotations

import io
import math
import os
import warnings
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

STEPS = "steps"
SECONDS = "seconds"


class ValidationError(ValueError):
    """A domain value violates its invariants."""


class SchemaError(ValueError):
    """A records file does not conform to the trial-record CSV schema."""


class EmptyCellError(ValueError):
    """A statistical operation requires samples in a cell that is empty."""


def check_finite(obj) -> None:
    """Reject the first field of dataclass ``obj`` that is not a finite number."""
    for name, value in vars(obj).items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Thresholds:
    """Exit boundaries for the cumulative log-likelihood ratio, in nats.

    The walk stops as soon as it leaves the open interval (l2, l1);
    crossing l1 decides 1, crossing l2 decides 2.
    """

    l1: float
    l2: float

    def __post_init__(self) -> None:
        if not (self.l1 > 0.0 and math.isfinite(self.l1)):
            raise ValidationError(f"l1 must be a positive finite real, got {self.l1}")
        if not (self.l2 < 0.0 and math.isfinite(self.l2)):
            raise ValidationError(f"l2 must be a negative finite real, got {self.l2}")


@dataclass(frozen=True)
class ErrorSpec:
    """Maximum allowed error probabilities of the two error types.

    alpha1 bounds P(decide 1 | hypothesis 2); alpha2 bounds
    P(decide 2 | hypothesis 1).  Both must lie in (0, 0.5).
    """

    alpha1: float
    alpha2: float

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2"):
            a = getattr(self, name)
            if not (0.0 < a < 0.5):
                raise ValidationError(f"{name} must lie in (0, 0.5), got {a}")


def thresholds_from_alphas(spec: ErrorSpec) -> Thresholds:
    """Boundary pair guaranteeing the reliabilities of ``spec``.

    l1 = ln((1-alpha2)/alpha1) and l2 = ln(alpha2/(1-alpha1)); decreasing
    alpha1 raises l1 and decreasing alpha2 lowers l2.
    """
    return Thresholds(
        l1=math.log((1.0 - spec.alpha2) / spec.alpha1),
        l2=math.log(spec.alpha2 / (1.0 - spec.alpha1)),
    )


def _whole(time: np.ndarray) -> np.ndarray:
    """Which times are step times: finite whole numbers."""
    return np.isfinite(time) & (time == np.floor(time))


class RecordBatch:
    """Columnar trial records: true hypothesis, decision, decision time.

    The hypothesis and decision columns hold 1 or 2, checked before they
    are narrowed to int8.  ``time`` counts steps for discrete devices and
    seconds for continuous ones; ``time_kind`` tags which (``"steps"`` or
    ``"seconds"``), and statistical modules dispatch on it.  A step time
    is a finite whole number.  ``terminal_llr`` is an optional diagnostic,
    NaN when absent: the device's cumulative log-likelihood ratio when it
    stopped.
    """

    __slots__ = ("hypothesis", "decision", "time", "terminal_llr", "time_kind")

    def __init__(
        self,
        hypothesis: np.ndarray,
        decision: np.ndarray,
        time: np.ndarray,
        terminal_llr: Optional[np.ndarray] = None,
        time_kind: str = SECONDS,
    ) -> None:
        columns = [hypothesis, decision, time] + ([] if terminal_llr is None else [terminal_llr])
        if any(np.ndim(c) != 1 for c in columns):
            raise ValidationError("record columns must be one-dimensional")
        n = len(hypothesis)
        if any(len(c) != n for c in columns):
            raise ValidationError("record columns must have equal length")
        if time_kind not in (STEPS, SECONDS):
            raise ValidationError(f"unknown time kind {time_kind!r}")
        if not (np.isin(hypothesis, (1, 2)).all() and np.isin(decision, (1, 2)).all()):
            raise ValidationError("hypothesis/decision values must be 1 or 2")
        self.hypothesis = np.asarray(hypothesis, dtype=np.int8)
        self.decision = np.asarray(decision, dtype=np.int8)
        self.time = np.asarray(time, dtype=np.float64)
        if terminal_llr is None:
            terminal_llr = np.full(n, np.nan)
        self.terminal_llr = np.asarray(terminal_llr, dtype=np.float64)
        self.time_kind = time_kind
        if (self.time < 0).any():
            raise ValidationError("decision times must be nonnegative")
        if time_kind == STEPS and not (whole := _whole(self.time)).all():
            i = np.argmin(whole)
            raise ValidationError(f"record {i + 1}: time {self.time[i]} is not a whole number of steps")

    def __len__(self) -> int:
        return len(self.hypothesis)

    def cell_code(self) -> np.ndarray:
        """Each record's (H, D) cell as the int64 code (h-1)*2 + (d-1)."""
        # the label columns are int8: widen before a caller scales the code
        return (self.hypothesis.astype(np.int64) - 1) * 2 + (self.decision - 1)

    def cell_counts(self) -> np.ndarray:
        """Record counts per (H, D) cell, a 2 x 2 array indexed [h-1, d-1]."""
        return np.bincount(self.cell_code(), minlength=4).reshape(2, 2)

    def cell_times(self, h: int, d: int) -> np.ndarray:
        """Times of the records with hypothesis ``h`` and decision ``d``."""
        mask = (self.hypothesis == h) & (self.decision == d)
        return self.time[mask]


CSV_HEADER = "hypothesis,decision,time,terminal_llr"


def write_table(path, header: str, rows) -> str:
    """Write a CSV table: ``header``, then one comma-joined line per row.

    Rows hold Python scalars; ``str`` of a Python float is its shortest
    round-trip ``repr``, so every table the toolkit writes reads back
    exactly.  A row may also be one string of whole lines, as the records
    writer passes its chunks.  Returns ``str(path)``.
    """
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)
    return str(path)


_WRITE_CHUNK_ROWS = 1 << 16
_CELL_TEXTS = np.array(["1,1,", "1,2,", "2,1,", "2,2,"], dtype=object)


def _distinct_texts(column: np.ndarray, text):
    """``text`` of each distinct value of an 8-byte column, and each row's index into them.

    Values are told apart by bit pattern, so -0.0 stays apart from 0.0.
    """
    bits, index = np.unique(column.view(np.int64), return_inverse=True)
    values = bits.view(column.dtype).tolist()
    return np.array([text(v) for v in values], dtype=object), index


def write_records_csv(path, batch: RecordBatch) -> None:
    """Write records in the interchange CSV schema.

    Header ``hypothesis,decision,time,terminal_llr``; hypothesis and
    decision serialize as 1 or 2, a missing terminal LLR as an empty field.
    Output bytes depend only on the batch contents.  Rows go out in chunks,
    and within a chunk ``str`` runs once per distinct time and LLR.
    """
    time = batch.time.astype(np.int64) if batch.time_kind == STEPS else batch.time
    code = batch.cell_code()
    chunks = []
    for i in range(0, len(batch), _WRITE_CHUNK_ROWS):
        rows = slice(i, i + _WRITE_CHUNK_ROWS)
        times, t_index = _distinct_texts(time[rows], lambda t: f"{t},")
        llrs, s_index = _distinct_texts(
            batch.terminal_llr[rows], lambda s: "" if math.isnan(s) else str(s))
        # the "h,d,t," prefix of each (cell, time) pair, 4 x K
        prefixes = (_CELL_TEXTS[:, None] + times).ravel()
        lines = prefixes[code[rows] * len(times) + t_index] + llrs[s_index]
        chunks.append(("\n".join(lines.tolist()),))
    write_table(path, CSV_HEADER, chunks)


# one np.loadtxt call per chunk of the records file: about 65k step-valued lines
_CHUNK_CHARS = 1 << 19
_ROW = np.dtype([("h", "i1"), ("d", "i1"), ("t", "f8"), ("s", "f8")])
# ASCII separators np.loadtxt strips from around a field, and int() and float() do not
_LOADTXT_ONLY_SPACE = ("\x1c", "\x1d", "\x1e", "\x1f")


def _parse_bulk(f, capacity: int):
    """The record columns after the header, parsed chunk by chunk by ``np.loadtxt``.

    Returns None when a chunk holds a character or a field that the line
    parser might read differently, or a row that it rejects.
    """
    columns = [np.empty(capacity, dtype=_ROW[name]) for name in _ROW.names]
    n = 0
    while chunk := f.read(_CHUNK_CHARS):
        chunk += f.readline()
        # numpy 2.4's loadtxt can also crash on a high code point in an integer field
        if not chunk.isascii() or any(c in chunk for c in _LOADTXT_ONLY_SPACE):
            return None
        if chunk.isspace():
            continue  # blank lines only; loadtxt would warn of no data
        if not chunk.endswith("\n"):
            chunk += "\n"
        try:
            with warnings.catch_warnings():
                # numpy releases that keep the 1.23 deprecation read an integer
                # field such as 1.5 or 257 as a float cast to int8 and only warn
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(io.StringIO(chunk.replace(",\n", ",nan\n")), dtype=_ROW,
                                  delimiter=",", comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None
        for column, name in zip(columns, _ROW.names):
            column[n:n + len(rows)] = rows[name]
        n += len(rows)
    h, d, t, s = (column[:n] for column in columns)
    if not (((h == 1) | (h == 2)) & ((d == 1) | (d == 2)) & ~(t < 0)).all():
        return None
    return h, d, t, s


def _parse_lines(f):
    """The record columns after the header, one Python-parsed line at a time.

    The only reader of rows that raises :class:`SchemaError`, naming the line.
    Columns collect as raw bytes, one per label and eight per float.
    """
    hs, ds, ts, ss = array("b"), array("b"), array("d"), array("d")
    for lineno, line in enumerate(f, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise SchemaError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            h = int(parts[0])
            d = int(parts[1])
            t = float(parts[2])
            s = np.nan if parts[3] == "" else float(parts[3])
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from exc
        if h not in (1, 2) or d not in (1, 2):
            raise SchemaError(f"line {lineno}: hypothesis/decision must be 1 or 2")
        if t < 0:
            raise SchemaError(f"line {lineno}: negative time")
        hs.append(h)
        ds.append(d)
        ts.append(t)
        ss.append(s)
    return (np.frombuffer(hs, dtype=np.int8), np.frombuffer(ds, dtype=np.int8),
            np.frombuffer(ts, dtype=np.float64), np.frombuffer(ss, dtype=np.float64))


def read_records_csv(path, time_kind: Optional[str] = None) -> RecordBatch:
    """Read the interchange CSV.

    After the header check the rows are parsed in bulk.  The four columns
    are preallocated from the file size, and ``np.loadtxt`` fills them
    chunk by chunk; an empty terminal LLR reads as NaN.  A field that
    ``loadtxt`` rejects (a label it would read only as a float cast to
    int8 counts as rejected), a non-ASCII character, a label other than
    1 or 2 or a negative time sends the whole file through the line parser
    instead.  That parser reads any file the bulk path reads to the same
    columns, and it is the one that raises :class:`SchemaError`, naming
    the line.

    When ``time_kind`` is not given it is inferred: a file whose times are
    all step times (finite whole numbers) is treated as step-valued.  Under
    an explicit ``"steps"`` any other time is a :class:`SchemaError`.
    """
    if time_kind not in (None, STEPS, SECONDS):
        raise ValidationError(f"unknown time kind {time_kind!r}")
    # a row takes at least 7 bytes (1,1,0, and its line end), the last one 6
    capacity = os.path.getsize(path) // 7 + 1
    with open(path, "r") as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise SchemaError(f"expected header {CSV_HEADER!r}, got {header!r}")
        columns = _parse_bulk(f, capacity)
        if columns is None:
            f.seek(0)
            f.readline()
            columns = _parse_lines(f)
    if time_kind is None:
        time_kind = STEPS if _whole(columns[2]).all() else SECONDS
    try:  # the parsers checked labels and signs: only the step-time rule is left
        return RecordBatch(*columns, time_kind=time_kind)
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc
