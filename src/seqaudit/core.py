"""Shared domain types: thresholds, error specifications, trial records.

Log-likelihood ratios are carried in nats throughout; information-theoretic
quantities are converted to bits only inside the estimators.
"""
from __future__ import annotations

import io
import math
import numbers
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
    """A statistical operation lacks the samples it needs: a cell is empty, or too few
    bins remain to compare."""


def check_finite(obj) -> None:
    """Reject the first field of dataclass ``obj`` that is not a finite real number."""
    for name, value in vars(obj).items():
        if not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


def check_whole(name: str, value) -> None:
    """Reject ``value`` unless it is a whole number; a ``bool`` is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be a whole number, got {value!r}")


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
        if not all(((x == 1) | (x == 2)).all() for x in map(np.asarray, (hypothesis, decision))):
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
    steps = batch.time_kind == STEPS
    code = batch.cell_code()
    chunks = []
    for i in range(0, len(batch), _WRITE_CHUNK_ROWS):
        rows = slice(i, i + _WRITE_CHUNK_ROWS)
        times, t_index = _distinct_texts(batch.time[rows], lambda t: f"{int(t) if steps else t},")
        llrs, s_index = _distinct_texts(
            batch.terminal_llr[rows], lambda s: "" if math.isnan(s) else str(s))
        # the "h,d,t," prefix of each (cell, time) pair, 4 x K
        prefixes = (_CELL_TEXTS[:, None] + times).ravel()
        lines = prefixes[code[rows] * len(times) + t_index] + llrs[s_index]
        chunks.append(("\n".join(lines.tolist()),))
    write_table(path, CSV_HEADER, chunks)


# the byte tier reads the records file in blocks of this many bytes, each completed to its line end
_BLOCK_BYTES = 1 << 20
# longer number fields, and longer mantissas than uint64 holds, are left to float()
_FIELD_BYTES = 32
_MANTISSA_DIGITS = 19
# 10**f is a double for f up to 22, and every integer up to 2**53 is one
_POW10 = np.array([float(10**f) for f in range(23)])
_EXACT_MANTISSA = 2**53
# a residual this close (relative) to a rounding boundary is left to float()
_UNDECIDED = 1e-9
_HEADER_LINES = {CSV_HEADER.encode() + end for end in (b"", b"\n", b"\r\n")}


def _two_product(a: np.ndarray, b: np.ndarray):
    """``(p, e)`` with ``p = fl(a*b)`` and ``p + e == a*b`` exactly (Dekker 1971)."""
    p = a * b
    (ah, al), (bh, bl) = (_veltkamp_split(x) for x in (a, b))
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _veltkamp_split(a: np.ndarray):
    """``a`` as a sum of two doubles of at most 26 significant bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _nearest(m: np.ndarray, p: np.ndarray):
    """The double nearest to ``m / p`` (``m`` uint64, ``p`` an exact power of ten), and
    which quotients it decided.

    ``q = fl(fl(m) / p)`` is within 1.5 ulp.  Its residual ``m - q*p`` comes exactly
    from ``m = hi + lo`` and the two-product of ``q`` and ``p``, and moves ``q`` by one
    ulp where the quotient lies past a half-ulp boundary.  A residual within
    ``_UNDECIDED`` of a boundary, on either side of a power of two, is not decided.
    """
    hi = m.astype(np.float64)
    lo = (m - hi.astype(np.uint64)).view(np.int64).astype(np.float64)
    q = hi / p
    ph, pl = _two_product(q, p)
    e = ((hi - ph) - pl + lo) / p  # m/p - q
    up, down = np.nextafter(q, np.inf), np.nextafter(q, -np.inf)
    q2 = np.where(e > (up - q) / 2, up, np.where(e < (down - q) / 2, down, q))
    e -= q2 - q
    half = (1 - _UNDECIDED) / 2
    decided = ((np.nextafter(q2, -np.inf) - q2) * half < e) & (e < (np.nextafter(q2, np.inf) - q2) * half)
    return q2, decided


def _decimals(buf: np.ndarray, start: np.ndarray, end: np.ndarray):
    """The doubles that ``float`` reads from the fields ``buf[start:end]`` that are
    ``-`` or nothing, then digits with at most one decimal point, and which fields
    were decided; ``float`` reads the others.  ``buf`` runs at least
    ``_FIELD_BYTES`` bytes past the last field.
    """
    neg = buf[start] == ord("-")
    first = start + neg
    length = end - first
    short = np.clip(length, 0, _FIELD_BYTES + 1).astype(np.uint8)
    n = len(start)
    m = np.zeros(n, np.uint64)
    digits, dots, frac, sig = (np.zeros(n, np.uint8) for _ in range(4))
    for j in range(min(int(length.max(initial=0)), _FIELD_BYTES)):
        b = buf[first + j]
        inside = short > j
        digit = b - np.uint8(ord("0"))
        is_digit = ((digit < 10) & inside).view(np.uint8)
        dots += (b == ord(".")) & inside
        m *= np.uint8(9) * is_digit + np.uint8(1)
        m += digit * is_digit
        digits += is_digit
        frac += is_digit & (dots > 0)
        sig += is_digit & ((sig > 0) | (digit > 0))  # by position: m may wrap past 19 digits
    decided = ((digits > 0) & (digits + dots == short) & (dots <= 1)
               & (sig <= _MANTISSA_DIGITS) & (frac < len(_POW10)))
    p = _POW10.take(np.minimum(frac, len(_POW10) - 1).astype(np.intp))
    value = m / p  # m and p exact: one correctly rounded division (Clinger 1990)
    wide = np.flatnonzero(decided & (m > _EXACT_MANTISSA))
    value[wide], decided[wide] = _nearest(m[wide], p[wide])
    np.negative(value, out=value, where=neg)
    return value, decided


def _labels(buf: np.ndarray, start: np.ndarray, end: np.ndarray):
    """The labels of the fields, or None unless each is the one byte ``1`` or ``2``."""
    b = buf[start]
    if not ((end - start == 1) & ((b == ord("1")) | (b == ord("2")))).all():
        return None
    return (b - np.uint8(ord("0"))).view(np.int8)


def _parse_block(block: bytes):
    """The record columns of whole lines of bytes, or None where the line parser must decide.

    The times and LLRs that :func:`_decimals` does not decide, and only those, go
    through the line parser's own ``float``.
    """
    text = block if block.endswith(b"\n") else block + b"\n"
    if not text.isascii():
        return None
    buf = np.frombuffer(text + bytes(_FIELD_BYTES), dtype=np.uint8)
    # offsets into a block short of 2 GiB fit int32; only a giant line needs int64
    offset = np.int32 if len(buf) < 2**31 else np.int64
    end = np.flatnonzero(buf == ord("\n")).astype(offset)
    start = np.concatenate((np.zeros(1, offset), end[:-1] + 1))
    if b"\r" in text:
        crlf = buf[end - 1] == ord("\r")
        if text.count(b"\r") != np.count_nonzero(crlf):
            return None  # a carriage return that does not end a line
        end = end - crlf
    if not (filled := end > start).all():
        start, end = start[filled], end[filled]
    commas = np.flatnonzero(buf == ord(",")).astype(offset)
    if len(commas) != 3 * len(start):
        return None  # a line with other than four fields
    # where lines hold other than three commas each, some field holds a comma, and its
    # conversion raises
    c0, c1, c2 = commas.reshape(-1, 3).T
    h, d = _labels(buf, start, c0), _labels(buf, c0 + 1, c1)
    if h is None or d is None:
        return None
    llr, llr_decided = np.full(len(end), np.nan), np.ones(len(end), bool)
    if len(given := np.flatnonzero(end > c2 + 1)):  # an empty terminal LLR is absent
        llr[given], llr_decided[given] = _decimals(buf, c2[given] + 1, end[given])
    time, time_decided = _decimals(buf, c1 + 1, c2)
    fields = [(time, time_decided, c1 + 1, c2), (llr, llr_decided, c2 + 1, end)]
    try:
        for value, decided, lo, hi in fields:
            for i in np.flatnonzero(~decided):
                value[i] = float(block[lo[i]:hi[i]].decode())
    except ValueError:
        return None
    if (time < 0).any():
        return None
    return [h, d, time, llr]


def _parse_bytes(f):
    """The record columns after the header, decoded from the bytes block by block.

    Returns None when a block holds a line with other than four fields, a
    non-ASCII byte, a carriage return that does not end a line, a field whose
    conversion raises, a label other than the byte 1 or 2 or a negative time.
    """
    parts = ([np.empty(0, np.int8)], [np.empty(0, np.int8)], [np.empty(0)], [np.empty(0)])
    while block := f.read(_BLOCK_BYTES):
        columns = _parse_block(block + f.readline())
        if columns is None:
            return None
        for part, column in zip(parts, columns):
            part.append(column)
    columns = []
    for part in parts:  # each column's blocks are freed once it is joined
        columns.append(np.concatenate(part))
        part.clear()
    return columns


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

    The file is opened once, in binary, and read in 1 MiB blocks, each
    completed to its line end.  Newlines and commas are found with numpy,
    a label must be the byte ``1`` or ``2``, and a time or terminal LLR of
    the form ``[-]digits[.digits]`` is decoded to the correctly rounded
    double by integer arithmetic over whole columns: one exact division
    when the mantissa is at most 2**53 and there are at most 22 fraction
    digits, else a double-double residual that moves the quotient by one
    ulp where it must.  An empty terminal LLR reads as NaN, and a CRLF line
    end as LF.  Two fallbacks keep the line parser's result: a time or LLR
    outside that form (an exponent, ``nan``, a space), one of more than 19
    significant digits, or one whose residual lies too near a rounding
    boundary to decide, goes through ``float`` on that field alone; and a
    line with other than four fields, a non-ASCII byte, a lone carriage
    return, a conversion that raises, a label other than the byte ``1`` or
    ``2`` or a negative time sends the whole file through the line parser.
    That parser reads any file the byte tier reads to the same columns, and
    it is the one that raises :class:`SchemaError`, naming the line.

    When ``time_kind`` is not given it is inferred: a file whose times are
    all step times (finite whole numbers) is treated as step-valued.  Under
    an explicit ``"steps"`` any other time is a :class:`SchemaError`.
    """
    if time_kind not in (None, STEPS, SECONDS):
        raise ValidationError(f"unknown time kind {time_kind!r}")
    with open(path, "rb") as f:
        columns = _parse_bytes(f) if f.readline() in _HEADER_LINES else None
        if columns is None:
            f.seek(0)
            lines = io.TextIOWrapper(f)
            header = lines.readline().strip()
            if header != CSV_HEADER:
                raise SchemaError(f"expected header {CSV_HEADER!r}, got {header!r}")
            columns = _parse_lines(lines)
    if time_kind is None:
        time_kind = STEPS if _whole(columns[2]).all() else SECONDS
    try:  # the parsers checked labels and signs: only the step-time rule is left
        return RecordBatch(*columns, time_kind=time_kind)
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc
