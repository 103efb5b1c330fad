"""Moment samples and their first and second moment summaries.

A moment sample is an n-by-J matrix holding the evaluations of J moment
functions at each of n observations, for one fixed parameter value. All
procedures in the package consume these matrices; nothing here evaluates the
moment functions themselves.

Covariances use divisor n throughout, not n-1. Statistical libraries default
to the unbiased divisor, so summaries are computed locally instead of through
`numpy.cov`.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CsvFormatError, DegenerateColumn, NotPositiveDefinite

# Columns whose sample variance falls below this (relative to the squared
# largest deviation from the column mean) are treated as degenerate.
_VARIANCE_FLOOR = 1e-14
# Deviations from the mean carry a rounding error of a few ulps of the
# column's magnitude (a constant 0.1 column has mean 0.1 ± 1 ulp), so a
# standard deviation below this many multiples of the column's largest
# magnitude is rounding noise, not spread.
_ROUNDING_FLOOR = 1024 * np.finfo(float).eps


def variance_floor(values: np.ndarray, centered: np.ndarray) -> np.ndarray:
    """Per-column variance at or below which a column is degenerate: the
    larger of the spread floor on the centered columns and the rounding
    floor on the raw ones."""
    spread = _VARIANCE_FLOOR * np.abs(centered).max(axis=0) ** 2
    rounding = (_ROUNDING_FLOOR * np.abs(values).max(axis=0)) ** 2
    return np.maximum(spread, rounding)


@dataclass(frozen=True)
class MomentSample:
    """n-by-J matrix of moment-function evaluations at a fixed parameter."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("sample must be a 2-D array of shape (n, J)")
        n, j = values.shape
        if n < 2:
            raise ValueError("sample needs at least 2 observations")
        if j < 1:
            raise ValueError("sample needs at least 1 moment column")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample entries must all be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_moments(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MomentSummary:
    """Mean, covariance (divisor n), variances and correlation of a sample."""

    mean: np.ndarray
    covariance: np.ndarray
    var: np.ndarray
    correlation: np.ndarray
    n: int

    @property
    def n_moments(self) -> int:
        return self.mean.shape[0]

    @property
    def std(self) -> np.ndarray:
        """Per-column standard deviations (square roots of the variances)."""
        return np.sqrt(self.var)


@dataclass(frozen=True)
class CorrelationFamily:
    """Toeplitz correlation family used by the simulation designs.

    ``kind`` is one of "Neg", "Zero", "Pos" with the first-row correlations
    fixed for J in {2, 4, 10}, or "Custom" with user-supplied ``rho`` of
    length J-1. Construction raises NotPositiveDefinite unless the Toeplitz
    matrix passes a Cholesky factorization.
    """

    kind: str
    J: int
    rho: tuple = field(default=())

    _BUILTIN = {
        ("Neg", 2): (-0.9,),
        ("Pos", 2): (0.5,),
        ("Neg", 4): (-0.9, 0.7, -0.5),
        ("Pos", 4): (0.9, 0.7, 0.5),
        ("Neg", 10): (-0.9, 0.8, -0.7, 0.6, -0.5, 0.4, -0.3, 0.2, -0.1),
        ("Pos", 10): (0.9, 0.8, 0.7, 0.6, 0.5, 0.5, 0.5, 0.5, 0.5),
    }

    def __post_init__(self):
        if self.J < 1:
            raise ValueError("J must be positive")
        if self.kind == "Zero":
            object.__setattr__(self, "rho", (0.0,) * (self.J - 1))
        elif self.kind == "Custom":
            rho = tuple(float(r) for r in self.rho)
            if len(rho) != self.J - 1 or not all(map(math.isfinite, rho)):
                raise ValueError("Custom family needs rho of J-1 finite values")
            object.__setattr__(self, "rho", rho)
        elif self.kind in ("Neg", "Pos"):
            key = (self.kind, self.J)
            if key not in self._BUILTIN:
                raise ValueError(f"{self.kind} family is only defined for J in {{2, 4, 10}}")
            object.__setattr__(self, "rho", self._BUILTIN[key])
        else:
            raise ValueError(f"unknown correlation family kind {self.kind!r}")
        try:
            np.linalg.cholesky(make_toeplitz(self))
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(f"Toeplitz matrix for {self.kind}, J={self.J} is not PD")


def summarize(sample: MomentSample) -> MomentSummary:
    """Compute mean, covariance (divisor n), variances and correlation.

    Raises DegenerateColumn if any column's sample variance is at or below
    `variance_floor` (zero spread, up to rounding), since every downstream
    studentization divides by the column standard deviation.
    """
    x = sample.values
    n = sample.n
    # Reductions run over a canonical row order, so summaries of row-permuted
    # samples are bitwise identical.
    x = x[np.lexsort(x.T[::-1])]
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / n
    cov = 0.5 * (cov + cov.T)
    var = np.diag(cov).copy()
    bad = np.nonzero(var <= variance_floor(x, centered))[0]
    if bad.size:
        raise DegenerateColumn(int(bad[0]))
    inv_sd = 1.0 / np.sqrt(var)
    corr = np.clip(cov * np.outer(inv_sd, inv_sd), -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return MomentSummary(
        mean=mean,
        covariance=cov,
        var=var,
        correlation=corr,
        n=n,
    )


def make_toeplitz(family: CorrelationFamily) -> np.ndarray:
    """The symmetric Toeplitz correlation matrix with first row (1, rho...),
    positive definite since `CorrelationFamily` checks it on construction."""
    first_row = np.concatenate(([1.0], np.asarray(family.rho, dtype=float)))
    idx = np.abs(np.subtract.outer(np.arange(family.J), np.arange(family.J)))
    return first_row[idx]


def cholesky_factor(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, with failure reported as NotPositiveDefinite."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite")


def load_csv(path) -> MomentSample:
    """Read a moment sample from CSV: n rows by J numeric columns.

    The file is read as UTF-8; a leading byte-order mark is dropped, and a
    byte that is not UTF-8 raises CsvFormatError naming its offset. Blank
    lines are skipped. Line 1 is a header, and skipped, when none of its
    non-blank cells parses as a number; otherwise it is data like any other
    row. Parse failures, non-finite values and ragged rows report the
    offending row and column (1-based); the row is the file line on which the
    record starts, so a quoted cell that spans lines does not shift it.

    A file of plain numbers is converted in one `numpy.loadtxt` call, which
    reads each cell as `float` does (whitespace stripped, then
    `PyOS_string_to_double`), so it gives the record reader's array. Any
    other file, or any outcome short of at least 2 rows of finite values,
    goes to the record reader, which skips headers and blank records, reads
    quoted cells and underscored digits, and raises the errors above.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        raise CsvFormatError(f"not UTF-8: byte 0x{data[err.start]:02x} at offset {err.start}") from None
    values = _read_plain(text)
    return MomentSample(_read_records(text) if values is None else values)


def _read_plain(text: str) -> np.ndarray | None:
    """The whole of ``text`` in one `numpy.loadtxt` call, or None unless
    that gives at least 2 rows, all finite."""
    try:
        with warnings.catch_warnings():
            # An empty file warns; the record reader reports it instead.
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(io.StringIO(text, newline=""), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[0] < 2 or not np.isfinite(values).all():
        return None
    return values


def _read_records(text: str) -> np.ndarray:
    """The record-by-record reader behind `load_csv`: every row checked,
    every error raised with its row and column."""
    rows: list[list[float]] = []
    width: int | None = None
    reader = csv.reader(io.StringIO(text, newline=""))
    end = 0  # the file line on which the previous record ended
    for record in reader:
        lineno, end = end + 1, reader.line_num
        parsed = _parse_record(record, lineno)
        if not parsed:
            continue
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise CsvFormatError(
                f"row {lineno} has {len(parsed)} columns, expected {width}",
                row=lineno,
            )
        rows.append(parsed)
    if width is None or len(rows) < 2:
        raise CsvFormatError("need at least 2 data rows")
    return np.array(rows, dtype=float)


def _parse_record(record: list[str], lineno: int) -> list[float]:
    """Cell-by-cell parse of a CSV record: [] for a blank record or the
    header, otherwise CsvFormatError at the first unparsable or non-finite
    cell."""
    texts = [cell.strip() for cell in record]
    if all(text == "" for text in texts):
        return []
    if lineno == 1 and not any(_parses(text) for text in texts if text):
        return []
    parsed: list[float] = []
    for colno, text in enumerate(texts, start=1):
        try:
            value = float(text)
        except ValueError:
            raise CsvFormatError(
                f"could not parse {text!r} at row {lineno}, column {colno}",
                row=lineno,
                column=colno,
            )
        if not math.isfinite(value):
            raise CsvFormatError(
                f"non-finite value at row {lineno}, column {colno}",
                row=lineno,
                column=colno,
            )
        parsed.append(value)
    return parsed


def _parses(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
