"""CSV ingestion, the bundled fixture, and artifact serialization."""

from __future__ import annotations

import csv
import json
import logging
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataError
from .linmodel import RegressionData

__all__ = [
    "ingest_csv",
    "read_numeric_columns",
    "hsb2_path",
    "write_json_record",
    "write_csv",
    "posterior_csv_rows",
]

log = logging.getLogger(__name__)


def _scan_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and string rows through the csv module, blank rows skipped.

    The reference parser: it accepts quoted cells and anything ``float``
    reads, and names the first row whose field count differs from the
    header's.
    """
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"row {i + 1} of {path} has {len(row)} fields, "
                            f"the header has {len(header)}")
    return header, rows


def _scan_column(rows: list[list[str]], j: int, name: str, path) -> np.ndarray:
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        try:
            out[i] = float(row[j])
        except ValueError:
            raise DataError(
                f"non-numeric cell in {path}: row {i + 1}, column {name!r} "
                f"(value {row[j]!r})"
            ) from None
    return out


def read_numeric_columns(path, names=None) -> dict[str, np.ndarray]:
    """Numeric columns of a headered CSV, by name (every column by default).

    The body goes through ``np.loadtxt``, which reads plain numeric cells
    exactly as ``float`` does.  A file it rejects (quoted, underscored or
    non-numeric cells, rows of another width, whitespace-only lines) is
    read again by the csv module, whose errors name the row and column.
    Rows are numbered from 1 (excluding the header and blank lines).
    Non-finite values are a ``DataError`` on either path.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with path.open(newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise DataError(f"input file has no header row: {path}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body
                body = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            body = None
    rows = None
    if body is None or body.shape[1] != len(header):
        header, rows = _scan_rows(path)
    if (body.shape[0] if rows is None else len(rows)) == 0:
        raise DataError(f"input file has no data rows: {path}")
    index = {name: j for j, name in enumerate(header)}  # the last of duplicates
    out = {}
    for name in header if names is None else names:
        if name not in index:
            raise DataError(f"column {name!r} not present in {path} "
                            f"(available: {sorted(index)})")
        j = index[name]
        col = body[:, j].copy() if rows is None else _scan_column(rows, j, name, path)
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            i = int(bad[0])
            raise DataError(f"non-finite cell in {path}: row {i + 1}, column {name!r} "
                            f"(value {float(col[i])!r})")
        out[name] = col
    return out


def ingest_csv(
    path,
    response: str,
    x0_columns: tuple[str, ...] = (),
    x_columns: tuple[str, ...] = (),
    *,
    warn_unit_box: bool = False,
) -> RegressionData:
    """Build RegressionData from a headered CSV.

    The common predictors x0 are an intercept followed by ``x0_columns``.
    Rows are numbered from 1 (excluding the header) in error messages.
    ``warn_unit_box`` flags values outside (-0.5, 0.5), which matter only
    when the Gram release is the target (its sensitivity bounds assume
    bounded entries).
    """
    cols = read_numeric_columns(path, (response, *x0_columns, *x_columns))
    y = cols[response]
    x_parts = [cols[c] for c in x_columns]
    if not x_parts:
        raise DataError("at least one tested predictor column is required")
    for name, col in zip(x_columns, x_parts):
        if np.ptp(col) == 0.0:
            raise DataError(f"tested column {name!r} is constant")
    x0 = np.column_stack([np.ones_like(y), *(cols[c] for c in x0_columns)])
    x = np.column_stack(x_parts)
    if warn_unit_box and np.any(np.abs(np.column_stack([x, y])) >= 0.5):
        # No count: a private run's stderr must not carry one.
        log.warning("cells lie outside (-0.5, 0.5); rescale with declared bounds "
                    "before the Gram release or its sensitivity bounds will not hold")
    return RegressionData(y=y, x0=x0, x=x)


def hsb2_path() -> Path:
    """Path of the bundled 200-student high-school-scores fixture."""
    return Path(resources.files("dpms").joinpath("data/hsb2.csv"))


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_json_record(path, record: dict) -> None:
    """Write one artifact record as deterministic, sorted-key JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(_jsonable(record), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_cell(v) -> str:
    return "" if v is None else v if isinstance(v, str) else repr(v)


def write_csv(path, header: list[str], rows) -> None:
    """Write a CSV artifact: the header, then one line per row.

    A cell is a number, written as its repr, None, written empty, or a
    str that needs no quoting, written as it is.  Lines end in CRLF, so
    the bytes are those of ``csv.writer`` for such cells.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(_csv_cell, row)) + "\r\n" for row in rows)


def posterior_csv_rows(posterior) -> list[list]:
    """One row per model: bitmask string, log marginal, posterior mass."""
    masks = (format(gamma, f"0{posterior.p}b")[::-1]  # bit j = predictor j
             for gamma in range(posterior.posterior.shape[0]))
    return [[mask, lm, pp] for mask, lm, pp in
            zip(masks, posterior.log_marginals.tolist(), posterior.posterior.tolist())]
