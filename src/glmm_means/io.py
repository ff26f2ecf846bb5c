"""CSV ingestion and report emission.

Input is RFC-4180-style CSV with a header row: a subject id column, a
response column, numeric covariate columns, and group-by columns whose
cartesian levels define the groups.  An intercept column is prepended to
the covariates automatically.  The reader takes every record in one pass
of `csv.reader`, then parses a column at a time: each numeric column with
Python's `float`, the subject ids and group keys by cell index.  It hands
one entry per data row (subject id, response, covariate row, group label)
to `Dataset.from_rows`, which groups the rows by subject, so a subject's
rows may appear anywhere in the file.  Problems raise InputError with
row/column diagnostics, and the first fault in file order is the one
reported: when a column check fails, or the file turns out malformed or
undecodable part way, the records read so far are walked one by one to
name the first bad one.

Numeric output is written at full precision in JSON and with 6 significant
digits in CSV.
"""

from __future__ import annotations

import csv
import json
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .model import Dataset


class InputError(Exception):
    """Malformed or unreadable input (exit code 3 at the CLI)."""


@dataclass(frozen=True)
class ColumnMapping:
    subject: str = "subject_id"
    response: str = "y"
    covariates: tuple[str, ...] = ()
    group_by: tuple[str, ...] = ()


def _parse_cell(value: str, row: int, column: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise InputError(
            f"row {row}, column {column!r}: cannot parse {value!r} as a number"
        ) from None


@dataclass(frozen=True)
class _Layout:
    """Where the mapped columns sit in the records of one file."""

    header: list[str]
    width: int  # cells a record needs to reach its last mapped column
    subject: tuple[str, int]  # (column name, cell index)
    numeric: tuple[tuple[str, int], ...]  # the response, then the covariates
    grouping: tuple[tuple[str, int], ...]


def read_dataset(path: str, mapping: ColumnMapping) -> Dataset:
    """Parse a CSV file into a Dataset (see `Dataset.from_rows`).

    A subject's rows need not be contiguous: subjects appear in order of
    first occurrence and rows keep file order within a subject.  Group
    labels are "col=value" pairs joined with commas, or "all" when no
    group-by columns are declared.  Blank lines are skipped; rows are
    numbered as data records after the header (row 1).
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc.strerror or exc}") from None

    records = []
    with fh:
        reader = csv.reader(fh)
        try:
            layout = _layout(path, next(reader, None), mapping)
            records.extend(filter(None, reader))
        except (csv.Error, UnicodeDecodeError) as exc:
            if records:
                _raise_first_fault(records, layout)  # a bad cell before the bad line comes first
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    if not records:
        raise InputError(f"{path}: file has a header but no data rows")
    try:
        subject_ids, y, X, keys = _parse_columns(records, layout)
    except ValueError:
        _raise_first_fault(records, layout)
        raise
    return Dataset.from_rows(subject_ids, y, X, _group_labels([c for c, _ in layout.grouping], keys))


def _layout(path, header, mapping: ColumnMapping) -> _Layout:
    if header is None:
        raise InputError(f"{path}: file is empty (no header row)")
    needed = [mapping.subject, mapping.response, *mapping.covariates, *mapping.group_by]
    missing = [c for c in needed if c not in header]
    if missing:
        raise InputError(f"{path}: missing column(s) {', '.join(repr(c) for c in missing)}")
    repeated = [c for c in dict.fromkeys(needed) if header.count(c) > 1]
    if repeated:
        names = ", ".join(repr(c) for c in repeated)
        raise InputError(f"{path}: column(s) {names} appear more than once in the header")
    col = {c: header.index(c) for c in needed}
    return _Layout(
        header=header,
        width=max(col.values()) + 1,
        subject=(mapping.subject, col[mapping.subject]),
        numeric=tuple((c, col[c]) for c in (mapping.response, *mapping.covariates)),
        grouping=tuple((c, col[c]) for c in mapping.group_by),
    )


def _parse_columns(records, layout: _Layout):
    """Subject ids, responses, the (1, covariates...) matrix and group keys,
    parsed a column at a time.  ValueError when any record is faulty."""
    n = len(records)
    if min(map(len, records)) < layout.width:
        raise ValueError("short record")
    subject_ids = list(map(operator.itemgetter(layout.subject[1]), records))
    if "" in subject_ids:
        raise ValueError("empty subject id")
    y, *x = (np.fromiter(map(float, map(operator.itemgetter(j), records)), float, n)
             for _, j in layout.numeric)
    X = np.column_stack([np.ones(n), *x])
    if layout.grouping:
        keys = list(map(operator.itemgetter(*(j for _, j in layout.grouping)), records))
    else:
        keys = [None] * n
    return subject_ids, y, X, keys


def _raise_first_fault(records, layout: _Layout) -> None:
    """Raise the InputError of the first faulty record in file order, if any."""
    width = layout.width
    column, js = layout.subject
    for i, row in enumerate(records, start=2):
        if len(row) < width:
            last = layout.header[width - 1]
            raise InputError(f"row {i}: {len(row)} cells, but column {last!r} is cell {width}")
        if row[js] == "":
            raise InputError(f"row {i}, column {column!r}: empty subject id")
        for c, j in layout.numeric:
            _parse_cell(row[j], i, c)


def _group_labels(columns, keys) -> list[str]:
    """One "col=value,..." label per row ("all" without group-by columns),
    from each row's group cells (a tuple; the cell itself for one column).

    A group column whose cells are equal as numbers but spelled differently
    ("1" and "1.0") is an InputError: the two spellings would make two groups.
    """
    if not columns:
        return ["all"] * len(keys)
    cells_of = {key: key if len(columns) > 1 else (key,) for key in dict.fromkeys(keys)}
    numbers = [{} for _ in columns]
    for cells in cells_of.values():  # in order of first appearance
        for k, value in enumerate(cells):
            try:
                first = numbers[k].setdefault(float(value), value)
            except ValueError:
                continue
            if first != value:
                row = 2 + next(i for i, key in enumerate(keys) if cells_of[key][k] == value)
                raise InputError(
                    f"row {row}, column {columns[k]!r}: group value {value!r} equals "
                    f"{first!r} as a number but is spelled differently"
                )
    label = {key: ",".join(f"{c}={v}" for c, v in zip(columns, cells))
             for key, cells in cells_of.items()}
    return list(map(label.__getitem__, keys))


# ---- report writers ----------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.6g}"
    return str(value)


def write_rows_csv(rows: list[dict], fieldnames: list[str], out=None) -> str:
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(f)) for f in fieldnames))
    text = "\n".join(lines) + "\n"
    _emit(text, out)
    return text


def write_json(payload, out=None) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"
    _emit(text, out)
    return text


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
