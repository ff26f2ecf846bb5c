"""CSV ingestion and report emission.

Input is RFC-4180-style CSV with a header row: a subject id column, a
response column, numeric covariate columns, and group-by columns whose
cartesian levels define the groups.  An intercept column is prepended to
the covariates automatically.  The reader collects one entry per data row
(subject id, response, covariate row, group label) and leaves grouping the
rows by subject to `Dataset.from_rows`, so a subject's rows may appear
anywhere in the file.  Parse problems raise InputError carrying row/column
diagnostics.

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

    with fh:
        reader = csv.reader(fh)
        try:
            subject_ids, yx, labels = _read_rows(path, reader, mapping)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    return Dataset.from_rows(subject_ids, yx[:, 0], yx[:, 1:], labels)


def _read_rows(path, reader, mapping: ColumnMapping):
    """Subject ids, the (y, 1, covariates...) row matrix and group labels of the data records."""
    header = next(reader, None)
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
    width = max(col.values()) + 1
    numeric = [(c, col[c]) for c in (mapping.response, *mapping.covariates)]
    grouping = [(c, col[c]) for c in mapping.group_by]

    subject_ids, values, keys = [], [], []
    pick = operator.itemgetter(*(j for _, j in grouping)) if grouping else None
    for i, row in enumerate(filter(None, reader), start=2):
        if len(row) < width:
            last = header[width - 1]
            raise InputError(f"row {i}: {len(row)} cells, but column {last!r} is cell {width}")
        sid = row[col[mapping.subject]]
        if sid == "":
            raise InputError(f"row {i}, column {mapping.subject!r}: empty subject id")
        y, *x = (_parse_cell(row[j], i, c) for c, j in numeric)
        values.append([y, 1.0, *x])
        keys.append(pick(row) if pick else None)
        subject_ids.append(sid)
    if not subject_ids:
        raise InputError(f"{path}: file has a header but no data rows")
    return subject_ids, np.array(values), _group_labels([c for c, _ in grouping], keys)


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
    return [label[key] for key in keys]


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
