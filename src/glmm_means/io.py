"""CSV ingestion and report emission.

Input is RFC-4180-style CSV with a header row: a subject id column, a
response column, numeric covariate columns, and group-by columns whose
cartesian levels define the groups.  An intercept column is prepended to
the covariates automatically.  A leading UTF-8 byte-order mark is skipped.

The csv path defines what a file means and names every fault: it pulls
records from `csv.reader` in chunks of `_CHUNK` and parses each chunk a
column at a time: each numeric column with Python's `float`, the subject
ids and group keys into integer codes through first-appearance dicts that
persist across chunks.  Problems raise InputError with row/column
diagnostics, and the first fault in file order is the one reported: when a
column check fails, or the file turns out malformed or undecodable part
way, the records of the current chunk read so far are walked one by one to
name the first bad one (earlier chunks parsed cleanly).  A group value
spelled two ways is reported once every chunk has parsed, at the first
data row of its second spelling.

The reader first tries the numpy path, which parses each chunk of
`_CHUNK` lines that is plain (see `_read_plain`) with `np.loadtxt`, numpy's
C tokenizer, into the same columns.  It gives up at the first chunk that
is not plain or does not parse, and the csv path reads the file again from
the top; so it returns the csv path's Dataset or none.  A pipe, which
cannot be read twice, goes to the csv path alone.  Either way a chunk is
dropped once parsed, so the reader holds one chunk, never the file.
`Dataset.from_codes` then groups the rows by subject, so a subject's rows
may appear anywhere in the file.

Numeric output is written at full precision in JSON and with 6 significant
digits in CSV.
"""

from __future__ import annotations

import csv
import itertools
import json
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .model import Dataset


_CHUNK = 4096  # lines, or csv records, parsed at a time: the reader never holds more of them


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
    """Parse a CSV file into a Dataset (see `Dataset.from_codes`).

    A subject's rows need not be contiguous: subjects appear in order of
    first occurrence and rows keep file order within a subject.  Group
    labels are "col=value" pairs joined with commas, or "all" when no
    group-by columns are declared.  Blank lines are skipped; rows are
    numbered as data records after the header (row 1).  A leading UTF-8
    byte-order mark is skipped.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc.strerror or exc}") from None

    with fh:
        if not fh.seekable():  # a pipe: the numpy path could not start over
            columns = _read_records(path, fh, mapping)
        elif (columns := _read_plain(path, fh, mapping)) is None:
            fh.seek(0)
            columns = _read_records(path, fh, mapping)
    if not columns.rows:
        raise InputError(f"{path}: file has a header but no data rows")
    return columns.dataset()


def _read_records(path, fh, mapping: ColumnMapping) -> _Columns:
    """The file's columns, from `csv.reader` records: what a file means, and
    the InputError of its first fault."""
    reader = csv.reader(fh)
    chunk = []
    try:
        columns = _Columns(_layout(path, next(reader, None), mapping))
        records = filter(None, reader)
        while True:
            chunk.extend(itertools.islice(records, _CHUNK))
            if not chunk:
                break
            columns.add(chunk)
            chunk = []
    except (csv.Error, UnicodeDecodeError) as exc:
        if chunk:
            columns.raise_first_fault(chunk)  # a bad cell before the bad line comes first
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    return columns


def _read_plain(path, fh, mapping: ColumnMapping) -> _Columns | None:
    """The columns `_read_records` returns, parsed by `np.loadtxt` `_CHUNK`
    lines at a time, or None: it gives up at the first chunk that is not
    plain, that `loadtxt` cannot parse or that has an empty subject id, and
    on a csv or decoding error.  The header is read and checked as the csv
    path reads and checks it.

    A chunk is plain when no line is longer than `csv.field_size_limit()`
    and none holds a quote, a NUL (which csv rejects before Python 3.11) or
    one of the separators \\x1c-\\x1f (`loadtxt` strips them from a number
    as white space, `float` does not).  In a plain chunk csv splits each
    line at every comma, as `loadtxt` does; both skip blank lines and keep
    the other cells as spelled; a row short of the last mapped column is a
    fault to csv and makes `loadtxt` raise; and `loadtxt` reads a number as
    `float` does or raises.
    """
    try:
        columns = _Columns(_layout(path, next(csv.reader(fh), None), mapping))
        layout = columns.layout
        numeric, grouped = ([j for _, j in cells] for cells in (layout.numeric, layout.grouping))
        parsed = [j for j in numeric if j not in grouped]  # a group column is read once, as text
        dtype = np.dtype([("s", object), *((f"n{j}", float) for j in parsed),
                          *((f"g{j}", object) for j in grouped)])
        usecols = [layout.subject[1], *parsed, *grouped]
        limit = csv.field_size_limit()
        while lines := list(itertools.islice(fh, _CHUNK)):
            text = "".join(lines)
            if (any(c in text for c in '"\x00\x1c\x1d\x1e\x1f')
                    or len(text) > limit and max(map(len, lines)) > limit):
                return None
            if not text.strip("\r\n"):
                continue  # blank lines only, of which `loadtxt` warns
            table = np.loadtxt(lines, dtype, delimiter=",", quotechar=None, comments=None,
                               usecols=usecols, ndmin=1)
            del lines, text
            subject_ids = table["s"].tolist()
            if "" in subject_ids:
                return None
            levels, codes = [], []  # per group column: its distinct cells, each row's among them
            for j in grouped:
                level = {}
                codes.append(_codes(level, table[f"g{j}"].tolist()))
                levels.append(list(level))
            # a group column's numbers by `float`, as the csv path reads them, once per cell
            number = {j: np.array(list(map(float, level)))[code]
                      for j, level, code in zip(grouped, levels, codes) if j in numeric}
            y, *x = (number[j] if j in number else table[f"n{j}"] for _, j in layout.numeric)
            groups = (_key_codes(columns.keys, levels, codes) if grouped
                      else _codes(columns.keys, [None] * len(y)))
            columns.append(subject_ids, np.array(y), np.column_stack([np.ones(len(y)), *x]), groups)
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        return None
    return columns


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


class _Columns:
    """What the chunks parsed so far leave: per chunk, each row's subject
    code, response, covariate row and group code; the subject ids and the
    group keys, each numbered by first appearance; and the data-row number
    of each group key's first record."""

    def __init__(self, layout: _Layout):
        self.layout = layout
        self.rows = 0  # records parsed
        self.subjects: dict[str, int] = {}
        self.keys: dict = {}
        self.key_rows: list[int] = []
        self.parts: list[tuple[np.ndarray, ...]] = []

    def add(self, records) -> None:
        """Parse one chunk of records, or raise the InputError of its first faulty one."""
        try:
            subject_ids, y, X, keys = _parse_columns(records, self.layout)
        except ValueError:
            self.raise_first_fault(records)
            raise
        self.append(subject_ids, y, X, _codes(self.keys, keys))

    def append(self, subject_ids, y, X, groups) -> None:
        """Keep one chunk's columns (see `_parse_columns`), with its rows' group codes."""
        known = len(self.key_rows)  # keys of earlier chunks
        fresh = np.flatnonzero(groups >= known)
        _, first = np.unique(groups[fresh], return_index=True)  # in code order
        self.key_rows.extend((self.rows + 2 + fresh[first]).tolist())
        self.parts.append((_codes(self.subjects, subject_ids), y, X, groups))
        self.rows += len(subject_ids)

    def raise_first_fault(self, records) -> None:
        """Raise the InputError of the first faulty record of a chunk, if any."""
        layout = self.layout
        width = layout.width
        column, js = layout.subject
        for i, row in enumerate(records, start=self.rows + 2):
            if len(row) < width:
                last = layout.header[width - 1]
                raise InputError(f"row {i}: {len(row)} cells, but column {last!r} is cell {width}")
            if row[js] == "":
                raise InputError(f"row {i}, column {column!r}: empty subject id")
            for c, j in layout.numeric:
                _parse_cell(row[j], i, c)

    def dataset(self) -> Dataset:
        columns = [c for c, _ in self.layout.grouping]
        labels = _group_labels(columns, list(self.keys), self.key_rows)
        subjects, y, X, groups = map(np.concatenate, zip(*self.parts))
        self.parts.clear()  # the chunks' arrays go before the rows are stacked by subject
        return Dataset.from_codes(list(self.subjects), subjects, y, X, None, labels, groups)


def _codes(codes: dict, keys) -> np.ndarray:
    """The code of each key, numbering the keys `codes` does not hold yet
    in order of first appearance after those it does."""
    for key in dict.fromkeys(keys):
        codes.setdefault(key, len(codes))
    return np.fromiter(map(codes.__getitem__, keys), np.int64, len(keys))


def _key_codes(codes: dict, levels, index) -> np.ndarray:
    """`_codes(codes, keys)` of the group keys of rows whose cell in group
    column k is `levels[k][index[k][row]]`, hashing each distinct key once."""
    dims = [len(level) for level in levels]
    found, first, inverse = np.unique(np.ravel_multi_index(index, dims), return_index=True,
                                      return_inverse=True)
    order = np.argsort(first)  # the distinct keys in order of first appearance
    keys = [tuple(level[i] for level, i in zip(levels, key))
            for key in zip(*np.unravel_index(found[order], dims))]
    if len(levels) == 1:
        keys = [cell for cell, in keys]  # a one-column key is its cell (see `_parse_columns`)
    lut = np.empty(len(found), np.int64)
    lut[order] = _codes(codes, keys)
    return lut[inverse]


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


def _group_labels(columns, keys, rows=None) -> list[str]:
    """One "col=value,..." label per key ("all" without group-by columns),
    from each key's group cells (a tuple; the cell itself for one column).

    A group column whose cells are equal as numbers but spelled differently
    ("1" and "1.0") is an InputError: the two spellings would make two
    groups.  It names the data row of the first key with the second
    spelling, `rows[i]` being key i's row (by default the keys are rows 2, 3, ...).
    """
    if not columns:
        return ["all"] * len(keys)
    rows = range(2, 2 + len(keys)) if rows is None else rows
    cells_of = {key: key if len(columns) > 1 else (key,) for key in dict.fromkeys(keys)}
    numbers = [{} for _ in columns]
    for cells in cells_of.values():  # in order of first appearance
        for k, value in enumerate(cells):
            try:
                first = numbers[k].setdefault(float(value), value)
            except ValueError:
                continue
            if first != value:
                row = rows[next(i for i, key in enumerate(keys) if cells_of[key][k] == value)]
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
