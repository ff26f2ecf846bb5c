"""CSV ingestion and report emission.

Input is RFC-4180-style CSV with a header row: a subject id column, a
response column, numeric covariate columns, and group-by columns whose
cartesian levels define the groups.  An intercept column is prepended to
the covariates automatically.  A leading UTF-8 byte-order mark is skipped.

The reader reads a file once, `_CHUNK` lines at a time.  Python's `csv`
module defines what a file means and names every fault; numpy's C
tokenizer, `np.loadtxt`, reads each chunk that is plain (see
`_Columns.add_lines`) as csv would.  At the first chunk that is not plain
or that `loadtxt` refuses, `csv.reader` takes over from that chunk's first
line to the end of the file, so a pipe reads as a file does.  Both
tokenizers feed one builder, `_Columns`, a column at a time: each numeric
column by Python's `float` (a group column once per distinct cell), the
subject ids and each group column into integer codes through
first-appearance dicts that persist across chunks, the group columns'
codes then combined into one key code per row.  Problems raise InputError
with row/column diagnostics, and the first fault in file order is the one
reported: when a column check fails, or the file turns out malformed or
undecodable part way, the records of the current chunk read so far are
walked one by one to name the first bad one (earlier chunks parsed
cleanly).  A group value spelled two ways is reported once every chunk has
parsed, at the first data row of its second spelling.  A chunk is dropped
once parsed, so the reader holds one chunk, never the file.
`Dataset.from_codes` then groups the rows by subject, so a subject's rows
may appear anywhere in the file.

Numeric output is written at full precision in JSON and with 6 significant
digits in CSV.
"""

from __future__ import annotations

import csv
import itertools
import json
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
        header = csv.reader(fh)
        try:
            columns = _Columns(_layout(path, next(header, None), mapping))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise InputError(f"{path}: line {header.line_num}: {exc}") from None
        done, lines = header.line_num, []  # the lines before the chunk at hand, and its lines
        try:
            while True:
                lines.extend(itertools.islice(fh, _CHUNK))
                if not lines or not columns.add_lines(lines):
                    break
                done, lines = done + len(lines), []
            rest = fh
        except UnicodeDecodeError as exc:  # csv meets it after the lines read before it
            rest = _raising(exc)
        columns.add_records(path, csv.reader(itertools.chain(lines, rest)), done)
    if not columns.rows:
        raise InputError(f"{path}: file has a header but no data rows")
    return columns.dataset()


def _raising(exc: Exception):
    """An iterator whose first item raises `exc`."""
    raise exc
    yield


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
        self.numeric = {j for _, j in layout.numeric}
        grouped = dict.fromkeys(j for _, j in layout.grouping)  # each column once
        # the numeric columns read by number; a group column is read once, as text
        self.parsed = list(dict.fromkeys(j for _, j in layout.numeric if j not in grouped))
        self.dtype = np.dtype([("s", object), *((f"n{j}", float) for j in self.parsed),
                               *((f"g{j}", object) for j in grouped)])
        self.usecols = [layout.subject[1], *self.parsed, *grouped]
        self.rows = 0  # records parsed
        self.subjects: dict[str, int] = {}
        self.keys: dict = {}
        self.key_rows: list[int] = []
        self.parts: list[tuple[np.ndarray, ...]] = []

    def add_lines(self, lines) -> bool:
        """Parse one chunk of lines with `np.loadtxt`, or return False, with
        nothing kept, when the chunk is not plain, `loadtxt` cannot parse it
        or `add` refuses it.

        A chunk is plain when no line is longer than `csv.field_size_limit()`
        and none holds a quote, a NUL (which csv rejects before Python 3.11) or
        one of the separators \\x1c-\\x1f (`loadtxt` strips them from a number
        as white space, `float` does not).  In a plain chunk csv splits each
        line at every comma, as `loadtxt` does; both skip blank lines and keep
        the other cells as spelled; a row short of the last mapped column is a
        fault to csv and makes `loadtxt` raise; and `loadtxt` reads a number as
        `float` does or raises.
        """
        text, limit = "".join(lines), csv.field_size_limit()
        if (any(c in text for c in '"\x00\x1c\x1d\x1e\x1f')
                or len(text) > limit and max(map(len, lines)) > limit):
            return False
        if not text.strip("\r\n"):
            return True  # blank lines only, of which `loadtxt` warns
        try:
            table = np.loadtxt(lines, self.dtype, delimiter=",", quotechar=None, comments=None,
                               usecols=self.usecols, ndmin=1)
            self.add(table["s"].tolist(), {j: table[f"n{j}"] for j in self.parsed},
                     [table[f"g{j}"].tolist() for _, j in self.layout.grouping])
        except ValueError:
            return False
        return True

    def add_records(self, path, reader, done: int) -> None:
        """Parse the records of a `csv.reader` `_CHUNK` at a time, or raise
        the InputError of the first fault: a faulty record of the chunk at
        hand, else the line (`done` lines precede the reader's first) where
        csv or the decoder failed."""
        records, chunk = filter(None, reader), []
        try:
            while True:
                chunk.extend(itertools.islice(records, _CHUNK))
                if not chunk:
                    return
                if min(map(len, chunk)) < self.layout.width:
                    raise ValueError("short record")
                cells = {j: [record[j] for record in chunk] for j in self.usecols}
                self.add(cells[self.layout.subject[1]],
                         {j: np.fromiter(map(float, cells[j]), float, len(chunk))
                          for j in self.parsed},
                         [cells[j] for _, j in self.layout.grouping])
                chunk = []
        except (csv.Error, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            self.raise_first_fault(chunk)
            raise InputError(f"{path}: line {done + reader.line_num}: {exc}") from None

    def add(self, subject_ids: list[str], numbers: dict, cells: list[list[str]]) -> None:
        """Keep one chunk's rows, from their subject ids, the numbers of each
        `parsed` column (by cell index) and the cells of each group column;
        ValueError, with nothing kept, when a subject id is empty or a cell of
        a numeric group column is no number."""
        if "" in subject_ids:
            raise ValueError("empty subject id")
        seen = [{} for _ in cells]  # per group column: its distinct cells, each row's among them
        codes = [_codes(level, column) for level, column in zip(seen, cells)]
        levels = [list(level) for level in seen]
        for (_, j), level, code in zip(self.layout.grouping, levels, codes):
            if j in self.numeric:
                numbers[j] = np.array(list(map(float, level)))[code]
        y, *x = (numbers[j] for _, j in self.layout.numeric)
        n = len(subject_ids)
        groups = self._key_codes(levels, codes, n)
        self.parts.append((_codes(self.subjects, subject_ids), np.array(y),
                           np.column_stack([np.ones(n), *x]), groups))
        self.rows += n

    def _key_codes(self, levels, index, n: int) -> np.ndarray:
        """The group code of each of n rows whose cell in group column k is
        `levels[k][index[k][row]]`, numbering new keys (a tuple of cells, the
        cell itself for one column) by first appearance and keeping each one's
        first data row.  Each distinct key is hashed once, and re-coding it
        densely from the third column on keeps every key below n * n."""
        key = np.zeros(n, np.int64)  # no column: one key
        for k, (level, code) in enumerate(zip(levels, index)):
            if k > 1:
                key = np.unique(key, return_inverse=True)[1]
            key = key * len(level) + code
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the distinct keys in order of first appearance
        rows = first[order]
        cells = [[level[i] for i in code[rows].tolist()] for level, code in zip(levels, index)]
        keys = cells[0] if len(cells) == 1 else list(zip(*cells)) or [()]
        known = len(self.keys)
        codes = _codes(self.keys, keys)  # of the distinct keys in order of first appearance
        self.key_rows.extend((self.rows + 2 + rows[codes >= known]).tolist())
        return codes[np.argsort(order)][inverse]

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
        return Dataset.from_codes(list(self.subjects), subjects, y, X, labels, groups)


def _codes(codes: dict, keys) -> np.ndarray:
    """The code of each key, numbering the keys `codes` does not hold yet
    in order of first appearance after those it does."""
    for key in dict.fromkeys(keys):
        codes.setdefault(key, len(codes))
    return np.fromiter(map(codes.__getitem__, keys), np.int64, len(keys))


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
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror or exc}") from None
