"""Property-based checks of CSV ingestion, the stacked dataset and the CLI contract."""

import codecs
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import glmm_means.cli as cli
import glmm_means.io as glmm_io
from glmm_means import (
    Dataset,
    ModelSpec,
    SubjectBlock,
    conditional_estimates,
    fit,
    generate_dataset,
    logistic_design,
    marginal_estimates,
    negbin_design,
)
from glmm_means.fitter import LOG_KAPPA_BOUNDS, LOG_SIGMA2_BOUNDS
from glmm_means.io import ColumnMapping, InputError, read_dataset

from conftest import read_dataset_by_rows

COLUMNS = ("subject_id", "y", "x", "u", "t")
NUMBERS = ("0", "1", "2", "-1", "0.5", "1e308", "-1e-300", "nan", "inf")
ODD = ("", "NA", "a", " 1 ", '"1,5"', '"a""b"', "\x00", "é")
MEANS_ARGS = ["--family", "logistic", "--covariates", "x,u,t", "--group-by", "u,t"]


def run_cli(args):
    """(exit code, stdout, stderr) of one in-process call; an escaping exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def interleave(subject_of_row, offsets):
    """A row order that keeps the order of subjects' first rows and of each subject's rows.

    A subject's first row keeps its rank among first rows; each later row
    sorts `offsets[r]` first-row ranks after the subject's previous row.
    """
    key, last = [], {}
    for r, s in enumerate(subject_of_row):
        last[s] = last[s] + offsets[r] if s in last else len(last)
        key.append(last[s])
    return sorted(range(len(subject_of_row)), key=key.__getitem__)


def assert_same_dataset(a, b):
    """Equal bit for bit, NaN payloads and signed zeros included."""
    for name in ("y", "X", "subject_index", "row_offsets"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert a.subject_ids == b.subject_ids
    assert a.group_labels == b.group_labels
    assert a.group_index.group_ids == b.group_index.group_ids
    for g in a.group_index.group_ids:
        assert a.group_index.indices[g].tobytes() == b.group_index.indices[g].tobytes()


# ---- validate never escapes its exit-code contract -----------------------------------


def _csv(header, rows):
    """CSV text; a dict row is laid out by the header, a list row is written as it is."""
    rows = [[r.get(c, "") for c in header] if isinstance(r, dict) else r for r in rows]
    return "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"


headers = st.tuples(
    st.permutations(COLUMNS), st.lists(st.sampled_from(("note", "x")), max_size=1)
).map(lambda h: [*h[0], *h[1]])
clean_rows = st.fixed_dictionaries({
    "subject_id": st.sampled_from("abcd"),
    "y": st.sampled_from(("0", "1")),
    "x": st.sampled_from(NUMBERS),
    "u": st.sampled_from(("0", "1")),
    "t": st.sampled_from(("0", "1")),
})
raw_rows = st.lists(st.sampled_from(NUMBERS + ODD), max_size=7)
csv_texts = st.one_of(
    st.text(max_size=200),
    st.builds(_csv, headers, st.lists(clean_rows, min_size=1, max_size=12)),
    st.builds(_csv, headers, st.lists(clean_rows | raw_rows, max_size=8)),
)


@given(text=csv_texts, covariates=st.sampled_from(["", "x", "x,u", "x,u,t", "u,u"]))
def test_validate_exits_by_contract_on_any_csv(tmp_path_factory, text, covariates):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    code, out, err = run_cli(
        ["validate", "--input", str(path), "--family", "logistic", "--covariates", covariates,
         "--group-by", "u"]
    )
    assert code in (0, 1, 3)
    if code == 0:
        assert err == "" and json.loads(out)["valid"] is True
    else:
        assert set(json.loads(err)) == {"error"}
        assert "Traceback" not in err


# ---- subject order in the file ----------------------------------------------------------


MAPPING = ColumnMapping(covariates=("x", "u", "t"), group_by=("u", "t"))


def _read_and_means(path):
    code, out, err = run_cli(["means", "--input", str(path), *MEANS_ARGS, "--format", "json"])
    assert code == 0, err
    return read_dataset(str(path), MAPPING), out


@pytest.fixture(scope="module")
def grouped_csv(tmp_path_factory):
    """Rows of a generated dataset, subject by subject, and what the CLI reads from them."""
    design = logistic_design(arm_sizes=(30, 26, 30, 24), replications=1, seed=6)
    ds = generate_dataset(design, seed=8)
    lines = [
        ",".join([ds.subject_ids[i], *(repr(float(v)) for v in (ds.y[r], *ds.X[r, 1:]))])
        for r, i in enumerate(ds.subject_index)
    ]
    path = tmp_path_factory.mktemp("grouped") / "data.csv"
    path.write_text("\n".join(["subject_id,y,x,u,t", *lines]) + "\n", encoding="utf-8")
    return (lines, *_read_and_means(path))


@settings(max_examples=8)
@given(data=st.data())
def test_interleaved_rows_read_as_the_grouped_file(tmp_path_factory, grouped_csv, data):
    lines, grouped, grouped_out = grouped_csv
    offsets = data.draw(st.lists(st.integers(0, 6), min_size=len(lines), max_size=len(lines)))
    order = interleave([line.split(",")[0] for line in lines], offsets)
    path = tmp_path_factory.mktemp("mixed") / "data.csv"
    path.write_text("\n".join(["subject_id,y,x,u,t", *(lines[r] for r in order)]) + "\n",
                    encoding="utf-8")
    mixed, mixed_out = _read_and_means(path)
    assert_same_dataset(mixed, grouped)
    assert mixed_out == grouped_out


# ---- the column-wise reader agrees with the record-by-record oracle -----------------------


def _outcome(read, path):
    """The Dataset a reader returns, or the message of the InputError it raises."""
    try:
        return read(str(path), MAPPING)
    except InputError as exc:
        return str(exc)


good_rows = st.fixed_dictionaries({
    "subject_id": st.sampled_from(("a", "b", "c", '"d,e"')),
    "y": st.sampled_from(("0", "1")),
    "x": st.sampled_from(("0", "0.5", "-1", "1e308", "nan", '" 2"')),
    "u": st.sampled_from(("0", "1", '"1"')),
    "t": st.sampled_from(("0", "1")),
})
BAD_CELLS = {  # " 1" and "1.0" are the number of "1" spelled other ways
    "subject_id": ("", '""'), "y": ("NA", "é", ""), "x": ("a", '"1,5"', "\x00", " "),
    "u": (" 1", "1.0", "a"), "t": ("1.0", "--1"),
}


@st.composite
def bad_rows(draw):
    """A good row with one cell that is no number, no id or a second spelling."""
    row = draw(good_rows)
    column = draw(st.sampled_from(COLUMNS))
    return {**row, column: draw(st.sampled_from(BAD_CELLS[column]))}


blank_rows = st.just([])
short_rows = st.lists(st.sampled_from(NUMBERS + ODD), min_size=1, max_size=3)
# valid rows past the decoder's first chunk, so a bad byte after them is met
# only once the records before it have been read
PADDING = [{"subject_id": "p", "y": "0", "x": "0", "u": "0", "t": "0"}] * 1200


GOOD = {"subject_id": "a", "y": "1", "x": "0.5", "u": "1", "t": "0"}


@settings(max_examples=100)
@example(header=list(COLUMNS), rows=[GOOD, [], {**GOOD, "u": "1.0"}], tail="none")
# faults past row 4, so a reader of three records at a time meets them in a later chunk
@example(header=list(COLUMNS), rows=[GOOD, GOOD, GOOD, [], GOOD, {**GOOD, "x": "a"}],
         tail="oversized field")
@example(header=list(COLUMNS), rows=[GOOD, GOOD, GOOD, GOOD, ["a", "1"]], tail="bad utf-8")
@example(header=list(COLUMNS), rows=[GOOD, GOOD, GOOD, {**GOOD, "subject_id": ""}], tail="none")
@example(header=list(COLUMNS), rows=[GOOD, {**GOOD, "u": "0"}, GOOD, GOOD,
                                     {**GOOD, "subject_id": "b", "u": "0.0"}], tail="none")
@example(header=list(COLUMNS), rows=[GOOD, {**GOOD, "subject_id": '""'}], tail="none")
@example(header=list(COLUMNS), rows=[GOOD, {**GOOD, "subject_id": ""}], tail="bad utf-8")
@example(header=list(COLUMNS), rows=[{**GOOD, "y": "NA"}, ["a"]], tail="oversized field")
@example(header=list(COLUMNS), rows=[GOOD, ["a", "1"]], tail="bad utf-8")
@given(
    header=st.one_of(st.permutations(COLUMNS), headers),
    rows=st.one_of(
        st.lists(good_rows | blank_rows, min_size=1, max_size=8),
        st.lists(good_rows | blank_rows | bad_rows() | short_rows, min_size=1, max_size=8),
    ),
    tail=st.sampled_from(("none", "none", "oversized field", "bad utf-8")),
)
def test_reader_matches_the_record_by_record_oracle(tmp_path_factory, header, rows, tail):
    if tail == "oversized field":
        rows = [*rows, {"subject_id": "z", "y": "0", "x": "1" * (csv.field_size_limit() + 1)}]
    text = _csv(header, [*rows, *PADDING] if tail == "bad utf-8" else rows).encode("utf-8")
    if tail == "bad utf-8":
        text += b"z,0,\xff,0,0\n"
    path = tmp_path_factory.mktemp("oracle") / "data.csv"
    path.write_bytes(text)
    got, want = _outcome(read_dataset, path), _outcome(read_dataset_by_rows, path)
    event("Dataset" if not isinstance(want, str) else
          next((kind for kind in ("line", "cells, but", "empty subject", "cannot parse",
                                  "spelled", "no data", "column(s)") if kind in want), want))
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_dataset(got, want)



def test_the_reader_tests_hold_at_a_chunk_of_three_records(monkeypatch, tmp_path_factory,
                                                           grouped_csv):
    # faults, second spellings of a group value and a subject's later rows
    # then land in later chunks than the records before them
    monkeypatch.setattr(glmm_io, "_CHUNK", 3)
    test_reader_matches_the_record_by_record_oracle(tmp_path_factory)
    test_interleaved_rows_read_as_the_grouped_file(tmp_path_factory, grouped_csv)


# ---- numpy reads plain chunks, and only as the csv path reads them ----------------------------


@contextlib.contextmanager
def tokenized_by_csv():
    """Lists the records `csv.reader` hands the reader's builder while it is active."""
    records, add_records = [], glmm_io._Columns.add_records

    class Recorded:
        def __init__(self, reader):
            self.reader = reader

        def __iter__(self):
            return self

        def __next__(self):
            records.append(next(self.reader))
            return records[-1]

        line_num = property(lambda self: self.reader.line_num)

    def spy(columns, path, reader, done):
        return add_records(columns, path, Recorded(reader), done)

    with mock.patch.object(glmm_io._Columns, "add_records", spy):
        yield records


# spellings of a number that `np.loadtxt` and `float` could read differently
SPELLINGS = (" 1", "1 ", "\t1", "1_0", "\u0661", "\xa01", "+nan", "-0", "1e400", "", " ", "\x00",
             "\x0c1", "\x1c1", "\ufeff1")


@st.composite
def plain_files(draw):
    """CSV text with no quote, whose number cells come from a few spellings."""
    header = draw(st.permutations(COLUMNS))
    numbers = st.sampled_from(draw(st.lists(st.sampled_from(("0", "1", "-0.5", *SPELLINGS)),
                                            min_size=1, max_size=3)))
    cells = {c: numbers for c in COLUMNS}
    cells["subject_id"] = st.sampled_from(("a", "b", "c", " a", "\x0cb", "\u2028", "a", "b", ""))
    rows = st.tuples(st.fixed_dictionaries(cells), st.lists(numbers, max_size=2)).map(
        lambda r: [*(r[0][c] for c in header), *r[1]])  # a full row, or a longer one
    lines = st.builds(
        lambda kind, row, cut, blank: row if kind < 8 else row[:cut] if kind == 8 else blank,
        st.integers(0, 9), rows, st.integers(1, 4),  # mostly full rows, some short ones
        st.sampled_from(([], [" "], ["\t"])),  # a blank line, or white space only
    ).map(",".join)
    ends = st.sampled_from(("\n", "\r\n", "\r"))
    body = draw(st.lists(st.tuples(lines, ends).map("".join), min_size=1, max_size=10))
    return "".join([",".join(header), "\n", *body])


@settings(max_examples=100)
@given(text=plain_files())
def _plain_files_read_as_by_the_csv_path(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("plain") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    with tokenized_by_csv() as records:
        got = _outcome(read_dataset, path)
    want = _outcome(read_dataset_by_rows, path)
    event(("csv takes over, " if records else "numpy only, ")
          + ("InputError" if isinstance(want, str) else "Dataset"))
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_dataset(got, want)


@pytest.mark.parametrize("chunk, field_limit", [(3, None), (4096, None), (3, 12), (4096, 12)])
def test_numpy_path_matches_the_csv_path_on_plain_files(monkeypatch, tmp_path_factory, chunk,
                                                        field_limit):
    # a field limit of 12 puts some lines of a plain-looking file beyond it
    monkeypatch.setattr(glmm_io, "_CHUNK", chunk)
    old = csv.field_size_limit(field_limit or csv.field_size_limit())
    try:
        _plain_files_read_as_by_the_csv_path(tmp_path_factory)
    finally:
        csv.field_size_limit(old)


def test_only_a_file_that_is_not_plain_reaches_the_csv_path(monkeypatch, tmp_path, grouped_csv):
    lines, grouped, _ = grouped_csv
    monkeypatch.setattr(glmm_io, "_CHUNK", 3)
    path = tmp_path / "data.csv"
    for end in ("\n", "\r\n", "\r"):
        path.write_bytes(end.join(["subject_id,y,x,u,t", *lines, ""]).encode("utf-8"))
        with tokenized_by_csv() as records:
            assert_same_dataset(read_dataset(str(path), MAPPING), grouped)
        assert records == []
    # one quoted cell, in the last chunk: csv tokenizes that chunk alone, and nothing is read twice
    quoted = '"{}",{}'.format(*lines[-1].split(",", 1))
    path.write_text("\n".join(["subject_id,y,x,u,t", *lines[:-1], quoted, ""]), encoding="utf-8")
    with tokenized_by_csv() as records:
        assert_same_dataset(read_dataset(str(path), MAPPING), grouped)
    assert records == [line.split(",") for line in lines[-3:]]
    # a group column that holds no number
    arms = ColumnMapping(covariates=("x", "u", "t"), group_by=("arm", "t"))
    armed = tmp_path / "arms.csv"
    armed.write_text("\n".join(["subject_id,y,x,u,t,arm",
                                *(f"{line},arm {line.split(',')[3]}" for line in lines), ""]),
                     encoding="utf-8")
    with tokenized_by_csv() as records:
        ds = read_dataset(str(armed), arms)
    assert records == []
    assert_same_dataset(ds, read_dataset_by_rows(str(armed), arms))
    levels = ("0.0", "1.0")
    assert set(ds.group_labels) == {f"arm=arm {u},t={t}" for u in levels for t in levels}


def test_a_plain_pipe_is_read_by_loadtxt(monkeypatch, tmp_path):
    # a pipe is read once, as a file is; csv takes over part way when a chunk is not plain
    monkeypatch.setattr(glmm_io, "_CHUNK", 1)
    plain = tmp_path / "data.csv"
    for i, (text, tokenized) in enumerate([
            ("subject_id,y,x,u,t\na,1,0.5,1,0\nb,0,0.1,0,1\n", []),
            ('subject_id,y,x,u,t\na,1,0.5,1,0\n"b",0,0.1,0,1\n', [["b", "0", "0.1", "0", "1"]])]):
        plain.write_text(text, encoding="utf-8")
        fifo = tmp_path / f"pipe{i}.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,),
                                  kwargs={"encoding": "utf-8"}, daemon=True)
        writer.start()
        with tokenized_by_csv() as records:
            ds = read_dataset(str(fifo), MAPPING)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert records == tokenized
        assert_same_dataset(ds, read_dataset(str(plain), MAPPING))


def test_many_distinct_keys_in_one_chunk_are_read_by_loadtxt(tmp_path):
    # six group columns of 4096 distinct cells: the product of their level counts is 2**72
    groups = ("g0", "g1", "g2", "g3", "g4", "g5")
    rows = [f"s{r // 2},{r % 2},{','.join(str(r * (2 * k + 1) % 4096) for k in range(6))}"
            for r in range(4096)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(["subject_id,y," + ",".join(groups), *rows, ""]), encoding="utf-8")
    mapping = ColumnMapping(group_by=groups)
    with tokenized_by_csv() as records:
        ds = read_dataset(str(path), mapping)
    assert records == []
    assert len(ds.group_index.group_ids) == 4096
    assert_same_dataset(ds, read_dataset_by_rows(str(path), mapping))


@pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_a_separator_before_a_number_is_a_fault(tmp_path, separator):
    # `loadtxt` strips these from a number as white space; `float` does not
    path = tmp_path / "data.csv"
    path.write_text(f"subject_id,y,x,u,t\na,1,{separator}0.5,1,0\n", encoding="utf-8")
    with pytest.raises(InputError, match="row 2, column 'x': cannot parse"):
        read_dataset(str(path), MAPPING)
    assert _outcome(read_dataset_by_rows, path) == _outcome(read_dataset, path)


@given(s=st.one_of(
    st.text(),
    st.sampled_from(SPELLINGS),
    st.lists(st.sampled_from((*SPELLINGS, "1", "5", ".", "e", "-", "+", "_", "n", "a", "i", "f",
                              "\x0b", "\x85", "\u2028", "\u3000")), max_size=5).map("".join),
))
def test_loadtxt_reads_a_number_as_float_does_or_not_at_all(s):
    # what the numpy path rests on: a cell of a plain chunk
    assume(not set(s) & set(',"\r\n\x00\x1c\x1d\x1e\x1f'))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a blank cell is no data
            got = np.loadtxt([s], dtype=float, delimiter=",", quotechar=None, comments=None,
                             ndmin=1)
    except ValueError:
        event("loadtxt raises")
        return
    event("no row" if got.size == 0 else "a number")
    if got.size:
        assert got.tobytes() == np.array([float(s)]).tobytes()


@pytest.mark.parametrize("cell", ["1", '"1"'])  # every chunk plain, or a quoted cell
def test_a_leading_byte_order_mark_is_skipped(tmp_path, cell):
    text = f"subject_id,y,x,u,t\na,1,0.5,{cell},0\n\ufeffb,0,0.1,0,1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(codecs.BOM_UTF8)
    ds = read_dataset(str(marked), MAPPING)
    assert_same_dataset(ds, read_dataset(str(plain), MAPPING))
    assert_same_dataset(ds, read_dataset_by_rows(str(marked), MAPPING))
    assert ds.subject_ids == ("a", "\ufeffb")  # a mark past the first stays part of its cell
    code, out, err = run_cli(["validate", "--input", str(marked), "--family", "logistic",
                              "--covariates", "x"])
    assert code == 0, err
    marked.write_text("\ufeff" + text, encoding="utf-8-sig")
    with pytest.raises(InputError, match="missing column"):
        read_dataset(str(marked), MAPPING)


# ---- the two constructors agree ------------------------------------------------------------


@st.composite
def subject_blocks(draw):
    p = draw(st.integers(1, 3))
    ids = draw(st.lists(st.text(max_size=3), min_size=1, max_size=5, unique=True))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    blocks = []
    for sid in ids:
        n = draw(st.integers(1, 4))
        blocks.append(
            SubjectBlock(
                subject_id=sid,
                y=draw(st.lists(finite, min_size=n, max_size=n)),
                X=np.array(draw(st.lists(finite, min_size=n * p, max_size=n * p))).reshape(n, p),
                groups=tuple(draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))),
            )
        )
    return blocks


@given(blocks=subject_blocks(), data=st.data())
def test_block_and_row_constructors_agree(blocks, data):
    ds = Dataset(blocks)
    rows = {
        "subject_ids": [b.subject_id for b in blocks for _ in range(b.n_obs)],
        "y": np.concatenate([b.y for b in blocks]),
        "X": np.vstack([b.X for b in blocks]),
        "groups": [g for b in blocks for g in b.groups],
    }
    assert_same_dataset(Dataset.from_rows(**rows), ds)
    assert_same_dataset(Dataset(ds.subjects), ds)

    n = ds.n_obs
    offsets = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    order = interleave(rows["subject_ids"], offsets)
    mixed = {k: [v[r] for r in order] if isinstance(v, list) else v[order] for k, v in rows.items()}
    assert_same_dataset(Dataset.from_rows(**mixed), ds)


# ---- fit and means never escape their exit-code contract ---------------------------------


def _tiny_csv_text():
    """16 subjects x 2 visits with responses unrelated to the covariates, so
    no covariate subset separates them and every fit ends quickly."""
    rng = np.random.default_rng(20)
    lines = ["subject_id,y,x,u,t"]
    for i in range(16):
        for t in (0, 1):
            lines.append(f"s{i},{rng.integers(0, 2)},{rng.uniform(-1, 1):.3f},{i % 2},{t}")
    return "\n".join(lines) + "\n"


column_lists = st.lists(st.sampled_from(("x", "u", "t", "y", "nope")), max_size=4).map(",".join)
config_values = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 3), st.floats(), st.text(max_size=4),
    st.sampled_from(("json", "csv", "negbin", "0.1")), column_lists, st.lists(st.integers(), max_size=2),
)
configs = st.dictionaries(
    st.sampled_from(("alpha", "format", "covariates", "group_by", "group-by", "family", "reps",
                     "seed", "design", "command", "config")),
    config_values,
    max_size=3,
)


def _numbers(text):
    """Every number in a JSON or CSV output; JSON's Infinity and NaN and
    CSV's inf and nan included."""
    try:
        stack, found = [json.loads(text)], []
        while stack:
            item = stack.pop()
            if isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, list):
                stack.extend(item)
            elif isinstance(item, (int, float)) and not isinstance(item, bool):
                found.append(float(item))
        return found
    except ValueError:
        found = []
        for row in csv.reader(io.StringIO(text)):
            for cell in row:
                try:
                    found.append(float(cell))
                except ValueError:
                    pass
        return found


@settings(max_examples=25)
@given(command=st.sampled_from(("fit", "means")), family=st.sampled_from(("logistic", "negbin")),
       covariates=column_lists, group_by=column_lists, config=st.none() | configs)
@example(command="means", family="negbin", covariates="y", group_by="", config=None)
def test_fit_and_means_exit_by_contract(tmp_path_factory, command, family, covariates, group_by,
                                        config):
    folder = tmp_path_factory.mktemp("cli")
    (folder / "data.csv").write_text(_tiny_csv_text(), encoding="utf-8")
    args = [command, "--input", str(folder / "data.csv"), "--family", family,
            "--covariates", covariates, "--group-by", group_by]
    if config is not None:
        (folder / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        args += ["--config", str(folder / "cfg.json")]
    code, out, err = run_cli(args)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    if code:
        assert set(json.loads(err)) == {"error"}
        assert "Traceback" not in err
    else:
        assert out
        assert all(math.isfinite(v) for v in _numbers(out))


def test_means_with_a_non_finite_estimate_exits_2_and_writes_nothing(tmp_path):
    # the covariate equals the {0, 1} response, which separates it: the NB
    # fit converges to a corner whose marginal variance overflows to inf
    (tmp_path / "data.csv").write_text(_tiny_csv_text(), encoding="utf-8")
    out = tmp_path / "means.json"
    code, stdout, err = run_cli(["means", "--input", str(tmp_path / "data.csv"), "--family",
                                 "negbin", "--covariates", "y", "--format", "json", "--out", str(out)])
    assert code == 2
    assert json.loads(err)["error"] == {"code": "non_convergence",
                                        "message": "mu_se of group all is inf",
                                        "warnings": SEPARATED_NB_WARNINGS}
    assert stdout == "" and not out.exists()


# what numpy warns of on the way to the inf above, in the order raised
SEPARATED_NB_WARNINGS = [
    {"category": "RuntimeWarning", "message": "overflow encountered in exp"},
    {"category": "RuntimeWarning", "message": "overflow encountered in expm1"},
    {"category": "RuntimeWarning", "message": "invalid value encountered in add"},
]


def test_stderr_of_a_failed_run_is_one_json_object(tmp_path):
    # in a fresh interpreter, where no test harness captures warnings: the
    # numpy warnings of the run above go into the error JSON, not before it
    (tmp_path / "data.csv").write_text(_tiny_csv_text(), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "glmm_means", "means", "--input",
                           str(tmp_path / "data.csv"), "--family", "negbin", "--covariates", "y",
                           "--format", "json"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["warnings"] == SEPARATED_NB_WARNINGS


# ---- estimates do not depend on subject order or on the spelling of group labels -------


DESIGNS = [(make, control) for make in (logistic_design, negbin_design) for control in ("gender", "time")]


def _rows(ds, order=None, rename=None):
    """Dataset.from_rows arguments for `ds`, subjects in `order`, labels renamed."""
    subjects = range(ds.n_subjects) if order is None else order
    rows = np.concatenate([np.arange(ds.row_offsets[k], ds.row_offsets[k + 1]) for k in subjects])
    labels = [ds.group_labels[r] for r in rows]
    return dict(subject_ids=[ds.subject_ids[ds.subject_index[r]] for r in rows], y=ds.y[rows],
                X=ds.X[rows], groups=labels if rename is None else [rename[g] for g in labels])


def _estimates(ds, family):
    fitted = fit(ds, ModelSpec(family=family, p=ds.p))
    return fitted, marginal_estimates(fitted), conditional_estimates(fitted)


def _interior(fitted):
    """sigma2 and kappa off their bounds.  At a bound, Cov(psi_hat) is the
    inverse of an ill-conditioned score matrix (condition ~1e20 at the
    sigma2 = 1e-10, kappa = 1e6 corner), so the reported variances follow
    rounding, and reordering its sums can move them by ~1e-4 relative."""
    held = [(fitted.params.sigma2, LOG_SIGMA2_BOUNDS)]
    if fitted.params.kappa is not None:
        held.append((fitted.params.kappa, LOG_KAPPA_BOUNDS))
    return all(math.exp(lo) < v < math.exp(hi) for v, (lo, hi) in held)


@settings(max_examples=12)
@given(design=st.sampled_from(DESIGNS), seed=st.integers(0, 10**6), shuffle=st.integers(0, 2**32 - 1))
def test_estimates_do_not_depend_on_subject_order(design, seed, shuffle):
    make, control = design
    sim = make(control=control, replications=1)
    ds = generate_dataset(sim, seed=seed)
    order = np.random.default_rng(shuffle).permutation(ds.n_subjects)
    base = _estimates(ds, sim.family)
    shuffled = _estimates(Dataset.from_rows(**_rows(ds, order)), sim.family)
    assume(base[0].converged and shuffled[0].converged and _interior(base[0]))
    for a, b in ((base[1], shuffled[1]), (base[2], shuffled[2])):
        assert set(a) == set(b)
        for gid, est in a.items():
            assert b[gid].point == pytest.approx(est.point, rel=1e-8, abs=0)
            assert b[gid].variance == pytest.approx(est.variance, rel=1e-8, abs=0)


@settings(max_examples=8)
@given(design=st.sampled_from(DESIGNS), seed=st.integers(0, 10**6),
       names=st.lists(st.text(min_size=1, max_size=6), min_size=4, max_size=4, unique=True))
def test_renamed_groups_get_the_same_estimates(design, seed, names):
    make, control = design
    sim = make(control=control, replications=1, arm_sizes=(40, 36, 40, 32))
    ds = generate_dataset(sim, seed=seed)
    rename = dict(zip(ds.group_index.group_ids, names))
    base = _estimates(Dataset.from_rows(**_rows(ds)), sim.family)
    renamed = _estimates(Dataset.from_rows(**_rows(ds, rename=rename)), sim.family)
    for a, b in ((base[1], renamed[1]), (base[2], renamed[2])):
        assert list(b) == [rename[g] for g in a]
        for gid, est in a.items():
            assert b[rename[gid]] == dataclasses.replace(est, group_id=rename[gid])
