"""Property-based checks of CSV ingestion, the stacked dataset and the CLI contract."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmm_means.cli as cli
from glmm_means import (
    ColumnMapping,
    Dataset,
    SubjectBlock,
    generate_dataset,
    logistic_design,
    read_dataset,
)

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
    for name in ("y", "X", "weights", "subject_index", "row_offsets"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert a.subject_ids == b.subject_ids
    assert a.group_labels == b.group_labels
    assert a.group_index.group_ids == b.group_index.group_ids
    for g in a.group_index.group_ids:
        assert np.array_equal(a.group_index.indices[g], b.group_index.indices[g])


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
                weights=draw(st.none() | st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)),
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
        "weights": np.concatenate([b.weights for b in blocks]),
    }
    assert_same_dataset(Dataset.from_rows(**rows), ds)
    assert_same_dataset(Dataset(ds.subjects), ds)

    n = ds.n_obs
    offsets = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    order = interleave(rows["subject_ids"], offsets)
    mixed = {k: [v[r] for r in order] if isinstance(v, list) else v[order] for k, v in rows.items()}
    assert_same_dataset(Dataset.from_rows(**mixed), ds)
