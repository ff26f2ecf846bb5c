"""CSV ingestion, the command-line surface, and its exit-code contract."""

import importlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import glmm_means.cli as cli
import glmm_means.simulate as simulate
from glmm_means import Family, FitConfig, ModelSpec, fit, generate_dataset, logistic_design
from glmm_means.io import ColumnMapping, InputError, read_dataset

MAPPING = ColumnMapping(covariates=("x", "u", "t"), group_by=("u", "t"))
SIMULATE_ARGS = ["simulate", "--family", "logistic", "--reps", "1", "--seed", "3"]


def write_dataset_csv(path, dataset):
    """Full-precision CSV for round-trip tests (column layout of read_dataset)."""
    lines = ["subject_id,y,x,u,t"]
    for subject in dataset.subjects:
        for row in range(subject.n_obs):
            x = subject.X[row]
            cells = [repr(float(v)) for v in (subject.y[row], x[1], x[2], x[3])]
            lines.append(",".join([subject.subject_id, *cells]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture()
def small_csv(tmp_path):
    design = logistic_design(arm_sizes=(30, 26, 30, 24), replications=1, seed=6)
    dataset = generate_dataset(design, seed=8)
    path = tmp_path / "data.csv"
    write_dataset_csv(path, dataset)
    return path, dataset


# ---- read_dataset -------------------------------------------------------------


def test_two_row_toy_roundtrip(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("subject_id,y,x,u,t\na,1,0.5,1,0\na,0,0.5,1,1\n", encoding="utf-8")
    ds = read_dataset(str(p), MAPPING)
    assert ds.n_subjects == 1
    assert ds.n_obs == 2
    assert ds.p == 4  # intercept prepended
    np.testing.assert_array_equal(ds.X[:, 0], 1.0)
    assert ds.group_labels == ("u=1,t=0", "u=1,t=1")


def test_missing_column_is_an_input_error(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("subject_id,y,x\na,1,0.5\n", encoding="utf-8")
    with pytest.raises(InputError, match="missing column"):
        read_dataset(str(p), MAPPING)


def test_non_numeric_cell_names_row_and_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("subject_id,y,x,u,t\na,1,0.5,1,0\nb,NA,0.1,0,1\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"row 3, column 'y'"):
        read_dataset(str(p), MAPPING)


def test_empty_file_is_an_input_error(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(InputError, match="empty"):
        read_dataset(str(p), MAPPING)


def test_header_only_file_is_an_input_error(tmp_path):
    p = tmp_path / "header.csv"
    p.write_text("subject_id,y,x,u,t\n", encoding="utf-8")
    with pytest.raises(InputError, match="no data rows"):
        read_dataset(str(p), MAPPING)


def test_missing_file_is_an_input_error(tmp_path):
    with pytest.raises(InputError, match="cannot open"):
        read_dataset(str(tmp_path / "nope.csv"), MAPPING)


def test_repeated_header_column_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "twice.csv"
    p.write_text("subject_id,y,x,x\na,1,0.5,9\nb,0,0.1,9\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"'x' appear more than once"):
        read_dataset(str(p), ColumnMapping(covariates=("x",)))
    code, out, err = run_cli(
        ["validate", "--input", str(p), "--family", "logistic", "--covariates", "x"], capsys
    )
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "io"


def test_repeated_unused_header_column_is_ignored(tmp_path):
    p = tmp_path / "extra.csv"
    p.write_text("subject_id,y,x,note,note\na,1,0.5,p,q\n", encoding="utf-8")
    ds = read_dataset(str(p), ColumnMapping(covariates=("x",)))
    np.testing.assert_array_equal(ds.X, [[1.0, 0.5]])


@pytest.mark.parametrize("row", ["b,0,0.1,0", "b,0", "b"])
def test_short_row_is_an_input_error(tmp_path, capsys, row):
    p = tmp_path / "short.csv"
    p.write_text(f"subject_id,y,x,u,t\na,1,0.5,1,0\n{row}\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"row 3: \d cells, but column 't' is cell 5"):
        read_dataset(str(p), MAPPING)
    code, _, err = run_cli(["validate", "--input", str(p), *BASE], capsys)
    assert code == 3
    assert json.loads(err)["error"]["code"] == "io"


@pytest.mark.parametrize(
    "content, message",
    [(b"subject_id,y\na,\xff\n", "can't decode"),
     (b"subject_id,y\na," + b"1" * 200_000 + b"\n", "field larger than field limit")],
)
def test_unreadable_csv_is_an_input_error(tmp_path, capsys, content, message):
    p = tmp_path / "bad.csv"
    p.write_bytes(content)
    with pytest.raises(InputError, match=message):
        read_dataset(str(p), ColumnMapping())
    code, _, err = run_cli(["validate", "--input", str(p), "--family", "logistic"], capsys)
    assert code == 3
    assert json.loads(err)["error"]["code"] == "io"


def test_interleaved_subjects_are_grouped_by_first_appearance(tmp_path):
    p = tmp_path / "mixed.csv"
    p.write_text(
        "subject_id,y,x,u,t\nb,1,0.1,0,0\na,0,0.2,1,0\n\nb,0,0.3,0,1\na,1,0.4,1,1\nb,1,0.5,0,1\n",
        encoding="utf-8",
    )
    ds = read_dataset(str(p), MAPPING)
    assert ds.subject_ids == ("b", "a")
    np.testing.assert_array_equal(ds.row_offsets, [0, 3, 5])
    np.testing.assert_array_equal(ds.X[:, 1], [0.1, 0.3, 0.5, 0.2, 0.4])
    np.testing.assert_array_equal(ds.y, [1.0, 0.0, 1.0, 0.0, 1.0])
    assert ds.group_labels == ("u=0,t=0", "u=0,t=1", "u=0,t=1", "u=1,t=0", "u=1,t=1")


def test_group_value_spelled_two_ways_is_an_input_error(tmp_path, capsys):
    # "1" and "1.0" are one covariate value, but as labels they made the
    # two groups u=1 and u=1.0
    p = tmp_path / "spelled.csv"
    p.write_text(
        "subject_id,y,x,u,t\na,1,0.5,1,0\na,0,0.5,0,0\nb,1,0.1,1.0,0\nb,0,0.1,0,0\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match=r"row 4, column 'u': group value '1.0' equals '1'"):
        read_dataset(str(p), MAPPING)
    code, out, err = run_cli(["means", "--input", str(p), *BASE], capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "io"


def test_group_labels_keep_their_spelling(tmp_path):
    # consistent spellings pass through verbatim, numeric or not
    p = tmp_path / "labels.csv"
    p.write_text(
        "subject_id,y,x,u,t,arm\na,1,0.5,1.0,0,ctl\na,0,0.5,1.0,1,ctl\nb,1,0.1,0,0,trt\n",
        encoding="utf-8",
    )
    ds = read_dataset(str(p), ColumnMapping(covariates=("x", "u", "t"), group_by=("arm", "u")))
    assert ds.group_labels == ("arm=ctl,u=1.0", "arm=ctl,u=1.0", "arm=trt,u=0")
    one = read_dataset(str(p), ColumnMapping(covariates=("x",), group_by=("t",)))
    assert one.group_labels == ("t=0", "t=1", "t=0")
    assert read_dataset(str(p), ColumnMapping(covariates=("x",))).group_labels == ("all",) * 3


def test_csv_roundtrip_reproduces_the_fit(small_csv):
    path, dataset = small_csv
    ds2 = read_dataset(str(path), MAPPING)
    spec = ModelSpec(family=Family.LOGISTIC, p=4)
    f1 = fit(dataset, spec, FitConfig())
    f2 = fit(ds2, spec, FitConfig())
    assert np.array_equal(f1.params.beta, f2.params.beta)
    assert f1.params.sigma2 == f2.params.sigma2
    assert f1.loglik == f2.loglik



def test_reader_holds_one_chunk_of_records_not_the_file(tmp_path):
    # the parsed records of a chunk are dropped before the next is read, so
    # what the reader needs beyond the Dataset it returns stays bounded
    rng = np.random.default_rng(7)
    y, x = rng.integers(0, 2, size=40000), rng.uniform(-1.0, 1.0, size=40000)
    lines = [f"s{r // 2},{y[r]},{x[r]:.4f},{r // 2 % 2},{r % 2}" for r in range(40000)]
    path = tmp_path / "long.csv"
    path.write_text("\n".join(["subject_id,y,x,u,t", *lines]) + "\n", encoding="utf-8")
    del lines
    tracemalloc.start()
    try:
        ds = read_dataset(str(path), MAPPING)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n_obs == 40000 and ds.n_subjects == 20000
    assert peak - kept < 10e6

# ---- CLI commands -------------------------------------------------------------


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--family", "logistic", "--covariates", "x,u,t", "--group-by", "u,t"]


def test_cli_fit_json(small_csv, capsys, tmp_path):
    path, _ = small_csv
    out = tmp_path / "fit.json"
    code, _, err = run_cli(
        ["fit", "--input", str(path), *BASE, "--format", "json", "--out", str(out)], capsys
    )
    assert code == 0, err
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    names = [p["name"] for p in payload["params"]]
    assert names == ["beta_intercept", "beta_x", "beta_u", "beta_t", "sigma2"]


def test_cli_fit_json_is_full_precision(small_csv, capsys, tmp_path):
    path, dataset = small_csv
    out = tmp_path / "fit.json"
    code, _, _ = run_cli(
        ["fit", "--input", str(path), *BASE, "--format", "json", "--out", str(out)], capsys
    )
    assert code == 0
    payload = json.loads(out.read_text())
    fitted = fit(dataset, ModelSpec(family=Family.LOGISTIC, p=4), FitConfig())
    est = [p["estimate"] for p in payload["params"]]
    np.testing.assert_array_equal(est[:4], fitted.params.beta)
    assert est[4] == fitted.params.sigma2


def test_cli_means_column_contract(small_csv, capsys):
    path, _ = small_csv
    code, out, err = run_cli(["means", "--input", str(path), *BASE], capsys)
    assert code == 0, err
    header = out.splitlines()[0].split(",")
    assert header[:9] == [
        "group", "n", "Ybar", "mu_star", "mu_star_se",
        "lambda_hat", "lambda_se", "mu_hat", "mu_se",
    ]
    pairs = header[9:]
    assert len(pairs) % 2 == 0
    for lo, hi in zip(pairs[::2], pairs[1::2]):
        assert lo.endswith("_lo") and hi.endswith("_hi")
        assert lo[:-3] == hi[:-3]
    assert len(out.splitlines()) == 5  # header + 4 groups


def test_cli_means_negbin_includes_lognormal_interval(tmp_path, capsys):
    from glmm_means import negbin_design

    design = negbin_design(arm_sizes=(24, 20, 24, 18), replications=1, seed=4)
    dataset = generate_dataset(design, seed=2)
    path = tmp_path / "nb.csv"
    write_dataset_csv(path, dataset)
    code, out, err = run_cli(
        ["means", "--input", str(path), "--family", "negbin",
         "--covariates", "x,u,t", "--group-by", "u,t"],
        capsys,
    )
    assert code == 0, err
    header = out.splitlines()[0].split(",")
    assert "mu_lognormal_lo" in header and "mu_lognormal_hi" in header


def test_cli_validate_rank_deficiency(tmp_path, capsys):
    p = tmp_path / "rank.csv"
    rows = ["subject_id,y,x,u,t"]
    rng = np.random.default_rng(0)
    for i in range(12):
        x = rng.uniform(0, 1)
        rows.append(f"s{i},{i % 2},{x},{2*x},0")  # u = 2x: collinear with x
    p.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run_cli(["validate", "--input", str(p), *BASE], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any(v["code"] == "rank" for v in payload["violations"])
    error = json.loads(err)["error"]
    assert error["code"] == "validation"
    assert [v["code"] for v in error["detail"]] == [v["code"] for v in payload["violations"]]


def test_cli_validate_clean(small_csv, capsys):
    path, _ = small_csv
    code, out, _ = run_cli(["validate", "--input", str(path), *BASE], capsys)
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_cli_means_rejects_infinite_count(tmp_path, capsys):
    p = tmp_path / "inf.csv"
    rows = ["subject_id,y,x,u,t"]
    for i in range(12):
        y = "inf" if i == 3 else str(i % 4)
        rows.append(f"s{i},{y},{i / 12},{i % 2},0")
    p.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, _, err = run_cli(
        ["means", "--input", str(p), "--family", "negbin", "--covariates", "x,u", "--group-by", "u"],
        capsys,
    )
    assert code == 1
    error = json.loads(err)["error"]
    assert error["code"] == "validation"
    assert [v["code"] for v in error["detail"]] == ["response"]


def test_cli_missing_file_exits_3(capsys):
    code, _, err = run_cli(["fit", "--input", "/nonexistent.csv", *BASE], capsys)
    assert code == 3
    assert json.loads(err)["error"]["code"] == "io"


@pytest.mark.parametrize("command", ["fit", "means", "simulate", "validate"])
def test_cli_out_in_a_missing_directory_exits_3(small_csv, capsys, tmp_path, command):
    path, _ = small_csv
    out_path = tmp_path / "missing" / "out.csv"
    argv = ([*SIMULATE_ARGS, "--out", str(out_path)] if command == "simulate"
            else [command, "--input", str(path), *BASE, "--out", str(out_path)])
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "io"
    assert error["message"].startswith(f"cannot write {out_path}: ")


def test_cli_unwritable_out_exits_3_before_any_fit_or_replication(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli, "run_study", refuse)
    monkeypatch.setattr(cli, "fit", refuse)
    (tmp_path / "file").write_text("", encoding="utf-8")
    for out_path, reason in ((tmp_path / "missing" / "x.csv", "No such file or directory"),
                             (tmp_path / "file" / "x.csv", "Not a directory"),
                             (tmp_path, "Is a directory")):
        code, out, err = run_cli(
            ["simulate", "--family", "logistic", "--reps", "500", "--out", str(out_path)], capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "io"
        assert error["message"] == f"cannot write {out_path}: {reason}"
    assert not (tmp_path / "missing").exists()


def test_cli_usage_error_exits_1(capsys):
    code, _, err = run_cli(["fit", "--family", "logistic"], capsys)  # no --input
    assert code == 1
    assert json.loads(err)["error"]["code"] == "usage"
    # an alpha outside (0, 1] is refused before any file is read or replication run
    for argv in (["simulate", "--family", "logistic", "--reps", "2", "--alpha", "2"],
                 ["means", "--input", "/nonexistent.csv", *BASE, "--alpha", "0"],
                 ["means", "--input", "/nonexistent.csv", *BASE, "--alpha", "nan"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "usage"
        assert "argument --alpha: must be in (0, 1]" in error["message"]


def test_cli_thread_count_that_is_no_number_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("GLMM_GM_THREADS", "abc")
    code, out, err = run_cli([*SIMULATE_ARGS, "--reps", "4"], capsys)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["message"] == "GLMM_GM_THREADS must be a whole number, not 'abc'"


def test_cli_nonconvergence_exits_2(small_csv, capsys, monkeypatch):
    path, _ = small_csv

    def fake_fit(dataset, spec, config):
        real = fit(dataset, spec, config)
        object.__setattr__(real, "converged", False)
        return real

    monkeypatch.setattr(cli, "fit", fake_fit)
    code, _, err = run_cli(["fit", "--input", str(path), *BASE], capsys)
    assert code == 2
    assert json.loads(err)["error"]["code"] == "non_convergence"


def test_cli_study_with_every_replication_failed_exits_2(capsys, monkeypatch):
    def fake_fit_batch(datasets, spec, config):
        fits = [fit(ds, spec, config) for ds in datasets]
        for real in fits:
            object.__setattr__(real, "converged", False)
        return fits

    monkeypatch.setattr(simulate, "fit_batch", fake_fit_batch)
    code, out, err = run_cli([*SIMULATE_ARGS, "--reps", "2"], capsys)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "non_convergence"
    assert "every replication failed" in error["message"]
    assert "(2 × non-convergence)" in error["message"]


def test_cli_study_whose_every_replication_raises_names_the_exception(capsys, monkeypatch):
    def failing_fit_batch(datasets, spec, config):
        return [ValueError("boom") for _ in datasets]  # fit_batch returns each fit's exception

    monkeypatch.setattr(simulate, "fit_batch", failing_fit_batch)
    code, out, err = run_cli([*SIMULATE_ARGS, "--reps", "2"], capsys)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["message"] == ("every replication failed (2 × ValueError: boom); "
                                "study cannot be summarized")


def test_cli_simulate_single_replication(capsys):
    code, out, err = run_cli(
        ["simulate", "--family", "logistic", "--reps", "1", "--seed", "5", "--format", "csv"],
        capsys,
    )
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0].startswith("kind,T1,T2,U,t")
    assert len(lines) == 9  # header + 4 marginal + 4 conditional rows


def test_cli_config_file_defaults(small_csv, capsys, tmp_path):
    path, _ = small_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json", "covariates": "x,u,t", "group_by": "u,t"}))
    code, out, _ = run_cli(
        ["fit", "--input", str(path), "--family", "logistic", "--config", str(cfg)], capsys
    )
    assert code == 0
    assert json.loads(out)["converged"] is True


def test_cli_config_file_may_start_with_a_byte_order_mark(small_csv, capsys, tmp_path):
    path, _ = small_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json", "covariates": "x,u,t"}), encoding="utf-8-sig")
    code, out, err = run_cli(
        ["fit", "--input", str(path), "--family", "logistic", "--config", str(cfg)], capsys
    )
    assert code == 0, err
    assert json.loads(out)["converged"] is True


def test_cli_flags_override_config(small_csv, capsys, tmp_path):
    path, _ = small_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json"}))
    code, out, _ = run_cli(
        ["fit", "--input", str(path), *BASE, "--config", str(cfg), "--format", "csv"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "name,estimate,se"


def test_cli_abbreviated_flag_overrides_config(small_csv, capsys, tmp_path):
    # an explicit flag wins even when argparse has to expand its prefix
    path, _ = small_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "reps": 3}))  # means has no --reps: ignored
    means = ["means", "--input", str(path), *BASE]
    code, out, err = run_cli([*means, "--config", str(cfg), "--alph", "0.05"], capsys)
    assert code == 0, err
    assert out == run_cli([*means, "--alpha", "0.05"], capsys)[1]
    code, from_config, _ = run_cli([*means, "--config", str(cfg)], capsys)
    assert code == 0
    assert from_config == run_cli([*means, "--alpha", "0.5"], capsys)[1] != out


def test_cli_config_supplies_required_options(small_csv, capsys, tmp_path):
    path, _ = small_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(path), "family": "logistic", "format": "json",
                               "covariates": "x,u,t", "group_by": "u,t"}))
    code, out, err = run_cli(["fit", "--config", str(cfg)], capsys)
    assert code == 0, err
    assert out == run_cli(["fit", "--input", str(path), *BASE, "--format", "json"], capsys)[1]
    # given neither in the config nor as flags, they stay a usage error
    cfg.write_text(json.dumps({"format": "json"}))
    for argv in (["fit", "--config", str(cfg)], ["fit"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "usage"
        assert "the following arguments are required: --input, --family" in error["message"]


@pytest.mark.parametrize(
    "config, message",
    [({"alpha": "abc"}, "invalid float value: 'abc'"),
     ({"format": "xml"}, "invalid choice: 'xml'"),
     ({"command": "simulate"}, "config key 'command' is not an option"),
     ({"config": "other.json"}, "config key 'config' is not an option"),
     ({"covariates": ["x", "u"]}, "config value of 'covariates' must be a string or a number")],
)
def test_cli_config_values_are_checked_like_flags(small_csv, capsys, tmp_path, config, message):
    path, _ = small_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(["means", "--input", str(path), *BASE, "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "usage"
    assert message in error["message"]


def test_console_script_target_runs(capsys, monkeypatch):
    # the [project.scripts] entry an installed `glmm-means` calls, read from pyproject.toml
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["glmm-means"]
    module, _, attr = target.partition(":")
    main = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["glmm-means", *SIMULATE_ARGS])
    assert main() == 0
    assert capsys.readouterr().out.startswith("kind,")


def test_csv_cells_use_six_significant_digits():
    from glmm_means.io import _csv_cell

    assert _csv_cell(0.123456789) == "0.123457"
    assert _csv_cell(1234567.89) == "1.23457e+06"
    assert _csv_cell(None) == ""
    assert _csv_cell(True) == "true"
    assert _csv_cell(7) == "7"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "glmm_means", *SIMULATE_ARGS],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("kind,")
