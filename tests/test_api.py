"""The package's public surface is what README documents."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import glmm_means

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_exports_are_the_names_readme_documents():
    section = README.split("## Library use", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)`", section, re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(glmm_means.__all__)
    assert set(re.findall(r"\bgm\.(\w+)", README)) <= set(glmm_means.__all__)
    for name in glmm_means.__all__:
        assert getattr(glmm_means, name) is not None


COLD_START = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy or a scipy submodule now fails
import glmm_means
from glmm_means import cli

data = sys.argv[1]
codes = []
for family in ("logistic", "negbin"):
    for command in ("means", "fit"):
        codes.append(cli.main([command, "--input", data, "--family", family, "--covariates", "x,t",
                               "--group-by", "t", "--format", "json", "--out", sys.argv[2]]))
    codes.append(cli.main(["simulate", "--family", family, "--reps", "1", "--seed", "3",
                           "--out", sys.argv[2]]))
assert "multiprocessing" not in sys.modules  # the process pool loads only when a study starts one
print(json.dumps(codes))
"""


def test_a_run_needs_no_scipy(tmp_path):
    # the NB gamma-function terms are finite sums, the normal quantile comes
    # from statistics.NormalDist and the matrix work from numpy.linalg; only
    # the opt-in quasi-Newton path imports scipy (its L-BFGS-B minimizer)
    rng = np.random.default_rng(4)
    lines = ["subject_id,y,x,t"]
    for i in range(30):
        lines += [f"s{i},{rng.integers(0, 2)},{rng.uniform(-1, 1):.3f},{t}" for t in (0, 1)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    src = str(Path(glmm_means.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(path), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0] * 6
