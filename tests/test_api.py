"""The package's public surface is what README documents."""

import re
from pathlib import Path

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
