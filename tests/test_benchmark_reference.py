"""The benchmark's correctness gate, run as part of the test suite.

perfbench/reference/ stores the output of every benchmark pool input, and
perfbench/workloads.py checks an output against it (relative tolerance
1e-3; see perfbench/README.md).  Running that check here makes a change
that moves a pool optimum fail the tests, not only a benchmark run.  The
benchmark module is imported as it is; nothing under perfbench/ is written.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

REFERENCE = workloads.load_reference()


def _pool(size):
    return [op for w in workloads.WORKLOADS for op in workloads.reference_key_ops(w, size)]


def _check(op, tmp_path):
    op.prepare(tmp_path)
    failed, mismatches = op.check(op.digest(op.call()), REFERENCE[op.key])
    assert failed == 0, f"{op.key}: {failed} failed"
    assert not mismatches, f"{op.key}: {mismatches[:5]}"


@pytest.mark.parametrize("op", _pool("tiny"), ids=lambda op: op.key)
def test_tiny_pool_matches_reference(op, tmp_path):
    _check(op, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("op", _pool("full"), ids=lambda op: op.key)
def test_full_pool_matches_reference(op, tmp_path):
    _check(op, tmp_path)
