"""Hash the output of every benchmark pool input, to check that a change
leaves every output bit unchanged.

    PYTHONPATH=src python3 tools/pool_digests.py [--out FILE] [--compare FILE]

Run from the root of a checkout.  For every op that perfbench/reference/
stores (`workloads.reference_key_ops` of every workload, at tiny and full
size) it calls the op once and hashes the op's output digest, serialized
as sorted-key JSON, with sha256.  It writes `{op key: hex digest}` as JSON
to FILE, or to stdout.  With `--compare FILE`, a map written the same way
at another commit, it prints each key whose hash differs or that only one
side has, and exits 1 if there is any.  The BLAS thread variables are
pinned to 1, as the benchmark pins them, unless they are already set.
perfbench/workloads.py is imported as it is; nothing under perfbench/ is
written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def pool_digests() -> dict[str, str]:
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for size in ("tiny", "full"):
            for workload in workloads.WORKLOADS:
                for op in workloads.reference_key_ops(workload, size):
                    op.prepare(Path(tmp))
                    text = json.dumps(op.digest(op.call()), sort_keys=True)
                    hashes[op.key] = hashlib.sha256(text.encode()).hexdigest()
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the hashes here instead of stdout")
    parser.add_argument("--compare", help="hashes from another commit to compare with")
    args = parser.parse_args(argv)
    hashes = pool_digests()
    text = json.dumps(hashes, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.compare is None:
        return 0
    other = json.loads(Path(args.compare).read_text(encoding="utf-8"))
    differ = sorted(k for k in hashes.keys() | other.keys() if hashes.get(k) != other.get(k))
    for key in differ:
        print(f"differs: {key}", file=sys.stderr)
    print(f"{len(differ)} of {len(hashes.keys() | other.keys())} pool digests differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
