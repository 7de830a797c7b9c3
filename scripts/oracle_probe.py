#!/usr/bin/env python3
"""Wall time, report digest and peak memory of `verify` on large documents.

Each run calls `homothety_orbits.cli.main(["verify", "--input", ...])`
in a fresh process, so that the peak resident set size (ru_maxrss) is the
document's own; the import of the package is not timed.  The documents
take turns, in alternating order from one round to the next.  One line
per document gives the median wall time over the rounds, the sha256 of
exit code and report (the same in every round, else the line says so)
and the largest peak RSS.  Comparing a change with its parent:

    python3 scripts/oracle_probe.py
    python3 scripts/oracle_probe.py --repo ../parent-checkout

`--repo` selects the checkout whose `src/` is used (default: the one
holding this script).  JSON documents given as arguments are run in place
of the built-in two.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE_ROOT = Path(__file__).resolve().parent.parent
# (name, document): verify at the default caps, where the breadth-first
# search runs to its word cap or its 2,000,000-point budget
DOCUMENTS = [
    ("c1-spiral-pair-and-2", {
        "dim": 1,
        "generators": [
            {"ratio": "1+i", "center": ["0"]},
            {"ratio": "i", "center": ["1"]},
            {"ratio": "2", "center": ["i"]},
        ],
        "points": [["1/2"]],
    }),
    ("c2-three-centres", {
        "dim": 2,
        "generators": [
            {"ratio": "3/5+4/5i", "center": ["0", "0"]},
            {"ratio": "2", "center": ["1", "0"]},
            {"ratio": "3", "center": ["2", "0"]},
        ],
        "points": [["0", "1"]],
    }),
]


def run_one(src: str, doc: dict) -> tuple:
    """(seconds, sha256 of exit code and stdout, peak RSS in MB) of one
    `verify` run, in the calling process."""
    sys.path.insert(0, src)
    from homothety_orbits import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", "--input", path])
        seconds = time.perf_counter() - t0
    digest = hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()
    return seconds, digest, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=HERE_ROOT)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("documents", nargs="*", type=Path)
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    documents = [(p.stem, json.loads(p.read_text())) for p in args.documents] or DOCUMENTS
    src = str(args.repo.resolve() / "src")
    runs = {name: [] for name, _ in documents}
    ctx = multiprocessing.get_context("spawn")
    for r in range(args.rounds):
        for name, doc in documents[:: 1 if r % 2 == 0 else -1]:
            with concurrent.futures.ProcessPoolExecutor(1, mp_context=ctx) as pool:
                runs[name].append(pool.submit(run_one, src, doc).result())
    for name, results in runs.items():
        seconds, digests, rss = zip(*results)
        digest = digests[0] if len(set(digests)) == 1 else "DIFFERS between rounds"
        print(f"{name:<22} median {statistics.median(seconds):7.2f} s  "
              f"[{min(seconds):.2f}-{max(seconds):.2f}]  sha256 {digest}  "
              f"peak RSS {max(rss):6.0f} MB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
