#!/usr/bin/env python3
"""One sha256 per workload over the CLI reports of a fixed document set.

Runs, in-process, the seeded documents of both benchmark workloads
(`classify` on classify-exact, `verify` on verify-exact, built by
perfbench/workloads.py) and `paper-examples`, and hashes every document's
exit code and stdout in order.  Two checkouts print the same digests
exactly when their reports are byte-identical, so comparing a change with
its parent takes one command per checkout:

    python3 scripts/report_digest.py
    python3 scripts/report_digest.py --repo ../parent-checkout

`--repo` selects the checkout whose `src/` and `perfbench/` are used
(default: the one holding this script).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = (("classify-exact", "classify"), ("verify-exact", "verify"))
SEEDS = (1, 2, 3, 4, 5)
ROUNDS = 2


def run_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=HERE_ROOT)
    args = ap.parse_args()
    root = args.repo.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from homothety_orbits import cli
    from workloads import WORKLOADS as BENCH

    with tempfile.TemporaryDirectory() as tmp:
        for name, command in WORKLOADS:
            h = hashlib.sha256()
            count = 0
            for seed in SEEDS:
                for family, doc in BENCH[name].documents(seed, ROUNDS):
                    path = os.path.join(tmp, "doc.json")
                    with open(path, "w") as fh:
                        json.dump(doc, fh)
                    code, out = run_cli(cli, [command, "--input", path])
                    h.update(f"{seed}:{count}:{family}:{code}\n".encode())
                    h.update(out.encode())
                    count += 1
            print(f"{name:<16} {count:>4} docs  {h.hexdigest()}", flush=True)
        code, out = run_cli(cli, ["paper-examples"])
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        print(f"{'paper-examples':<16} {1:>4} docs  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
