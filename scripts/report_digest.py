#!/usr/bin/env python3
"""One sha256 per workload over the CLI reports of a fixed document set.

Runs, in-process, the seeded documents of both benchmark workloads
(`classify` on classify-exact, `verify` on verify-exact, built by
perfbench/workloads.py) and `paper-examples`, and hashes every document's
exit code and stdout in order.  The `verify-c2` line runs
`verify --word-cap 6` on the C^2 families of classify-exact at two grids,
one above the closure trace's cell cap (40^4 cells) and one below it
(8^4), with the first generator's centre as an extra point: so it covers
the window trace of `Affine`, `LambdaCone` and `RotationCoset` claims on
both sides of the cap.  The `numeric` line runs `classify` and
`verify --word-cap 8` on fixed dimension-1 documents with decimal data,
which take the approximate closures (an order-7 rotation pair among them),
and `classify` on two such documents in C^2.  The `additive` line runs `classify` on dimension-1 half-turn groups
whose translation closures take every additive shape, exact and from
decimal data, and the `additive-c2` line the same on C^2 half-turn groups
whose closures have (dim V, rank L) from (0, 1) to (4, 0), one with decimal
centres, and then quarter-turns about the same decimal centres.
Two checkouts print the same digests
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
C2_SEEDS = (1, 2, 3)
C2_GRIDS = (40, 8)
# (name, dim, generators as (ratio, centre) or ("1", translation), point)
NUMERIC_DOCS = (
    ("additive", 1, (("i", ("0",)), ("i", ("1",)), ("-1", ("0.3",))), ("0.25",)),
    ("spiral", 1, (("1.5+0.5i", ("0",)), ("i", ("1",))), ("0.5",)),
    ("translation", 1, (("1", ("1",)), ("exp(i*1)", ("0",))), ("0",)),
    ("order-7", 1, (("exp(i*pi*2/7)", ("0",)), ("exp(i*pi*2/7)", ("1",))), ("1/3",)),
)
NUMERIC_C2_DOCS = (
    ("spiral-c2", 2, (("1.5+0.5i", ("0", "0")), ("i", ("1", "0.5"))), ("0.5", "1")),
    ("rays-c2", 2, (("2.0", ("0", "0")), ("3.0", ("1", "0.5")), ("i", ("1/3", "0"))), ("0.5", "1")),
)
# half-turn centres: Lattice1 (twice), LineDense, LineLattice and Lattice2
# exactly, then the same five shapes from decimal data
ADDITIVE_CENTRES = (
    ("0", "1"), ("0", "1/2", "1/3"), ("0", "1", "zeta12+zeta12^11"),
    ("0", "1", "zeta12+zeta12^11", "i"), ("0", "1", "i"),
    ("0", "0.5"), ("0", "0.3", "1"), ("0", "1", "1.7320508075688772"),
    ("0", "1", "1.7320508075688772", "i"), ("0", "1", "0.5i"),
)

# C^2 half-turn centres, as (x, y) pairs, with s = sqrt3 and t = sqrt3*i:
# (dim V, rank L) = (0, 1), (0, 2), (0, 4), (1, 0), (2, 0), (2, 2), (4, 0)
# and (1, 1), then one set of decimal centres
_S, _T = "zeta12+zeta12^11", "zeta12^2+zeta12^4"
_SQRT3_PLANE = (("0", "0"), ("1", "0"), (_S, "0"), ("i", "0"), (_T, "0"))
ADDITIVE_C2_CENTRES = (
    (("0", "0"), ("1", "0")),
    (("0", "0"), ("1", "0"), ("0", "1")),
    (("0", "0"), ("1", "0"), ("i", "0"), ("0", "1"), ("0", "i")),
    (("0", "0"), ("1", "0"), (_S, "0")),
    _SQRT3_PLANE,
    _SQRT3_PLANE + (("0", "1"), ("0", "i")),
    _SQRT3_PLANE + (("0", "1"), ("0", "i"), ("0", _S), ("0", _T)),
    (("0", "0"), ("1", "1"), (_S, _S), ("i", "0")),
    (("0", "0"), ("0.5", "0"), ("0", "1.5")),
)
# (ratio, centres) of every additive-c2 document
ADDITIVE_C2_DOCS = tuple(("-1", c) for c in ADDITIVE_C2_CENTRES) + (("i", ADDITIVE_C2_CENTRES[-1]),)


def numeric_doc(dim, gens, point) -> dict:
    generators = [
        {"ratio": r, "translation": list(c)} if r == "1" else {"ratio": r, "center": list(c)}
        for r, c in gens
    ]
    return {"dim": dim, "generators": generators, "points": [list(point)]}


def run_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def write_doc(tmp, doc) -> str:
    path = os.path.join(tmp, "doc.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


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
                    path = write_doc(tmp, doc)
                    code, out = run_cli(cli, [command, "--input", path])
                    h.update(f"{seed}:{count}:{family}:{code}\n".encode())
                    h.update(out.encode())
                    count += 1
            print(f"{name:<16} {count:>4} docs  {h.hexdigest()}", flush=True)
        h = hashlib.sha256()
        count = 0
        for seed in C2_SEEDS:
            for family, doc in BENCH["classify-exact"].documents(seed, 1):
                if doc["dim"] != 2:
                    continue
                path = write_doc(tmp, doc)
                # passed as --point=..., since argparse reads "-1/2,3" as an option
                centre = ",".join(doc["generators"][0]["center"])
                for grid in C2_GRIDS:
                    code, out = run_cli(cli, ["verify", "--input", path, "--word-cap", "6",
                                              "--grid", str(grid), f"--point={centre}"])
                    h.update(f"{seed}:{count}:{family}:{grid}:{code}\n".encode())
                    h.update(out.encode())
                    count += 1
        print(f"{'verify-c2':<16} {count:>4} docs  {h.hexdigest()}", flush=True)
        h = hashlib.sha256()
        runs = [(d, ["classify"]) for d in NUMERIC_DOCS + NUMERIC_C2_DOCS]
        runs += [(d, ["verify", "--word-cap", "8"]) for d in NUMERIC_DOCS]
        for count, ((family, dim, gens, point), argv) in enumerate(runs):
            path = write_doc(tmp, numeric_doc(dim, gens, point))
            code, out = run_cli(cli, argv + ["--input", path])
            h.update(f"{count}:{family}:{argv[0]}:{code}\n".encode())
            h.update(out.encode())
        print(f"{'numeric':<16} {len(runs):>4} docs  {h.hexdigest()}", flush=True)
        h = hashlib.sha256()
        for count, centres in enumerate(ADDITIVE_CENTRES):
            gens = tuple(("-1", (c,)) for c in centres)
            path = write_doc(tmp, numeric_doc(1, gens, ("1/7",)))
            code, out = run_cli(cli, ["classify", "--input", path])
            h.update(f"{count}:{code}\n".encode())
            h.update(out.encode())
        print(f"{'additive':<16} {len(ADDITIVE_CENTRES):>4} docs  {h.hexdigest()}", flush=True)
        h = hashlib.sha256()
        for count, (ratio, centres) in enumerate(ADDITIVE_C2_DOCS):
            gens = tuple((ratio, c) for c in centres)
            path = write_doc(tmp, numeric_doc(2, gens, ("1/7", "1/7")))
            code, out = run_cli(cli, ["classify", "--input", path])
            h.update(f"{count}:{code}\n".encode())
            h.update(out.encode())
        print(f"{'additive-c2':<16} {len(ADDITIVE_C2_DOCS):>4} docs  {h.hexdigest()}", flush=True)
        code, out = run_cli(cli, ["paper-examples"])
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        print(f"{'paper-examples':<16} {1:>4} docs  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
