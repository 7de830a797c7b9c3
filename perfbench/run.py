#!/usr/bin/env python3
"""Seeded benchmark of the homothety-orbits CLI.

Run from the repository root:

    python3 perfbench/run.py --workload classify-exact --seed 1 --seconds 45 --trace 0

One process, one client, closed loop: the seeded documents of the workload
are written to files, then passed one after another to
`homothety_orbits.cli.main` as `<command> --input <file>`, the way a CLI
user gives them.  Every report is checked (see checker.py).

`--trace 0` measures for `--seconds`, then finishes the round of documents
under way, and prints the end-to-end metrics.  The set-up probes run
between rounds, with the loop clock paused.
`--trace 1` runs a fixed prefix of the document list twice, untraced and
then under the span tracer (spans.py), and prints the per-layer metrics,
the tracing overhead and the kernel table (kernels.py).

A workload may name a fixed document that reproduces a known program
defect (verify-exact does, see workloads.C2_ROTATION_DEFECT).  It runs
once, untimed, and the run prints whether the defect still reproduces;
it is not counted in `attempted`, `failed` or `correct`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Without the package sources next to
this directory the script exits 2 and prints no result.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional, Tuple  # noqa: E402

from checker import Checker, DocResult, warmup_problems  # noqa: E402
from workloads import WARMUP_ARGS, WARMUP_DOC, WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "report.schema.json"
OUT_DIR = ROOT / ".perfbench-out"
ROUNDS = 40  # documents per workload = ROUNDS x families; a run cycles if it exhausts them
SETUP_PROBES = 10  # spread over the run, one after each round while the loop clock is paused
TAIL_ABOVE = 10  # documents the tail percentile must leave above it


class Terminated(BaseException):
    """SIGTERM: unwinds past run_document, which records every SystemExit."""


def run_document(index: int, family: str, argv: List[str]) -> DocResult:
    from homothety_orbits import cli

    out, err = io.StringIO(), io.StringIO()
    tb: Optional[str] = None
    code: Optional[int] = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        tb = traceback.format_exc()
    return DocResult(index, family, code, out.getvalue(), err.getvalue(), tb,
                     time.perf_counter() - t0)


def setup_probe(warm_path: Path) -> Tuple[float, List[str]]:
    """Wall time of a fresh interpreter that imports the CLI and runs the warm-up."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(warm_path)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    seconds = time.perf_counter() - t0
    return seconds, [f"setup probe: {p}" for p in warmup_problems(proc.returncode, proc.stdout)]


def tail(latencies: List[float]) -> Tuple[float, float]:
    """Latency at the highest percentile that leaves TAIL_ABOVE documents
    above it; the maximum when the run holds fewer than 2 * TAIL_ABOVE."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_ABOVE:
        return xs[-1], 100.0
    return xs[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def report_guards(results: List[DocResult]) -> Tuple[Optional[float], Optional[float]]:
    """(exact_frac over closures, evidence_pass_frac over verified points)."""
    closures = exact = verified = passed = 0
    for r in results:
        try:
            report = json.loads(r.stdout)
        except json.JSONDecodeError:
            continue
        for c in report.get("closures", []):
            closures += 1
            exact += c.get("exact") is True
        evidence = report.get("evidence", [])
        failing = {f.split(":", 1)[0] for f in report.get("failures", [])}
        verified += len(evidence)
        passed += len(evidence) - len(failing)
    return (exact / closures if closures else None,
            passed / verified if verified else None)


def digest(results: List[DocResult]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.index}:{r.exit_code}\n".encode())
        h.update(r.stdout.encode())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "seed": args.seed,
        "workload": args.workload,
        "not_visible": "whether the word harvest stopped at its 200k-map budget; "
                       "harvest_translations drops that flag inside the package",
    }


def check_all(checker: Checker, wl: Workload,
              results: List[DocResult]) -> List[Tuple[DocResult, List[str]]]:
    failures = []
    for r in results:
        problems = checker.problems(r, wl.exit_codes)
        if problems:
            failures.append((r, problems))
    return failures


def print_failures(failures, docs) -> None:
    for r, problems in failures:
        doc = docs[r.index % len(docs)][1]
        print(f"FAILED doc {r.index} ({r.family}): {'; '.join(problems)}")
        print(f"  document: {json.dumps(doc, sort_keys=True)}")


def show_reproducer(wl: Workload, tmp: str, checker: Checker) -> None:
    """Run and check the workload's fixed known-defect document, untimed,
    and print whether the defect still reproduces."""
    if wl.reproducer is None:
        return
    what, doc = wl.reproducer
    path = os.path.join(tmp, "reproducer.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    res = run_document(-2, "reproducer", [wl.command, "--input", path])
    problems = checker.problems(res, wl.exit_codes)
    state = "STILL REPRODUCES" if problems else "no longer reproduces"
    print(f"known defect, not gated: {what}: {state}")
    if problems:
        print(f"  problems: {'; '.join(problems)}")
        print(f"  document: {json.dumps(doc, sort_keys=True)}")


def row(name: str, value, unit: str, note: str = "") -> str:
    shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))
    return f"  {name:<40} {shown:>14} {unit:<9} {note}"


def end_to_end(args, wl, docs, paths, warm_path, checker, run_problems) -> dict:
    results: List[DocResult] = []
    setup_times: List[float] = []
    wall = 0.0
    # stop only after a whole round, so that every run holds the same mix of
    # families and the cut-off does not shift the metrics
    while wall < args.seconds:
        start = time.perf_counter()
        for _ in wl.families:
            i = len(results)
            family, _ = docs[i % len(docs)]
            results.append(run_document(i, family, [wl.command, "--input", paths[i % len(docs)]]))
        wall += time.perf_counter() - start
        # the set-up probes are spread over the run, so that a slow phase of
        # the host moves only some of them
        if len(setup_times) < SETUP_PROBES:
            t, problems = setup_probe(warm_path)
            setup_times.append(t)
            run_problems += problems
    while len(setup_times) < SETUP_PROBES:
        t, problems = setup_probe(warm_path)
        setup_times.append(t)
        run_problems += problems
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = check_all(checker, wl, results)
    latencies = [r.seconds for r in results]
    tail_s, tail_pct = tail(latencies)
    exact_frac, evidence_frac = report_guards(results)
    n = len(results)
    metrics = {
        "docs_per_s": (n / wall, "doc/s"),
        "doc_p50_s": (statistics.median(latencies), "s"),
        "doc_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"workload {wl.name}  seed {args.seed}  {n} documents in {wall:.3f} s "
          f"(closed loop, 1 client, in-process cli.main)")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "doc_tail_s":
            note = f"p{tail_pct:.1f}" if n >= 2 * TAIL_ABOVE else f"max; fewer than {2 * TAIL_ABOVE} docs"
        if name == "setup_s":
            note = "median of " + ", ".join(f"{t:.3f}" for t in setup_times)
        print(row(name, value, unit, note))
    print(row("error_rate", len(failures) / n, "fraction", f"{len(failures)} of {n} documents"))
    print(row("exact_frac", exact_frac, "fraction", "closures with exact: true"))
    print(row("evidence_pass_frac", evidence_frac, "fraction",
              "verified points without failures" if evidence_frac is not None else "no verify reports"))
    by_family = {}
    for r in results:
        by_family.setdefault(r.family, []).append(r.seconds)
    for fam, xs in by_family.items():
        print(row(f"  {fam} p50", statistics.median(xs), "s", f"{len(xs)} docs"))
    # the prefix is what every run of a seed completes, so its digest is
    # comparable across runs and with the traced run
    prefix = results[: wl.trace_docs]
    print(f"report digest {digest(prefix)} over the first {len(prefix)} documents, "
          f"{digest(results)} over all {n}")
    print_failures(failures, docs)
    return {
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(args, wl, docs, paths, checker) -> dict:
    import kernels
    import spans

    n = wl.trace_docs
    tracer = spans.Tracer()
    plain: List[DocResult] = []
    results: List[DocResult] = []
    # each document runs untraced and traced back to back, in alternating
    # order, so that machine noise hits both sides of the overhead alike
    for i in range(n):
        argv = [wl.command, "--input", paths[i]]
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_turn:
                plain.append(run_document(i, docs[i][0], argv))
                continue
            tracer.doc = i
            spans.install(tracer)
            try:
                results.append(run_document(i, docs[i][0], argv))
            finally:
                tracer.uninstall()
    untraced_wall = sum(r.seconds for r in plain)
    traced_wall = sum(r.seconds for r in results)
    failures = check_all(checker, wl, plain + results)
    for a, b in zip(plain, results):
        if (a.exit_code, a.stdout) != (b.exit_code, b.stdout):
            failures.append((b, ["report bytes differ between two runs of the document"]))
    kernel_us = kernels.measure([d for _, d in docs[:n]])

    inc, calls, cnt = tracer.inclusive, tracer.calls, tracer.counts
    layer_self = tracer.layer_self()
    self_sum = sum(layer_self.values())
    harvest_s = inc["orbit_oracle.harvest_translations"]
    enumerate_s = inc["orbit_oracle.enumerate"]
    verify_s = inc["orbit_oracle.verify"]
    compose_in_harvest = cnt["orbit_oracle.harvest_compose_calls"]
    m = {
        "orbit_oracle.harvest_s": (harvest_s, "s"),
        "orbit_oracle.harvest_calls": (calls["orbit_oracle.harvest_translations"], "count"),
        "orbit_oracle.harvest_vectors": (cnt["orbit_oracle.harvest_vectors"], "count"),
        "orbit_oracle.harvest_compose_calls": (compose_in_harvest, "count"),
        "orbit_oracle.harvest_yield": (
            cnt["orbit_oracle.harvest_vectors"] / compose_in_harvest if compose_in_harvest else 0.0,
            "vec/compose"),
        "group_profile.compute_profile_s": (inc["group_profile.compute_profile"], "s"),
        "group_profile.self_s": (layer_self["group_profile"], "s"),
        "group_profile.compute_EG_s": (inc["group_profile.compute_EG"], "s"),
        "group_profile.g1_lattice_bounds_s": (inc["group_profile.g1_lattice_bounds"], "s"),
        "orbit_oracle.enumerate_s": (enumerate_s, "s"),
        "orbit_oracle.enumerate_points": (cnt["orbit_oracle.enumerate_points"], "count"),
        "orbit_oracle.enumerate_truncated": (cnt["orbit_oracle.enumerate_truncated"], "count"),
        "orbit_oracle.enumerate_points_per_s": (
            cnt["orbit_oracle.enumerate_points"] / enumerate_s if enumerate_s else 0.0, "1/s"),
        "orbit_oracle.verify_s": (verify_s, "s"),
        "orbit_oracle.verify_points_checked": (cnt["orbit_oracle.verify_points_checked"], "count"),
        "orbit_oracle.self_s": (layer_self["orbit_oracle"], "s"),
        "closure_engine.contains_s": (inc["closure_engine.contains"], "s"),
        "closure_engine.contains_calls": (calls["closure_engine.contains"], "count"),
        "closure_engine.orbit_closure_s": (inc["closure_engine.orbit_closure"], "s"),
        "closure_engine.global_verdicts_s": (inc["closure_engine.global_verdicts"], "s"),
        "closure_engine.self_s": (layer_self["closure_engine"], "s"),
        "closed_subgroups.contains_s": (inc["closed_subgroups.contains"], "s"),
        "closed_subgroups.classify_additive_s": (inc["closed_subgroups.classify_additive_closure"], "s"),
        "closed_subgroups.classify_mult_s": (inc["closed_subgroups.classify_multiplicative_closure"], "s"),
        "closed_subgroups.self_s": (layer_self["closed_subgroups"], "s"),
        "lattices_s": (tracer.layer_inclusive["lattices"], "s"),
        "lattices.calls": (tracer.layer_entries["lattices"], "count"),
        "affine_maps.compose_calls": (cnt["affine_maps.compose_calls"], "count"),
        "affine_maps.apply_calls": (cnt["affine_maps.apply_calls"], "count"),
        "cli.self_s": (layer_self["cli"], "s"),
        **{k: (v, "us") for k, v in kernel_us.items()},
        "trace.docs": (n, "count"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.harvest_share": (harvest_s / self_sum, "fraction"),
        "trace.enumerate_verify_share": ((enumerate_s + verify_s) / self_sum, "fraction"),
    }
    print(f"workload {wl.name}  seed {args.seed}  traced run over the first {n} documents")
    for name, (value, unit) in m.items():
        print(row(name, value, unit))
    print(f"per-layer self times sum to {self_sum:.3f} s = "
          f"{100 * self_sum / traced_wall:.2f}% of the traced documents' wall time "
          f"{traced_wall:.3f} s; untraced {untraced_wall:.3f} s, overhead "
          f"{traced_wall - untraced_wall:+.3f} s")
    for claim, ok in wl.check_predictions(m):
        print(f"prediction {'HOLDS' if ok else 'FAILS'}: {claim}")
    print(f"report digest {digest(plain)} over the first {n} documents")
    print_failures(failures, docs)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json", "w") as fh:
        json.dump(tracer.dump(), fh)
    return {
        "attempted": len(plain) + len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }


def _terminate(*_) -> None:
    raise Terminated


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still removes its documents and stops its set-up probe
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "homothety_orbits" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no package sources under {SRC} or no schema at {SCHEMA}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    docs = wl.documents(args.seed, ROUNDS)
    checker = Checker(str(SCHEMA))
    run_problems: List[str] = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-docs-") as tmp:
        paths = []
        for i, (_, doc) in enumerate(docs):
            paths.append(os.path.join(tmp, f"doc{i:04d}.json"))
            with open(paths[i], "w") as fh:
                json.dump(doc, fh)
        warm_path = Path(tmp) / "warmup.json"
        warm_path.write_text(json.dumps(WARMUP_DOC))
        warm = run_document(-1, "warmup", [*WARMUP_ARGS, "--input", str(warm_path)])
        run_problems += warmup_problems(warm.exit_code, warm.stdout)
        if args.trace:
            body = traced(args, wl, docs, paths, checker)
        else:
            body = end_to_end(args, wl, docs, paths, warm_path, checker, run_problems)
        show_reproducer(wl, tmp, checker)
    for p in dict.fromkeys(run_problems):
        print(f"FAILED run check: {p}")
    print("env " + json.dumps(environment(args), sort_keys=True))
    result = {
        "correct": body["failed"] == 0 and not run_problems,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": body["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
