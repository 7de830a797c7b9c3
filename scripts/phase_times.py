#!/usr/bin/env python3
"""Inclusive wall time of the pipeline phases over one workload's documents.

Runs, in-process, the seeded documents of one benchmark workload (built by
perfbench/workloads.py) through `homothety_orbits.cli.main`, the way
perfbench/run.py gives them, with these functions wrapped by a timer:

    orbit_oracle._min_gap_history   the closest-pair history of `verify`
    orbit_oracle.enumerate          the orbit search of `verify`
    orbit_oracle.harvest_translations  the whole harvest, as one list
    orbit_oracle.iter_translations  the harvest, timed step by step as
                                    the approach samples read it
    ClosureDesc.trace_points        every override in closure_engine
    group_profile.compute_profile
    group_profile.compute_EG        the invariant affine subspace E_G
    group_profile.schreier_generators
    cli._emit_report

compute_EG and schreier_generators run inside compute_profile, so their
lines break that phase down (on classify-exact they are its two largest
parts).

A phase's time is inclusive (it holds the phases it calls) and counts the
outermost call only, so a phase that calls itself is not counted twice.
A generator phase (GENERATORS) is timed over the steps its readers draw,
one call per generator.  A phase that a checkout does not have reads 0
(before the harvest was read lazily, `verify` called harvest_translations
and there was no iter_translations).
The document set runs `--repeats` times; each line gives the median
seconds over the repeats, the range, the calls per repeat and the share of
the median total.  Comparing a change with its parent takes one command
per checkout:

    python3 scripts/phase_times.py
    python3 scripts/phase_times.py --repo ../parent-checkout

`--repo` selects the checkout whose `src/` and `perfbench/` are used
(default: the one holding this script).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE_ROOT = Path(__file__).resolve().parent.parent
# (label, module, attribute); a `None` module means the closure classes
PHASES = (
    ("_min_gap_history", "orbit_oracle", "_min_gap_history"),
    ("enumerate", "orbit_oracle", "enumerate"),
    ("harvest_translations", "orbit_oracle", "harvest_translations"),
    ("iter_translations", "orbit_oracle", "iter_translations"),
    ("trace_points", None, "trace_points"),
    ("compute_profile", "group_profile", "compute_profile"),
    ("compute_EG", "group_profile", "compute_EG"),
    ("schreier_generators", "group_profile", "schreier_generators"),
    ("_emit_report", "cli", "_emit_report"),
)
GENERATORS = {"iter_translations"}


class PhaseClock:
    def __init__(self):
        self.seconds = dict.fromkeys([label for label, _, _ in PHASES], 0.0)
        self.calls = dict.fromkeys(self.seconds, 0)
        self.depth = dict.fromkeys(self.seconds, 0)

    def wrap(self, label: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.depth[label] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth[label] -= 1
                if self.depth[label] == 0:
                    self.seconds[label] += time.perf_counter() - t0
                    self.calls[label] += 1

        return timed

    def wrap_steps(self, label: str, fn):
        """Time a generator function over the steps drawn from it."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            items = fn(*args, **kwargs)
            self.calls[label] += 1
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.seconds[label] += time.perf_counter() - t0
                yield item

        return timed


def install(clock: PhaseClock) -> None:
    """Wrap every phase wherever the package holds it by name (cli imports
    `compute_profile` into its own namespace, for one)."""
    import homothety_orbits
    from homothety_orbits import closure_engine

    modules = [m for name, m in sys.modules.items()
               if name.startswith("homothety_orbits.") and m is not None]
    for label, owner, attr in PHASES:
        if owner is None:
            for cls in vars(closure_engine).values():
                if isinstance(cls, type) and attr in vars(cls):
                    setattr(cls, attr, clock.wrap(label, vars(cls)[attr]))
            continue
        original = getattr(getattr(homothety_orbits, owner), attr, None)
        if original is None:
            continue
        timed = (clock.wrap_steps if label in GENERATORS else clock.wrap)(label, original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, timed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=HERE_ROOT)
    ap.add_argument("--workload", default="verify-exact")
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--rounds", type=int, default=10, help="rounds of the workload's families")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    if args.rounds < 1 or args.repeats < 1:
        ap.error("--rounds and --repeats must be at least 1")
    root = args.repo.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from homothety_orbits import cli
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    clock = PhaseClock()
    install(clock)
    per_repeat = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, (_, doc) in enumerate(workload.documents(args.seed, args.rounds)):
            paths.append(os.path.join(tmp, f"doc{k}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(doc, fh)
        for _ in range(args.repeats):
            clock.seconds = dict.fromkeys(clock.seconds, 0.0)
            clock.calls = dict.fromkeys(clock.calls, 0)
            t0 = time.perf_counter()
            for path in paths:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main([workload.command, "--input", path])
            per_repeat.append((time.perf_counter() - t0, clock.seconds, clock.calls))
    total = statistics.median(wall for wall, _, _ in per_repeat)
    print(f"{args.workload}, seed {args.seed}: {len(paths)} docs, "
          f"{args.repeats} repeats, median wall {total:.3f} s", flush=True)
    for label in clock.seconds:
        times = [seconds[label] for _, seconds, _ in per_repeat]
        median = statistics.median(times)
        print(f"{label:<22} {median:8.3f} s  [{min(times):.3f}-{max(times):.3f}]  "
              f"{per_repeat[0][2][label]:6d} calls  {median / total:6.1%}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
