"""Outside-in span tracer for the traced benchmark run.

The tracer lives entirely in the benchmark: it replaces public functions
of the package with timing wrappers at every name a caller resolves (the
defining module's attribute, which function-local imports read at call
time, and every module global bound to the same function), and wraps the
`contains`-style method overrides on the closure classes.  Nothing in the
package changes on disk.

Each call opens a frame on one stack.  On exit the frame's duration is
charged to its parent as child time, so self time (duration minus child
time) is exact per call and the self times of all frames add up to the
duration of the root frames.  Coarse calls are also kept as spans with
parent ids; fine-grained ones (membership tests, lattice kernels) are only
aggregated, to keep memory flat.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self, package: str = "homothety_orbits"):
        self.package = package
        self.doc = -1
        self._stack: List[list] = []  # [start, child_time, span_id]
        self._next_id = 0
        self.spans: List[Tuple[int, Optional[int], int, str, float, float]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.layer_inclusive: Dict[str, float] = defaultdict(float)
        self.layer_entries: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._depth: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[object, str, object]] = []

    # -- frames --------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, group: str, record: bool,
              on_result=None, on_error=None) -> Callable:
        layer = group.split(".", 1)[0]
        perf = time.perf_counter
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_id = stack[-1][2] if stack else None
            span_id = parent_id
            if record:
                span_id = self._next_id
                self._next_id += 1
            frame = [perf(), 0.0, span_id]
            stack.append(frame)
            depth[group] += 1
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            else:
                if on_result is not None:
                    on_result(self, result)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                self.calls[group] += 1
                self.self_time[group] += duration - frame[1]
                depth[group] -= 1
                depth[layer] -= 1
                if depth[group] == 0:
                    self.inclusive[group] += duration
                if depth[layer] == 0:
                    self.layer_inclusive[layer] += duration
                    self.layer_entries[layer] += 1
                if record:
                    self.spans.append((span_id, parent_id, self.doc, name, frame[0], end))

        return wrapper

    # -- installing wrappers -------------------------------------------------

    def _modules(self):
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(self.package + "."))
        ]

    def wrap_function(self, module, attr: str, record: bool = True,
                      on_result=None, on_error=None) -> None:
        """Wrap `module.attr` at every package-global name bound to it."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        wrapper = self._wrap(fn, name, name, record, on_result, on_error)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapper)

    def wrap_public_functions(self, module, record: bool = False) -> None:
        for attr, fn in list(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                self.wrap_function(module, attr, record)

    def wrap_overrides(self, module, base: type, method: str, group: str) -> None:
        """Wrap every class in `module` that defines its own `method`, base included."""
        for cls in vars(module).values():
            if inspect.isclass(cls) and issubclass(cls, base) and method in vars(cls):
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{cls.__name__}.{method}"
                self._set(cls, method, self._wrap(vars(cls)[method], name, group, False))

    def count_calls(self, cls: type, method: str, counter: str, inside: str = "",
                    inside_counter: str = "") -> None:
        """Count calls of `cls.method`, and separately those made inside `inside` spans."""
        fn = vars(cls)[method]
        counts, depth = self.counts, self._depth

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            if inside and depth[inside]:
                counts[inside_counter] += 1
            return fn(*args, **kwargs)

        self._set(cls, method, counted)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key) if not inspect.isclass(owner)
                           else vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def layer_self(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for group, t in self.self_time.items():
            out[group.split(".", 1)[0]] += t
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "parent": p, "doc": d, "name": n, "start": s, "end": e}
                for i, p, d, n, s, e in self.spans
            ],
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries (import it first)."""
    from homothety_orbits import (
        affine_maps,
        cli,
        closed_subgroups,
        closure_engine,
        group_profile,
        lattices,
        orbit_oracle,
    )

    def harvest_done(t: Tracer, vectors) -> None:
        t.counts["orbit_oracle.harvest_vectors"] += len(vectors)

    def enumerate_done(t: Tracer, sample) -> None:
        t.counts["orbit_oracle.enumerate_points"] += len(sample)

    def enumerate_stopped(t: Tracer, exc: Exception) -> None:
        if isinstance(exc, orbit_oracle.BudgetExceeded):
            t.counts["orbit_oracle.enumerate_points"] += len(exc.sample)
            t.counts["orbit_oracle.enumerate_truncated"] += 1

    def verify_done(t: Tracer, ev) -> None:
        t.counts["orbit_oracle.verify_points_checked"] += ev.violations_checked

    tracer.wrap_function(cli, "main")
    tracer.wrap_function(orbit_oracle, "harvest_translations", on_result=harvest_done)
    tracer.wrap_function(orbit_oracle, "enumerate", on_result=enumerate_done,
                         on_error=enumerate_stopped)
    tracer.wrap_function(orbit_oracle, "verify", on_result=verify_done)
    for attr in ("compute_profile", "compute_EG", "g1_lattice_bounds", "ratio_flags",
                 "crystallographic_test"):
        tracer.wrap_function(group_profile, attr)
    for attr in ("orbit_closure", "global_verdicts", "rotation_pair_classify"):
        tracer.wrap_function(closure_engine, attr)
    for attr in ("classify_additive_closure", "classify_multiplicative_closure"):
        tracer.wrap_function(closed_subgroups, attr, record=False)
    tracer.wrap_public_functions(lattices)
    for method in ("contains", "distance", "distance_many", "trace_cells", "sample"):
        tracer.wrap_overrides(closure_engine, closure_engine.ClosureDesc, method,
                              f"closure_engine.{method}")
    for base in (closed_subgroups.AdditiveClosure, closed_subgroups.MultClosure):
        tracer.wrap_overrides(closed_subgroups, base, "contains", "closed_subgroups.contains")
    harvest = "orbit_oracle.harvest_translations"
    tracer.count_calls(affine_maps.Homothety, "compose", "affine_maps.compose_calls",
                       harvest, "orbit_oracle.harvest_compose_calls")
    tracer.count_calls(affine_maps.Homothety, "apply", "affine_maps.apply_calls")
