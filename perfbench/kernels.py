"""Microseconds per kernel operation, on operands from the workload's own documents.

Mirrors the kernel table of ROADMAP.md: CycloScalar mul / add / inverse /
to_complex, exact x approx Scalar mul, Homothety.compose and .apply.  Each
op runs over a fixed operand list until a batch takes about `batch_s`;
the figure is the median of `repeats` batches.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Sequence


def _us_per_op(op: Callable[[], None], ops_per_call: int, batch_s: float, repeats: int) -> float:
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            op()
        if time.perf_counter() - t0 >= batch_s / 4:
            break
        loops *= 2
    loops = max(1, int(loops * batch_s / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            op()
        samples.append((time.perf_counter() - t0) / (loops * ops_per_call))
    return statistics.median(samples) * 1e6


def measure(docs: Sequence[dict], batch_s: float = 0.05, repeats: int = 5) -> Dict[str, float]:
    from homothety_orbits.affine_maps import Homothety
    from homothety_orbits.cli import RunConfig, build_spec
    from homothety_orbits.exact_algebra import Scalar

    config = RunConfig(command="classify")
    gens: List[Homothety] = []
    points = []
    for doc in docs:
        spec, pts, _ = build_spec(doc, config)
        gens += spec.generators
        points += pts
    scalars = [s for g in gens for s in (g.ratio, *g.shift)] + [c for p in points for c in p]
    exact = [s for s in scalars if s.is_exact and not s.is_zero()]
    # the workloads are exact, so the approximate operands are their floats
    approx = [Scalar.approx(s.to_complex()) for s in exact]
    cyclo = [s.exact_value for s in exact]
    pairs = list(zip(cyclo, cyclo[1:] + cyclo[:1]))
    mixed = [(e, approx[k % len(approx)]) for k, e in enumerate(exact)]
    gen_pairs = [(g, h) for g in gens[:16] for h in gens[:16] if g.dim == h.dim]
    applies = [(g, p) for g in gens[:16] for p in points[:16] if g.dim == len(p)]

    def mul():
        for a, b in pairs:
            a * b

    def add():
        for a, b in pairs:
            a + b

    def inv():
        for a in cyclo:
            a.inverse()

    def to_complex():
        for a in cyclo:
            a.to_complex()

    def mixed_mul():
        for a, b in mixed:
            a * b

    def compose():
        for g, h in gen_pairs:
            g.compose(h)

    def apply():
        for g, p in applies:
            g.apply(p)

    table = {
        "exact_algebra.cyclo_mul_us": (mul, len(pairs)),
        "exact_algebra.cyclo_add_us": (add, len(pairs)),
        "exact_algebra.cyclo_inv_us": (inv, len(cyclo)),
        "exact_algebra.to_complex_us": (to_complex, len(cyclo)),
        "exact_algebra.mixed_mul_us": (mixed_mul, len(mixed)),
        "affine_maps.compose_us": (compose, len(gen_pairs)),
        "affine_maps.apply_us": (apply, len(applies)),
    }
    return {name: _us_per_op(op, n, batch_s, repeats) for name, (op, n) in table.items()}
