#!/usr/bin/env python3
"""Randomized census of closure classifications, cross-checked by enumeration.

Draw random non-commuting generator pairs with exact cyclotomic ratios and
small rational centers, classify every orbit closure the engine reports for
a few probe points, and score each prediction against the brute-force orbit
oracle, on an epsilon-grid sample and on an exact one.  Prints a census of
closure kinds and the worst soundness violation seen per kind — the
whole-program version of the per-case verification the test suite does;
tests/test_survey.py runs a small seeded census.

Usage:
    python3 scripts/random_survey.py
    python3 scripts/random_survey.py --trials 200 --dim 2 --seed 7
"""

import argparse
import collections
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from homothety_orbits import orbit_oracle as oracle
from homothety_orbits.affine_maps import Homothety, as_point
from homothety_orbits.closure_engine import global_verdicts, orbit_closure
from homothety_orbits.exact_algebra import Scalar
from homothety_orbits.group_profile import GroupSpec, compute_profile

RATIO_POOL = (
    [Scalar.zeta_power(k) for k in (1, 2, 3, 4, 6, 9)]
    + [Scalar.gauss(a, b) for a in (-2, 0, 1, 2) for b in (1, 2) ]
    + [Scalar.rational(Fraction(n, d)) for n in (-2, 2, 3) for d in (1, 2)]
)


@dataclass
class SurveyConfig:
    trials: int = 100
    dim: int = 1
    seed: int = 20260817
    word_cap: int = 6
    budget: int = 200_000


def rand_center(rng: random.Random, dim: int):
    return as_point(
        [Scalar.rational(Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
         for _ in range(dim)]
    )


def rand_pair(rng: random.Random, dim: int):
    while True:
        f = Homothety.with_center(rng.choice(RATIO_POOL), rand_center(rng, dim))
        g = Homothety.with_center(rng.choice(RATIO_POOL), rand_center(rng, dim))
        if any(not c.exact_value.is_zero() for c in f.commutator(g)):
            return f, g


def check_one(spec: GroupSpec, profile, cfg: SurveyConfig, rng: random.Random
              ) -> Optional[tuple]:
    """(closure kind, worst violation, grid-sample size) for one random
    probe point, scored on an epsilon-grid sample and on an exact one."""
    base = rand_center(rng, cfg.dim)
    desc = orbit_closure(profile, base)
    if desc.kind() == "Unsupported":
        return desc.kind(), 0.0, 0
    violation = 0.0
    for force_grid in (True, False):
        try:
            sample = oracle.enumerate(
                spec, base, cfg.word_cap, budget=cfg.budget, force_grid=force_grid
            )
        except oracle.BudgetExceeded as stop:
            sample = stop.sample
        if force_grid:
            n = len(sample)
        ev = oracle.verify(desc, sample, window=4.0, grid_res=8)
        violation = max(violation, ev.max_violation)
    return desc.kind(), violation, n


@dataclass
class Census:
    kinds: collections.Counter
    worst: dict  # closure kind -> worst soundness violation
    points: collections.Counter
    verdicts: collections.Counter

    @property
    def max_violation(self) -> float:
        return max(self.worst.values()) if self.worst else 0.0


def survey(cfg: SurveyConfig) -> Census:
    rng = random.Random(cfg.seed)
    out = Census(collections.Counter(), collections.defaultdict(float),
                 collections.Counter(), collections.Counter())
    for _ in range(cfg.trials):
        f, g = rand_pair(rng, cfg.dim)
        spec = GroupSpec(cfg.dim, (f, g), word_cap=cfg.word_cap)
        profile = compute_profile(spec)
        verd = global_verdicts(profile)
        out.verdicts[verd.to_report()["has_dense_orbit"]] += 1
        kind, violation, n = check_one(spec, profile, cfg, rng)
        out.kinds[kind] += 1
        out.worst[kind] = max(out.worst[kind], violation)
        out.points[kind] += n
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--dim", type=int, default=1)
    ap.add_argument("--seed", type=int, default=20260817)
    ap.add_argument("--word-cap", type=int, default=6)
    args = ap.parse_args()
    cfg = SurveyConfig(
        trials=args.trials, dim=args.dim, seed=args.seed, word_cap=args.word_cap
    )
    census = survey(cfg)
    print(f"{cfg.trials} random pairs in C^{cfg.dim}, word cap {cfg.word_cap}, "
          f"seed {cfg.seed}")
    print(f"{'closure kind':>14} {'count':>6} {'orbit pts':>10} {'worst violation':>16}")
    for kind, count in census.kinds.most_common():
        print(f"{kind:>14} {count:>6} {census.points[kind]:>10} "
              f"{census.worst[kind]:>16.3e}")
    dense = ", ".join(f"{k}={v}" for k, v in sorted(census.verdicts.items()))
    print(f"density verdicts: {dense}")
    bad = census.max_violation
    print(f"max soundness violation overall: {bad:.3e}")
    return 0 if bad <= 1e-6 else 1


if __name__ == "__main__":
    raise SystemExit(main())
