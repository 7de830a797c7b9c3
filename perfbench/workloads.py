"""Seeded input documents for the benchmark workloads.

A workload is a list of rounds.  Each round holds one document of every
family of the workload, in a fixed order.  A family fixes the structure
of its groups: the ratios, the dimension, the number of points and the
word cap.  Where a family has several ratio variants, they are Galois
conjugates of equal cost, taken in turn by round.  The seed draws only the
geometry: centres, points and translation vectors.  So every seed gives
the same mix of costs, and a run's quantiles fall at the same place in
that mix.  Families were timed before they were chosen: each keeps its
per-document cost within a narrow band, about 0.2-1.2 s on a 2-core
machine.  Left out on purpose:

- groups whose word harvest stops at its 200k-map budget (three
  generators with an infinite ratio group): 10-14 s per document, so one
  of them would fill most of a run;
- numeric-mode groups (decimal ratios, exp(i*pi*p/q) with 6p/q not an
  integer): within the time budget a third workload would shorten every
  run below the length that keeps the end-to-end metrics steady.

Ratio pools are those of tests/conftest.py and scripts/random_survey.py:
twelfth roots of unity, Gaussian spirals such as 1+i, real ratios such as 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

Doc = Dict[str, object]

QUARTER = (("i", "i"), ("zeta12^9", "zeta12^9"))
THIRD = (("zeta12^4", "zeta12^4"), ("zeta12^8", "zeta12^8"))
SIXTH = (("zeta12^2", "zeta12^2"), ("zeta12^10", "zeta12^10"))
TWELFTH = tuple((f"zeta12^{k}", f"zeta12^{k}") for k in (1, 11, 5, 7))


def _rational(rng: random.Random, span: int = 3, dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(dens))


def _gauss_text(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    imag = f"{abs(im)}i"
    if re == 0:
        return imag if im > 0 else f"-{imag}"
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def _coordinates(rng: random.Random, dim: int) -> List[str]:
    """A point: one Gaussian rational in dimension 1, rationals otherwise."""
    if dim == 1:
        return [_gauss_text(_rational(rng), _rational(rng))]
    return [str(_rational(rng)) for _ in range(dim)]


def _distinct_points(rng: random.Random, dim: int, count: int) -> List[List[str]]:
    """Pairwise distinct points (distinct centres keep a group non-abelian)."""
    out: List[List[str]] = []
    while len(out) < count:
        p = _coordinates(rng, dim)
        if p not in out:
            out.append(p)
    return out


@dataclass(frozen=True)
class Family:
    name: str
    ratios: Tuple[Tuple[str, ...], ...]  # variants, one taken per round
    dim: int = 1
    points: int = 1
    word_cap: Optional[int] = None
    translation: bool = False  # add a translation generator

    def document(self, rng: random.Random, k: int) -> Doc:
        ratios = self.ratios[k % len(self.ratios)]
        centres = _distinct_points(rng, self.dim, len(ratios))
        gens = [{"ratio": r, "center": c} for r, c in zip(ratios, centres)]
        if self.translation:
            t = _gauss_text(Fraction(rng.randint(1, 3), rng.choice((1, 2))), _rational(rng))
            gens.insert(0, {"ratio": "1", "translation": [t]})
        doc: Doc = {
            "dim": self.dim,
            "generators": gens,
            "points": _distinct_points(rng, self.dim, self.points),
        }
        if self.word_cap is not None:
            doc["options"] = {"word_cap": self.word_cap}
        return doc


class Workload:
    def __init__(self, name: str, command: str, exit_codes, families: List[Family],
                 trace_rounds: int, predictions: List[Tuple[str, str, float, float]],
                 reproducer: Optional[Tuple[str, Doc]] = None):
        self.name = name
        self.command = command
        self.exit_codes = frozenset(exit_codes)
        self.families = families
        # the traced run and the report digest cover this fixed prefix
        self.trace_docs = trace_rounds * len(families)
        # (claim, per-layer metric, low, high): a predicted share of the run
        self.predictions = predictions
        # a fixed document of a known defect, checked and shown, not counted,
        # in every run
        self.reproducer = reproducer

    def documents(self, seed: int, rounds: int) -> List[Tuple[str, Doc]]:
        """(family name, document) pairs, round by round."""
        rng = random.Random(f"{self.name}:{seed}")
        return [
            (fam.name, fam.document(rng, k))
            for k in range(rounds)
            for fam in self.families
        ]

    def check_predictions(self, metrics: Dict[str, Tuple[float, str]]) -> List[Tuple[str, bool]]:
        return [
            (f"{claim} (measured {metrics[name][0]:.3f})", low <= metrics[name][0] <= high)
            for claim, name, low, high in self.predictions
        ]


# Known program defect: `verify` of rotation pairs on C^2 (RotationCoset in
# dimension 2, whose membership test is a float span of harvested words)
# fails soundness on some geometries, about a quarter of seeded sixth-turn
# pairs and this quarter-turn pair; the violation grows with the word cap.
# A gated run must report `correct: true`, and the package cannot change
# here, so verify-exact holds no C^2 rotation pairs.  Every verify-exact
# run instead checks this fixed document untimed and prints whether the
# defect still reproduces, outside `attempted`, `failed` and `correct`.
# Once the package is fixed, the C^2 pair families (QUARTER at dim 2,
# 3 points, cap 10; SIXTH at dim 2, 3 points, cap 12) belong back in
# verify-exact.
C2_ROTATION_DEFECT = (
    "verify of a quarter-turn pair on C^2 violates soundness",
    {
        "dim": 2,
        "generators": [
            {"ratio": "zeta12^9", "center": ["3/2", "-2/3"]},
            {"ratio": "zeta12^9", "center": ["0", "3/2"]},
        ],
        "points": [["-2", "1"], ["-3/2", "0"], ["-1", "2"], ["-3", "-2/3"]],
        "options": {"word_cap": 10},
    },
)

HARVEST = "trace.harvest_share"
ORACLE = "trace.enumerate_verify_share"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classify-exact",
            "classify",
            {0, 2},
            [
                # infinite ratio groups: a spiral or a real ratio with a
                # rotation, so the harvest BFS meets ~10^4 distinct maps
                Family("spiral-pair", (("1+i", "i"), ("1-i", "zeta12^9"))),
                Family("real-quarter-pair", (("2", "i"), ("2", "zeta12^9"))),
                Family("half-third-pair", (("1/2", "zeta12^4"), ("1/2", "zeta12^8"))),
                Family("c2-spiral-pair", (("1+i", "i"), ("1-i", "zeta12^9")), dim=2),
                # finite ratio groups of order 12 or with three generators
                Family("quarter-sixth-pair", (("i", "zeta12^2"), ("zeta12^9", "zeta12^10"))),
                Family("three-rotations", (("zeta12^2", "zeta12^4", "-1"),
                                           ("zeta12^10", "zeta12^8", "-1"))),
                Family("twelfth-pair", TWELFTH),
                Family("c2-twelfth-pair", TWELFTH, dim=2),
                Family("c2-three-quarters", (("i",) * 3, ("zeta12^9",) * 3), dim=2),
            ],
            2,
            [("harvest takes >= 90% of classify-exact", HARVEST, 0.9, 1.0)],
        ),
        Workload(
            "verify-exact",
            "verify",
            {0, 4},
            [
                Family("half-quarter-pair", (("-1", "i"), ("-1", "zeta12^9")),
                       points=2, word_cap=16),
                Family("third-pair", THIRD, points=2, word_cap=10),
                Family("quarter-pair", QUARTER, points=3, word_cap=12),
                Family("sixth-pair", SIXTH, points=2, word_cap=10),
                Family("quarter-translation", (("i",), ("zeta12^9",)), points=2,
                       word_cap=10, translation=True),
                Family("third-translation", (("zeta12^4",), ("zeta12^8",)), points=4,
                       word_cap=10, translation=True),
                Family("twelfth-pair", TWELFTH, points=2, word_cap=10),
            ],
            2,
            [
                ("harvest takes <= 25% of verify-exact", HARVEST, 0.0, 0.25),
                ("enumeration + verify take the bulk (> 50%) of verify-exact", ORACLE, 0.5, 1.0),
            ],
            C2_ROTATION_DEFECT,
        ),
    )
}

# README quick-start group, run once under `verify --word-cap 10` as warm-up
WARMUP_DOC: Doc = {
    "dim": 1,
    "generators": [
        {"ratio": "i", "center": ["0"]},
        {"ratio": "zeta12^3", "center": ["1"]},
    ],
    "points": [["1/2"]],
}
WARMUP_ARGS = ["verify", "--word-cap", "10"]
