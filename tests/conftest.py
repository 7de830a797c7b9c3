"""Shared strategies and helpers for the test suite.

Two kinds of randomized testing coexist here: hypothesis property tests
(shrinkable, good diagnostics) for the per-module invariants, and plain
seeded loops for the large-count invariant sweeps where raw trial volume
matters more than shrinking.
"""

import os
import random
from fractions import Fraction
from typing import Tuple

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from homothety_orbits import CycloScalar, Homothety, Scalar

settings.register_profile(
    "dev",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


# ---------------------------------------------------------------------------
# hypothesis strategies

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def cyclo_scalars(draw):
    return CycloScalar.from_fractions(
        draw(small_fractions),
        draw(small_fractions),
        draw(small_fractions),
        draw(small_fractions),
    )


@st.composite
def nonzero_cyclo_scalars(draw):
    x = draw(cyclo_scalars())
    if x.is_zero():
        x = x + CycloScalar.from_int(1)
    return x


@st.composite
def exact_scalars(draw):
    return Scalar.exact(
        draw(small_fractions),
        draw(small_fractions),
        draw(small_fractions),
        draw(small_fractions),
    )


@st.composite
def nonzero_exact_scalars(draw):
    x = draw(exact_scalars())
    if x.is_zero():
        x = x + Scalar.integer(1)
    return x


@st.composite
def exact_points(draw, dim):
    return tuple(draw(exact_scalars()) for _ in range(dim))


@st.composite
def homotheties(draw, dim):
    ratio = draw(nonzero_exact_scalars())
    shift = draw(exact_points(dim))
    return Homothety(ratio, shift)


def planar_fractions(x: CycloScalar) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """(a, b, c, e) with x = (a + b*sqrt3) + i*(c + e*sqrt3), read off the
    zeta coefficients alone (zeta = sqrt3/2 + i/2, zeta^2 = 1/2 + i*sqrt3/2,
    zeta^3 = i): a reference for the planar lift that shares no library code."""
    c0, c1, c2, c3 = x.coeffs
    return c0 + c2 / 2, c1 / 2, c1 / 2 + c3, c2 / 2


# ---------------------------------------------------------------------------
# seeded-loop helpers (plain randomness, deterministic across runs)

RATIO_POOL_EXACT = [
    Scalar.gauss(0, 2),  # 2i
    Scalar.gauss(0, -2),
    Scalar.gauss(0, 3),
    Scalar.integer(2),
    Scalar.integer(-3),
    Scalar.gauss(1, 1),  # 1+i
    Scalar.gauss(2, 1),
    Scalar.zeta_power(1),
    Scalar.zeta_power(2),
    Scalar.zeta_power(3),
    Scalar.zeta_power(5),
    Scalar.rational(Fraction(1, 2)),
]

NONREAL_RATIOS = [r for r in RATIO_POOL_EXACT if not r.exact_value.is_real()]


def random_fraction(rng: random.Random, span: int = 4, den: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_cyclo(rng: random.Random) -> CycloScalar:
    return CycloScalar.from_fractions(
        random_fraction(rng), random_fraction(rng),
        random_fraction(rng), random_fraction(rng),
    )


def random_exact_scalar(rng: random.Random) -> Scalar:
    return Scalar.exact(
        random_fraction(rng), random_fraction(rng),
        random_fraction(rng), random_fraction(rng),
    )


def random_exact_point(rng: random.Random, dim: int):
    return tuple(random_exact_scalar(rng) for _ in range(dim))


def random_homothety(rng: random.Random, dim: int) -> Homothety:
    ratio = rng.choice(RATIO_POOL_EXACT)
    return Homothety(ratio, random_exact_point(rng, dim))


@pytest.fixture
def rng():
    return random.Random(20260817)
