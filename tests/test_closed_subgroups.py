"""Closed additive subgroups of R^2 and multiplicative subgroups of C*.

Pinned classifications are cross-checked with small brute-force searches
(Pell-style approximation minima, shortest-vector scans) computed here in
the tests, independently of the library code.
"""

import math
from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from homothety_orbits.exact_algebra import (
    CYCLO_I,
    CycloScalar,
    Scalar,
    Trilean,
    parse_scalar,
)
from homothety_orbits.lattices import hnf
from homothety_orbits import closed_subgroups
from homothety_orbits.closed_subgroups import (
    Lattice2,
    classify_additive_closure,
    classify_multiplicative_closure,
)
from conftest import (
    clear_denominators,
    exact_scalars,
    hnf_solve,
    lattice_basis_from_rational_rows,
    planar_fractions,
    random_cyclo,
    random_exact_scalar,
)

SQRT3 = CycloScalar(0, 2, 0, -1)  # 2*zeta - zeta^3


def rq(p, q) -> CycloScalar:
    """p + q*sqrt3, a real value."""
    return p + q * SQRT3


def pv(x, y) -> CycloScalar:
    """The planar vector (x, y) as x + iy."""
    return CYCLO_I * y + x


def combo(values, coeffs):
    """Integer combination of CycloScalar values, written with +/- only."""
    acc = None
    for v, c in zip(values, coeffs):
        for _ in range(abs(c)):
            term = v if c > 0 else -v
            acc = term if acc is None else acc + term
    if acc is None:
        acc = values[0] - values[0]
    return acc


def _rq_mul(u, v):
    """(a + b*sqrt3)(c + e*sqrt3) on Fraction pairs."""
    return u[0] * v[0] + 3 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _pairing(u: CycloScalar, v: CycloScalar):
    """u.v = re u * re v + im u * im v, as a Fraction pair (p, q) of p + q*sqrt3."""
    a, b, c, e = planar_fractions(u)
    f, g, h, k = planar_fractions(v)
    x, y = _rq_mul((a, b), (f, g)), _rq_mul((c, e), (h, k))
    return x[0] + y[0], x[1] + y[1]


def _fraction_parse_scalar(c, p: CycloScalar) -> bool:
    """Membership of an exact vector computed on Fraction pairs p + q*sqrt3."""
    if c.shape == "Plane":
        return True
    lift = planar_fractions(p)
    if c.shape == "Zero":
        return not any(lift)
    if c.shape == "LineDense":
        d = planar_fractions(c.direction)
        cross = _rq_mul(lift[:2], d[2:]), _rq_mul(lift[2:], d[:2])
        return cross[0] == cross[1]
    if c.shape == "LineLattice":
        pairing = _pairing(p, c.dual)
        return pairing[1] == 0 and pairing[0].denominator == 1
    basis = [c.generator] if c.shape == "Lattice1" else list(c.basis)
    rows = lattice_basis_from_rational_rows([planar_fractions(b) for b in basis])
    ints, _ = clear_denominators(rows + [list(lift)])
    return hnf_solve(hnf(ints[:-1]), ints[-1]) is not None


def _reference_distance(c, v: complex) -> float:
    """The distance formulas evaluated on Python complex numbers."""
    if c.shape == "Plane":
        return 0.0
    if c.shape == "Zero":
        return abs(v)
    if c.shape == "Lattice1":
        g = c.generator.to_complex()
        n = round((v.real * g.real + v.imag * g.imag) / abs(g) ** 2)
        return abs(v - n * g)
    if c.shape == "Lattice2":
        b1, b2, _ = c._floats  # the reduced basis
        det = b1.real * b2.imag - b1.imag * b2.real
        s = (v.real * b2.imag - v.imag * b2.real) / det
        t = (b1.real * v.imag - b1.imag * v.real) / det
        return min(
            abs(v - ds * b1 - dt * b2)
            for ds in (math.floor(s), math.ceil(s))
            for dt in (math.floor(t), math.ceil(t))
        )
    if c.shape == "LineDense":
        u = c.direction.to_complex()
        u /= abs(u)
        return abs(v - (v.real * u.real + v.imag * u.imag) * u)
    d = c.dual.to_complex()
    pairing = v.real * d.real + v.imag * d.imag
    return abs(pairing - round(pairing)) / abs(d)


# ---------------------------------------------------------------------------
# additive closures: pinned examples


class TestAdditivePinned:
    def test_unit_square_lattice(self):
        c = classify_additive_closure([Scalar.integer(1), Scalar.gauss(0, 1)])
        assert c.shape == "Lattice2"
        rows, den = c._hnf
        assert den == 1
        assert rows == [[1, 0, 0, 0], [0, 0, 1, 0]]
        assert c.contains(Scalar.gauss(3, -2))
        assert not c.contains(Scalar.rational(Fraction(1, 2)))
        assert c.shortest_vector() == pytest.approx(1.0)
        assert c.is_discrete() is Trilean.YES
        assert c.is_whole_plane() is Trilean.NO

    def test_incommensurable_reals_fill_a_line(self):
        # brute-force evidence first: |n*sqrt(3) - nearest integer| keeps
        # shrinking (Pell approximants), so the group 1Z + sqrt(3)Z is not
        # discrete in R
        mins = []
        for bound in (100, 1000, 10000):
            best = min(
                abs(n * math.sqrt(3) - round(n * math.sqrt(3)))
                for n in range(1, bound + 1)
            )
            mins.append(best)
        assert mins[0] > mins[1] > mins[2]
        assert mins[2] < 1e-3

        c = classify_additive_closure([pv(1, 0), pv(SQRT3, 0)])
        assert c.shape == "LineDense"
        assert c.exact
        assert c.direction.is_real() and not c.direction.is_zero()
        # every Q(sqrt3) point of the line belongs; off-line points do not
        assert c.contains(pv(rq(Fraction(-7, 2), Fraction(2)), 0))
        assert not c.contains(pv(0, 1))
        assert c.distance(1j) == pytest.approx(1.0)
        assert c.is_discrete() is Trilean.NO

        # a skew dense line: direction (1, sqrt3), both coordinates irrational
        skew = classify_additive_closure([pv(1, SQRT3), pv(SQRT3, 3)])
        assert skew.shape == "LineDense"
        on = pv(rq(Fraction(1, 3), 2), rq(6, Fraction(1, 3)))
        off = pv(rq(Fraction(1, 3), 2), rq(6, Fraction(1, 2)))
        assert skew.contains(on) and _fraction_parse_scalar(skew, on)
        assert not skew.contains(off) and not _fraction_parse_scalar(skew, off)

    def test_dense_line_plus_transversal_steps(self):
        c = classify_additive_closure([pv(1, 0), pv(SQRT3, 0), pv(0, 1)])
        assert c.shape == "LineLattice"
        assert c.exact
        # the dual functional annihilates the line and is 1 on the step
        assert _pairing(c.dual, c.direction) == (0, 0)
        assert _pairing(c.dual, c.transversal) == (1, 0)
        assert c.direction.is_real()
        # the direction is reported with a positive leading coordinate
        assert c.to_report()["direction"] == "[1, 0]"
        # membership is exactly "integer dual pairing"
        assert c.contains(pv(rq(Fraction(1, 2), Fraction(3, 4)), 2))
        assert not c.contains(pv(0, Fraction(1, 2)))
        assert c.distance(complex(0.3, 0.25)) == pytest.approx(0.25)
        assert c.is_discrete() is Trilean.NO
        assert c.is_whole_plane() is Trilean.NO

    def test_skew_generators_stay_discrete(self):
        b1, b2 = pv(1, 0), pv(SQRT3, 1)
        # brute force: no short nonzero vector appears, so this really is a
        # rank-2 lattice and not a dense line plus drift
        z1, z2 = b1.to_complex(), b2.to_complex()
        best = min(
            abs(m * z1 + n * z2)
            for m in range(-50, 51)
            for n in range(-50, 51)
            if (m, n) != (0, 0)
        )
        assert best == pytest.approx(1.0)

        c = classify_additive_closure([b1, b2])
        assert c.shape == "Lattice2"
        assert c.shortest_vector() == pytest.approx(1.0)
        assert c.contains(pv(rq(2, 1), 1))  # b2 + 2*b1
        assert not c.contains(pv(SQRT3, 0))
        assert c.is_discrete() is Trilean.YES

    def test_zero_and_rank_one(self):
        assert classify_additive_closure([]).shape == "Zero"
        assert classify_additive_closure([Scalar.integer(0)]).shape == "Zero"
        single = classify_additive_closure([pv(2, 1)])
        assert single.shape == "Lattice1"
        assert single.contains(pv(-4, -2))
        assert not single.contains(pv(1, 0))

    def test_rational_collinear_refine_to_finer_lattice(self):
        c = classify_additive_closure(
            [Scalar.integer(1), Scalar.rational(Fraction(1, 2))]
        )
        assert c.shape == "Lattice1"
        assert c.to_report()["generator_value"] == [0.5, 0.0]
        assert c.contains(Scalar.rational(Fraction(7, 2)))
        assert not c.contains(Scalar.rational(Fraction(1, 4)))

    def test_float_inputs_take_the_heuristic_path(self):
        line = classify_additive_closure([1.0, complex(math.sqrt(2), 0.0)])
        assert line.shape == "LineDense"
        assert not line.exact
        assert line.evidence["path"] == "heuristic"
        assert line.is_discrete() is Trilean.UNKNOWN

        strip = classify_additive_closure([1.0, complex(math.sqrt(2), 0.0), 1j])
        assert strip.shape == "LineLattice"
        assert not strip.exact
        assert strip.contains(complex(math.pi, 2.0), eps=1e-6)


# ---------------------------------------------------------------------------
# Lattice2 distances on long, thin bases


def _lattice_points_within(b1: complex, b2: complex, radius: float) -> np.ndarray:
    """Every lattice point m*b1 + n*b2 of length <= radius, by brute force:
    |m| <= radius*|b2|/|det|, and for fixed m such a point has n within
    radius/|b2| of the foot of the perpendicular from 0 to the line m*b1 + R*b2."""
    det = b1.real * b2.imag - b1.imag * b2.real
    k = math.ceil(radius * abs(b2) / abs(det))
    pts = []
    for m in range(-k, k + 1):
        foot = -m * (b1.real * b2.real + b1.imag * b2.imag) / abs(b2) ** 2
        width = radius / abs(b2)
        for n in range(math.ceil(foot - width), math.floor(foot + width) + 1):
            pts.append(m * b1 + n * b2)
    pts = np.array(pts)
    return pts[np.abs(pts) <= radius]


def _nearest_by_brute_force(b1: complex, b2: complex, v: complex, reach: float) -> float:
    """Distance from v to the nearest lattice point, searched among the
    points within |v| + reach of 0; exact when the answer is <= reach."""
    pts = _lattice_points_within(b1, b2, abs(v) + reach)
    best = float(np.min(np.abs(v - pts)))
    assert best <= reach, "search radius too small for a conclusive answer"
    return best


@st.composite
def skewed_bases(draw):
    """(short basis, the same lattice through a long thin unimodular image)."""
    small = st.integers(-4, 4)
    den = draw(st.sampled_from([1, 2, 3, 7]), label="den")

    def coord():
        return rq(Fraction(draw(small), den), Fraction(draw(st.integers(-1, 1)), den))

    c1, c2 = pv(coord(), coord()), pv(coord(), coord())
    z1, z2 = c1.to_complex(), c2.to_complex()
    assume(abs(z1.real * z2.imag - z1.imag * z2.real) > 0.1 * abs(z1) * abs(z2))
    # a product of shears [[1, k], [0, 1]] and [[1, 0], [k, 1]]: unimodular
    u = [[1, 0], [0, 1]]
    for i, k in enumerate(draw(st.lists(st.integers(-12, 12), min_size=2, max_size=5))):
        u = [[u[0][0] + k * u[1][0], u[0][1] + k * u[1][1]], u[1]] if i % 2 == 0 else \
            [u[0], [u[1][0] + k * u[0][0], u[1][1] + k * u[0][1]]]

    def comb(p, q):
        return p * c1 + q * c2

    return (c1, c2), (comb(*u[0]), comb(*u[1]))


class TestLattice2Reduction:
    @given(
        skewed_bases(),
        st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=6),
    )
    def test_distance_matches_brute_force_on_skewed_bases(self, bases, points):
        (c1, c2), skewed = bases
        lattice = Lattice2(basis=skewed)
        z1, z2 = c1.to_complex(), c2.to_complex()
        reach = abs(z1) + abs(z2)  # some cell corner is this close to any point
        for x, y in points:
            v = complex(x, y)
            assert lattice.distance(v) == pytest.approx(
                _nearest_by_brute_force(z1, z2, v, reach), abs=1e-9
            )
        near = _lattice_points_within(z1, z2, min(abs(z1), abs(z2)) * (1 + 1e-9))
        shortest = min(abs(p) for p in near if abs(p) > 0)
        assert lattice.shortest_vector() == pytest.approx(shortest, rel=1e-9)

    def test_thin_translation_lattice_of_a_quarter_turn_pair(self):
        # the HNF basis of this pair's translation lattice is about 3900 and
        # 6300 long; with it, floor/ceil corners missed the nearest points
        # by up to 1937.7 and exact orbit points measured 1.04e-9
        from homothety_orbits.affine_maps import Homothety, as_point
        from homothety_orbits.closure_engine import orbit_closure
        from homothety_orbits.group_profile import GroupSpec, compute_profile
        from homothety_orbits.orbit_oracle import enumerate as enumerate_orbit

        i = parse_scalar("i")
        spec = GroupSpec(1, (
            Homothety(i, (parse_scalar("8/15-11/3*zeta12-13/3*zeta12^2+21/5*zeta12^3"),)),
            Homothety(i, (parse_scalar("4+3/2*zeta12+3/2*zeta12^2-11/2*zeta12^3"),)),
        ))
        profile = compute_profile(spec)
        lattice = profile.g1_closure
        assert lattice.shape == "Lattice2"
        b1, b2 = (b.to_complex() for b in lattice.basis)
        assert min(abs(b1), abs(b2)) > 3000

        shortest = min(abs(p) for p in _lattice_points_within(b1, b2, 20.0) if abs(p) > 0)
        assert shortest == pytest.approx(11.0524, abs=1e-4)
        assert lattice.shortest_vector() == pytest.approx(shortest, rel=1e-9)
        for x in np.linspace(-3, 3, 5):
            for y in np.linspace(-3, 3, 5):
                v = complex(x, y)
                assert lattice.distance(v) == pytest.approx(
                    _nearest_by_brute_force(b1, b2, v, 20.0), abs=1e-6
                )

        desc = orbit_closure(profile, as_point([parse_scalar("0")]))
        sample = enumerate_orbit(spec, desc.point, 5)
        assert desc.distance_many(sample.array).max() <= 1e-12


# ---------------------------------------------------------------------------
# additive closures: invariants


class TestAdditiveInvariants:
    @given(st.lists(exact_scalars(), min_size=1, max_size=4), st.data())
    def test_soundness_generators_and_words_belong(self, gens, data):
        c = classify_additive_closure(gens)
        vals = [g.exact_value for g in gens]
        for g in gens:
            assert c.contains(g)
        coeffs = data.draw(
            st.tuples(*[st.integers(-2, 2) for _ in gens]), label="coeffs"
        )
        assert c.contains(combo(vals, coeffs))

    @given(
        st.lists(exact_scalars(), min_size=1, max_size=3),
        exact_scalars(),
        st.data(),
    )
    def test_monotone_under_extra_generator(self, gens, extra, data):
        bigger = classify_additive_closure(gens + [extra])
        vals = [g.exact_value for g in gens]
        coeffs = data.draw(
            st.tuples(*[st.integers(-2, 2) for _ in gens]), label="coeffs"
        )
        assert bigger.contains(combo(vals, coeffs))

    @given(st.lists(exact_scalars(), min_size=1, max_size=4))
    def test_lattice_reclassification_is_stable(self, gens):
        c = classify_additive_closure(gens)
        if c.shape == "Lattice2":
            again = classify_additive_closure(list(c.basis))
            assert again.shape == "Lattice2"
            assert again._hnf == c._hnf
            # half a basis vector never belongs to the lattice itself
            assert not c.contains(c.basis[0] * Fraction(1, 2))
        elif c.shape == "Lattice1":
            again = classify_additive_closure([c.generator])
            assert again.shape == "Lattice1"
            assert again.contains(c.generator) and c.contains(again.generator)
        elif c.shape == "LineLattice":
            assert _pairing(c.dual, c.direction) == (0, 0)
            assert _pairing(c.dual, c.transversal) == (1, 0)

    @given(
        st.lists(exact_scalars(), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=4),
        st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7)]),
        exact_scalars(),
    )
    def test_integer_membership_matches_the_fraction_route(self, gens, pairs, scale, extra):
        c = classify_additive_closure(gens)
        vals = [g.exact_value for g in gens]
        probes = [combo(vals[:2], pair) * scale for pair in pairs] + [extra.exact_value]
        for probe in probes:
            assert c.contains(probe) == _fraction_parse_scalar(c, probe)

    @given(
        st.lists(exact_scalars(), min_size=1, max_size=4),
        st.lists(st.complex_numbers(max_magnitude=50, allow_nan=False), max_size=8),
        st.booleans(),
    )
    def test_array_distance_is_the_scalar_distance(self, gens, points, numeric):
        # numeric=True sends the same generators down the heuristic path
        c = classify_additive_closure([g.to_complex() if numeric else g for g in gens])
        values = [g.to_complex() for g in gens] + points
        many = c.distance_many(np.array(values, dtype=np.complex128))
        assert isinstance(many, np.ndarray) and many.shape == (len(values),)
        for v, d in zip(values, many):
            scalar = c.distance(v)
            assert isinstance(scalar, float) and scalar == d
            assert scalar == _reference_distance(c, v)

    def test_many_seeded_membership_checks(self, rng):
        for _ in range(300):
            gens = [random_exact_scalar(rng) for _ in range(rng.randint(1, 3))]
            c = classify_additive_closure(gens)
            vals = [g.exact_value for g in gens]
            for _ in range(6):
                coeffs = [rng.randint(-3, 3) for _ in vals]
                assert c.contains(combo(vals, coeffs))


# one generator list per exact additive shape, off the axes where it can be
_U = CYCLO_I * 2 + 1
SHAPE_GENERATORS = {
    "Zero": [CycloScalar.from_int(0)],
    "Lattice1": [_U / 3],
    "Lattice2": [CycloScalar.from_int(1), CYCLO_I / 2 + Fraction(1, 3)],
    "LineDense": [_U, _U * SQRT3],
    "LineLattice": [_U, _U * SQRT3, CYCLO_I * _U / 2],
    "Plane": [CycloScalar.from_int(1), SQRT3, CYCLO_I, CYCLO_I * SQRT3],
}


class TestArrayMembership:
    @pytest.mark.parametrize("shape", sorted(SHAPE_GENERATORS))
    def test_contains_lifts_matches_the_fraction_reference(self, shape, rng):
        gens = SHAPE_GENERATORS[shape]
        c = classify_additive_closure(gens)
        assert c.shape == shape and c.exact
        probes = []
        for _ in range(40):
            coeffs = [rng.randint(-3, 3) for _ in gens]
            scale = rng.choice([Fraction(1), Fraction(1, 2), Fraction(2, 3)])
            probes += [combo(gens, coeffs) * scale, random_cyclo(rng)]
        expected = [_fraction_parse_scalar(c, p) for p in probes]
        assert any(expected) and (shape == "Plane" or not all(expected))
        nums = np.array([p.planar_lift()[0] for p in probes], dtype=object)
        den = np.array([p.planar_lift()[1] for p in probes], dtype=object)
        # int64 rows whose largest entry is near 2^62, so that the test must
        # take its products on Python ints: each row scaled by an odd
        # factor, and 2^62 along each axis of the lift, where a wrapped
        # product would read as zero
        k = np.array([2 ** 62 // max(map(abs, [*n, d])) | 1 for n, d in zip(nums, den)])
        axes = np.eye(4, dtype=object) * 2 ** 62
        wide = (
            np.concatenate([nums * k[:, None], axes]),
            np.concatenate([den * k, np.ones(4, dtype=object)]),
            expected + [_fraction_parse_scalar(c, CycloScalar.from_planar_lift(a, 1)) for a in axes],
        )
        # small int64 rows, wide int64 rows, and Python-int rows past int64
        for n, d, want, dtype in (
            (nums, den, expected, np.int64),
            (*wide, np.int64),
            (wide[0] * 2 ** 70, wide[1] * 2 ** 70, wide[2], object),
        ):
            got = c.contains_lifts(n.astype(dtype), d.astype(dtype))
            assert got.dtype == bool and got.tolist() == want


# ---------------------------------------------------------------------------
# multiplicative closures: pinned examples


class TestMultiplicativePinned:
    def test_fourth_roots_of_unity(self):
        c = classify_multiplicative_closure([parse_scalar("i")])
        assert c.shape == "FiniteCyclic"
        assert c.order == 4 and c.generator_log == 3
        assert not c.includes_zero
        elems = sorted((round(z.real, 9), round(z.imag, 9)) for z in c.elements())
        assert elems == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
        assert c.contains(Scalar.zeta_power(6))  # -1
        assert not c.contains(Scalar.zeta_power(2))
        assert c.is_whole_plane() is Trilean.NO

    def test_single_spiral_generator(self):
        c = classify_multiplicative_closure([parse_scalar("2i")])
        assert c.shape == "RaysDiscrete"
        assert c.includes_zero
        assert c.modulus_base == pytest.approx(2.0)
        assert c.modulus_base_sq == Fraction(4)
        assert c.angle_order == 4
        assert c.hnf_rows == ((1, 6), (0, 24))  # arguments in units of pi/12
        # powers are members, unlinked modulus/angle combinations are not
        assert c.contains(parse_scalar("-4"))  # (2i)^2
        assert c.contains(parse_scalar("-1/4"))  # (2i)^-2
        assert not c.contains(parse_scalar("2"))
        assert not c.contains(parse_scalar("4i"))
        assert c.contains(Scalar.integer(0))
        assert c.distance(complex(-4.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_modulus_and_angle_decouple(self):
        c = classify_multiplicative_closure(
            [parse_scalar("2"), parse_scalar("zeta12^2")]
        )
        assert c.shape == "RaysDiscrete"
        assert c.angle_order == 6
        assert c.modulus_base == pytest.approx(2.0)
        assert c.hnf_rows == ((1, 0), (0, 4))  # arguments in units of pi/12
        assert c.includes_zero
        for member in ("4", "1/2", "zeta12^4", "2*zeta12^2"):
            assert c.contains(parse_scalar(member)), member
        assert not c.contains(parse_scalar("zeta12^1"))
        assert not c.contains(parse_scalar("3"))

    def test_two_multiplicatively_independent_moduli_fill_rays(self):
        c = classify_multiplicative_closure([parse_scalar("2"), parse_scalar("3")])
        assert c.shape == "RaysDense"
        assert c.angle_order == 1
        assert c.includes_zero
        assert c.contains(parse_scalar("3/2"))
        assert not c.contains(parse_scalar("-2"))
        assert c.distance(complex(2.7, 0.0)) == pytest.approx(0.0, abs=1e-12)
        assert c.distance(complex(-1.0, 0.0)) == pytest.approx(1.0)
        assert c.is_whole_plane() is Trilean.NO

    def test_irrational_angle_goes_heuristic(self):
        c = classify_multiplicative_closure([parse_scalar("2*exp(i*1.0)")])
        assert c.shape == "HeuristicDense"
        assert not c.exact
        assert c.includes_zero
        assert c.evidence["path"] == "heuristic"
        assert c.evidence["angle_discrepancy"] < 0.05
        assert c.is_whole_plane() is Trilean.UNKNOWN

    def test_trivial_inputs(self):
        for ratios in ([], [Scalar.integer(1)]):
            c = classify_multiplicative_closure(ratios)
            assert c.shape == "FiniteCyclic" and c.order == 1


# ---------------------------------------------------------------------------
# multiplicative closures: exact ratios off the pi/6 grid


def mult(*names):
    return classify_multiplicative_closure([parse_scalar(n) for n in names])


class TestMultiplicativeLogPolar:
    def test_gaussian_spiral_is_discrete(self):
        c = mult("2+i")
        assert (c.shape, c.exact) == ("RaysDiscrete", True)
        assert c.angle_order is None and c.hnf_rows is None  # arg(2+i)/pi irrational
        assert c.modulus_base_sq == 5
        assert c.contains(parse_scalar("3+4i"))  # (2+i)^2
        assert c.contains(parse_scalar("2/5-1/5i"))  # (2+i)^-1
        assert c.contains(Scalar.integer(0))
        for other in ("2-i", "1+2i", "-2-i", "5"):  # same modulus or ray, not a power
            assert not c.contains(parse_scalar(other)), other
        assert c.distance(complex(3, 4)) == pytest.approx(0.0, abs=1e-12)
        assert c.is_whole_plane() is Trilean.NO

    def test_spiral_and_quarter_turn_give_eight_discrete_rays(self):
        c = mult("1+i", "i")
        assert (c.shape, c.exact) == ("RaysDiscrete", True)
        assert c.angle_order == 8
        assert c.hnf_rows == ((1, 3), (0, 6))  # arg(1+i) = 3 pi/12, roots <i>
        for m in ("1-i", "2", "-1/2", "2+2i", "1/4i"):
            assert c.contains(parse_scalar(m)), m
        for other in ("zeta12", "3", "4+2i", "1+2i"):
            assert not c.contains(parse_scalar(other)), other

    def test_two_spirals_and_three_fill_eight_rays(self):
        c = mult("1+i", "1-i", "3")
        assert (c.shape, c.exact) == ("RaysDense", True)
        assert c.angle_order == 8
        assert c.contains(parse_scalar("3/2")) and c.contains(parse_scalar("5+5i"))
        assert not c.contains(parse_scalar("zeta12"))
        ray = complex(math.cos(math.pi / 4), math.sin(math.pi / 4)) * 0.7
        assert c.distance(ray) == pytest.approx(0.0, abs=1e-12)
        assert c.is_whole_plane() is Trilean.NO

    @pytest.mark.parametrize("names", [("2+i",), ("1+i", "i"), ("1+zeta12",), ("11/10",)])
    def test_spiral_distance_is_the_distance_to_the_nearest_point(self, names):
        c = mult(*names)
        rng = np.random.default_rng(5)
        xi = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200)
        xi *= np.exp(rng.uniform(-2, 2, 200))
        g = c.generator.to_complex()
        roots = np.exp(1j * np.pi * c.root_step * np.arange(12 // c.root_step) / 6)
        points = np.append((g ** np.arange(-300.0, 300.0)[:, None] * roots).ravel(), 0)
        brute = np.abs(xi[:, None] - points[None, :]).min(axis=1)
        assert np.allclose(c.distance_many(xi), brute, rtol=0, atol=1e-10)

    def test_conjugate_spirals_give_full_circles(self):
        c = mult("2+i", "2-i")
        assert (c.shape, c.exact) == ("Circles", True)
        assert c.includes_zero
        # every modulus 5^(k/2) is a full circle
        for m in ("3/5+4/5i", "zeta12", "5", "1+2i", "-1/5"):
            assert c.contains(parse_scalar(m)), m
        for other in ("2", "1+i", "7"):
            assert not c.contains(parse_scalar(other)), other
        assert c.distance(complex(0.0, 5 ** 0.5)) == pytest.approx(0.0, abs=1e-12)
        assert c.distance(complex(1.5, 0.0)) == pytest.approx(0.5)

    def test_unit_rotation_and_two_moduli_fill_the_plane(self):
        c = mult("3/5+4/5i", "2", "3")
        assert (c.shape, c.exact) == ("Plane", True)
        assert c.is_whole_plane() is Trilean.YES
        assert c.contains(parse_scalar("7+zeta12")) and c.contains(Scalar.integer(0))
        assert c.distance(complex(-0.3, 11.0)) == 0.0

    def test_one_plus_zeta_has_a_unit_squared_modulus(self):
        # |1+zeta12|^2 = 2+sqrt3, a unit of Z[sqrt3]: its exponent vector is
        # the unit coordinate alone, and arg(1+zeta12) = pi/12
        c = mult("1+zeta12")
        assert (c.shape, c.exact) == ("RaysDiscrete", True)
        assert c.modulus_base_sq == rq(2, 1)
        assert c.angle_order == 24
        assert c.hnf_rows == ((1, 1), (0, 24))
        w = parse_scalar("1+zeta12").exact_value
        assert c.contains(Scalar(w ** 3)) and c.contains(Scalar(w ** -2))
        assert not c.contains(Scalar(w * w.conj()))  # 2+sqrt3, on a ray of angle 0
        assert not c.contains(Scalar(w * ZETA))

    def test_four_exponentials_case_is_undecided(self):
        c = mult("2+i", "3")
        assert (c.shape, c.exact) == ("Unknown", False)
        assert "four-exponentials" in c.evidence["reason"]
        assert c.is_whole_plane() is Trilean.UNKNOWN
        # described by its superset C: no point is rejected
        assert c.contains(parse_scalar("7")) and c.contains(parse_scalar("6+3i"))
        assert c.distance(complex(0.2, -5.0)) == 0.0

    def test_unit_circle_without_zero(self):
        c = mult("3/5+4/5i")
        assert (c.shape, c.exact, c.includes_zero) == ("Circles", True, False)
        assert c.contains(parse_scalar("zeta12")) and not c.contains(Scalar.integer(0))
        assert c.distance(complex(0.0, 3.0)) == pytest.approx(2.0)


ZETA = parse_scalar("zeta12").exact_value

# arguments in units of pi/12; None marks an irrational multiple of pi
EXACT_POOL = {
    "2+i": None,
    "1+2i": None,
    "3/5+4/5i": None,
    "1+zeta12": 1,
    "1+i": 3,
    "zeta12": 2,
    "zeta12^4": 8,
    "-1": 12,
    "2": 0,
    "1/3": 0,
}
DISCRETE_MODULI = ("FiniteCyclic", "RaysDiscrete", "Circles")


class TestMultiplicativeExactPool:
    @given(
        st.lists(st.sampled_from(sorted(EXACT_POOL)), min_size=1, max_size=3, unique=True),
        st.data(),
    )
    def test_words_belong_and_foreign_factors_do_not(self, names, data):
        heuristic = mock.patch.object(
            closed_subgroups,
            "_classify_mult_heuristic",
            side_effect=AssertionError("exact input reached the heuristic"),
        )
        with heuristic:
            c = mult(*names)
        assert c.exact or c.shape == "Unknown"
        values = [parse_scalar(n).exact_value for n in names]
        words = []
        for _ in range(3):
            exps = data.draw(st.tuples(*[st.integers(-2, 2) for _ in values]))
            w = ZETA ** 0
            for v, e in zip(values, exps):
                w = w * v ** e
            words.append(w)
            assert c.contains(Scalar(w)), f"{names} ^ {exps}"
        d = c.distance_many(np.array([w.to_complex() for w in words]))
        assert d.max() <= 1e-9
        w = words[-1]
        # 7 adds a prime to the modulus: outside every closure with
        # discrete moduli, on the angle-0 ray of every dense one
        seven = c.contains(Scalar(w * 7))
        assert seven is (c.shape not in DISCRETE_MODULI)
        if "1+zeta12" not in names:
            # 2+sqrt3 is no product of the pool's rational |.|^2, and the
            # angle pi/12 is reached by rays only when their step is pi/12
            eta = parse_scalar("1+zeta12").exact_value
            expect = c.shape not in DISCRETE_MODULI
            if c.shape == "RaysDense":
                expect = gcd(24, *(EXACT_POOL[n] for n in names)) == 1
            assert c.contains(Scalar(w * eta)) is expect


# ---------------------------------------------------------------------------
# multiplicative closures: invariants


MULT_POOL = ["i", "2i", "-2i", "2", "3", "1/2", "zeta12^2", "zeta12^3", "-1", "2*zeta12^2"]


class TestMultiplicativeInvariants:
    @given(
        st.lists(st.sampled_from(MULT_POOL), min_size=1, max_size=3, unique=True),
        st.data(),
    )
    def test_soundness_generators_and_words_belong(self, names, data):
        ratios = [parse_scalar(n) for n in names]
        c = classify_multiplicative_closure(ratios)
        for r in ratios:
            assert c.contains(r), f"{names}: generator {r} rejected"
        exps = data.draw(
            st.tuples(*[st.integers(-2, 2) for _ in ratios]), label="exponents"
        )
        word = None
        for r, e in zip(ratios, exps):
            v = r.exact_value
            for _ in range(abs(e)):
                factor = v if e > 0 else v.inverse()
                word = factor if word is None else word * factor
        if word is not None:
            assert c.contains(Scalar(word)), f"{names} ^ {exps}"

    @given(st.lists(st.sampled_from(MULT_POOL), min_size=1, max_size=3, unique=True))
    def test_exact_closures_are_never_the_whole_plane(self, names):
        c = classify_multiplicative_closure([parse_scalar(n) for n in names])
        assert c.exact
        assert c.is_whole_plane() is Trilean.NO

    @given(st.lists(st.sampled_from(MULT_POOL), min_size=1, max_size=2, unique=True))
    def test_monotone_under_extra_generator(self, names):
        ratios = [parse_scalar(n) for n in names]
        bigger = classify_multiplicative_closure(ratios + [parse_scalar("zeta12^3")])
        for r in ratios:
            assert bigger.contains(r)

    def test_zero_membership_tracks_modulus_subgroup(self):
        unit = classify_multiplicative_closure([parse_scalar("zeta12^2")])
        assert not unit.includes_zero
        assert not unit.contains(Scalar.integer(0))
        scaled = classify_multiplicative_closure([parse_scalar("2*zeta12^2")])
        assert scaled.includes_zero
        assert scaled.contains(Scalar.integer(0))

    def test_finite_cyclic_order_divides_twelve(self):
        for k in range(12):
            c = classify_multiplicative_closure([Scalar.zeta_power(k)])
            assert c.shape == "FiniteCyclic"
            assert 12 % c.order == 0
            assert c.order == 12 // gcd(k, 12) if k else c.order == 1
