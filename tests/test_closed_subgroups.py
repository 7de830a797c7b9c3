"""Closed additive subgroups of R^2 and multiplicative subgroups of C*.

Pinned classifications are cross-checked with small brute-force searches
(Pell-style approximation minima, shortest-vector scans) computed here in
the tests, independently of the library code.
"""

import cmath
import itertools
import math
from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from homothety_orbits.exact_algebra import (
    CYCLO_I,
    ZETA_POWERS,
    CycloScalar,
    Scalar,
    Trilean,
    format_scalar,
    parse_scalar,
)
from homothety_orbits.lattices import hnf
from homothety_orbits import closed_subgroups
from homothety_orbits.closed_subgroups import (
    AdditiveClosure,
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


def _dual(c) -> CycloScalar:
    """The functional of a LineLattice that is 0 on its line and 1 on its
    transversal t: t / |t|^2."""
    t = c.lattice[0]
    return t / t.abs_sq()


def _fraction_parse_scalar(c, p: CycloScalar) -> bool:
    """Membership of an exact vector computed on Fraction pairs p + q*sqrt3."""
    if c.shape == "Plane":
        return True
    lift = planar_fractions(p)
    if c.shape == "Zero":
        return not any(lift)
    if c.shape == "LineDense":
        d = planar_fractions(c.directions[0])
        cross = _rq_mul(lift[:2], d[2:]), _rq_mul(lift[2:], d[:2])
        return cross[0] == cross[1]
    if c.shape == "LineLattice":
        pairing = _pairing(p, _dual(c))
        return pairing[1] == 0 and pairing[0].denominator == 1
    basis = list(c.lattice)
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
        g = c.lattice[0].to_complex()
        n = round((v.real * g.real + v.imag * g.imag) / abs(g) ** 2)
        return abs(v - n * g)
    if c.shape == "Lattice2":
        b1, b2 = c._floats[1]  # the reduced basis
        det = b1.real * b2.imag - b1.imag * b2.real
        s = (v.real * b2.imag - v.imag * b2.real) / det
        t = (b1.real * v.imag - b1.imag * v.real) / det
        return min(
            abs(v - ds * b1 - dt * b2)
            for ds in (math.floor(s), math.ceil(s))
            for dt in (math.floor(t), math.ceil(t))
        )
    u = c.directions[0].to_complex()
    u /= abs(u)
    w = v - (v.real * u.real + v.imag * u.imag) * u
    if c.shape == "LineDense":
        return abs(w)
    # LineLattice: the nearest multiple of the transversal, off the line
    g = c.lattice[0].to_complex()
    n = round((w.real * g.real + w.imag * g.imag) / abs(g) ** 2)
    return abs(w - n * g)


# ---------------------------------------------------------------------------
# additive closures: pinned examples


class TestAdditivePinned:
    def test_unit_square_lattice(self):
        c = classify_additive_closure([Scalar.integer(1), Scalar.gauss(0, 1)])
        assert c.shape == "Lattice2"
        assert closed_subgroups._lift_rows(c.lattice) == ([[1, 0, 0, 0], [0, 0, 1, 0]], 1)
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
        assert c.directions[0].is_real() and not c.directions[0].is_zero()
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
        assert _pairing(_dual(c), c.directions[0]) == (0, 0)
        assert _pairing(_dual(c), c.lattice[0]) == (1, 0)
        assert c.directions[0].is_real()
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

    def test_float_inputs_take_the_relation_path(self):
        line = classify_additive_closure([1.0, complex(math.sqrt(2), 0.0)])
        assert line.shape == "LineDense"
        assert not line.exact
        assert line.evidence["path"] == "relations"
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
        lattice = AdditiveClosure(lattice=skewed)
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
        b1, b2 = (b.to_complex() for b in lattice.lattice)
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
# nearest lattice points in C^2


def _real_row(v) -> np.ndarray:
    return np.array([p for c in v for z in (c.to_complex(),) for p in (z.real, z.imag)])


class TestLatticeDistanceCn:
    @pytest.mark.parametrize("rank", [3, 4])
    def test_distance_matches_brute_force_on_skewed_bases(self, rng, rank):
        # a short basis near the axes 1, i of each coordinate, then the same
        # lattice through unimodular shears: the closure holds a long, thin
        # basis, and brute force searches the short one
        one, zero = CycloScalar.from_int(1), CycloScalar.from_int(0)
        axes = [(one, zero), (CYCLO_I, zero), (zero, one), (zero, CYCLO_I)][:rank]

        def near(a):
            x = rq(Fraction(rng.randint(-2, 2), 10), Fraction(rng.randint(-1, 1), 10))
            return a + x + CYCLO_I * Fraction(rng.randint(-2, 2), 10)

        for trial in range(8):

            short = [tuple(near(a) for a in axis) for axis in axes]
            skewed = list(short)
            for _ in range(6):
                i, j = rng.sample(range(rank), 2)
                k = rng.randint(-9, 9)
                skewed[i] = tuple(a + k * b for a, b in zip(skewed[i], skewed[j]))
            lattice = AdditiveClosure(lattice=tuple(skewed), dim=2)
            assert lattice.shape == f"V0+L{rank}"
            queries = np.random.default_rng(trial).normal(size=(30, 4)) * 1.5
            got = lattice.distance_many(queries[:, 0::2] + 1j * queries[:, 1::2])
            box = np.array(list(itertools.product(range(-8, 9), repeat=rank)))
            points = box @ np.array([_real_row(b) for b in short])
            for q, d in zip(queries, got):
                gaps = np.linalg.norm(points - q, axis=1)
                # the nearest point lies inside the box, so the search is conclusive
                assert np.abs(box[np.argmin(gaps)]).max() < 8
                assert d == pytest.approx(gaps.min(), abs=1e-9)


    def test_short_and_long_vectors_stay_a_small_search(self):
        # two short vectors in the first two coordinates and two of length
        # about 4e8 that lean into them: the nearest-plane bound is of the
        # long vectors' size, and spending it on the short levels once asked
        # for some 10^10 candidates.  Brute force: the long coefficients near
        # their real solution, then the short block, which spans the first
        # two coordinates only
        short = np.array([[1.0, 0, 0, 0], [0.5, 0.9, 0, 0]])
        long = np.array([[0.1, 0, 4e8, 0], [0, 0.05, 2e8, 3.8e8]])
        queries = np.random.default_rng(3).uniform(-1e9, 1e9, size=(40, 4))
        got = closed_subgroups._nearest_lattice_distance(queries, np.vstack([short, long]))
        box = np.array(list(itertools.product(range(-3, 4), repeat=2)))
        for q, d in zip(queries, got):
            centre = np.round(np.linalg.solve(long[:, 2:].T, q[2:]))
            best = np.inf
            for c in centre + box:
                rest = q - c @ long
                near = np.round(np.linalg.solve(short[:, :2].T, rest[:2]))
                gaps = np.linalg.norm(rest[:2] - (near + box) @ short[:, :2], axis=1)
                best = min(best, math.hypot(gaps.min(), *rest[2:]))
            assert d == pytest.approx(best, rel=1e-12)


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
            again = classify_additive_closure(list(c.lattice))
            assert again.shape == "Lattice2"
            assert again.lattice == c.lattice
            # half a basis vector never belongs to the lattice itself
            assert not c.contains(c.lattice[0] * Fraction(1, 2))
        elif c.shape == "Lattice1":
            again = classify_additive_closure(list(c.lattice))
            assert again.shape == "Lattice1"
            assert again.contains(c.lattice[0]) and c.contains(again.lattice[0])
        elif c.shape == "LineLattice":
            assert _pairing(_dual(c), c.directions[0]) == (0, 0)
            assert _pairing(_dual(c), c.lattice[0]) == (1, 0)

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
        # numeric=True sends the same generators down the relation path
        c = classify_additive_closure([g.to_complex() if numeric else g for g in gens])
        values = [g.to_complex() for g in gens] + points
        many = c.distance_many(np.array(values, dtype=np.complex128))
        assert isinstance(many, np.ndarray) and many.shape == (len(values),)
        for v, d in zip(values, many):
            scalar = c.distance(v)
            assert isinstance(scalar, float) and scalar == d
            assert scalar == _reference_distance(c, v)

    @pytest.mark.parametrize("numeric", [False, True])
    def test_line_lattice_distance_is_the_dual_pairing_distance(self, rng, numeric):
        # the distance once measured with the dual functional d of the
        # closure, |d.v - round(d.v)| / |d|, now as the distance to the
        # nearest multiple of the transversal after projecting out the line
        found = 0
        while found < (8 if numeric else 40):
            gens = [random_cyclo(rng) for _ in range(rng.randint(2, 3))]
            gens.append(gens[0] * SQRT3)
            c = classify_additive_closure([g.to_complex() if numeric else g for g in gens])
            if c.shape != "LineLattice":
                continue
            found += 1
            t = c.lattice[0].to_complex()
            d = t / abs(t) ** 2 if numeric else _dual(c).to_complex()
            v = np.array([complex(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(50)])
            pairing = v.real * d.real + v.imag * d.imag
            parent = np.abs(pairing - np.round(pairing)) / abs(d)
            assert np.all(np.abs(c.distance_many(v) - parent) <= 1e-12 * np.maximum(1, np.abs(v)))

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


    @pytest.mark.parametrize("shape", sorted(SHAPE_GENERATORS))
    def test_float_path_gives_the_exact_shape(self, shape):
        # the same generators as floats take the integer relations, which
        # must find the exact closure's shape and keep every generator
        gens = [g.to_complex() for g in SHAPE_GENERATORS[shape]]
        c = classify_additive_closure(gens)
        assert (c.shape, c.exact, c.evidence["path"]) == (shape, False, "relations")
        assert all(c.distance(g) <= 1e-9 for g in gens)


# ---------------------------------------------------------------------------
# multiplicative closures: pinned examples


class TestMultiplicativePinned:
    def test_fourth_roots_of_unity(self):
        c = classify_multiplicative_closure([parse_scalar("i")])
        assert c.shape == "FiniteCyclic"
        assert (c.to_report()["order"], c.to_report()["generator"]) == (4, "zeta12^3")
        assert not c.includes_zero
        assert c.distance_many(np.array([1, 1j, -1, -1j])).max() <= 1e-15
        assert c.distance(cmath.exp(1j * math.pi / 4)) == pytest.approx(abs(cmath.exp(1j * math.pi / 4) - 1))
        assert c.contains(Scalar.zeta_power(6))  # -1
        assert not c.contains(Scalar.zeta_power(2))
        assert c.is_whole_plane() is Trilean.NO

    def test_single_spiral_generator(self):
        c = classify_multiplicative_closure([parse_scalar("2i")])
        report = c.to_report()
        assert c.shape == "RaysDiscrete"
        assert c.includes_zero
        assert report["modulus_ratio"] == pytest.approx(2.0)
        assert c.lattice[0].abs_sq() == Fraction(4)
        assert report["angle_order"] == 4
        assert report["coupling_hnf"] == [[1, 6], [0, 24]]  # arguments in units of pi/12
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
        report = c.to_report()
        assert c.shape == "RaysDiscrete"
        assert report["angle_order"] == 6
        assert report["modulus_ratio"] == pytest.approx(2.0)
        assert report["coupling_hnf"] == [[1, 0], [0, 4]]  # arguments in units of pi/12
        assert c.includes_zero
        for member in ("4", "1/2", "zeta12^4", "2*zeta12^2"):
            assert c.contains(parse_scalar(member)), member
        assert not c.contains(parse_scalar("zeta12^1"))
        assert not c.contains(parse_scalar("3"))

    def test_two_multiplicatively_independent_moduli_fill_rays(self):
        c = classify_multiplicative_closure([parse_scalar("2"), parse_scalar("3")])
        assert c.shape == "RaysDense"
        assert c.to_report()["angle_order"] == 1
        assert c.includes_zero
        assert c.contains(parse_scalar("3/2"))
        assert not c.contains(parse_scalar("-2"))
        assert c.distance(complex(2.7, 0.0)) == pytest.approx(0.0, abs=1e-12)
        assert c.distance(complex(-1.0, 0.0)) == pytest.approx(1.0)
        assert c.is_whole_plane() is Trilean.NO

    # approximate ratios: shape, the order field that shape reports, and
    # is_whole_plane, from the closure of the log-polar image
    @pytest.mark.parametrize(
        "names, shape, order, whole",
        [
            (("2*exp(i*1.0)",), "RaysDiscrete", ("root_order", 1), Trilean.NO),
            (("exp(i*pi*2/7)",), "FiniteCyclic", ("order", 7), Trilean.NO),
            (("2.0", "3.0", "i"), "RaysDense", ("angle_order", 4), Trilean.NO),
            (("1.5+0.5i", "1.5-0.5i"), "Circles", None, Trilean.NO),
            (("2.0", "3.0", "exp(i*1.0)"), "Plane", None, Trilean.UNKNOWN),
            (("-1.0",), "FiniteCyclic", ("order", 2), Trilean.NO),
            # (log 2, 1/2pi) and sqrt2 times it: a line off both axes
            (("2*exp(i*1.0)", "2.665144142690225*exp(i*1.4142135623730951)"), "Spirals", ("arms", 1), Trilean.NO),
        ],
    )
    def test_approximate_ratios_take_the_relations(self, names, shape, order, whole):
        ratios = [parse_scalar(n) for n in names]
        c = classify_multiplicative_closure(ratios)
        assert (c.shape, c.exact, c.evidence["path"]) == (shape, False, "relations")
        assert c.is_whole_plane() is whole
        if order is not None:
            assert c.to_report()[order[0]] == order[1]
        assert all(c.distance(r) <= 1e-9 for r in ratios)

    def test_an_order_seven_generator_reads_back(self):
        c = classify_multiplicative_closure([parse_scalar("exp(i*pi*2/7)")])
        g = parse_scalar(c.to_report()["generator"])
        assert abs(g.to_complex() - cmath.exp(2j * math.pi / 7)) < 1e-15
        assert c.distance(g) <= 1e-15 and c.distance(1j) > 0.2

    def test_a_discrete_spiral_from_decimals(self):
        # {2 e^(in)} and 0: the generator itself, and no roots but 1
        c = classify_multiplicative_closure([parse_scalar("2*exp(i*1.0)")])
        report = c.to_report()
        assert c.includes_zero and report["root_order"] == 1
        assert abs(parse_scalar(report["generator"]).to_complex() - 2 * cmath.exp(1j)) < 1e-12
        assert c.distance(4 * cmath.exp(2j)) <= 1e-9 and c.distance(-2) > 0.1

    def test_trivial_inputs(self):
        for ratios in ([], [Scalar.integer(1)]):
            c = classify_multiplicative_closure(ratios)
            assert c.shape == "FiniteCyclic" and c.to_report()["order"] == 1


# ---------------------------------------------------------------------------
# multiplicative closures: exact ratios off the pi/6 grid


def mult(*names):
    return classify_multiplicative_closure([parse_scalar(n) for n in names])


class TestMultiplicativeLogPolar:
    def test_gaussian_spiral_is_discrete(self):
        c = mult("2+i")
        assert (c.shape, c.exact) == ("RaysDiscrete", True)
        assert "angle_order" not in c.to_report()  # arg(2+i)/pi irrational
        assert "coupling_hnf" not in c.to_report()
        assert c.lattice[0].abs_sq() == 5
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
        assert c.to_report()["angle_order"] == 8
        assert c.to_report()["coupling_hnf"] == [[1, 3], [0, 6]]  # arg(1+i) = 3 pi/12, roots <i>
        for m in ("1-i", "2", "-1/2", "2+2i", "1/4i"):
            assert c.contains(parse_scalar(m)), m
        for other in ("zeta12", "3", "4+2i", "1+2i"):
            assert not c.contains(parse_scalar(other)), other

    def test_two_spirals_and_three_fill_eight_rays(self):
        c = mult("1+i", "1-i", "3")
        assert (c.shape, c.exact) == ("RaysDense", True)
        assert c.to_report()["angle_order"] == 8
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
        g = c.lattice[0].to_complex()
        k = c.lattice[1].root_of_unity_log() or 12  # roots of order 12/k
        roots = np.exp(2j * np.pi * np.arange(12 // k) * k / 12)
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
        assert c.lattice[0].abs_sq() == rq(2, 1)
        assert c.to_report()["angle_order"] == 24
        assert c.to_report()["coupling_hnf"] == [[1, 1], [0, 24]]
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
# the order field of each shape that has one
ORDER_FIELD = {"FiniteCyclic": "order", "RaysDense": "angle_order", "RaysDiscrete": "root_order"}


class TestMultiplicativeExactPool:
    @given(
        st.lists(st.sampled_from(sorted(EXACT_POOL)), min_size=1, max_size=3, unique=True),
        st.data(),
    )
    def test_words_belong_and_foreign_factors_do_not(self, names, data):
        relations = mock.patch.object(
            closed_subgroups,
            "_classify_mult_by_relations",
            side_effect=AssertionError("exact input reached the relations"),
        )
        with relations:
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

    @given(st.lists(st.sampled_from(sorted(EXACT_POOL)), min_size=1, max_size=3, unique=True))
    def test_float_ratios_give_the_exact_shape(self, names):
        # the four-exponentials case has no exact shape to compare with
        c = mult(*names)
        assume(c.shape != "Unknown")
        floats = [Scalar.approx(parse_scalar(n).to_complex()) for n in names]
        f = classify_multiplicative_closure(floats)
        assert (f.shape, f.exact, f.includes_zero) == (c.shape, False, c.includes_zero)
        if c.shape in ORDER_FIELD:
            # an exact RaysDiscrete reports no root_order: its root is the
            # last lattice value, a power of zeta12
            key = ORDER_FIELD[c.shape]
            exact_order = c.to_report().get(key) or 12 // (c.lattice[-1].root_of_unity_log() or 12)
            assert f.to_report()[key] == exact_order
        assert all(f.distance(r) <= 1e-9 for r in floats)

    def test_orders_on_the_pi12_grid_keep_the_bits_of_their_floats(self):
        # angles of any order are whole turns over an integer; a float root
        # of an order on the grid of the exact closures reads that order,
        # its generator and the floats of the exact roots, and rays and
        # discrete rays of those orders read their exact closures' distances
        rng = np.random.default_rng(12)
        xi = (rng.uniform(-3, 3, 50) + 1j * rng.uniform(-3, 3, 50)) * np.exp(rng.uniform(-2, 2, 50))
        for order in (1, 2, 3, 4, 6, 12):
            exact = mult(f"zeta12^{12 // order}")
            floats = classify_multiplicative_closure([Scalar.approx(cmath.exp(2j * math.pi / order))])
            assert floats.to_report()["order"] == exact.to_report()["order"] == order
            assert floats.to_report()["generator"] == exact.to_report()["generator"]
            roots = np.array([ZETA_POWERS[12 // order * j % 12].to_complex() for j in range(order)])
            assert np.array_equal(exact.distance_many(roots), np.zeros(order))
            assert np.array_equal(floats.distance_many(xi), exact.distance_many(xi))
            spiral = mult("2", f"zeta12^{12 // order}")
            floats = classify_multiplicative_closure([Scalar.approx(2.0), Scalar.approx(cmath.exp(2j * math.pi / order))])
            assert floats.to_report()["root_order"] == order
            assert np.allclose(floats.distance_many(xi), spiral.distance_many(xi), rtol=1e-13, atol=0)
        for order in (1, 2, 3, 4, 6, 8, 12, 24):
            angle = 2 * math.pi / order
            rays = mult("2", "3", format_scalar(Scalar.approx(cmath.exp(1j * angle))))
            ray = np.exp(1j * angle * np.arange(order)) * 1.5
            assert rays.to_report()["angle_order"] == order
            assert rays.distance_many(ray).max() <= 1e-14


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
            order = c.to_report()["order"]
            assert c.shape == "FiniteCyclic"
            assert 12 % order == 0
            assert order == 12 // gcd(k, 12) if k else order == 1


# ---------------------------------------------------------------------------
# multiplicative closures: distances against brute force


def _value(c, w) -> complex:
    """A lattice generator of a closure as a complex number."""
    return w.to_complex() if c.exact else cmath.exp(complex(w[0], 2 * math.pi * w[1]))


def _log_modulus(c, w) -> float:
    """log|w|, from the exact |w|^2 - 1 when exact, so that a ratio near 1
    keeps its digits."""
    return math.log1p((w.abs_sq() - 1).to_complex().real) / 2 if c.exact else float(w[0])


def brute_distance(c, q: complex) -> float:
    """The distance from q to the closure, each shape by its own picture:
    the roots, the unit circle, the nearest circles, the rays, or the
    points rho^m e^(i(m theta + 2 pi j/k)) of discrete rays, all of them
    in the range that can be nearer than 0, or, when theta is a rational
    turn p/den, those next to the foot of q on each of the den*k rays that
    hold them."""
    r, report = abs(q), c.to_report()
    if c.shape in ("Plane", "Unknown"):
        return 0.0
    if c.shape == "FiniteCyclic":
        k = report["order"]
        return min(abs(q - cmath.exp(2j * math.pi * j / k)) for j in range(k))
    if not c.includes_zero or r == 0:
        return abs(r - 1) if not c.includes_zero else 0.0
    if c.shape == "RaysDense":
        k = report["angle_order"]
        turns = [cmath.phase(q) - 2 * math.pi * j / k for j in range(k)]
        return min([r] + [r * abs(math.sin(a)) for a in turns if math.cos(a) > 0])
    if c.shape == "Spirals":
        return min(r, *(_spiral_distance(c, q, j) for j in range(report["arms"])))
    if c.shape == "Circles":
        lr = _log_modulus(c, c.lattice[0])
        m = round(math.log(r) / lr)
        return min(r, *(abs(r - math.exp(n * lr)) for n in (m - 1, m, m + 1)))
    g, root = c.lattice
    lr, theta = _log_modulus(c, g), cmath.phase(_value(c, g))
    k = report.get("root_order") or 12 // (root.root_of_unity_log() or 12)
    den = next((d for d in range(1, 25) if abs(theta * d / math.tau - round(theta * d / math.tau)) < 1e-12), None)
    if den is None:
        m = np.arange(math.floor(math.log(1e-14 * r) / lr), math.ceil(math.log(2 * r) / lr) + 1)[:, None]
        points = np.exp(m * lr + 1j * (m * theta + math.tau * np.arange(k) / k))
        return min(r, float(np.abs(q - points).min()))
    best = r
    for m0, j in itertools.product(range(den), range(k)):
        angle = m0 * theta + math.tau * j / k
        foot = r * math.cos(cmath.phase(q) - angle)
        if foot > 0:
            t = round((math.log(foot) / lr - m0) / den)
            for m in range(m0 + (t - 3) * den, m0 + (t + 4) * den, den):
                best = min(best, abs(q - cmath.rect(math.exp(m * lr), angle)))
    return best


def _spiral_distance(c, q: complex, j: int) -> float:
    """The distance from q to the j-th arm of a union of spirals: sampled
    every 1e-3 in log-modulus, then a golden-section search about the
    nearest sample."""
    (_, pitch), ((s0, t0),) = c.directions[0], c.lattice
    arm = lambda s: np.abs(q - np.exp(s + 2j * np.pi * (j * t0 + pitch * (s - j * s0))))
    s = np.arange(math.log(1e-14 * abs(q)), math.log(2 * abs(q)), 1e-3)
    k = int(np.argmin(arm(s)))
    a, b = s[k] - 2e-3, s[k] + 2e-3
    for _ in range(100):
        x, y = b - 0.618 * (b - a), a + 0.618 * (b - a)
        a, b = (a, y) if arm(x) <= arm(y) else (x, b)
    return float(min(arm(s[k]), arm((a + b) / 2)))


# 2*exp(i) and 2^sqrt2*exp(i*sqrt2): the rows (log 2, 1/2pi) and sqrt2 times it
SPIRAL = ("2*exp(i*1.0)", "2.665144142690225*exp(i*1.4142135623730951)")
BRUTE_CLOSURES = [
    ("i",), ("2i",), ("2", "zeta12^2"), ("2+i",), ("1+i", "i"), ("1+zeta12",), ("11/10",),
    ("10001/10000i", "i"), ("2", "3"), ("1+i", "1-i", "3"), ("2+i", "2-i"), ("3/5+4/5i",),
    ("3/5+4/5i", "2", "3"), ("2+i", "3"),
    ("exp(i*pi*2/7)",), ("-1.0",), ("2*exp(i*1.0)",), ("1.5+0.5i", "i"), ("1.00001i", "i"),
    ("1.00000001i",), ("2.0", "3.0", "i"), ("1.5+0.5i", "1.5-0.5i"), ("0.6+0.8i",),
    ("2.0", "3.0", "exp(i*1.0)"), SPIRAL, SPIRAL + ("-1.0",),
]


class TestMultiplicativeDistance:
    @pytest.mark.parametrize("names", BRUTE_CLOSURES, ids="/".join)
    def test_distance_many_matches_brute_force(self, names):
        # |q - p| = |q| |p/q - 1| is computed relative to |q|, and far from
        # the unit circle relative to the distance: both agree within 1e-12
        c = mult(*names)
        rng = np.random.default_rng(21)
        q = (rng.uniform(-3, 3, 24) + 1j * rng.uniform(-3, 3, 24)) * np.exp(rng.uniform(-2, 2, 24))
        ratios = np.array([parse_scalar(n).to_complex() for n in names])
        near = np.concatenate([ratios, ratios ** 2 * (1 + 1e-7j), ratios * (1 - 3e-9)])
        q = np.concatenate([q, near, [0, 1, -1, 1j, 3 + 4j]])
        got = c.distance_many(q)
        ref = np.array([brute_distance(c, z) for z in q])
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(q), ref)), names

    def test_a_near_one_ratio_takes_no_scan(self):
        # <1.00000001i> has circles 4e-8 apart in log-modulus: the distance
        # is a search along its short lattice vector, not a scan
        c = mult("1.00000001i")
        assert c.distance(3 + 4j) == pytest.approx(3.0, rel=1e-12)
