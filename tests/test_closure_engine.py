"""Orbit-closure descriptions and global verdicts: the branch table keyed
on ratio flags and point position, plus the planar two-rotation classifier."""

import ast
import functools
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from homothety_orbits import orbit_oracle
from homothety_orbits.affine_maps import Homothety, as_point, v_to_complex
from homothety_orbits.exact_algebra import (
    Scalar,
    Trilean,
    UndecidableAtPrecision,
    parse_scalar,
)
from homothety_orbits.group_profile import GroupSpec, compute_profile
from homothety_orbits.lattices import hnf
from homothety_orbits.closure_engine import (
    global_verdicts,
    orbit_closure,
    rotation_pair_classify,
)
from conftest import (
    clear_denominators,
    exact_scalars,
    hnf_solve,
    homotheties,
    lattice_basis_from_rational_rows,
    planar_fractions,
)

I = parse_scalar("i")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def S(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar.integer(x)


def P(*coords):
    return as_point([S(c) for c in coords])


@functools.lru_cache(maxsize=None)
def cone_profile():
    """Scaling about the origin and about e1 in dimension 2: the invariant
    subspace is the first coordinate axis, a codimension-one line."""
    gens = (
        Homothety.with_center(parse_scalar("2i"), P(0, 0)),
        Homothety.with_center(parse_scalar("3"), P(1, 0)),
    )
    return compute_profile(GroupSpec(2, gens))


@functools.lru_cache(maxsize=None)
def quarter_pair_profile():
    gens = (
        Homothety.with_center(I, P(0)),
        Homothety.with_center(I, P(1)),
    )
    return compute_profile(GroupSpec(1, gens))


# ---------------------------------------------------------------------------
# branch table


class TestBranchTable:
    def test_whole_space_when_the_subspace_fills(self):
        gens = (
            Homothety.with_center(parse_scalar("2i"), P(0)),
            Homothety.with_center(parse_scalar("2i"), P(1)),
        )
        profile = compute_profile(GroupSpec(1, gens))
        desc = orbit_closure(profile, P(0))
        assert desc.kind() == "WholeSpace"
        assert desc.provenance == "Thm1.1(1)(i)"
        assert desc.contains(P(7))
        assert desc.distance(P(-3)) == 0.0

    def test_affine_piece_for_points_on_a_proper_subspace(self):
        profile = cone_profile()
        desc = orbit_closure(profile, P(5, 0))
        assert desc.kind() == "Affine"
        assert desc.provenance == "Thm1.1(1)(i)"
        assert desc.contains(P(-2, 0))
        assert not desc.contains(P(0, 1))
        report = desc.to_report()
        assert report["kind"] == "Affine"
        assert report["subspace"]["dim"] == 1

    def test_cone_over_the_subspace_for_outside_points(self):
        profile = cone_profile()
        z = P(0, 1)
        desc = orbit_closure(profile, z)
        assert desc.kind() == "LambdaCone"
        assert desc.provenance == "Thm1.1(1)(ii)"
        assert desc.exact

        # members by construction: apex + xi*(z - apex) for xi in the ratio
        # closure, plus the base line itself (0 is in the closure)
        assert desc.contains(z)
        assert desc.contains(P(0, parse_scalar("2i")))
        assert desc.contains(P(0, -1))
        assert desc.contains(P(5, 0))

        # a unit rotation off the ray family is not in the ratio closure
        off = P(0, Scalar.zeta_power(1))
        assert not desc.contains(off)
        assert desc.distance(off) == pytest.approx(0.5, abs=1e-12)

        report = desc.to_report()
        assert report["lambda_closure"]["shape"] == "RaysDense"
        assert len(report["renderings"]) == 2

    def test_rotation_coset_for_crystallographic_ratios(self):
        profile = quarter_pair_profile()
        z = P(Scalar.rational(Fraction(1, 2)))
        desc = orbit_closure(profile, z)
        assert desc.kind() == "RotationCoset"
        assert desc.provenance == "Thm1.1(2)(ii)"
        assert desc.family == "S2" and desc.order == 4
        assert desc.exact
        assert desc.g1_unstable  # quarter-turn sandwich does not pin

        # w = i*z + (1+i) is a rotation of z plus a lattice translation
        w = I * z[0] + parse_scalar("1+1i")
        assert desc.contains(P(w))
        assert not desc.contains(P(1))
        assert desc.distance(P(Scalar.rational(Fraction(1, 4)))) == pytest.approx(0.25)

        report = desc.to_report()
        assert report["translation_closure"]["shape"] == "Lattice2"
        assert report["pinned"] is False
        assert len(report["inner_bound"]) == 3
        assert report["rotation_order"] == 4

    def test_real_ratio_groups_are_out_of_scope(self):
        gens = (
            Homothety.with_center(parse_scalar("2"), P(0)),
            Homothety.with_center(parse_scalar("3"), P(1)),
        )
        profile = compute_profile(GroupSpec(1, gens))
        desc = orbit_closure(profile, P(0))
        assert desc.kind() == "Unsupported"
        assert desc.provenance == "Remark1.5"
        with pytest.raises(RuntimeError):
            desc.contains(P(0))
        assert desc.to_report()["reason"].startswith("real-ratio")

    def test_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            orbit_closure(cone_profile(), P(0))


# ---------------------------------------------------------------------------
# the contract the oracle reads: distance, distance_many and sample


def _contract_cases():
    """(label, spec, point) for each description kind in dimensions 1 and 2."""
    spiral = parse_scalar("2i")
    plane = (Homothety.with_center(spiral, P(0)), Homothety.with_center(spiral, P(1)))
    space = tuple(Homothety.with_center(spiral, p) for p in (P(0, 0), P(1, 0), P(0, 1)))
    cone = (Homothety.with_center(spiral, P(0, 0)), Homothety.with_center(parse_scalar("3"), P(1, 0)))
    quarter1 = (Homothety.with_center(I, P(0)), Homothety.with_center(I, P(1)))
    quarter2 = (Homothety.with_center(I, P(0, 0)), Homothety.with_center(I, P(1, 1)))
    half = Scalar.rational(Fraction(1, 2))
    cases = [
        ("WholeSpace", GroupSpec(1, plane), P(half)),
        ("WholeSpace", GroupSpec(2, space), P(half, 1)),
        ("Affine", GroupSpec(2, cone), P(5, 0)),
        ("LambdaCone", GroupSpec(2, cone), P(half, 1)),
        ("RotationCoset", GroupSpec(1, quarter1), P(half)),
        ("RotationCoset", GroupSpec(2, quarter2), P(half, 0)),
    ]
    return [pytest.param(*c, id=f"{c[0]}-C{c[1].dim}") for c in cases]


class TestClosureContract:
    @pytest.mark.parametrize("kind, spec, z", _contract_cases())
    def test_one_distance_and_a_contained_sample(self, kind, spec, z):
        desc = orbit_closure(compute_profile(spec), z)
        assert desc.kind() == kind and len(z) == spec.dim

        rng = random.Random(17)
        queries = [z, P(*([I] * spec.dim))] + [
            as_point([complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in z])
            for _ in range(6)
        ]
        for q in queries:
            row = np.array([v_to_complex(q)], dtype=np.complex128)
            assert desc.distance(q) == float(desc.distance_many(row)[0])

        sample = desc.sample(random.Random(3), 30, orbit_oracle.harvest_translations(spec, 4))
        assert sample
        for p in sample:
            assert desc.contains(p), f"{kind} sample point {v_to_complex(p)} is not contained"
        rows = np.array([v_to_complex(p) for p in sample], dtype=np.complex128)
        assert desc.distance_many(rows).max() <= 1e-9


    def test_trace_keeps_every_cell_at_a_closure_point_on_a_corner(self):
        # the orbit closure of 0 under the quarter-turn pair is the lattice
        # {x + iy : x + y even}; on a 40-cell grid over [-2, 2]^2 each
        # lattice point is a cell corner, exactly half a diagonal from the
        # centres of the (up to) four cells that meet there
        desc = orbit_closure(quarter_pair_profile(), P(0))
        half, res = 2.0, 40
        cell = 2 * half / res
        pts = desc.trace_points(np.zeros(2), half, res)
        got = {tuple(ix) for ix in np.floor((pts + half) / cell).astype(int).tolist()}
        want = set()
        for x in range(-2, 3):
            for y in range(-2, 3):
                if (x + y) % 2 == 0:
                    cx, cy = round((x + half) / cell), round((y + half) / cell)
                    want |= {(i, j) for i in (cx - 1, cx) for j in (cy - 1, cy)
                             if 0 <= i < res and 0 <= j < res}
        assert len(want) == 4 * 5 + 2 * 4 + 1 * 4  # inner, edge and corner points
        assert want <= got


# ---------------------------------------------------------------------------
# structural invariants of the descriptions


class TestMixedOrderRotations:
    """The coset apex must be a fixed point realizing the whole rotation
    group, which no single generator need do."""

    def test_order_three_and_half_turn_pair(self):
        # rotations of orders 3 and 2 generate an order-6 rotation group;
        # only mixed words realize a sixth turn, about neither center
        gens = (
            Homothety.with_center(Scalar.zeta_power(4), P(parse_scalar("-1/2"))),
            Homothety.with_center(Scalar.integer(-1), P(-2)),
        )
        spec = GroupSpec(1, gens)
        profile = compute_profile(spec)
        desc = orbit_closure(profile, P(0))
        assert desc.kind() == "RotationCoset"
        assert desc.to_report()["rotation_order"] == 6
        from homothety_orbits import orbit_oracle as oracle

        sample = oracle.enumerate(spec, P(0), 8)
        assert all(desc.contains(p) for p in sample.exact_points)
        assert max(desc.distance(z) for z in sample.array) <= 1e-9

    def test_equal_third_turns_use_the_true_rotation_order(self):
        gens = (
            Homothety.with_center(Scalar.zeta_power(4), P(0)),
            Homothety.with_center(Scalar.zeta_power(4), P(1)),
        )
        spec = GroupSpec(1, gens)
        profile = compute_profile(spec)
        desc = orbit_closure(profile, P(0))
        assert desc.kind() == "RotationCoset"
        # the family has order 6 but the pair only generates third turns
        assert desc.to_report()["rotation_order"] == 3
        from homothety_orbits import orbit_oracle as oracle

        sample = oracle.enumerate(spec, P(0), 8)
        assert all(desc.contains(p) for p in sample.exact_points)


# ratios of the two crystallographic families: fourth and sixth roots of 1
CRYSTAL_FAMILIES = ((3, 6, 9), (2, 4, 6, 8, 10))
GAUSS_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _fraction_lift(x: Scalar):
    """Q^4 lift of an exact scalar through Fraction pairs p + q*sqrt3."""
    return list(planar_fractions(x.exact_value))


def _in_span(basis, v) -> bool:
    """v in the Z-span of rational rows: HNF membership on one denominator."""
    ints, _ = clear_denominators(list(basis) + [v])
    return hnf_solve(hnf(ints[:-1]), ints[-1]) is not None


@st.composite
def crystal_pairs(draw):
    """Exact non-abelian pair with ratios in one crystallographic family,
    plus a base point."""
    logs = draw(st.sampled_from(CRYSTAL_FAMILIES))
    k1 = draw(st.sampled_from([k for k in logs if k != 6]))  # one non-real ratio
    k2 = draw(st.sampled_from(logs))
    c1, c2, z = draw(st.lists(exact_scalars(), min_size=3, max_size=3))
    assume(c1 != c2)
    gens = (
        Homothety.with_center(Scalar.zeta_power(k1), P(c1)),
        Homothety.with_center(Scalar.zeta_power(k2), P(c2)),
    )
    return GroupSpec(1, gens), P(z)


class TestExactRotationCosetMembership:
    """RotationCoset tests exact membership on integer numerators against
    cached data; a Fraction-lift reference decides the same questions."""

    @given(crystal_pairs(), GAUSS_FRACTIONS, GAUSS_FRACTIONS, st.data())
    def test_membership_agrees_with_a_fraction_reference(self, pair, sx, sy, data):
        from homothety_orbits import orbit_oracle as oracle

        spec, z = pair
        desc = orbit_closure(compute_profile(spec), z)
        assert desc.kind() == "RotationCoset"
        assert desc.exact
        closure = desc.translation_closure
        sample = oracle.enumerate(spec, z, 5)
        assert all(desc.contains(p) for p in sample.exact_points)

        # reference: T is the Z-span of the Schreier shifts, discrete unless
        # its closure is the plane; the closure of the orbit is the union of
        # apex + rho^k (z - apex) + closure(T)
        basis = lattice_basis_from_rational_rows(
            [_fraction_lift(t[0]) for t in desc.translation_generators]
        )

        def in_t_closure(v: Scalar) -> bool:
            return closure.shape == "Plane" or _in_span(basis, _fraction_lift(v))

        za = z[0] - desc.apex[0]
        offsets = [
            desc.apex[0] + Scalar.zeta_power(desc.step * k) * za
            for k in range(desc.order)
        ]
        shift = Scalar.gauss(sx, sy)
        assume(not in_t_closure(shift))
        p = data.draw(st.sampled_from(sample.exact_points), label="orbit point")
        w = (p[0] + shift,)
        expected = any(in_t_closure(w[0] - o) for o in offsets)
        assert desc.contains(w) == expected

        # the array distance is the scalar distance, entry by entry
        values = sample.array[:, 0] - complex(w[0].to_complex())
        many = closure.distance_many(values)
        assert many.shape == values.shape
        assert list(many) == [closure.distance(complex(v)) for v in values]


class TestRotationCosetRows:
    """`contains_rows` ORs the translation closure's array test over the
    coset offsets; a Fraction-lift reference decides the same points."""

    @pytest.mark.parametrize("cap, dtype", [(6, np.int64), (8, object)])
    def test_offset_union_matches_a_fraction_reference(self, cap, dtype):
        third, seventh = (Scalar.rational(Fraction(1, k)) for k in (3, 7))
        z = P(Scalar.rational(Fraction(2, 7)))
        spec = GroupSpec(1, (Homothety.with_center(I, P(third)),
                             Homothety.with_center(I, P(seventh))))
        desc = orbit_closure(compute_profile(spec), z)
        assert desc.kind() == "RotationCoset" and desc.exact
        assert desc.translation_closure.shape == "Lattice2"  # so the closure of T is T
        basis = lattice_basis_from_rational_rows(
            [_fraction_lift(t[0]) for t in desc.translation_generators]
        )
        offsets = [
            desc.apex[0] + Scalar.zeta_power(desc.step * k) * (z[0] - desc.apex[0])
            for k in range(desc.order)
        ]

        def member(w) -> bool:
            return any(_in_span(basis, _fraction_lift(w[0] - o)) for o in offsets)

        # the orbit of the ratio-1000 group of test_wide_numerators: its int64
        # rows pass 2^51 at word length 6, and its rows are Python ints at 8
        wide = GroupSpec(1, (Homothety.with_center(S(1000), P(0)),
                             Homothety.with_center(I, P(third))))
        sample = orbit_oracle.enumerate(wide, z, cap)
        assert sample.rows.dtype == dtype
        expected = [member(p) for p in sample.exact_points]
        assert any(expected) and not all(expected)
        got = desc.contains_rows(sample.rows)
        assert got.dtype == bool and got.tolist() == expected
        # the coset's own orbit belongs to it, row by row
        own = orbit_oracle.enumerate(spec, z, cap).rows
        assert desc.contains_rows(own).all()


class TestClosureInvariants:
    def test_descriptions_agree_along_one_orbit(self):
        # y in closure(z) implies closure(y) = closure(z): check by mutual
        # sample membership for an outside point and its scaled image
        profile = cone_profile()
        z = P(0, 1)
        y = P(0, parse_scalar("2i"))
        cz = orbit_closure(profile, z)
        cy = orbit_closure(profile, y)
        assert cz.contains(y) and cy.contains(z)
        rng = random.Random(7)
        for p in cz.sample(rng, 40):
            assert cy.contains(p, eps=1e-7)
        for p in cy.sample(rng, 40):
            assert cz.contains(p, eps=1e-7)

    def test_base_points_join_the_cone_when_zero_is_inside(self):
        profile = cone_profile()
        desc = orbit_closure(profile, P(0, 1))
        assert desc.lambda_closure.includes_zero
        rng = random.Random(11)
        for p in profile.E_G.sample(rng, 20):
            assert desc.contains(p, eps=1e-7)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 2), st.data())
    def test_self_membership_and_forward_invariance(self, dim, data):
        from homothety_orbits.group_profile import AbelianGroup

        gens = data.draw(st.lists(homotheties(dim), min_size=2, max_size=3))
        spec = GroupSpec(dim, tuple(gens))
        try:
            profile = compute_profile(spec)
        except (AbelianGroup, UndecidableAtPrecision):
            assume(False)
            return
        z = as_point(data.draw(st.sampled_from(
            [[Scalar.integer(0)] * dim,
             [Scalar.integer(1)] * dim,
             [Scalar.gauss(0, 1)] + [Scalar.integer(0)] * (dim - 1)]
        )))
        desc = orbit_closure(profile, z)
        if desc.kind() == "Unsupported":
            assume(False)
            return
        assert desc.contains(z, eps=1e-7), f"{desc.kind()} misses its own point"
        rng = random.Random(3)
        pts = desc.sample(rng, 12)
        for g in gens:
            for p in pts:
                assert desc.contains(g.apply(p), eps=1e-6), (
                    f"{desc.kind()} not invariant under a generator"
                )


# ---------------------------------------------------------------------------
# global verdicts


class TestGlobalVerdicts:
    def test_whole_space_group_is_everywhere_dense(self):
        gens = (
            Homothety.with_center(parse_scalar("2i"), P(0)),
            Homothety.with_center(parse_scalar("2i"), P(1)),
        )
        v = global_verdicts(compute_profile(GroupSpec(1, gens)))
        assert v.has_dense_orbit is Trilean.YES
        assert v.all_orbits_in_U_dense is Trilean.YES
        assert v.no_discrete_orbit is Trilean.YES
        assert v.all_orbits_closed_discrete is Trilean.NO
        assert v.orbits_in_U_minimal and v.orbits_in_U_homeomorphic

    def test_codimension_one_line_with_ray_closure_is_not_dense(self):
        v = global_verdicts(cone_profile())
        assert v.has_dense_orbit is Trilean.NO
        assert v.no_discrete_orbit is Trilean.YES
        assert v.orbits_in_U_minimal  # a modulus != 1 ratio is present

    def test_quarter_turn_pair_is_closed_discrete(self):
        v = global_verdicts(quarter_pair_profile())
        assert v.all_orbits_closed_discrete is Trilean.YES
        assert v.no_discrete_orbit is Trilean.NO
        assert v.has_dense_orbit is Trilean.NO
        assert not v.orbits_in_U_minimal
        report = v.to_report()
        assert report["all_orbits_closed_discrete"] == "yes"
        assert report["has_dense_orbit"] == "no"

    def test_generator_count_shortcut_in_high_dimension(self):
        gens = (
            Homothety.with_center(parse_scalar("2i"), P(0, 0, 0, 0)),
            Homothety.with_center(parse_scalar("3i"), P(1, 0, 0, 0)),
        )
        v = global_verdicts(compute_profile(GroupSpec(4, gens)))
        assert v.has_dense_orbit is Trilean.NO
        assert any("generator-count shortcut" in n for n in v.notes)

    def test_real_ratio_verdicts_stay_open(self):
        gens = (
            Homothety.with_center(parse_scalar("2"), P(0)),
            Homothety.with_center(parse_scalar("3"), P(1)),
        )
        v = global_verdicts(compute_profile(GroupSpec(1, gens)))
        assert v.has_dense_orbit is Trilean.UNKNOWN
        assert v.all_orbits_closed_discrete is Trilean.UNKNOWN
        assert not v.orbits_in_U_minimal

    def test_dense_verdict_matches_whole_space_closures(self):
        # the dense verdict must agree with the closure of a generic point
        cases = [
            (GroupSpec(1, (
                Homothety.with_center(parse_scalar("2i"), P(0)),
                Homothety.with_center(parse_scalar("2i"), P(1)),
            )), True),
            (GroupSpec(2, (
                Homothety.with_center(parse_scalar("2i"), P(0, 0)),
                Homothety.with_center(parse_scalar("3"), P(1, 0)),
            )), False),
        ]
        for spec, expect_dense in cases:
            profile = compute_profile(spec)
            v = global_verdicts(profile)
            z = P(*([0] * spec.dim))
            desc = orbit_closure(profile, z)
            if expect_dense:
                assert v.has_dense_orbit is Trilean.YES
                assert desc.kind() == "WholeSpace"
            else:
                assert v.has_dense_orbit is not Trilean.YES
                assert desc.kind() != "WholeSpace"


# ---------------------------------------------------------------------------
# the planar two-rotation classifier


class TestRotationPairClassifier:
    def test_mixed_families_force_density(self):
        v = rotation_pair_classify(math.pi / 2, math.pi / 3, 0.0, 1.0)
        assert v.kind == "AllDense"
        assert v.provenance == "Thm1.2(1)"
        assert any("mixed families" in n for n in v.notes)

    def test_generic_angle_forces_density(self):
        v = rotation_pair_classify(1.0, math.pi / 2, 0.0, 1.0)
        assert v.kind == "AllDense"
        v2 = rotation_pair_classify(math.pi / 5, math.pi / 5, 0.0, 1.0)
        assert v2.kind == "AllDense"

    def test_shared_quarter_turns_close_up(self):
        v = rotation_pair_classify(math.pi / 2, math.pi / 2, 0.0, 1.0)
        assert v.kind == "AllClosedDiscrete"
        assert v.provenance == "Thm1.2(2)"
        assert v.lattice is not None and v.lattice.shape == "Lattice2"
        report = v.to_report()
        assert report["kind"] == "AllClosedDiscrete"
        assert report["lattice"]["shape"] == "Lattice2"

    def test_shared_sixth_family_closes_up(self):
        v = rotation_pair_classify(2 * math.pi / 3, math.pi / 3, 0.0, 1.0)
        assert v.kind == "AllClosedDiscrete"
        assert v.lattice.is_discrete() is Trilean.YES

    def test_centers_as_real_pairs_are_planar_points(self):
        # (x, y) in R^2 is identified with x + i*y; float centers lift to
        # exact rationals, so the verdict stays exact
        v = rotation_pair_classify(math.pi / 2, math.pi / 2, (0.5, 0.25), (1.0, 0.25))
        assert v.kind == "AllClosedDiscrete"
        assert v.lattice.exact
        with pytest.raises(ValueError):
            rotation_pair_classify(math.pi / 2, math.pi / 2, (1j, 0.0), (1.0, 0.0))

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            rotation_pair_classify(math.pi / 2, math.pi / 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            rotation_pair_classify(2 * math.pi, math.pi / 2, 0.0, 1.0)
        with pytest.raises(ValueError):
            rotation_pair_classify(0.0, math.pi / 2, 0.0, 1.0)

    def test_angle_too_close_to_zero_is_undecidable(self):
        with pytest.raises(UndecidableAtPrecision):
            rotation_pair_classify(1e-6, math.pi / 2, 0.0, 1.0)


# ---------------------------------------------------------------------------
# independence of the symbolic engine from the oracle


def _imported_modules(path) -> set:
    """Every module a source file imports, function-local imports included,
    with relative imports resolved inside the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "homothety_orbits" if node.level else ""
            module = ".".join(p for p in (base, node.module or "") if p)
            names.add(module)
            # `from . import x` and `from package import x` import module x
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


ORACLE = "homothety_orbits.orbit_oracle"


def _imports_oracle(path) -> bool:
    return any(n == ORACLE or n.startswith(ORACLE + ".") for n in _imported_modules(path))


@pytest.mark.parametrize("module", ["closure_engine", "group_profile"])
def test_the_engine_does_not_import_the_oracle(module):
    path = SRC / "homothety_orbits" / f"{module}.py"
    assert not _imports_oracle(path), sorted(_imported_modules(path))


@pytest.mark.parametrize("source", [
    "from . import orbit_oracle",
    "from .orbit_oracle import verify",
    "def f():\n    from homothety_orbits import orbit_oracle",
    "import homothety_orbits.orbit_oracle as oracle",
])
def test_the_import_scan_sees_every_form(tmp_path, source):
    path = tmp_path / "module.py"
    path.write_text(source + "\n")
    assert _imports_oracle(path)
