"""Group-level structure: ratio flags, the minimal invariant affine
subspace, the crystallographic angle test, and the one-dimensional
translation-subgroup sandwich."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from homothety_orbits.affine_maps import Homothety, as_point
from homothety_orbits.exact_algebra import (
    Scalar,
    Trilean,
    UndecidableAtPrecision,
    parse_scalar,
)
from homothety_orbits.group_profile import (
    AbelianGroup,
    CrystalVerdict,
    GroupSpec,
    compute_EG,
    compute_profile,
    crystallographic_test,
    g1_lattice_bounds,
    ratio_flags,
    schreier_generators,
)
from homothety_orbits.closed_subgroups import classify_additive_closure
from homothety_orbits.orbit_oracle import harvest_translations
from conftest import exact_scalars, homotheties

I = parse_scalar("i")
Z2 = Scalar.zeta_power(2)


def pair_spec(ratio, dim: int = 1, **kw) -> GroupSpec:
    """Two equal-ratio generators with centers 0 and e1."""
    e1 = [Scalar.integer(1)] + [Scalar.integer(0)] * (dim - 1)
    return GroupSpec(
        dim=dim,
        generators=(
            Homothety.with_center(ratio, [Scalar.integer(0)] * dim),
            Homothety.with_center(ratio, e1),
        ),
        **kw,
    )


# ---------------------------------------------------------------------------
# ratio flags


class TestRatioFlags:
    def test_scalings_outside_every_rotation_family(self):
        spec = GroupSpec(
            1,
            (
                Homothety.with_center(parse_scalar("2i"), [Scalar.integer(0)]),
                Homothety.with_center(parse_scalar("3"), [Scalar.integer(1)]),
            ),
        )
        flags = ratio_flags(spec)
        assert flags == (True, True, None, True)

    def test_fourth_roots_family(self):
        spec = GroupSpec(
            1,
            (
                Homothety.with_center(I, [Scalar.integer(0)]),
                Homothety.with_center(parse_scalar("-1"), [Scalar.integer(1)]),
            ),
        )
        flags = ratio_flags(spec)
        assert flags.has_nonreal_ratio
        assert not flags.has_modulus_ne1
        assert flags.sr_membership == "S2"
        assert not flags.outside_SR

    def test_mixed_roots_leave_both_families(self):
        spec = GroupSpec(
            1,
            (
                Homothety.with_center(I, [Scalar.integer(0)]),
                Homothety.with_center(Z2, [Scalar.integer(1)]),
            ),
        )
        flags = ratio_flags(spec)
        assert flags == (True, False, None, True)

    def test_sixth_roots_family(self):
        spec = pair_spec(Z2)
        assert ratio_flags(spec).sr_membership == "S3"

    def test_unresolved_modulus_degrades_instead_of_raising(self):
        # an approximate unit rotation can never *prove* |ratio| = 1, so the
        # modulus flag must quietly stay False rather than abort
        spec = pair_spec(parse_scalar("exp(i*1.0)"))
        flags = ratio_flags(spec)
        assert flags.has_nonreal_ratio
        assert not flags.has_modulus_ne1
        assert flags.outside_SR

    def test_angle_too_close_to_a_root_raises(self):
        near_i = parse_scalar(f"exp(i*{math.pi / 2})")
        spec = pair_spec(near_i)
        with pytest.raises(UndecidableAtPrecision):
            ratio_flags(spec)


# ---------------------------------------------------------------------------
# minimal invariant affine subspace


def O(dim):
    return [Scalar.integer(0)] * dim


class TestInvariantSubspace:
    def test_three_generic_centers_span_the_plane(self):
        gens = (
            Homothety.with_center(parse_scalar("2i"), [Scalar.integer(1), Scalar.integer(0)]),
            Homothety.with_center(parse_scalar("3i"), [Scalar.integer(0), Scalar.integer(1)]),
            Homothety.with_center(parse_scalar("-2i"), [Scalar.integer(1), Scalar.integer(1)]),
        )
        sub = compute_EG(GroupSpec(2, gens))
        assert sub.dim == 2 and sub.is_whole_space()

    def test_distinct_centers_on_the_line(self):
        sub = compute_EG(pair_spec(I))
        assert sub.ambient_dim == 1 and sub.is_whole_space()

    def test_collinear_centers_give_a_proper_subspace(self):
        gens = (
            Homothety.with_center(parse_scalar("2"), O(2)),
            Homothety.with_center(parse_scalar("3"), [Scalar.integer(1), Scalar.integer(0)]),
        )
        sub = compute_EG(GroupSpec(2, gens))
        assert sub.dim == 1
        assert sub.contains(as_point([Scalar.integer(5), Scalar.integer(0)]))
        assert not sub.contains(as_point([Scalar.integer(0), Scalar.integer(1)]))

    def test_translation_directions_are_absorbed(self):
        scale = Homothety.with_center(parse_scalar("2"), O(2))
        lift = Homothety.translation([Scalar.integer(0), Scalar.integer(1)])
        sub = compute_EG(GroupSpec(2, (scale, lift)))
        assert sub.dim == 1
        assert sub.contains(as_point([Scalar.integer(0), Scalar.integer(7)]))
        assert not sub.contains(as_point([Scalar.integer(1), Scalar.integer(0)]))

        slide = Homothety.translation([Scalar.integer(1), Scalar.integer(0)])
        grown = compute_EG(GroupSpec(2, (scale, lift, slide)))
        assert grown.is_whole_space()

    def test_abelian_inputs_are_rejected(self):
        shared = (
            Homothety.with_center(parse_scalar("2i"), O(1)),
            Homothety.with_center(parse_scalar("3"), O(1)),
        )
        with pytest.raises(AbelianGroup):
            compute_EG(GroupSpec(1, shared))
        translations_only = (
            Homothety.translation([Scalar.integer(1)]),
            Homothety.translation([I]),
        )
        with pytest.raises(AbelianGroup):
            compute_EG(GroupSpec(1, translations_only))
        with pytest.raises(AbelianGroup):
            compute_EG(GroupSpec(1, (Homothety.with_center(I, O(1)),)))

    def test_one_non_commuting_pair_settles_a_group_with_undecided_pairs(self):
        # two equal decimal translations cannot be proved to commute at
        # float precision, but the rotation moves them, so the group is
        # not abelian; with only the translations it stays undecided
        shift = Homothety.translation([parse_scalar("1.0i")])
        rotation = Homothety.with_center(parse_scalar("zeta12"), [parse_scalar("1-zeta12^2")])
        assert compute_EG(GroupSpec(1, (shift, shift, rotation))).dim == 1
        with pytest.raises(UndecidableAtPrecision):
            compute_EG(GroupSpec(1, (shift, shift)))

    def test_decimal_data_past_the_working_precision_are_undecidable(self):
        # centres near 1e8 with parts near 1e-8: the float subspace misses
        # a seed point by more than eps, which decimal data cannot settle
        spec = GroupSpec(2, tuple(
            Homothety.with_center(parse_scalar(r), [parse_scalar(c) for c in centre])
            for r, centre in (("zeta12^3", ("3.14159", "1e-300")), ("zeta12^2", ("1e8", "1e-8")))
        ))
        with pytest.raises(UndecidableAtPrecision):
            compute_EG(spec)

    @given(st.integers(1, 2), st.data())
    def test_contains_seeds_and_is_generator_invariant(self, dim, data):
        gens = data.draw(
            st.lists(homotheties(dim), min_size=2, max_size=3), label="generators"
        )
        spec = GroupSpec(dim, tuple(gens))
        try:
            sub = compute_EG(spec)
        except (AbelianGroup, UndecidableAtPrecision):
            assume(False)
            return
        for g in gens:
            if g.is_translation() is Trilean.NO:
                assert sub.contains(g.center())
        # invariance: generator images of subspace points stay inside
        points = [sub.base] + [g.apply(sub.base) for g in gens]
        for g in gens:
            for p in points:
                assert sub.contains(g.apply(p), eps=1e-7)

    @given(st.data())
    def test_dimension_never_exceeds_ambient(self, data):
        gens = data.draw(st.lists(homotheties(2), min_size=2, max_size=4))
        try:
            sub = compute_EG(GroupSpec(2, tuple(gens)))
        except (AbelianGroup, UndecidableAtPrecision):
            assume(False)
            return
        assert 1 <= sub.dim <= 2
        assert len(sub.base) == 2


# ---------------------------------------------------------------------------
# crystallographic restriction


class TestCrystallographicTest:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_lattice_compatible_orders(self, k):
        # rotation by 2pi/k for k in {2,3,4,6}: zeta12^(12/k)
        ratio = Scalar.zeta_power(12 // k)
        assert crystallographic_test(ratio) == CrystalVerdict.COMPATIBLE_DISCRETE

    def test_order_twelve_forces_density(self):
        assert crystallographic_test(Scalar.zeta_power(1)) == CrystalVerdict.FORCES_DENSE
        assert crystallographic_test(Scalar.zeta_power(5)) == CrystalVerdict.FORCES_DENSE

    def test_generic_angle_forces_density(self):
        assert (
            crystallographic_test(parse_scalar("exp(i*pi*1/5)"))
            == CrystalVerdict.FORCES_DENSE
        )
        assert (
            crystallographic_test(parse_scalar("exp(i*1.0)"))
            == CrystalVerdict.FORCES_DENSE
        )

    def test_non_rotations_are_flagged(self):
        assert crystallographic_test(parse_scalar("2i")) == CrystalVerdict.NOT_ROTATION
        assert crystallographic_test(parse_scalar("1/2")) == CrystalVerdict.NOT_ROTATION

    def test_approximate_angle_on_the_boundary_raises(self):
        with pytest.raises(UndecidableAtPrecision):
            crystallographic_test(parse_scalar(f"exp(i*{math.pi / 2})"))

    def test_unresolvable_modulus_raises(self):
        fuzzy = Scalar.approx(complex(1.0 + 1e-14, 0.0), 1e-12)
        with pytest.raises(UndecidableAtPrecision):
            crystallographic_test(fuzzy)


# ---------------------------------------------------------------------------
# translation-subgroup sandwich in dimension one


def assert_pair_shifts_in_outer(pair, outer):
    """Every Schreier shift of the group the equal-ratio pair generates lies
    in the outer lattice (other generators may add translations beyond it);
    returns the shifts."""
    shifts = [t[0] for t in schreier_generators(GroupSpec(1, tuple(pair))).shifts]
    outer_closure = classify_additive_closure(outer)
    for s in shifts:
        assert outer_closure.contains(s), f"Schreier shift {s!r} escapes the outer lattice"
    return shifts


class TestTranslationSandwich:
    def test_quarter_turn_pair_brackets(self):
        spec = pair_spec(I)
        inner, outer = g1_lattice_bounds(spec)
        shifts = assert_pair_shifts_in_outer(spec.generators, outer)

        def as_pairs(scalars):
            return {
                (round(s.to_complex().real, 9) + 0.0, round(s.to_complex().imag, 9) + 0.0)
                for s in scalars
            }

        assert as_pairs(inner) == {(0.0, 2.0), (0.0, -2.0), (2.0, 0.0)}
        assert as_pairs(outer) == {(1.0, 1.0), (1.0, -1.0)}
        assert shifts, "no Schreier generators"
        assert all(s.is_exact for s in shifts)

    def test_sixth_turn_pair_is_pinned(self):
        profile = compute_profile(pair_spec(Z2))
        assert profile.g1_pinned is True
        assert profile.g1_closure.shape == "Lattice2"

    def test_quarter_turn_pair_is_not_pinned(self):
        profile = compute_profile(pair_spec(I))
        assert profile.g1_pinned is False
        assert profile.g1_closure.shape == "Lattice2"
        # the Schreier generators already generate the inner generators
        for s in profile.g1_inner:
            assert profile.g1_closure.contains(s)

    def test_closures_compare_without_their_evidence(self):
        # g1_pinned compares the inner and outer closures with ==, which
        # reads the closures and not the relation heights and residuals
        # of approximate ones
        fine = classify_additive_closure([0.2, 0.6, 1.0])
        coarse = classify_additive_closure([0.2])
        assert fine.evidence != coarse.evidence
        assert fine == coarse and hash(fine) == hash(coarse)
        # {i@0, i@1, -1@0.3} is pinned as its exact form, with 3/10
        pinned = []
        for centre in ("0.3", "3/10"):
            gens = (("i", "0"), ("i", "1"), ("-1", centre))
            spec = GroupSpec(1, tuple(
                Homothety.with_center(parse_scalar(r), [parse_scalar(c)]) for r, c in gens
            ))
            pinned.append(compute_profile(spec).g1_pinned)
        assert pinned[0] is pinned[1] is False

    def test_order_twelve_pair_refuses_the_sandwich(self):
        # an angle of pi/6 has order 12: Z[ratio] is dense, there is no
        # bracketing lattice, and the profile must fall through to the
        # dense branch rather than abort
        spec = pair_spec(parse_scalar("zeta12"))
        with pytest.raises(ValueError):
            g1_lattice_bounds(spec)
        profile = compute_profile(spec)
        assert profile.g1_inner is None
        assert profile.outside_SR
        assert profile.g1_closure.shape == "Plane"

    def test_extra_generator_does_not_falsify_the_pair_bracket(self):
        # the bracketing statement concerns the group the equal-ratio pair
        # generates; a third rotation may add translations beyond it
        spec = GroupSpec(
            1,
            (
                Homothety.with_center(I, as_point([Scalar.integer(0)])),
                Homothety.with_center(I, as_point([Scalar.integer(1)])),
                Homothety.with_center(
                    parse_scalar("zeta12^2"), as_point([parse_scalar("1/3")])
                ),
            ),
        )
        inner, outer = g1_lattice_bounds(spec)
        assert {s.to_complex() for s in outer} == {(1 + 1j), (1 - 1j)}
        assert assert_pair_shifts_in_outer(spec.generators[:2], outer)

    def test_self_map_property_of_the_brackets(self):
        # multiplying an outer generator by the ratio stays in the outer
        # lattice, and (ratio - 1) * outer lands in the inner-generated group
        for ratio in (I, Z2):
            spec = pair_spec(ratio)
            inner, outer = g1_lattice_bounds(spec)
            assert_pair_shifts_in_outer(spec.generators, outer)
            outer_closure = classify_additive_closure(outer)
            assert classify_additive_closure(inner).is_discrete() is Trilean.YES
            for s in outer:
                assert outer_closure.contains(
                    ratio * s
                ), "ratio action must preserve the outer lattice"
            for s in inner:
                assert outer_closure.contains(
                    s
                ), "inner generators must sit inside the outer lattice"

    def test_pair_shifts_lie_in_the_outer_lattice(self):
        # every crystallographic ratio (orders 2, 3, 4 and 6) and a few
        # centre offsets
        for k in (2, 3, 4, 6, 8, 9, 10):
            for a in ("1", "1/3+1/2i", "2-i"):
                pair = (Homothety.with_center(Scalar.zeta_power(k), [Scalar.integer(0)]),
                        Homothety.with_center(Scalar.zeta_power(k), [parse_scalar(a)]))
                _, outer = g1_lattice_bounds(GroupSpec(1, pair))
                assert assert_pair_shifts_in_outer(pair, outer)

    def test_requires_a_matching_rotation_pair(self):
        mismatched = GroupSpec(
            1,
            (
                Homothety.with_center(I, [Scalar.integer(0)]),
                Homothety.with_center(parse_scalar("2i"), [Scalar.integer(1)]),
            ),
        )
        with pytest.raises(ValueError):
            g1_lattice_bounds(mismatched)
        with pytest.raises(ValueError):
            g1_lattice_bounds(pair_spec(I, dim=2))


# ---------------------------------------------------------------------------
# the translation subgroup from Schreier generators

F2_RATIOS = [Scalar.zeta_power(k) for k in (3, 6, 9)]
F3_RATIOS = [Scalar.zeta_power(k) for k in (2, 4, 6, 8, 10)]


def centered_pair(r1, r2, c1=0, c2=1) -> GroupSpec:
    return GroupSpec(
        1,
        (
            Homothety.with_center(parse_scalar(str(r1)), [parse_scalar(str(c1))]),
            Homothety.with_center(parse_scalar(str(r2)), [parse_scalar(str(c2))]),
        ),
    )


class TestSchreierGenerators:
    def test_engine_does_not_import_the_oracle(self):
        import ast
        import pathlib

        import homothety_orbits

        pkg = pathlib.Path(homothety_orbits.__file__).parent
        for name in ("group_profile.py", "closure_engine.py"):
            tree = ast.parse((pkg / name).read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                assert not any("orbit_oracle" in n for n in names), (
                    f"{name} imports the oracle at line {node.lineno}"
                )

    def test_step_witness_and_shifts_of_the_quarter_pair(self):
        gens = schreier_generators(pair_spec(I))
        assert gens.step == 3
        assert gens.witness.ratio == I
        # T is the outer lattice Z(1+i) + Z(1-i) of the sandwich
        closure = classify_additive_closure([s[0] for s in gens.shifts])
        assert closure == classify_additive_closure(
            [parse_scalar("1+i"), parse_scalar("1-i")]
        )

    @pytest.mark.parametrize(
        "ratios",
        [("1+i", "i"), ("2", "i"), ("1/2", "zeta12^4")],
        ids=["spiral", "real-quarter", "half-third"],
    )
    def test_infinite_ratio_group_has_a_dense_translation_closure(self, ratios):
        profile = compute_profile(centered_pair(*ratios))
        assert profile.g1_closure.shape == "Plane"
        assert profile.g1_closure.exact
        assert profile.schreier is None

    def test_real_ratios_close_up_on_the_span_of_the_commutators(self):
        line = compute_profile(centered_pair(2, 3)).g1_closure
        assert line.shape == "LineDense" and line.exact
        assert line.contains(parse_scalar("7/3"))
        assert not line.contains(I)
        three = GroupSpec(
            1,
            (
                Homothety.with_center(Scalar.integer(2), [Scalar.integer(0)]),
                Homothety.with_center(Scalar.integer(3), [Scalar.integer(1)]),
                Homothety.with_center(Scalar.integer(2), [I]),
            ),
        )
        assert compute_profile(three).g1_closure.shape == "Plane"
        approx = compute_profile(centered_pair(2, 3, "0.5", "1.5")).g1_closure
        assert approx.shape == "LineDense" and not approx.exact
        assert approx.contains(parse_scalar("-7/3").to_complex())

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_harvested_translations_lie_in_the_schreier_closure(self, data):
        family = data.draw(st.sampled_from([F2_RATIOS, F3_RATIOS]))
        r1 = data.draw(st.sampled_from(family))
        r2 = data.draw(st.sampled_from(family))
        c1 = data.draw(exact_scalars())
        c2 = data.draw(exact_scalars())
        assume((c1 - c2).eq_zero() is Trilean.NO)
        spec = GroupSpec(
            1, (Homothety.with_center(r1, [c1]), Homothety.with_center(r2, [c2]))
        )
        closure = classify_additive_closure([t[0] for t in schreier_generators(spec).shifts])
        assert closure.exact
        for t in harvest_translations(spec, 6):
            assert closure.contains(t[0]), t


# ---------------------------------------------------------------------------
# assembled profile


class TestComputeProfile:
    def test_quarter_turn_profile_fields(self):
        profile = compute_profile(pair_spec(I))
        assert profile.has_nonreal_ratio
        assert not profile.has_modulus_ne1
        assert profile.sr_membership == "S2"
        assert not profile.outside_SR
        assert profile.E_G.is_whole_space()
        assert len(profile.gamma_seeds) == 2
        assert profile.lambda_closure.shape == "FiniteCyclic"
        assert profile.lambda_closure.to_report()["order"] == 4
        assert profile.schreier.step == 3 and profile.schreier.shifts
        assert profile.exact

        report = profile.to_report()
        assert report["sr_membership"] == "S2"
        assert report["translation_closure"]["shape"] == "Lattice2"
        assert report["g1_pinned"] is False
        assert len(report["g1_inner"]) == 3 and len(report["g1_outer"]) == 2
        assert report["invariant_subspace"]["dim"] == 1

    def test_scaling_pair_profile(self):
        gens = (
            Homothety.with_center(parse_scalar("2i"), O(2)),
            Homothety.with_center(
                parse_scalar("2i"), [Scalar.integer(1), Scalar.integer(0)]
            ),
        )
        profile = compute_profile(GroupSpec(2, gens))
        assert profile.outside_SR
        assert profile.has_modulus_ne1
        assert profile.g1_closure is None  # sandwich is dimension-1 only
        assert profile.lambda_closure.shape == "RaysDiscrete"
        assert profile.E_G.dim == 1  # centers share the first axis

    def test_approx_generators_yield_inexact_profile(self):
        profile = compute_profile(pair_spec(parse_scalar("exp(i*1.0)")))
        assert profile.has_nonreal_ratio
        assert not profile.exact
        assert profile.lambda_closure.exact is False
