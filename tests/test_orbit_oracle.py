"""Brute-force orbit enumeration, translation harvesting, and the evidence
reports that score a predicted closure against an enumerated orbit."""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from homothety_orbits.affine_maps import Homothety, as_point, v_to_complex
from homothety_orbits.exact_algebra import Scalar, parse_scalar
from homothety_orbits.group_profile import GroupSpec, compute_profile
from homothety_orbits.closure_engine import orbit_closure
from homothety_orbits import orbit_oracle as oracle
from homothety_orbits.orbit_oracle import BudgetExceeded, OrbitSample

import oracle_reference as reference
from conftest import planar_fractions

I = parse_scalar("i")


def S(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar.integer(x)


def P(*coords):
    return as_point([S(c) for c in coords])


def exact_key(p):
    return tuple(c.exact_value for c in p)


def in_even_gaussian_lattice(c) -> bool:
    """Membership in Z(1+i) + Z(1-i) = {x + iy : x, y in Z, x + y even},
    checked on the exact coordinates, independent of the lattice classifier."""
    re_p, re_q, im_p, im_q = planar_fractions(c)
    if re_q or im_q:
        return False
    if re_p.denominator != 1 or im_p.denominator != 1:
        return False
    return (re_p.numerator + im_p.numerator) % 2 == 0


@functools.lru_cache(maxsize=None)
def translation_spec():
    return GroupSpec(1, (Homothety.translation(P(1)), Homothety.translation(P(I))))


@functools.lru_cache(maxsize=None)
def quarter_spec():
    return GroupSpec(1, (Homothety.with_center(I, P(0)), Homothety.with_center(I, P(1))))


@functools.lru_cache(maxsize=None)
def quarter_sample() -> OrbitSample:
    return oracle.enumerate(quarter_spec(), P(0), 8)


@functools.lru_cache(maxsize=None)
def quarter_profile():
    return compute_profile(quarter_spec())


@functools.lru_cache(maxsize=None)
def mixed_rotation_spec():
    """Quarter turn about 0 and sixth turn about 1: a pair whose orbits are
    dense in the plane."""
    return GroupSpec(1, (
        Homothety.with_center(I, P(0)),
        Homothety.with_center(Scalar.zeta_power(2), P(1)),
    ))


# ---------------------------------------------------------------------------
# enumeration


class TestEnumerate:
    def test_zero_length_is_the_base_point(self):
        s = oracle.enumerate(quarter_spec(), P(1), 0)
        assert len(s) == 1
        assert s.array[0, 0] == 1 + 0j
        assert int(s.generations[0]) == 0
        assert s.dedup == "exact"
        assert s.to_report()["n_points"] == 1

    def test_translation_pair_fills_the_l1_ball(self):
        s = oracle.enumerate(translation_spec(), P(0), 3)
        got = {complex(z) for z in s.array[:, 0]}
        ball = {
            complex(m, n)
            for m in range(-3, 4)
            for n in range(-3, 4)
            if abs(m) + abs(n) <= 3
        }
        assert got == ball and len(s) == 25
        assert s.generation_counts() == [(0, 1), (1, 4), (2, 8), (3, 12)]

    def test_grid_dedup_agrees_on_integer_data(self):
        s = oracle.enumerate(translation_spec(), P(0), 3, force_grid=True)
        assert s.dedup == "grid" and s.grid_eps == 1e-7
        assert s.exact_points is None
        got = {complex(z) for z in s.array[:, 0]}
        assert len(got) == 25 and complex(2, -1) in got

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            oracle.enumerate(quarter_spec(), P(0), -1)
        with pytest.raises(ValueError):
            oracle.enumerate(quarter_spec(), P(0, 0), 2)

    def test_budget_overrun_raises_with_partial_sample(self):
        with pytest.raises(BudgetExceeded) as ei:
            oracle.enumerate(translation_spec(), P(0), 3, budget=10)
        partial = ei.value.sample
        assert partial.truncated and partial.to_report()["truncated"]
        assert len(partial) == 11  # stops right after crossing the cap
        with pytest.raises(BudgetExceeded) as ei:
            oracle.enumerate(translation_spec(), P(0), 3, budget=10, force_grid=True)
        assert ei.value.sample.truncated and len(ei.value.sample) == 11

    def test_monotone_in_word_length(self):
        small = oracle.enumerate(quarter_spec(), P(0), 4)
        large = oracle.enumerate(quarter_spec(), P(0), 6)
        keys_small = {exact_key(p) for p in small.exact_points}
        keys_large = {exact_key(p) for p in large.exact_points}
        assert keys_small <= keys_large
        assert len(keys_small) < len(keys_large)

    def test_inverse_symmetry(self):
        # reachability is symmetric: w at word length g means the base point
        # reappears within g steps when enumerating from w
        s = quarter_sample()
        w = next(p for p, g in zip(s.exact_points, s.generations) if g == 5)
        back = oracle.enumerate(quarter_spec(), w, 5)
        base = exact_key(P(0))
        gens_of_base = [
            int(g) for p, g in zip(back.exact_points, back.generations)
            if exact_key(p) == base
        ]
        assert gens_of_base and gens_of_base[0] <= 5

    def test_generation_bookkeeping(self):
        # every point of generation g >= 1 is one generator letter away from
        # a point of generation g - 1
        s = quarter_sample()
        letters = []
        for g in quarter_spec().generators:
            letters += [g, g.inverse()]
        gen_of = {exact_key(p): int(g) for p, g in zip(s.exact_points, s.generations)}
        for p, g in zip(s.exact_points, s.generations):
            if g == 0:
                continue
            preds = [gen_of.get(exact_key(l.apply(p))) for l in letters]
            assert any(pg is not None and pg <= g - 1 for pg in preds)

    def test_deterministic_output_order(self):
        a = oracle.enumerate(quarter_spec(), P(0), 5)
        b = oracle.enumerate(quarter_spec(), P(0), 5)
        assert np.array_equal(a.array, b.array)
        assert np.array_equal(a.generations, b.generations)
        g1 = oracle.enumerate(mixed_rotation_spec(), P(0), 7, force_grid=True)
        g2 = oracle.enumerate(mixed_rotation_spec(), P(0), 7, force_grid=True)
        assert np.array_equal(g1.array, g2.array)

    def test_rotation_pair_orbit_stays_in_the_outer_lattice(self):
        # the quarter-turn pair moves 0 only inside Z(1-i) + Z(1+i); checked
        # exactly, coordinate by coordinate
        s = quarter_sample()
        assert len(s) == 45
        assert all(in_even_gaussian_lattice(p[0].exact_value) for p in s.exact_points)


# ---------------------------------------------------------------------------
# the integer-row kernel against the CycloScalar reference searches

KERNEL_RATIOS = (
    [Scalar.zeta_power(k) for k in (1, 2, 3, 4, 6)]  # roots of unity
    + [parse_scalar("1+i"), S(2), Scalar.rational(Fraction(1, 2))]  # non-units
    + [Scalar.exact(2, 2, 0, -1)]  # the unit 2 + sqrt(3)
)
# word caps that keep the reference search small in each dimension
KERNEL_CAPS = {1: 6, 2: 4, 3: 3}

kernel_coords = st.builds(
    Scalar.gauss,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@st.composite
def kernel_groups(draw):
    dim = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        centre = tuple(draw(kernel_coords) for _ in range(dim))
        if draw(st.integers(0, 5)) == 0:
            gens.append(Homothety.translation(centre))
        else:
            gens.append(Homothety.with_center(draw(st.sampled_from(KERNEL_RATIOS)), centre))
    z = tuple(draw(kernel_coords) for _ in range(dim))
    return GroupSpec(dim, tuple(gens)), z, draw(st.integers(0, KERNEL_CAPS[dim]))


def assert_same_as_reference(spec, z, cap, budget):
    try:
        s = oracle.enumerate(spec, z, cap, budget=budget)
    except BudgetExceeded as exc:
        s = exc.sample
    points, gens, arr, truncated = reference.enumerate_exact(spec, z, cap, budget)
    assert s.dedup == "exact" and s.exact_points == points
    assert s.generations.dtype == gens.dtype and np.array_equal(s.generations, gens)
    assert s.array.dtype == arr.dtype and s.array.tobytes() == arr.tobytes()
    assert s.truncated == truncated
    return s


class TestKernelEquivalence:
    @given(kernel_groups(), st.sampled_from([1, 7, 60, 2_000_000]))
    def test_enumerate_matches_the_reference(self, case, budget):
        spec, z, cap = case
        assert_same_as_reference(spec, z, cap, budget)

    @given(kernel_groups(), st.sampled_from([1, 2, 9, 200_000]))
    def test_harvest_matches_the_reference(self, case, harvest_budget):
        spec, _, cap = case
        with mock.patch.object(oracle, "HARVEST_BUDGET", harvest_budget):
            got = oracle.harvest_translations(spec, cap)
        assert got == reference.harvest_exact(spec, cap, harvest_budget)

    @pytest.mark.parametrize("cap, low, high", [(6, 2 ** 51, 2 ** 62), (8, 2 ** 62, None)])
    def test_wide_numerators(self, cap, low, high):
        # ratio 1000: at cap 6 the int64 rows pass 2^51, so their floats are
        # divided in Python ints; at cap 8 they pass 2^62 and the search
        # itself widens to Python ints part way
        third = Scalar.rational(Fraction(1, 3))
        spec = GroupSpec(1, (Homothety.with_center(S(1000), P(0)),
                             Homothety.with_center(I, P(third))))
        s = assert_same_as_reference(spec, P(Scalar.rational(Fraction(2, 7))), cap, 2_000_000)
        biggest = max(max(map(abs, nums + (d,)))  # the largest row entry
                      for nums, d in (p[0].exact_value.numerators for p in s.exact_points))
        assert biggest >= low and (high is None or biggest < high)
        with mock.patch.object(oracle, "HARVEST_BUDGET", 5_000):
            got = oracle.harvest_translations(spec, cap)
        assert got == reference.harvest_exact(spec, cap, 5_000)

    def test_budget_cut_keeps_one_point_past_the_budget(self):
        s = assert_same_as_reference(quarter_spec(), P(0), 8, 0)
        assert s.truncated and len(s) == 2


# approximate groups: decimal generators beside exact ones whose ratios,
# centres and vectors are dyadic, so that every product of exact data is
# exact in binary floats, and the float rows must give the Scalar harvest
DYADIC_RATIOS = [S(-1), I, -I, S(2), Scalar.rational(Fraction(1, 2)), parse_scalar("1+i")]
dyadic_coords = st.builds(
    Scalar.gauss,
    st.integers(-8, 8).map(lambda k: Fraction(k, 4)),
    st.integers(-8, 8).map(lambda k: Fraction(k, 4)),
)
decimal_coords = st.builds(
    lambda re, im: Scalar.approx(complex(re / 10, im / 10)), st.integers(-15, 15), st.integers(-15, 15)
)
decimal_ratios = st.tuples(st.integers(-15, 15), st.integers(-15, 15)).filter(
    lambda p: p not in ((0, 0), (10, 0))
).map(lambda p: Scalar.approx(complex(p[0] / 10, p[1] / 10)))
# word caps that keep the reference search small for each generator count
FLOAT_CAPS = {1: 8, 2: 7, 3: 4}


@st.composite
def float_groups(draw):
    dim = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3))
    decimal_at = draw(st.integers(0, m - 1))
    gens = []
    for k in range(m):
        if k == decimal_at or draw(st.booleans()):
            centre = tuple(draw(decimal_coords) for _ in range(dim))
            gens.append(Homothety.with_center(draw(decimal_ratios), centre))
            continue
        centre = tuple(draw(dyadic_coords) for _ in range(dim))
        ratio = draw(st.sampled_from(DYADIC_RATIOS + [None]))
        gens.append(Homothety.translation(centre) if ratio is None
                    else Homothety.with_center(ratio, centre))
    return GroupSpec(dim, tuple(gens)), draw(st.integers(0, FLOAT_CAPS[m]))


# a decimal ratio beside a half-turn: the word g^-1 r g r has exponents
# (0, 2) and is a translation, but its ratio is approximate, so it is not
# harvested
HALF_TURN_CASE = (GroupSpec(1, (
    Homothety.with_center(Scalar.approx(1.5 + 0.5j), (Scalar.approx(0.3),)),
    Homothety.with_center(S(-1), P(1)),
)), 6)


class TestFloatKernelEquivalence:
    @given(float_groups(), st.sampled_from([1, 2, 9, 200_000]))
    @example(HALF_TURN_CASE, 200_000)
    def test_harvest_matches_the_reference(self, case, harvest_budget):
        spec, cap = case
        assert not spec.is_exact
        with mock.patch.object(oracle, "HARVEST_BUDGET", harvest_budget):
            got = oracle.harvest_translations(spec, cap)
        want = reference.harvest_approx(spec, cap, harvest_budget)
        # the same vectors in the same order, equal as floats
        assert [v_to_complex(v) for v in got] == [v_to_complex(v) for v in want]

    def test_grid_keys_do_not_overflow(self):
        # ratio 100: by word length 9 coordinates pass 2^63 * 1e-7, where
        # int64 cell indices would overflow and merge distinct points
        spec = GroupSpec(1, (Homothety.with_center(parse_scalar("100.0"), P(0)),
                             Homothety.with_center(I, P(1))))
        z = P(Scalar.rational(Fraction(1, 2)))
        s = oracle.enumerate(spec, z, 9)
        arr, gens = reference.enumerate_grid(spec, z, 9, oracle.GRID_DEDUP_EPS)
        assert s.dedup == "grid" and np.abs(s.array).max() > 2.0 ** 63 * oracle.GRID_DEDUP_EPS
        assert s.array.tobytes() == arr.tobytes() and np.array_equal(s.generations, gens)


# the dedup step of every search: the hash set of exact row keys against
# the sorted-key reference.  Entries come from small pools, so that rows
# repeat within and across batches, with the int64 extremes, Python ints
# past int64, and complex parts at whole and half cells with signed zeros.
DEDUP_CELL = 1e-3
DEDUP_ENTRIES = {
    "int64": st.one_of(st.integers(-2, 2), st.sampled_from([-2 ** 63, 2 ** 63 - 1])),
    "object": st.one_of(st.integers(-2, 2), st.sampled_from([2 ** 63, 2 ** 64, -2 ** 70])),
    "float": st.builds(complex, *[st.integers(-5, 5).map(lambda k: k * DEDUP_CELL / 2)
                                 | st.just(-0.0)] * 2),
}
DEDUP_DTYPES = {"int64": np.int64, "object": object, "float": np.complex128}
DEDUP_KEYS = {  # (hash-set keys, sorted reference keys)
    "int64": (oracle._row_keys, reference.sorted_keys),
    "object": (oracle._row_keys, reference.sorted_keys),
    "float": (lambda q: oracle._cell_keys(q, DEDUP_CELL),
              lambda q: reference.sorted_keys(np.round(q.view(np.float64) / DEDUP_CELL) + 0.0)),
}


@st.composite
def dedup_cases(draw):
    """(kind, [start row, batch, batch, ...] as arrays, one room per batch)."""
    kind = draw(st.sampled_from(sorted(DEDUP_ENTRIES)))
    width = draw(st.integers(1, 4 if kind == "float" else 9))
    row = st.lists(DEDUP_ENTRIES[kind], min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=8))
    picks = st.lists(st.sampled_from(pool), min_size=1, max_size=24)
    batches = draw(st.lists(picks, min_size=1, max_size=6))
    rooms = [draw(st.sampled_from([0, 1, 2, 3, len(b) + 1, len(b) + 9])) for b in batches]
    arrays = [np.array(b, dtype=DEDUP_DTYPES[kind]) for b in [[draw(st.sampled_from(pool))]] + batches]
    return kind, arrays, rooms


class TestDedupEquivalence:
    @given(dedup_cases(), st.sampled_from([1, 3, oracle._KEY_BLOCK]))
    def test_admit_matches_the_sorted_keys(self, case, key_block):
        kind, (start, *batches), rooms = case
        keys, ref_keys = DEDUP_KEYS[kind]
        seen, ref = set(keys(start)), reference.SeenRows(ref_keys(start))
        for batch, room in zip(batches, rooms):
            with mock.patch.object(oracle, "_KEY_BLOCK", key_block):
                got, full = oracle._admit(seen, batch, keys, room)
            want, want_full = ref.admit(ref_keys(batch), room)
            assert got.tolist() == want.tolist() and full == want_full
            if full:  # a search stops at its cap
                break

    @pytest.mark.parametrize("dim", [1, 2])
    def test_occupied_cells_match_the_per_row_bytes(self, dim):
        rng = np.random.default_rng(dim)
        center, half, res = rng.uniform(-1, 1, 2 * dim), 1.5, 7
        pts = [center + rng.uniform(-1.2 * half, 1.2 * half, (400, 2 * dim))]
        # every coordinate on an edge of the window, just past it, and on
        # the cell boundaries
        offsets = np.r_[np.linspace(-half, half, res + 1), [-half - 1e-12, half + 1e-12,
                                                             -half - 1e-9, half + 1e-9]]
        for j in range(2 * dim):
            edge = center + rng.uniform(-half, half, (offsets.shape[0], 2 * dim))
            edge[:, j] = center[j] + offsets
            pts.append(edge)
        pts = np.concatenate(pts)
        got = oracle._occupied_cells(pts, center, half, res)
        assert got == reference.occupied_cells(pts, center, half, res)
        assert len(got) > 1
        assert oracle._occupied_cells(pts[:1] + 5 * half, center, half, res) == set()


# ---------------------------------------------------------------------------
# CSV dumps


class TestCsv:
    def test_header_and_rows(self):
        s = oracle.enumerate(translation_spec(), P(0), 1)
        lines = s.csv_text().splitlines()
        assert lines[0] == "re(z1),im(z1),generation"
        assert lines[1] == "0.0,0.0,0"
        assert len(lines) == 1 + len(s) == 6
        assert all(line.endswith(",1") for line in lines[2:])

    def test_text_is_deterministic(self):
        a = oracle.enumerate(quarter_spec(), P(0), 5).csv_text()
        b = oracle.enumerate(quarter_spec(), P(0), 5).csv_text()
        assert a == b

    def test_round_trip_to_file(self, tmp_path, capsys):
        from homothety_orbits.cli import main

        doc = tmp_path / "doc.json"
        doc.write_text(
            '{"dim": 1, "generators": [{"ratio": "1", "translation": ["1"]},'
            ' {"ratio": "1", "translation": ["i"]}]}'
        )
        code = main(["orbit", "--input", str(doc), "--word-cap", "2", "--out", str(tmp_path)])
        assert code == 0
        out = tmp_path / "orbit.csv"
        assert capsys.readouterr().out.strip() == str(out)
        s = oracle.enumerate(translation_spec(), P(0), 2)
        assert out.read_text() == s.csv_text()


# ---------------------------------------------------------------------------
# translation harvesting


class TestHarvestTranslations:
    def test_commutator_of_two_scalings_is_found(self):
        # f: z -> 2z + 1, g: z -> 3z + i; the commutator translation is
        # (2 - 1)*i + (1 - 3)*1 = i - 2
        spec = GroupSpec(1, (Homothety(S(2), P(1)), Homothety(S(3), P(I))))
        vs = {complex(v_to_complex(v)[0]) for v in oracle.harvest_translations(spec, 4)}
        assert complex(-2, 1) in vs
        assert 0j in vs  # the empty word

    def test_shared_center_yields_only_zero(self):
        spec = GroupSpec(1, (Homothety.scaling(S(2), 1), Homothety.scaling(S(3), 1)))
        vs = oracle.harvest_translations(spec, 4)
        assert [complex(v_to_complex(v)[0]) for v in vs] == [0j]

    def test_quarter_pair_reaches_the_inner_generators(self):
        vs = {complex(v_to_complex(v)[0]) for v in
              oracle.harvest_translations(quarter_spec(), 8)}
        assert complex(0, -2) in vs  # (i-1)^2 * 1
        assert complex(2, 0) in vs   # i * (i-1)^2 * 1

    def test_harvest_never_escapes_the_outer_lattice(self):
        for v in oracle.harvest_translations(quarter_spec(), 8):
            assert in_even_gaussian_lattice(v[0].exact_value)

    def test_approximate_harvest_has_no_near_duplicates(self):
        # an eighth-turn pair is approximate; a float word equal to an exact
        # one (r o r^-1 beside the identity) must not add a second vector
        r = parse_scalar("exp(i*pi*1/4)")
        spec = GroupSpec(1, (Homothety.with_center(r, P(0)), Homothety.with_center(r, P(1))))
        vs = np.array([v_to_complex(v)[0] for v in oracle.harvest_translations(spec, 8)])
        gaps = np.abs(vs[:, None] - vs[None, :])
        assert len(vs) > 1 and np.where(np.eye(len(vs), dtype=bool), np.inf, gaps).min() > 1e-12


# ---------------------------------------------------------------------------
# evidence measurement


class TestVerify:
    def test_lattice_orbit_evidence(self):
        desc = orbit_closure(quarter_profile(), P(0))
        rep = oracle.verify(desc, quarter_sample(), window=4.0, grid_res=10)

        # exact membership: zero violation, in the strict sense
        assert rep.exact_membership
        assert rep.max_violation == 0.0 and rep.soundness_pass

        # the smallest gap equals the lattice minimum, found independently
        # by exhaustive short-vector search
        best = min(
            abs(a * (1 - 1j) + b * (1 + 1j))
            for a in range(-8, 9)
            for b in range(-8, 9)
            if (a, b) != (0, 0)
        )
        assert best == math.sqrt(2)
        assert rep.min_gap == pytest.approx(best, abs=1e-12)
        assert all(gap == pytest.approx(best, abs=1e-12)
                   for g, gap in rep.min_gap_history if g >= 4)
        assert rep.discreteness_pass
        assert not rep.density_pass

        # every closure-sampled target inside the window is an orbit point
        assert rep.approach_points > 0
        assert rep.approach_max <= 1e-12

    def test_wrong_description_is_flagged(self):
        from fractions import Fraction

        half = P(Scalar.rational(Fraction(1, 2)))
        wrong = orbit_closure(quarter_profile(), half)
        rep = oracle.verify(wrong, quarter_sample(), window=4.0, grid_res=10)
        assert not rep.soundness_pass
        assert rep.max_violation == pytest.approx(0.5)

    def test_dense_orbit_evidence(self):
        spec = mixed_rotation_spec()
        profile = compute_profile(spec)
        desc = orbit_closure(profile, P(0))
        assert desc.kind() == "WholeSpace"
        sample = oracle.enumerate(spec, P(0), 13, budget=600_000)
        rep = oracle.verify(desc, sample, window=2.0, grid_res=20)
        assert rep.soundness_pass and rep.max_violation == 0.0
        assert rep.fill_fraction >= 0.95
        assert rep.density_pass
        assert not rep.discreteness_pass  # gaps still shrinking at this depth

    def test_closure_against_its_own_sampler(self):
        spec = mixed_rotation_spec()
        desc = orbit_closure(compute_profile(spec), P(0))
        rng = random.Random(5)
        pts = [as_point(p) for p in desc.sample(rng, 30)]
        arr = np.array([v_to_complex(p) for p in pts], dtype=np.complex128)
        fake = OrbitSample(
            base=pts[0],
            array=arr.reshape(len(pts), 1),
            generations=np.zeros(len(pts), dtype=np.int32),
            word_cap=0,
            dedup="grid",
            grid_eps=1e-7,
        )
        rep = oracle.verify(desc, fake, window=2.0, grid_res=8)
        assert not rep.exact_membership
        assert rep.max_violation == 0.0 and rep.soundness_pass

    def test_window_forms_and_report_shape(self):
        desc = orbit_closure(quarter_profile(), P(0))
        rep = oracle.verify(desc, quarter_sample(), window=([0.5], 1.0), grid_res=8)
        assert rep.window_center == (0.5, 0.0) and rep.window_half == 1.0
        d = rep.to_report()
        for key in (
            "n_points", "max_violation", "exact_membership", "fill_fraction",
            "window_fill_fraction", "min_gap", "min_gap_history", "approach_max",
            "soundness_pass", "density_pass", "discreteness_pass",
        ):
            assert key in d

    def test_c2_window_trace_above_the_cell_cap(self):
        # 40^4 cells are too many to test one by one: an Affine claim bins a
        # sample of its subspace, a cone claim counts every cell
        spec = GroupSpec(2, (
            Homothety.with_center(parse_scalar("1+i"), P(0, 0)),
            Homothety.with_center(I, P(1, 0)),
        ))
        profile = compute_profile(spec)
        for z, kind in ((P(0, 0), "Affine"), (P(0, 1), "LambdaCone")):
            desc = orbit_closure(profile, z)
            assert desc.kind() == kind
            rep = oracle.verify(desc, oracle.enumerate(spec, z, 4), window=2.0, grid_res=40)
            assert rep.total_cells == 40 ** 4
            assert rep.soundness_pass
            if kind == "Affine":
                assert 0 < rep.trace_cell_count < rep.total_cells
            else:
                assert rep.trace_cell_count == rep.total_cells

    def test_empty_sample_is_rejected(self):
        s = quarter_sample()
        empty = OrbitSample(
            base=s.base,
            array=s.array[:0],
            generations=s.generations[:0],
            word_cap=0,
            dedup="exact",
            grid_eps=0.0,
        )
        with pytest.raises(ValueError):
            oracle.verify(orbit_closure(quarter_profile(), P(0)), empty)


# ---------------------------------------------------------------------------
# neighbour search: the k-d tree of scipy is the reference


def kd_tree_gap_history(real_pts, gens):
    """min_gap_history with one k-d tree query per word length."""
    from scipy.spatial import cKDTree

    history, best = [], float("inf")
    for g in range(int(gens.max()) + 1):
        pts = real_pts[gens <= g]
        if pts.shape[0] < 2:
            continue
        d, _ = cKDTree(pts).query(pts, k=2)
        best = min(best, float(d[:, 1].min()))
        history.append((g, best))
    return best, history


def point_clouds(rng, dim):
    n = int(rng.integers(2, 3000))
    yield rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3)
    yield rng.integers(-5, 5, size=(n, dim)) * 0.37 + 1e-3 * rng.integers(0, 3, size=(n, dim))
    yield np.repeat(rng.normal(size=(n // 2 + 1, dim)), 2, axis=0)[:n]  # duplicates
    yield np.exp(rng.uniform(-12, 12, size=(n, 1))) * rng.normal(size=(n, dim))
    # a far pair, then a contracted crowd of new points
    yield np.vstack([np.eye(2, dim) * 10.0, rng.normal(size=(n, dim)) * 1e-3 + 3.0])


def growing_generations(rng, n):
    """Word lengths of n points whose generation sizes grow 2-3x per
    generation from one point, over at most 20 generations: the shape of a
    breadth-first orbit."""
    sizes = [1]
    while sum(sizes) < n and len(sizes) < 20:
        sizes.append(min(int(sizes[-1] * rng.uniform(2, 3)) + 1, n - sum(sizes)))
    sizes[-1] += n - sum(sizes)
    return np.repeat(np.arange(len(sizes)), sizes)


def lattice_rings(dim, count):
    """Generations 0 .. count - 1 of the lattice 0.5 Z^2 in the first two
    coordinates: generation g is the ring of max-norm g, so the gap is 0.5
    from generation 1 on."""
    r = np.arange(1 - count, count)
    xy = np.stack(np.meshgrid(r, r, indexing="ij"), axis=-1).reshape(-1, 2)
    gens = np.abs(xy).max(axis=1)
    order = np.argsort(gens, kind="stable")
    pts = np.zeros((xy.shape[0], dim))
    pts[:, :2] = 0.5 * xy[order]
    return pts, gens[order]


class TestNeighbourSearch:
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_gap_history_matches_a_kd_tree_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        for trial in range(4):
            for pts in point_clouds(rng, dim):
                gens = np.sort(rng.integers(0, 8, size=pts.shape[0]))
                if trial == 3:
                    gens = np.r_[0, 1, np.full(pts.shape[0] - 2, 2)]
                best, history, used = oracle._min_gap_history(pts, gens)
                assert used == pts.shape[0]
                assert (best, history) == kd_tree_gap_history(pts, gens)

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_gap_history_on_growing_generations(self, dim):
        rng = np.random.default_rng(100 + dim)
        for trial in range(2):
            for pts in point_clouds(rng, dim):
                gens = growing_generations(rng, pts.shape[0])
                assert oracle._min_gap_history(pts, gens)[:2] == kd_tree_gap_history(pts, gens)

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("hidden", [False, True])
    def test_gap_history_with_a_late_crowd(self, dim, hidden):
        # lattice rings with gap 0.5, then in generation 9 a crowd 1e-3
        # across, then more rings.  Hidden, the crowd lies on one line
        # x = 3 and alternates with far points on it, so that no two crowd
        # points are adjacent in x and the crowd arrives inside an epoch.
        rng = np.random.default_rng(200 + dim)
        rings, ring_gens = lattice_rings(dim, 12)
        crowd = 3.0 + 1e-3 * rng.normal(size=(300, dim))
        if hidden:
            crowd[:, 0] = 3.0
            far = crowd.copy()
            far[:, 1] += 100.0 + np.arange(300)
            crowd = np.stack([crowd, far], axis=1).reshape(-1, dim)
        pts = np.vstack([rings, crowd])
        gens = np.r_[ring_gens, np.full(crowd.shape[0], 9)]
        best, history, _ = oracle._min_gap_history(pts, gens)
        assert (best, history) == kd_tree_gap_history(pts, gens)
        assert history[7][1] == 0.5 and best < 1e-3

    @pytest.mark.parametrize("dim", [2, 4])
    def test_gap_history_shrinking_by_a_hundredth(self, dim):
        # generation g adds two points 1 - g/100 apart along the first axis,
        # far from the others and at a random offset: each gap is just below
        # the one before, at the edge of the cells sized by it
        rng = np.random.default_rng(400 + dim)
        pts = [np.zeros(dim)]
        for g in range(1, 41):
            p = np.zeros(dim)
            p[:2] = rng.uniform(0, 5), 10.0 * g
            pts += [p, p + np.eye(1, dim)[0] * (1 - g / 100)]
        pts = np.array(pts)
        gens = np.r_[0, np.repeat(np.arange(1, 41), 2)]
        assert oracle._min_gap_history(pts, gens)[:2] == kd_tree_gap_history(pts, gens)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_gap_history_with_a_late_duplicate(self, dim):
        # one point repeated in generation `late`: a copy of a point of an
        # earlier generation, or of its own
        rings, ring_gens = lattice_rings(dim, 10)
        for late in (5, 9):
            for source in (0, 3, late):
                k = int(np.searchsorted(ring_gens, source))
                pts = np.vstack([rings, rings[k]])
                gens = np.r_[ring_gens, late]
                best, history, _ = oracle._min_gap_history(pts, gens)
                assert (best, history) == kd_tree_gap_history(pts, gens)
                assert [v for _, v in history[late - 2:]] == [0.5] + [0.0] * (10 - late)

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_gap_history_on_single_point_generations(self, dim):
        rng = np.random.default_rng(300 + dim)
        for pts in point_clouds(rng, dim):
            pts = pts[:300]
            # every generation a single point, then single points between
            # growing generations
            gens = np.arange(pts.shape[0])
            assert oracle._min_gap_history(pts, gens)[:2] == kd_tree_gap_history(pts, gens)
            gens = 2 * growing_generations(rng, pts.shape[0])
            gens[np.searchsorted(gens, np.arange(2, gens[-1] + 1, 2))] -= 1
            assert oracle._min_gap_history(pts, gens)[:2] == kd_tree_gap_history(pts, gens)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_gap_history_with_empty_generations(self, dim):
        # word lengths that no point has, also as the last generation of an
        # epoch: here the one before a crowd
        rng = np.random.default_rng(600 + dim)
        pts = np.vstack([rng.normal(size=(14, dim)) * 10, 3 + 1e-4 * rng.normal(size=(100, dim))])
        gens = np.r_[0, 1, 1, 1, np.full(10, 2), np.full(100, 4)]
        assert oracle._min_gap_history(pts, gens)[:2] == kd_tree_gap_history(pts, gens)
        for pts in point_clouds(rng, dim):
            gens = 2 * growing_generations(rng, pts.shape[0])
            assert oracle._min_gap_history(pts, gens)[:2] == kd_tree_gap_history(pts, gens)

    def test_pairs_without_a_distance_are_skipped(self):
        # coordinates that overflowed to inf (or nan) give no distance: the
        # history is that of the finite points
        rng = np.random.default_rng(500)
        finite = rng.normal(size=(400, 2))
        gens = growing_generations(rng, 400)
        pts = np.vstack([finite, [[np.inf, 0.0], [np.inf, 1.0], [-np.inf, np.inf], [np.nan, 0.0]]])
        with np.errstate(invalid="ignore"):
            got = oracle._min_gap_history(pts, np.r_[gens, np.full(4, gens[-1])])
        assert got[:2] == kd_tree_gap_history(finite, gens)

    def test_no_cell_key_is_a_neighbours(self):
        # else a point would meet itself in a neighbour cell, at distance 0
        for k in range(1, 5):
            offsets = np.array([o for o in itertools.product((-1, 0, 1), repeat=k) if any(o)])
            steps = (offsets.astype(np.uint64) * oracle._CELL_HASH[:k]).sum(axis=1)
            assert np.all(steps != 0)

    def test_gap_history_of_workload_orbits(self):
        # three groups of the verify benchmark, enumerated to word length 10
        zeta = parse_scalar("zeta12")

        def Q(a, b):
            return Scalar.rational(Fraction(a, b))

        specs = [
            GroupSpec(1, (Homothety.with_center(I, P(0)), Homothety.with_center(I, P(Q(3, 2))))),
            GroupSpec(1, (Homothety.with_center(zeta, P(Q(1, 2))), Homothety.with_center(zeta, P(I)))),
            GroupSpec(1, (Homothety.translation(P(Q(3, 2) + I)),
                          Homothety.with_center(I, P(Q(-2, 3))))),
        ]
        for spec in specs:
            sample = oracle.enumerate(spec, P(Q(1, 3)), 10)
            pts = sample.real_array()
            assert oracle._min_gap_history(pts, sample.generations)[:2] == kd_tree_gap_history(
                pts, sample.generations)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_nearest_distance_matches_a_kd_tree_bit_for_bit(self, dim):
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(10 + dim)
        for pts in point_clouds(rng, dim):
            targets = rng.normal(size=(6, dim))
            d, _ = cKDTree(pts).query(targets, k=1)
            assert [math.sqrt(oracle._nearest_sq(pts, t)) for t in targets] == list(d)

    def test_verify_imports_no_scipy(self, tmp_path):
        # the CLI's verify runs on numpy alone
        doc = tmp_path / "quarter.json"
        doc.write_text('{"dim": 1, "generators": [{"ratio": "i", "center": ["0"]}, '
                       '{"ratio": "i", "center": ["1"]}], "points": [["1/2"]]}')
        code = (
            "import sys, contextlib, io\n"
            "from homothety_orbits import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['verify', '--input', {str(doc)!r}, '--word-cap', '8']) == 0\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


# ---------------------------------------------------------------------------
# the sandwich is realized by actual words


class TestSandwichRealization:
    def test_inner_lattice_window_points_are_reached(self):
        # every point of the inner translation lattice inside the window
        # [-2, 2]^2 must be hit by a word of length <= 8 applied to 0
        profile = quarter_profile()
        inner = [complex(s.to_complex()) for s in profile.g1_inner]
        window_pts = set()
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    w = a * inner[0] + b * inner[1] + c * inner[2]
                    if abs(w.real) <= 2 and abs(w.imag) <= 2:
                        window_pts.add(complex(round(w.real, 9), round(w.imag, 9)))
        assert len(window_pts) == 9  # the doubled Gaussian lattice in the window
        orbit_pts = {complex(z) for z in quarter_sample().array[:, 0]}
        assert window_pts <= orbit_pts
