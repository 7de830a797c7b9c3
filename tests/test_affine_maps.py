"""Homothety algebra: composition, centers, commutators, and the scalar
linear solver."""

import pytest
from hypothesis import given

from homothety_orbits import Homothety, Scalar, Trilean
from homothety_orbits.affine_maps import (
    as_point,
    scalar_columns_solve,
    v_add,
    v_is_zero,
    v_scale,
    v_sub,
    zero_point,
)

from conftest import exact_points, exact_scalars, homotheties


def _pt(*values):
    return as_point(values)


def _h(ratio, center):
    return Homothety.with_center(Scalar._coerce(ratio), _pt(center))


# ---------------------------------------------------------------------------
# pinned values


def test_apply_center_form():
    f = _h(2, 1)  # center 1, ratio 2
    assert f.apply(_pt(0)) == _pt(-1)
    assert f.apply(_pt(1)) == _pt(1)  # fixed point


def test_translation_applies_as_shift():
    t = Homothety.translation(_pt(Scalar.gauss(0, 1)))
    assert t.apply(_pt(3)) == _pt(Scalar.gauss(3, 1))
    assert t.is_translation() is Trilean.YES


def test_compose_linear_forms():
    # f: z -> 2z + 1, g: z -> 3z + i; f o g: z -> 6z + (2i + 1)
    f = Homothety(Scalar.integer(2), _pt(1))
    g = Homothety(Scalar.integer(3), _pt(Scalar.gauss(0, 1)))
    fg = f.compose(g)
    assert fg.ratio == Scalar.integer(6)
    assert fg.shift == _pt(Scalar.gauss(1, 2))
    z = _pt(Scalar.gauss(2, -1))
    assert fg.apply(z) == f.apply(g.apply(z))


def test_commutator_formula_value():
    # f: z -> 2z+1, g: z -> 3z+i  =>  (2-1)*i + (1-3)*1 = i - 2
    f = Homothety(Scalar.integer(2), _pt(1))
    g = Homothety(Scalar.integer(3), _pt(Scalar.gauss(0, 1)))
    assert f.commutator(g) == _pt(Scalar.gauss(-2, 1))


def test_commutator_same_center_vanishes():
    f = _h(2, 1)
    g = _h(3, 1)
    assert v_is_zero(f.commutator(g)) is Trilean.YES
    assert f.commutes(g) is Trilean.YES


def test_commutes_distinct_centers():
    assert _h(2, 0).commutes(_h(3, 1)) is Trilean.NO


def test_scaling_vs_translation_never_commutes():
    f = Homothety.scaling(Scalar.integer(2), 1)
    t = Homothety.translation(_pt(1))
    assert f.commutes(t) is Trilean.NO
    assert f.commutator(t) == _pt(1)  # (2-1)*1 + (1-1)*0


def test_center_requires_nonunit_ratio():
    t = Homothety.translation(_pt(1))
    with pytest.raises(ValueError):
        t.center()


def test_center_round_trip():
    f = _h(Scalar.gauss(0, 2), 3)
    assert f.center() == _pt(3)
    assert f.apply(f.center()) == f.center()


# ---------------------------------------------------------------------------
# group laws (hypothesis)


@given(homotheties(2), homotheties(2), homotheties(2))
def test_composition_associative(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@given(homotheties(2))
def test_inverse_cancels(f):
    for h in (f.compose(f.inverse()), f.inverse().compose(f)):
        assert h.is_translation() is Trilean.YES
        assert v_is_zero(h.shift) is Trilean.YES


@given(homotheties(2), homotheties(2))
def test_inverse_antihomomorphism(f, g):
    assert f.compose(g).inverse() == g.inverse().compose(f.inverse())


@given(homotheties(2), homotheties(2))
def test_ratio_homomorphism(f, g):
    assert f.compose(g).ratio == f.ratio * g.ratio


@given(homotheties(2), homotheties(2))
def test_commutator_matches_chain(f, g):
    chain = f.compose(g).compose(f.inverse()).compose(g.inverse())
    assert chain.ratio == Scalar.integer(1)
    assert chain.shift == f.commutator(g)


@given(homotheties(1), exact_scalars(), exact_scalars(), exact_scalars())
def test_line_invariance(f, alpha, u, v):
    # f(alpha*u + v) = ratio*alpha*u + f(v): lines keep their direction
    lhs = f.apply(v_add(v_scale(alpha, (u,)), (v,)))
    rhs = v_add(v_scale(f.ratio * alpha, (u,)), f.apply((v,)))
    assert lhs == rhs


@given(homotheties(2), homotheties(2))
def test_conjugation_moves_centers(f, g):
    if f.is_translation() is not Trilean.NO:
        return
    h = g.compose(f).compose(g.inverse())
    assert h.ratio == f.ratio
    assert h.center() == g.apply(f.center())


# ---------------------------------------------------------------------------
# the scalar linear solver


def test_solve_exact_system():
    cols = [_pt(1, 0), _pt(Scalar.gauss(0, 1), 1)]
    target = _pt(Scalar.gauss(2, 1), 1)
    sol = scalar_columns_solve(cols, target)
    assert sol is not None
    combo = zero_point(2)
    for s, c in zip(sol, cols):
        combo = v_add(combo, v_scale(s, c))
    assert combo == target


def test_solve_detects_inconsistency():
    cols = [_pt(1, 0)]
    assert scalar_columns_solve(cols, _pt(0, 1)) is None


@given(exact_points(2), exact_points(2), exact_scalars(), exact_scalars())
def test_solve_recovers_random_combinations(c1, c2, x1, x2):
    target = v_add(v_scale(x1, c1), v_scale(x2, c2))
    sol = scalar_columns_solve([c1, c2], target)
    assert sol is not None
    combo = v_add(v_scale(sol[0], c1), v_scale(sol[1], c2))
    assert v_is_zero(v_sub(combo, target)) is Trilean.YES
