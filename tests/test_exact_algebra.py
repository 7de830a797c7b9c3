"""Exact cyclotomic arithmetic, the tagged approximate fallback, and the
scalar text syntax."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homothety_orbits import (
    CycloScalar,
    Scalar,
    Trilean,
    UncertainZero,
    format_scalar,
    parse_scalar,
)
from homothety_orbits.exact_algebra import ScalarParseError

from conftest import cyclo_scalars, nonzero_cyclo_scalars, planar_fractions
import oracle_reference as reference

I = CycloScalar.zeta_power(3)
ONE = CycloScalar.from_int(1)
SQRT3 = CycloScalar.zeta_power(1) * 2 - I


# ---------------------------------------------------------------------------
# pinned values


def test_zeta_cubed_is_i_and_squares_to_minus_one():
    assert I == CycloScalar.gauss(0, 1)
    assert I * I == CycloScalar.from_int(-1)


def test_abs_sq_of_one_plus_i():
    assert (ONE + I).abs_sq() == CycloScalar.from_int(2)


def test_inverse_of_one_minus_sixth_root():
    # 1 - e^{i pi/3} = e^{-i pi/3}, so the inverse is e^{i pi/3} itself
    z2 = CycloScalar.zeta_power(2)
    assert (ONE - z2).inverse() == z2


def test_minimal_polynomial():
    z = CycloScalar.zeta_power(1)
    assert z ** 4 - z ** 2 + ONE == CycloScalar.from_int(0)


def test_root_membership_tables():
    assert Scalar.gauss(0, 1).in_f2() is Trilean.YES
    assert Scalar.zeta_power(2).in_f3() is Trilean.YES
    assert Scalar.zeta_power(2).in_f2() is Trilean.NO
    assert CycloScalar.from_int(2).root_of_unity_order() is None
    # every 12th root is caught, with the right order
    assert CycloScalar.zeta_power(1).root_of_unity_order() == 12
    assert CycloScalar.zeta_power(4).root_of_unity_order() == 3
    assert CycloScalar.from_int(-1).root_of_unity_order() == 2


def test_sqrt3_lives_in_the_field():
    sqrt3 = CycloScalar.zeta_power(1) * 2 - CycloScalar.zeta_power(3)
    assert sqrt3.is_real()
    assert sqrt3 * sqrt3 == CycloScalar.from_int(3)
    assert abs(sqrt3.to_complex() - complex(math.sqrt(3), 0)) < 1e-12


def test_real_and_imag_parts_in_real_subfield():
    z = CycloScalar.zeta_power(1)  # e^{i pi/6} = sqrt3/2 + i/2
    assert z.real_part() == SQRT3 / 2
    assert z.imag_part() == Fraction(1, 2)


@given(cyclo_scalars())
def test_real_and_imag_parts_recompose(x):
    re, im = x.real_part(), x.imag_part()
    assert re.is_real() and im.is_real()
    assert re + I * im == x
    assert re.to_complex().real == x.to_complex().real
    assert re.to_complex().imag == 0.0


def test_polar_decomposition_at_pi6_angles():
    w = CycloScalar.zeta_power(5) * 3
    k, rho = w.polar_pi6()
    assert k == 5
    assert rho == 3
    assert CycloScalar.zeta_power(k) * rho == w


def test_exact_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycloScalar.from_int(0).inverse()


# ---------------------------------------------------------------------------
# field laws (hypothesis)


@given(cyclo_scalars(), cyclo_scalars(), cyclo_scalars())
def test_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(nonzero_cyclo_scalars())
def test_multiplicative_inverse(x):
    assert x * x.inverse() == ONE


@given(cyclo_scalars())
def test_self_times_conjugate_is_real(x):
    w = x * x.conj()
    assert w.is_real()
    assert w == x.abs_sq()


@given(cyclo_scalars(), cyclo_scalars())
def test_embedding_homomorphism(x, y):
    lhs = (x * y).to_complex()
    rhs = x.to_complex() * y.to_complex()
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


wide_numerators = st.integers(-(2**80), 2**80) | st.integers(-50, 50)


@given(
    st.tuples(wide_numerators, wide_numerators, wide_numerators, wide_numerators),
    st.integers(1, 2**70) | st.integers(1, 12),
)
def test_to_complex_is_bit_identical_to_the_real_quadratic_route(nums, d):
    x = CycloScalar(*nums, d)
    a, b, c, e = planar_fractions(x)
    via_fractions = complex(
        float(a) + float(b) * math.sqrt(3.0), float(c) + float(e) * math.sqrt(3.0)
    )
    assert repr(x.to_complex()) == repr(via_fractions)
    assert repr(x.real_part().to_complex().real) == repr(via_fractions.real)
    assert repr(x.imag_part().to_complex().real) == repr(via_fractions.imag)


# numerators up to 2^80 and zero, times a factor that the denominator may
# share; denominators 1, small, or that factor times a wide cofactor
shared_factors = st.sampled_from([1, 2, 3, 6, 12, 35, 3 * 2**20])


@st.composite
def raw_cyclo(draw):
    """(numerators, denominator) as written, before any reduction."""
    f = draw(shared_factors)
    nums = tuple(draw(wide_numerators | st.just(0)) * f for _ in range(4))
    d = draw(st.just(1) | st.integers(1, 12) | st.integers(1, 2**70).map(lambda m: m * f))
    return nums, d


def as_coeffs(raw):
    nums, d = raw
    return tuple(Fraction(n, d) for n in nums)


@given(raw_cyclo(), raw_cyclo(), st.booleans())
def test_field_operations_match_the_fraction_reference(rx, ry, same_den):
    if same_den:  # equal denominators take their own path in + and -
        ry = (ry[0], rx[1])
    x, y = CycloScalar(*rx[0], rx[1]), CycloScalar(*ry[0], ry[1])
    a, b = as_coeffs(rx), as_coeffs(ry)
    assert x.numerators == reference.cyclo_numerators(a)
    assert (x + y).numerators == reference.cyclo_numerators(reference.cyclo_add(a, b))
    assert (x - y).numerators == reference.cyclo_numerators(reference.cyclo_sub(a, b))
    assert (x * y).numerators == reference.cyclo_numerators(reference.cyclo_mul(a, b))
    if not x.is_zero():
        assert x.inverse().numerators == reference.cyclo_numerators(reference.cyclo_inverse(a))


@given(raw_cyclo(), st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
def test_an_approximate_operand_makes_the_result_approximate(rx, z):
    x = Scalar(CycloScalar(*rx[0], rx[1]))
    w = Scalar.approx(z)
    for result in (x * w, w * x, x * z, z * x, x + w, w + x, x - w, w - x):
        assert not result.is_exact
    expected = x.to_complex() * z
    assert abs((x * w).to_complex() - expected) <= 1e-12 * max(1.0, abs(expected))
    for result in (x * x, x * 3, 3 * x, x + Fraction(1, 3), x - x):
        assert result.is_exact


@given(cyclo_scalars())
def test_planar_lift_matches_real_and_imaginary_parts(x):
    (x0, x1, y0, y1), den = x.planar_lift()
    a, b, c, e = (Fraction(n, den) for n in (x0, x1, y0, y1))
    assert planar_fractions(x) == (a, b, c, e)
    assert CycloScalar.from_planar_lift((x0, x1, y0, y1), den) == x
    assert planar_fractions(x.real_part()) == (a, b, 0, 0)
    assert planar_fractions(x.imag_part()) == (c, e, 0, 0)


@given(st.integers(0, 11), st.integers(0, 11))
def test_f2_f3_multiplicatively_closed(j, k):
    x, y = Scalar.zeta_power(j), Scalar.zeta_power(k)
    if x.in_f2() is Trilean.YES and y.in_f2() is Trilean.YES:
        assert (x * y).in_f2() is Trilean.YES
    if x.in_f3() is Trilean.YES and y.in_f3() is Trilean.YES:
        assert (x * y).in_f3() is Trilean.YES


@given(cyclo_scalars(), cyclo_scalars())
def test_conjugation_is_a_ring_map(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()


# ---------------------------------------------------------------------------
# the real quadratic subfield


def test_real_quadratic_sign_and_order():
    assert (1 - SQRT3).sign() < 0
    assert (2 - SQRT3).sign() > 0
    assert CycloScalar.from_int(0).sign() == 0
    assert (1 + SQRT3 - 2).sign() > 0  # 1+sqrt3 > 2
    with pytest.raises(ValueError):
        I.sign()


@given(cyclo_scalars())
def test_sign_of_a_real_value_matches_its_float(x):
    # real: twice the real part; with small coefficients a nonzero value is
    # far from 0 against the float's rounding error
    r = x + x.conj()
    f = r.to_complex().real
    assert r.sign() == (0 if r.is_zero() else (1 if f > 0 else -1))


def test_real_quadratic_inverse():
    x = 1 + SQRT3
    assert x * x.inverse() == ONE
    assert x.inverse().is_real()


# ---------------------------------------------------------------------------
# tagged approximate scalars


def test_mixed_mode_demotes_to_approx():
    x = Scalar.gauss(1, 1)
    y = Scalar.approx(0.5 + 0.25j, 1e-14)
    assert x.is_exact
    assert not y.is_exact
    assert not (x * y).is_exact
    assert not (x + y).is_exact


def test_error_radius_propagates_conservatively():
    y = Scalar.approx(2.0 + 0j, 1e-12)
    prod = y * y
    assert prod.err >= 2 * 2.0 * 1e-12 * (1 - 1e-9)
    assert prod.err < 1e-9


def test_uncertain_zero_inverse():
    fuzz = Scalar.approx(1e-16 + 0j, 1e-12)
    with pytest.raises(UncertainZero):
        fuzz.inverse()


def test_three_valued_predicates_in_approx_mode():
    rot = Scalar.approx(complex(math.cos(1.0), math.sin(1.0)), 1e-15)
    assert rot.is_real() is Trilean.NO
    assert rot.modulus_is_one() is Trilean.UNKNOWN  # can't prove equality
    assert rot.in_f2() is Trilean.NO
    near_i = Scalar.approx(complex(6e-17, 1.0), 1e-15)
    assert near_i.in_f2() is Trilean.UNKNOWN
    big = Scalar.approx(2.5 + 0j, 1e-12)
    assert big.modulus_is_one() is Trilean.NO


def test_exact_predicates_are_definite():
    assert Scalar.gauss(0, 1).in_f2() is Trilean.YES
    assert Scalar.zeta_power(2).in_f3() is Trilean.YES
    assert Scalar.zeta_power(2).in_f2() is Trilean.NO
    assert Scalar.integer(2).modulus_is_one() is Trilean.NO
    assert Scalar.integer(-1).is_real() is Trilean.YES


# ---------------------------------------------------------------------------
# text syntax


@pytest.mark.parametrize(
    "text,value",
    [
        ("i", Scalar.gauss(0, 1)),
        ("3/2+1/2i", Scalar.exact(Fraction(3, 2), 0, 0, Fraction(1, 2))),
        ("zeta12^2", Scalar.zeta_power(2)),
        ("2*exp(i*pi*1/3)", Scalar.zeta_power(2) * 2),
        ("exp(i*pi*1/2)", Scalar.gauss(0, 1)),
        ("-2i", Scalar.gauss(0, -2)),
        ("1-1i", Scalar.gauss(1, -1)),
        ("7/10", Scalar.rational(Fraction(7, 10))),
    ],
)
def test_parse_exact_forms(text, value):
    parsed = parse_scalar(text)
    assert parsed.is_exact
    assert parsed == value


def test_parse_approx_forms():
    dec = parse_scalar("1.4142+0i")
    assert not dec.is_exact
    assert abs(dec.to_complex() - 1.4142) < 1e-12
    ang = parse_scalar("exp(i*1.0)")
    assert not ang.is_exact
    assert abs(ang.to_complex() - complex(math.cos(1.0), math.sin(1.0))) < 1e-15


def test_parse_rejects_garbage():
    for bad in ("", "zeta12^", "exp(i*pi*)", "1+*2", "(((", "two"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_format_sqrt3():
    sqrt3 = Scalar.zeta_power(1) * 2 - Scalar.zeta_power(3)
    assert format_scalar(sqrt3) == "2*zeta12-zeta12^3"
    assert parse_scalar(format_scalar(sqrt3)) == sqrt3


@given(cyclo_scalars())
def test_format_round_trips_exact_values(x):
    s = Scalar(x)
    assert parse_scalar(format_scalar(s)) == s
