"""Integer lattice normal forms and generic field elimination."""

import random
from fractions import Fraction

from hypothesis import given, strategies as st

from homothety_orbits.lattices import (
    field_nullspace,
    field_rref,
    field_solve,
    hnf,
    integer_kernel,
)
from conftest import clear_denominators, hnf_solve, lattice_basis_from_rational_rows

# the field_* eliminations over Q: is_zero, zero, one
FRACTIONS = (lambda x: x == 0, Fraction(0), Fraction(1))

small_int_rows = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


def _det2(b):
    return b[0][0] * b[1][1] - b[0][1] * b[1][0]


def test_hnf_canonical_shape():
    basis = hnf([[2, 1], [0, 3]])
    assert basis == [[2, 1], [0, 3]]
    # permuted, negated, redundant generators give the same basis
    assert hnf([[0, -3], [2, 1], [2, 4]]) == basis


def test_hnf_unimodular_input():
    assert hnf([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
    assert hnf([[3, 5], [1, 2]]) == [[1, 0], [0, 1]]  # determinant 1


def test_hnf_solve_membership():
    basis = hnf([[2, 0], [0, 2]])
    assert hnf_solve(basis, [4, -6]) == [2, -3]
    assert hnf_solve(basis, [1, 0]) is None


@given(small_int_rows)
def test_hnf_spans_the_same_lattice(rows):
    basis = hnf(rows)
    # every generator is an integer combination of the basis
    for r in rows:
        assert hnf_solve(basis, r) is not None
    # and conversely every basis row is generated (HNF of union is stable)
    assert hnf(rows + basis) == basis


@given(small_int_rows)
def test_hnf_idempotent(rows):
    basis = hnf(rows)
    assert hnf(basis) == basis


@given(small_int_rows)
def test_integer_kernel_annihilates(rows):
    for k in integer_kernel(rows):
        for r_idx in range(len(rows)):
            assert sum(rows[r_idx][c] * 0 for c in range(len(k))) == 0
        # M x = 0 with x the kernel vector (columns of M are rows' entries)
        prod = [sum(rows[r][c] * k[c] for c in range(len(k))) for r in range(len(rows))]
        assert all(x == 0 for x in prod)


def test_integer_kernel_known_case():
    # x + 2y - z = 0 over Z^3: rank-2 kernel
    kern = integer_kernel([[1, 2, -1]])
    assert len(kern) == 2
    for k in kern:
        assert k[0] + 2 * k[1] - k[2] == 0


def test_clear_denominators():
    rows, den = clear_denominators([[Fraction(1, 2), Fraction(1, 3)]])
    assert den == 6
    assert rows == [[3, 2]]


def test_lattice_basis_from_rational_rows():
    basis = lattice_basis_from_rational_rows(
        [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 3)]]
    )
    assert basis == [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 3)]]


def test_fraction_solve_and_nullspace():
    cols = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    sol = field_solve(cols, [Fraction(3), Fraction(2)], *FRACTIONS)
    assert sol == [Fraction(1), Fraction(2)]
    assert field_solve([[Fraction(1), Fraction(2)]], [Fraction(1), Fraction(1)], *FRACTIONS) is None
    null = field_nullspace([[Fraction(1), Fraction(2)]], *FRACTIONS)
    assert len(null) == 1
    x = null[0]
    assert x[0] + 2 * x[1] == 0


@given(
    st.lists(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                 min_size=3, max_size=3),
        min_size=2,
        max_size=3,
    )
)
def test_rref_reproduces_row_space(rows):
    rref, pivots = field_rref(rows, *FRACTIONS)
    assert len(rref) == len(pivots)
    # every original row is a combination of the rref rows
    for r in rows:
        if all(v == 0 for v in r):
            continue
        assert field_solve([list(x) for x in rref], list(r), *FRACTIONS) is not None
    # pivot columns are strictly increasing
    assert pivots == sorted(pivots)


def test_randomized_hnf_determinant_invariance():
    rng = random.Random(7)
    for _ in range(200):
        b = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        if _det2(b) == 0:
            continue
        # applying a random unimodular transform leaves the HNF unchanged
        u = random.Random(rng.random()).choice(
            [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [-1, 0]]]
        )
        tb = [
            [u[0][0] * b[0][0] + u[0][1] * b[1][0], u[0][0] * b[0][1] + u[0][1] * b[1][1]],
            [u[1][0] * b[0][0] + u[1][1] * b[1][0], u[1][0] * b[0][1] + u[1][1] * b[1][1]],
        ]
        h1, h2 = hnf(b), hnf(tb)
        assert h1 == h2
        assert abs(_det2(h1)) == abs(_det2(b))
