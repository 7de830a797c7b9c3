"""Closed-subgroup classification in C^n and in C*.

Additive side: the closure of a finitely generated subgroup of R^(2n) = C^n
is a subspace V plus a lattice L orthogonal to V, held by one class whose
shape label is read off (dim V, rank L).  When the generators have
coordinates in Q(zeta) it is decided exactly.  Each coordinate is lifted to
Q^4 through the basis {1, sqrt(3)} of its real and imaginary parts; a
Hermite normal form gives the abstract Z-rank, and Kronecker duality (the
closure is the annihilator of the dual group D = {phi : phi.v in Z for all
generators v}) reduces the classification to integer kernels and small
systems over Q(sqrt(3)).  Membership of an exact vector is then one
integer test on its lift.  Approximate vectors take the same duality in
floats, its integer steps the integer relations that LLL finds among the
vectors at a 1e-9 residual; the result is flagged as not exact.

Multiplicative side: the closure of a subgroup of C* is the image of a
closed subgroup V + L + Z(0, 1) of R^2 under (s, t) -> exp(s + 2 pi i t),
held by one class.  Exact ratios (elements of Q(zeta12)) give it through
the exponent vectors of the squared moduli over the primes and the unit of
Z[sqrt(3)] and the arguments in units of pi/12, exactly except in one case
of four-exponentials type, which is reported as such.  Approximate ratios
map to the rows (log|w|, arg w / 2pi), and with (0, 1) they generate a
subgroup of R^2 whose closure V + L the additive side's relation routine
gives, flagged as not exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .lattices import (
    field_nullspace,
    field_rref,
    field_solve,
    hnf,
    integer_kernel,
)
from .exact_algebra import (
    CYCLO_I,
    CYCLO_ONE,
    CYCLO_ZERO,
    ZETA_POWERS,
    CycloScalar,
    Scalar,
    Trilean,
    UndecidableAtPrecision,
    format_scalar,
    widen,
)


# the field_* eliminations over Q(zeta): is_zero, zero, one
_CYCLO_FIELD = (CycloScalar.is_zero, CYCLO_ZERO, CYCLO_ONE)


def _coords(v) -> tuple:
    """The coordinates of a vector: a point of C^n, or in C one scalar."""
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


def _vector(coords: Sequence):
    return coords[0] if len(coords) == 1 else tuple(coords)


def _lift_rows(vectors: Sequence) -> Tuple[List[List[int]], int]:
    """Planar lifts of exact vectors, four entries per coordinate, as
    integer rows over their least common denominator."""
    lifts = [[c.planar_lift() for c in _coords(v)] for v in vectors]
    den = lcm(*(d for lift in lifts for _, d in lift))
    rows = [[x * (den // d) for nums, d in lift for x in nums] for lift in lifts]
    g = gcd(den, *(x for row in rows for x in row))
    return [[x // g for x in row] for row in rows], den // g


def _lattice_basis(vectors: Sequence) -> list:
    """Z-basis (the HNF of the planar lifts) of the group the vectors generate."""
    rows, den = _lift_rows(vectors)
    lift = CycloScalar.from_planar_lift
    return [_vector([lift(r[k : k + 4], den) for k in range(0, len(r), 4)]) for r in hnf(rows)]


def _reals(v) -> List[CycloScalar]:
    """The 2n real coordinates (re, im of each) of an exact vector."""
    return [part for c in _coords(v) for part in (c.real_part(), c.imag_part())]


def _from_reals(reals: Sequence[CycloScalar]):
    return _vector([reals[k] + CYCLO_I * reals[k + 1] for k in range(0, len(reals), 2)])


def _dot(u, v):
    """u.v summed term by term in order; row by row for an (N, m) array u."""
    return sum((u[..., k] if isinstance(u, np.ndarray) else u[k]) * v[k] for k in range(len(v)))


def _combine(coeffs: Sequence[CycloScalar], rows: Sequence[Sequence[CycloScalar]]) -> list:
    """sum_i coeffs[i] * rows[i] of real coordinate lists."""
    return [sum((a * r[k] for a, r in zip(coeffs, rows)), CYCLO_ZERO) for k in range(len(rows[0]))]


def _solve_in(span: list, rows: list, targets: Sequence[Sequence[int]]) -> list:
    """Per target t, the phi in the span of `span` with phi.rows[j] = t[j]."""
    gram = [[_dot(e, r) for r in rows] for e in span]
    targets = ([CycloScalar.from_int(x) for x in t] for t in targets)
    return [_from_reals(_combine(field_solve(gram, t, *_CYCLO_FIELD), span)) for t in targets]


def _fmt_rq(a: int, b: int, den: int) -> str:
    p, q = Fraction(a, den), Fraction(b, den)
    return str(p) if q == 0 else f"{p}+{q}*sqrt3"


def _fmt_planar(v: CycloScalar) -> str:
    (x0, x1, y0, y1), den = v.planar_lift()
    return f"[{_fmt_rq(x0, x1, den)}, {_fmt_rq(y0, y1, den)}]"


def _complex_to_real(rows: np.ndarray) -> np.ndarray:
    """(N, n) complex -> (N, 2n) real: re(z1), im(z1), ..., re(zn), im(zn)."""
    return np.stack([rows.real, rows.imag], axis=2).reshape(rows.shape[0], -1)


# ---------------------------------------------------------------------------
# additive closures
#
# A closed subgroup of R^(2n) = C^n is a subspace V plus a lattice L in the
# orthogonal complement of V.  One class holds every such closure: V by a
# spanning list of directions, L by a basis, and the shape label is read
# off (dim V, rank L).  A vector is a point of C^n, a tuple of exact
# CycloScalars x + iy; in C it is held as its one coordinate.  Exact
# membership reads vectors through their planar lifts to Q^(4n) as integer
# numerators over one denominator each, (x0 + x1*sqrt3, y0 + y1*sqrt3) / den
# per coordinate.  The lifts of the Q(sqrt3)-points of V are the rational
# span of the lifts of the directions and of their sqrt3 multiples; the
# lifts of L's basis are independent of them.  So v lies in V + L exactly
# when the integer forms F that vanish on all these lifts vanish on v (v
# lies in their rational span) and the forms G / m, the dual basis of L
# modulo V, are integral on v (its coordinates along L are integers).  F, G
# and m are computed once per closure object.  `contains_lifts` tests an
# (N, 4n) numerator array and an (N,) denominator array at once, and
# `contains` of an exact vector is its one-row case.  The arrays are int64
# or Python ints; int64 ones widen first (`widen`) when a bound on every
# product of the test reaches INT64_SAFE.  `distance_many` takes an (N, n)
# complex array (in C also a 1-d one) and `distance` is its one-point case:
# it projects out V and measures the distance to the nearest point of L in
# real arithmetic, with np.hypot for lengths, so both give the same floats.


_SQRT3 = CycloScalar(0, 2, 0, -1)  # 2*zeta - zeta^3
# the directions of the closure that is the whole plane
PLANE_DIRECTIONS = (CYCLO_ONE, CYCLO_I)
# shape labels in C by (dim V, rank L); in C^n, n >= 2, "V<dim V>+L<rank L>"
_SHAPES = {
    (0, 0): "Zero",
    (0, 1): "Lattice1",
    (0, 2): "Lattice2",
    (1, 0): "LineDense",
    (1, 1): "LineLattice",
    (2, 0): "Plane",
}
# report keys in C of the direction and the lattice vectors, in that order;
# Lattice2 reports its basis as a list
_REPORT_KEYS = {
    "Lattice1": ("generator",),
    "LineDense": ("direction",),
    "LineLattice": ("direction", "transversal"),
}
# the field_* eliminations over Q: is_zero, zero, one
_RATIONAL_FIELD = (lambda x: x == 0, Fraction(0), Fraction(1))


@dataclass(frozen=True)
class AdditiveClosure:
    """The closed subgroup V + L of C^n, n = dim: V spanned by `directions`,
    L with basis `lattice` orthogonal to V.  With exact=False the vectors are
    rational approximations of float ones, found through integer relations,
    and only distances count.  `evidence` says how the closure was found,
    and is not part of ==."""

    exact: bool = True
    directions: tuple = ()
    lattice: tuple = ()
    evidence: Optional[dict] = field(default=None, compare=False)
    dim: int = 1

    @property
    def shape(self) -> str:
        key = len(self.directions), len(self.lattice)
        return _SHAPES[key] if self.dim == 1 else "V%d+L%d" % key

    def contains(self, v, eps: float = 1e-9) -> bool:
        x = _exact_vector(v) if self.exact else None
        if x is not None:
            nums, den = _lift_rows([x])
            one = self.contains_lifts(np.array(nums, dtype=object), np.array([den], dtype=object))
            return bool(one[0])
        return self.distance(v) <= eps

    @cached_property
    def _forms(self) -> Tuple[List[List[int]], List[List[int]], int, int]:
        """(F, G, m, bound): v lies in the closure when F.v = 0 and G.v / m
        is integral; `bound` times the largest entry of the arrays bounds
        every product of the test."""
        width = 4 * self.dim
        root3 = [_vector([c * _SQRT3 for c in _coords(d)]) for d in self.directions]
        spans = [*self.directions, *root3]
        rows, den = _lift_rows([*spans, *self.lattice])
        # integer_kernel reads the width off a row: with none, every form
        vanish = integer_kernel(rows) if rows else np.eye(width, dtype=int).tolist()
        cols = [[row[c] for row in rows] for c in range(width)]
        duals = []
        for j in range(len(self.lattice)):
            # the rows are den times the lifts, so the form that is 1 on the
            # lift of lattice[j] is den on its row
            target = [0] * len(spans) + [den * (i == j) for i in range(len(self.lattice))]
            duals.append(field_solve(cols, target, *_RATIONAL_FIELD))
        m = lcm(1, *(x.denominator for g in duals for x in g))
        integral = [[int(x * m) for x in g] for g in duals]
        bound = max([m] + [width * abs(x) for row in vanish + integral for x in row])
        return vanish, integral, m, bound

    def contains_lifts(self, nums: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Exact membership, row by row, of the vectors whose coordinates are
        (x0 + x1*sqrt3, y0 + y1*sqrt3) / den, with (x0, x1, y0, y1) of each in
        turn in a row of the (N, 4n) integer array `nums`, den > 0 in `den`."""
        vanish, integral, m, bound = self._forms
        nums, den = widen(bound, nums, den)
        f = np.array(vanish, dtype=nums.dtype).reshape(-1, 4 * self.dim)
        g = np.array(integral, dtype=nums.dtype).reshape(-1, 4 * self.dim)
        return np.all(nums @ f.T == 0, axis=1) & np.all(
            (nums @ g.T) % (m * den)[:, None] == 0, axis=1
        )

    @cached_property
    def _floats(self) -> Tuple[List[np.ndarray], list]:
        """An orthonormal basis of V (Gram-Schmidt on the directions), as real
        rows, and a reduced basis of L, as complex vectors: Gauss-reduced in C,
        so the nearest point to v is a corner of v's basis cell, else LLL."""
        units: List[np.ndarray] = []
        for d in self.directions:
            w = _float_row(d)
            for u in units:
                w = w - _dot(w, u) * u
            units.append(w / np.hypot.reduce(w))
        basis = self.lattice
        if len(basis) >= 2 and self.dim == 1:
            basis = _gauss_reduced(basis)
        elif len(basis) >= 2:
            reduced = _lll_reduced(np.array([_reals(b) for b in basis], dtype=object), _real_floats)
            basis = [_from_reals(row) for row in reduced]
        return units, [_vector([c.to_complex() for c in _coords(b)]) for b in basis]

    def distance_many(self, v: np.ndarray) -> np.ndarray:
        """Distances to the closure from the rows of an (N, n) complex array."""
        units, vectors = self._floats
        basis = [_complex_to_real(np.array([_coords(b)]))[0] for b in vectors]
        x = _complex_to_real(v.reshape(v.shape[0], -1))
        for u in units:
            x = x - _dot(x, u)[:, None] * u
        if len(basis) == 0:
            return np.hypot.reduce(x, axis=1)
        if len(basis) == 1:
            (g,) = basis
            n = np.round(_dot(x, g) / float(np.hypot.reduce(g)) ** 2)
            return np.hypot.reduce(x - n[:, None] * g, axis=1)
        if x.shape[1] > 2:
            return _nearest_lattice_distance(x, np.array(basis))
        (b1r, b1i), (b2r, b2i) = basis
        x, y = x[:, 0], x[:, 1]
        det = b1r * b2i - b1i * b2r
        s = (x * b2i - y * b2r) / det
        t = (b1r * y - b1i * x) / det
        best = np.full(v.shape[0], np.inf)
        for ds in (np.floor(s), np.ceil(s)):
            for dt in (np.floor(t), np.ceil(t)):
                dx = x - ds * b1r - dt * b2r
                dy = y - ds * b1i - dt * b2i
                best = np.minimum(best, np.hypot(dx, dy))
        return best

    def distance(self, v) -> float:
        return float(self.distance_many(np.array([[_as_complex(c) for c in _coords(v)]]))[0])

    def shortest_vector(self) -> float:
        """Length of the first reduced vector of L: a shortest one in C."""
        return math.hypot(*(abs(z) for z in _coords(self._floats[1][0])))

    def is_discrete(self) -> Trilean:
        if not self.exact:
            return Trilean.UNKNOWN
        return Trilean.of(not self.directions)

    def is_whole_plane(self) -> Trilean:
        """Whether V is all of R^(2n)."""
        if not self.exact:
            return Trilean.UNKNOWN
        return Trilean.of(len(self.directions) == 2 * self.dim)

    def to_report(self) -> dict:
        out = {"shape": self.shape, "exact": self.exact}
        if self.evidence:
            out["evidence"] = self.evidence
        if self.dim > 1:
            for key, vectors in (("directions", self.directions), ("lattice", self.lattice)):
                out[key] = [[_fmt_planar(c) for c in w] for w in vectors]
            return out
        if self.shape == "Lattice2":
            out["basis"] = [_fmt_planar(b) for b in self.lattice]
            out["basis_values"] = [_c2l(b.to_complex()) for b in self.lattice]
        for key, w in zip(_REPORT_KEYS.get(self.shape, ()), self.directions + self.lattice):
            out[key] = _fmt_planar(w)
            out[key + "_value"] = _c2l(w.to_complex())
        return out


def _float_row(v) -> np.ndarray:
    """The real coordinates of an exact vector, as floats."""
    return np.array([p for c in _coords(v) for z in (c.to_complex(),) for p in (z.real, z.imag)])


def _gauss_reduced(basis: Sequence[CycloScalar]) -> Tuple[CycloScalar, CycloScalar]:
    """An exact Gauss reduction of a planar basis: |b1| <= |b2| and
    |b1.b2| <= |b1|^2 / 2."""
    b1, b2 = basis
    if (b1.abs_sq() - b2.abs_sq()).sign() > 0:
        b1, b2 = b2, b1
    while True:
        # the pairing b1.b2 is re(b1 * conj b2)
        m = round((b1 * b2.conj()).to_complex().real / b1.abs_sq().to_complex().real)
        b2 = b2 - m * b1
        if (b2.abs_sq() - b1.abs_sq()).sign() >= 0:
            return b1, b2
        b1, b2 = b2, b1


def _lll_reduced(rows: np.ndarray, floats=np.asarray) -> np.ndarray:
    """An LLL-reduced basis (delta = 3/4) of the lattice spanned by the rows
    of an array of numbers, floats or exact ones: integer steps on the
    rows, each chosen in floats (`floats` reads rows as a float array)."""
    b = rows.copy()
    k = 1
    while k < len(b):
        r = np.linalg.qr(floats(b[: k + 1]).T, mode="r")
        for j in range(k - 1, -1, -1):
            m = round(r[j, k] / r[j, j])
            if m:
                b[k] = b[k] - m * b[j]
                r[:, k] -= m * r[:, j]
        if r[k, k] ** 2 + r[k - 1, k] ** 2 >= 0.75 * r[k - 1, k - 1] ** 2:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            k = max(k - 1, 1)
    return b


# the floats of an object array of real CycloScalars
_real_floats = np.vectorize(lambda x: x.to_complex().real, otypes=[float])


def _nearest_lattice_distance(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Distances from the rows of x to the lattice with the reduced basis
    rows `basis`, by Fincke-Pohst: with basis^T = QR, the point Rc is nearer
    to y = Q^T x than the nearest-plane point only if its partial sums of
    squares, level by level from the last, stay within the latter's.  A
    choice at level k that adds more than sum_{j<=k} r_jj^2 / 4 is also
    passed over, as the nearest-plane completion of its prefix adds no
    more: so a lattice with short and long vectors does not spend the
    squares of its long levels on its short ones."""
    q, r = np.linalg.qr(basis.T)
    y, n = x @ q, x.shape[0]
    coef, bound = np.zeros_like(y), np.zeros(n)
    for k in reversed(range(r.shape[0])):
        t = (y[:, k] - coef[:, k + 1 :] @ r[k, k + 1 :]) / r[k, k]
        coef[:, k] = np.round(t)
        bound += ((t - coef[:, k]) * r[k, k]) ** 2
    left = np.cumsum(np.diag(r) ** 2 / 4) * (1 + 1e-9)
    idx, coef, part = np.arange(n), np.zeros((n, 0)), np.zeros(n)
    for k in reversed(range(r.shape[0])):
        t = (y[idx, k] - coef @ r[k, k + 1 :]) / r[k, k]
        slack = np.minimum(bound[idx] * (1 + 1e-9) - part, left[k])
        half = np.sqrt(np.maximum(slack, 0.0)) / abs(r[k, k]) + 1e-9
        lo = np.ceil(t - half)
        count = np.maximum(np.floor(t + half) - lo + 1, 0).astype(int)
        rep = np.repeat(np.arange(len(t)), count)
        ck = lo[rep] + np.arange(len(rep)) - np.repeat(np.cumsum(count) - count, count)
        idx, part = idx[rep], part[rep] + ((t[rep] - ck) * r[k, k]) ** 2
        coef = np.column_stack([ck, coef[rep]])
    best = np.full(n, np.inf)
    np.minimum.at(best, idx, part)
    rest = x - y @ q.T
    return np.sqrt(best + np.einsum("ij,ij->i", rest, rest))


def _exact_vector(v):
    """The vector with CycloScalar coordinates; None if one is not exact."""
    coords = [c.exact_value if isinstance(c, Scalar) and c.is_exact else c for c in _coords(v)]
    return _vector(coords) if all(isinstance(c, CycloScalar) for c in coords) else None


def _as_complex(v) -> complex:
    if isinstance(v, (Scalar, CycloScalar)):
        return v.to_complex()
    return complex(v)


def _c2l(z: complex) -> List[float]:
    return [z.real, z.imag]


def classify_additive_closure(vectors: Sequence) -> AdditiveClosure:
    """Closure of the subgroup of C^n = R^(2n) generated by the vectors.

    Exact for coordinates in Q(zeta), by Kronecker duality: the HNF basis
    b_1..b_t spans W of dimension d over Q(sqrt3); t = d makes a lattice.
    Otherwise the integer k with sum c_j k_j = 0 for every relation
    sum c_j b_j = 0 over Q(sqrt3) are the values phi.b_j of the dual group
    D, phi in W; V = W meets D's orthogonal, L is the basis dual to D's.
    V's basis is in row echelon form, but a LineLattice's line in C keeps
    i*g (g spanning D) with a positive lead.  Approximate vectors take the
    same duality in floats, `_closure_by_relations`, and every vector is
    stored with a positive lead.
    """
    exact = [_exact_vector(v) for v in vectors]
    if None in exact:
        coords = np.array([[_as_complex(c) for c in _coords(v)] for v in vectors])
        errors = [[c.err if isinstance(c, Scalar) else 0.0 for c in _coords(v)] for v in vectors]
        x, err = _complex_to_real(coords), np.hypot.reduce(errors, axis=1)
        directions, lattice, evidence = _closure_by_relations(x, err, "translations")
        stored = [_stored_float(row) for row in (*directions, *lattice)]
        v, n = len(directions), coords.shape[1]
        return AdditiveClosure(False, tuple(stored[:v]), tuple(stored[v:]), evidence, n)
    n = len(_coords(exact[0])) if exact else 1
    basis = _lattice_basis(exact)
    reals = [_reals(b) for b in basis]
    span = field_rref(reals, *_CYCLO_FIELD)[0]
    if len(span) == len(basis):
        return AdditiveClosure(lattice=tuple(basis), dim=n)
    relations = field_nullspace([list(c) for c in zip(*reals)], *_CYCLO_FIELD)
    parts = [[x[p] for x in _lift_rows(c)[0]] for c in relations for p in (0, 1)]
    duals = _solve_in(span, reals, integer_kernel([r for r in parts if any(r)]))
    dual_basis = [_reals(g) for g in _lattice_basis(duals)]
    if len(dual_basis) != len(field_rref(dual_basis, *_CYCLO_FIELD)[0]):
        raise AssertionError("dual group of a closed subgroup must be discrete")
    lattice = tuple(_solve_in(dual_basis, dual_basis, np.eye(len(dual_basis), dtype=int).tolist()))
    if n == 1 and dual_basis:
        direction = CYCLO_I * _from_reals(dual_basis[0])  # g turned by a quarter
        lead = next(c for c in _reals(direction) if not c.is_zero())
        return AdditiveClosure(directions=(direction * lead.sign(),), lattice=lattice)
    # V = W meets the orthogonal of D; a zero row when D = 0 keeps all of W
    pairings = [[_dot(e, g) for e in span] for g in dual_basis] or [[CYCLO_ZERO] * len(span)]
    v_rows = [_combine(a, span) for a in field_nullspace(pairings, *_CYCLO_FIELD)]
    directions = tuple(_from_reals(row) for row in field_rref(v_rows, *_CYCLO_FIELD)[0])
    return AdditiveClosure(directions=directions, lattice=lattice, dim=n)


# A float relation c.x = 0 among vectors x of size max|x| holds to about
# eps * |c| * max|x|.  LLL on [I | x / (unit * max|x|)] weighs a unit of the
# residual c.x against unit * max|x|, unit = _RESIDUAL for input vectors,
# and a reduced row is read as a relation when its scaled residual is at
# most _RELATION times its height max|c_j|, and as none from _NO_RELATION
# times, if c.x also exceeds its error radius; otherwise the precision
# cannot tell.  Over 3,000 random generator lists with coordinates in
# Q(sqrt3) (in C, C^2 and C^3) the relations read at most 2.4e-7 and the
# other rows at least 3.9e-3.
_RESIDUAL, _RELATION, _NO_RELATION = 1e-9, 1e-4, 1e-3


def _integer_relations(x, err, what: str, unit: float = _RESIDUAL) -> Tuple[np.ndarray, int, float]:
    """(R, height, residual) for the rows of an (m, d) float array x with
    error radii err: the rows c of an LLL-reduced basis of Z^m with
    c.x = 0, which span every such c, and their largest height max|c_j|
    and relative residual |c.x| / max|x|.  `what` names the rows in the
    message of an undecidable row."""
    size = float(np.abs(x).max()) or 1.0
    m = len(x)
    reduced = _lll_reduced(np.hstack([np.eye(m), x / (unit * size)]))
    coeffs = np.round(reduced[:, :m]).astype(np.int64)
    residual = np.linalg.norm(coeffs @ x, axis=1) / size
    height = np.abs(coeffs).max(axis=1)
    scaled = residual / unit / height
    rel = scaled <= _RELATION
    if np.any(~rel & ((scaled < _NO_RELATION) | (residual * size <= np.abs(coeffs) @ err))):
        raise UndecidableAtPrecision(f"cannot tell whether the {what} satisfy an integer relation")
    return coeffs[rel], int(height[rel].max(initial=0)), float(residual[rel].max(initial=0.0))


def _closure_by_relations(x, err, what: str) -> Tuple[np.ndarray, np.ndarray, dict]:
    """(directions, lattice, evidence) of the closure V + L of the group the
    rows of an (m, d) float array x (error radii err) generate, by the exact
    path's Kronecker duality in floats; V in reduced row echelon form, L
    LLL-reduced.  With R the integer relations among the rows and K a basis
    of R's integer kernel, the group is Z^m / R, and b with x = K^T b is a
    Z-basis of it, spanning W; it is a lattice when b is independent.
    Otherwise the integer points of the image of phi -> (phi.b_j)_j, phi in
    W, are the relations among the coordinates of its orthogonal complement,
    and they give the dual group D."""
    relations, height, residual = _integer_relations(x, err, what)
    b = x
    if len(relations):
        kernel = np.array(integer_kernel(relations.tolist()), dtype=float).reshape(-1, len(x))
        b = np.linalg.lstsq(kernel.T, x, rcond=None)[0]
    u, s, vt = np.linalg.svd(b)
    w = int(np.sum(s > _RESIDUAL * s.max(initial=0.0)))
    directions, lattice = vt[:0], b
    if w < len(b):
        # the complement is as precise as b is well conditioned on W
        unit = _RESIDUAL * s[0] / s[w - 1]
        dual, h, r = _integer_relations(u[:, w:], np.zeros(len(b)), what, unit)
        height, residual = max(height, h), max(residual, r)
        phi = (dual @ u[:, :w] / s[:w]) @ vt[:w]
        # V = W meets the orthogonal of D, L is the basis dual to D's
        directions = np.linalg.svd(phi @ vt[:w].T)[2][len(phi) :] @ vt[:w]
        lattice = np.linalg.solve(phi @ phi.T, phi)
    evidence = {"path": "relations", "height": height, "residual": residual}
    return _echelon(directions), _lll_reduced(lattice), evidence


def _echelon(rows: np.ndarray) -> np.ndarray:
    """The reduced row echelon form of float rows of full rank, pivoting on
    the largest entry of each column (`field_rref` takes the first nonzero
    one, which is exact only in exact arithmetic)."""
    a = np.array(rows, dtype=float)
    top = 0
    for col in range(a.shape[1]):
        if top == len(a):
            break
        pivot = top + int(np.argmax(np.abs(a[top:, col])))
        if abs(a[pivot, col]) <= _RESIDUAL * np.abs(a).max():
            continue
        a[[top, pivot]] = a[[pivot, top]]
        a[top] /= a[top, col]
        others = np.arange(len(a)) != top
        a[others] -= np.outer(a[others, col], a[top])
        top += 1
    return a


def _stored_float(row: np.ndarray):
    """A float row of R^(2n) as a vector of C^n, by `_planar_float`, with a
    positive lead."""
    v = _vector([_planar_float(complex(row[k], row[k + 1])) for k in range(0, len(row), 2)])
    sign = next((c.sign() for c in _reals(v) if not c.is_zero()), 1)
    return v if sign > 0 else _vector([-c for c in _coords(v)])


def _planar_float(z: complex) -> CycloScalar:
    return CycloScalar.gauss(
        Fraction(z.real).limit_denominator(10**12),
        Fraction(z.imag).limit_denominator(10**12),
    )


# ---------------------------------------------------------------------------
# multiplicative closures
#
# Every closed subgroup of C* is the image of a closed subgroup V + L +
# Z(0, 1) of R^2 under (s, t) -> exp(s + 2 pi i t); one class holds each
# closure of Lambda so, with the shape read off (dim V, rank L) and the line
# V: the t-axis gives circles, the s-axis rays and any other line spirals.
# Exact ratios lie in Q(zeta)*: |w|^2 is a positive element of Q(sqrt3),
# recorded by its exponent vector over the primes of Z[sqrt3] (a Euclidean
# domain) and, last, the unit 2+sqrt3, and arg w is a multiple of pi/12
# exactly when (w / conj w)^12 = 1, since the roots of unity of Q(zeta) are
# the 12th roots; otherwise arg w / pi is irrational.  Exact membership of
# an exact value never reads a float.


_S_AXIS, _T_AXIS = (1.0, 0.0), (0.0, 1.0)
_PLANE = (_S_AXIS, _T_AXIS)


@dataclass(frozen=True)
class MultClosure:
    """The closure exp(V + L + Z(0, 1)) in C of a subgroup of C*, V spanned
    by the rows of `directions`, L with (0, 1) by the `lattice` generators.
    Each shape has one form: a root (FiniteCyclic); a generator of modulus
    > 1 and a root (RaysDiscrete); the t-axis with a generator or none
    (Circles); the s-axis with a value on the first ray (RaysDense); a line
    (1, pitch) with a transversal (Spirals); the plane, which with a
    `reason` in the evidence is "Unknown", a closure not decided here and
    described by its superset C.  `evidence` is not part of ==."""

    exact: bool = True
    directions: tuple = ()
    lattice: tuple = ()
    evidence: Optional[dict] = field(default=None, compare=False)

    @property
    def shape(self) -> str:
        if len(self.directions) == 2:
            return "Unknown" if "reason" in (self.evidence or {}) else "Plane"
        if not self.directions:
            return "RaysDiscrete" if len(self.lattice) == 2 else "FiniteCyclic"
        s, t = self.directions[0]
        return "Circles" if s == 0 else "RaysDense" if t == 0 else "Spirals"

    @cached_property
    def _rows(self) -> List[Tuple[float, float]]:
        """(s, t) of each lattice generator; t in (0, 1] for exact values."""
        if self.exact:
            return [_log_polar(w) for w in self.lattice]
        return [(float(s), float(t)) for s, t in self.lattice]

    @cached_property
    def includes_zero(self) -> bool:
        """Whether some vector of V or L has s != 0: then 0 is a limit."""
        return any(s != 0 for s, _ in (*self.directions, *self._rows))

    @property
    def _order(self) -> int:
        """1/t of the last generator: the order of the roots, or the number
        of rays."""
        return round(1 / self._rows[-1][1])

    def contains(self, w, eps: float = 1e-9) -> bool:
        x = _exact_vector(w) if self.exact else None
        if x is not None:
            return self.includes_zero if x.is_zero() else self._member(x)
        return self.distance(w) <= eps

    @cached_property
    def _modulus_basis(self):
        return _exponent_basis(self.lattice[0].abs_sq())

    @cached_property
    def _step(self) -> int:
        """In units of pi/12 the angle between rays, on rays; else the root
        as a power of zeta12."""
        if self.directions == (_S_AXIS,):
            return _angle_pi12(self.lattice[0]) or 24
        return self.lattice[-1].root_of_unity_log() or 12

    def _member(self, w: CycloScalar) -> bool:
        """Exact membership of a nonzero exact value: |w|^2 a power of the
        generator's, read on exponent vectors, then w over that power a root
        of the closure's order; on rays, arg w a multiple of the first
        ray's, in units of pi/12."""
        if len(self.directions) == 2:
            return True
        if self.directions == (_S_AXIS,):
            a = _angle_pi12(w)
            return a is not None and a % self._step == 0
        m = 0
        if self.includes_zero:
            m = _modulus_multiple(w, self._modulus_basis)
            if m is None:
                return False
        elif w.abs_sq() != CYCLO_ONE:
            return False
        if self.directions:  # circles: every argument
            return True
        k = (w * self.lattice[0] ** (-m) if m else w).root_of_unity_log()
        return k is not None and k % self._step == 0

    @cached_property
    def _roots(self) -> np.ndarray:
        """The points of a finite closure, by powers of zeta12 when its order
        divides 12."""
        k = self._order
        if 12 % k:
            return np.array([cmath.exp(2j * math.pi * j / k) for j in range(k)])
        return np.array([ZETA_POWERS[12 // k * j % 12].to_complex() for j in range(k)])

    @cached_property
    def _lines(self) -> Tuple[np.ndarray, np.ndarray, bool]:
        """(e, h, discrete): the image of V + L + Z(0, 1) in the metric
        (s, 2 pi t) is the union over j of the lines j*h + R*e, or of their
        points j*h + Z*e when V = 0, (e, h) then an LLL-reduced basis of L."""
        rows = np.array([(s, math.tau * t) for s, t in self._rows])
        if self.directions:
            ((s, t),) = self.directions
            return np.array([s, math.tau * t]), rows[0], False
        e, h = _lll_reduced(rows)
        return e, h, True

    def distance_many(self, xi: np.ndarray) -> np.ndarray:
        """Distances to the closure from a 1-d array of complex numbers.

        A closure without 0 lies on the unit circle: the distance to the
        circle, or to the nearest root.  Otherwise |q - p| = |q| |p/q - 1|,
        and `_nearest_on_lines` gives the least |exp(w - w_q) - 1| over the
        points w of the log-polar image, w_q = (log|q|, arg q), starting
        from 1 for the point 0."""
        r = np.hypot(xi.real, xi.imag)
        if len(self.directions) == 2:
            return np.zeros(xi.shape[0])
        if not self.includes_zero:
            if self.directions:
                return np.abs(r - 1.0)
            d = xi[:, None] - self._roots[None, :]
            return np.hypot(d.real, d.imag).min(axis=1)
        live = r > 0
        wq = np.column_stack([np.log(np.where(live, r, 1.0)), np.arctan2(xi.imag, xi.real)])
        return np.where(live, r * _nearest_on_lines(wq, *self._lines), 0.0)

    def distance(self, w) -> float:
        return float(self.distance_many(np.array([_as_complex(w)], dtype=np.complex128))[0])

    def is_whole_plane(self) -> Trilean:
        if len(self.directions) < 2:
            return Trilean.NO
        return Trilean.YES if self.exact else Trilean.UNKNOWN

    def to_report(self) -> dict:
        out = {"shape": self.shape, "exact": self.exact, "includes_zero": self.includes_zero}
        if self.evidence:
            out["evidence"] = self.evidence
        shape = self.shape
        if shape == "FiniteCyclic":
            k = out["order"] = self._order
            out["generator"] = f"exp(i*pi*2/{k})" if 12 % k else f"zeta12^{12 // k % 12}"
        elif shape == "RaysDense":
            out["angle_order"] = self._order
        elif shape == "Spirals":  # arms: the lines of V + L per turn (0, 1)
            (_, pitch), ((s, t),) = self.directions[0], self._rows
            out["pitch"], out["arms"] = pitch, round(1 / abs(t - pitch * s))
        elif self.lattice:  # RaysDiscrete and Circles with 0
            (s, t), g = self._rows[0], self.lattice[0]
            g = g if self.exact else cmath.exp(complex(s, math.tau * t))
            out["modulus_ratio"] = math.sqrt(g.abs_sq().to_complex().real) if self.exact else abs(g)
            if shape == "RaysDiscrete" and not self.exact:
                out["generator"], out["root_order"] = format_scalar(Scalar.approx(g)), self._order
            elif shape == "RaysDiscrete":
                out["generator"], a = format_scalar(Scalar(g)), _angle_pi12(g)
                if a is not None:
                    out["angle_order"] = 24 // gcd(24, a, 2 * self._step)
                    out["coupling_hnf"] = [[1, a], [0, 2 * self._step]]
        return out


def _log_polar(w: CycloScalar) -> Tuple[float, float]:
    """(log|w|, arg w / 2pi) of an exact value of modulus >= 1, the turn in
    (0, 1]; log1p of |w|^2 - 1 keeps the digits of a ratio close to 1."""
    t = cmath.phase(w.to_complex()) / math.tau
    return 0.5 * math.log1p((w.abs_sq() - CYCLO_ONE).to_complex().real), t if t > 0 else t + 1.0


def _ray(a: int) -> CycloScalar:
    """A value of argument a*pi/12: (1 + zeta) has argument pi/12."""
    w = ZETA_POWERS[a // 2 % 12]
    return w * (CYCLO_ONE + ZETA_POWERS[1]) if a % 2 else w


# below this log-modulus a point is within e^-40 |q| of 0, so a search for
# one nearer than 0 stops there
_LOG_FLOOR, _LOG_CEILING = -40.0, 40.0
_GOLDEN = (math.sqrt(5) - 1) / 2


def _expm1(p: np.ndarray, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """exp(w) - 1 at w = p + x*e in the metric (s, 2 pi t), rows of p against
    x, as expm1(s) cos(a) - 2 sin(a/2)^2 + i e^s sin(a), which keeps its
    digits near w = 0; s is capped at _LOG_CEILING, past any search's bound."""
    s, a = np.minimum(p[:, 0] + x * e[0], _LOG_CEILING), p[:, 1] + x * e[1]
    return np.expm1(s) * np.cos(a) - 2 * np.sin(a / 2) ** 2 + 1j * np.exp(s) * np.sin(a)


def _nearest_on_lines(wq: np.ndarray, e: np.ndarray, h: np.ndarray, discrete: bool) -> np.ndarray:
    """min(1, |exp(w - w_q) - 1|) over the points w of the lines j*h + R*e,
    or of their points j*h + Z*e when discrete, for each row w_q of wq, all
    in the metric (s, 2 pi t); the set holds (0, 2 pi).

    For c <= 1 the points w near 0 with |exp(w) - 1| < c are the log of the
    disc |z - 1| < c, a convex set (log(1 + z) is a convex map of the unit
    disc), inside |arg| < pi/2 and within the box log(1 - c) < s < log(1 + c),
    |a| <= 2 arcsin(c / (2 sqrt(1 - c))).  So the point nearest in the metric
    gives a first bound c, and each line of the set that crosses the box of c
    is one 1-D search: along it |exp(w) - 1|, continued by 1 + psi with the
    convex psi = s - log(2 cos a) past psi = 0, falls and then rises, so
    `_least_point` finds its least point (to 1e-8 of the box when it
    searches, which moves the value by about 1e-16 of c); when discrete, the
    integer points next to it are the candidates."""
    n = np.array([-e[1], e[0]]) / np.hypot(*e)
    nh = float(n @ h)
    # the nearest line, and on it the nearest point (of the line's points)
    j = np.round((wq @ n) / nh)
    p = j[:, None] * h - wq
    x = -(p @ e) / (e @ e)
    best = np.minimum(1.0, np.abs(_expm1(p, np.round(x) if discrete else x, e)))
    gap = np.maximum(1.0 - best, 1e-300)
    lo, hi = np.maximum(np.log(gap), _LOG_FLOOR), np.log1p(best)
    half = np.minimum(2 * np.arcsin(np.minimum(1.0, best / (2 * np.sqrt(gap)))), math.pi / 2)
    # the lines j*h + R*e that meet the box
    ends = np.sort(np.stack([n[0] * lo, n[0] * hi]), axis=0)
    reach = np.stack([ends[0] - abs(n[1]) * half, ends[1] + abs(n[1]) * half]) + wq @ n
    j_lo, j_hi = np.sort(reach / nh, axis=0)
    first = np.ceil(j_lo)
    count = np.maximum(np.floor(j_hi) - first + 1, 0).astype(int)
    idx = np.repeat(np.arange(len(wq)), count)
    j = first[idx] + np.arange(len(idx)) - np.repeat(np.cumsum(count) - count, count)
    p = j[:, None] * h - wq[idx]
    # the x in the box; with e[k] = 0, ends of -inf, inf keep the whole line
    # and ends of one sign none
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = np.stack([lo[idx], hi[idx], -half[idx], half[idx]]) - p.T[[0, 0, 1, 1]]
        ends /= e[[0, 0, 1, 1], None]
    a = np.maximum(np.minimum(ends[0], ends[1]), np.minimum(ends[2], ends[3]))
    b = np.minimum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3]))
    keep = a <= b
    idx, p, a, b = idx[keep], p[keep], a[keep], b[keep]
    if not discrete:
        np.minimum.at(best, idx, np.abs(_expm1(p, _least_point(p, a, b, e), e)))
        return best
    # a segment with few integer points takes them all, a longer one the
    # four next to its least point
    first, count = np.ceil(a), (np.floor(b) - np.ceil(a) + 1).astype(int)
    long = count > 8
    first[long] = np.floor(_least_point(p[long], a[long], b[long], e)) - 1
    count[long] = 4
    rep = np.repeat(np.arange(len(idx)), count)
    x = first[rep] + np.arange(len(rep)) - np.repeat(np.cumsum(count) - count, count)
    np.minimum.at(best, idx[rep], np.abs(_expm1(p[rep], x, e)))
    return best


def _least_point(p: np.ndarray, a: np.ndarray, b: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The x in [a, b] where |exp(p + x*e) - 1| is least, for segments in
    the box of `_nearest_on_lines`: on a circle the point at angle 0, on a
    ray the point of modulus cos(angle), and on a spiral a golden-section
    search for the least point of the unimodal continuation."""
    if e[0] == 0:
        return np.clip(-p[:, 1] / e[1], a, b)
    if e[1] == 0:
        return np.clip((np.log(np.cos(p[:, 1])) - p[:, 0]) / e[0], a, b)

    def rise(x):  # |exp(w) - 1|, and past psi = 0 the convex 1 + psi
        psi = p[:, 0] + x * e[0] - np.log(2 * np.maximum(np.cos(p[:, 1] + x * e[1]), 1e-300))
        return np.where(psi < 0, np.abs(_expm1(p, x, e)), 1.0 + psi)

    for _ in range(40):
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        left = rise(c) <= rise(d)
        a, b = np.where(left, a, c), np.where(left, d, b)
    return (a + b) / 2


# -- arithmetic of Q(sqrt3) and Z[sqrt3] ------------------------------------
#
# An element of Q(sqrt3) is a real CycloScalar.  A prime of Z[sqrt3] is keyed
# (p, x, y): the prime x + y*sqrt3 > 0 above the rational prime p.  2 and 3
# ramify, p = +-1 mod 12 splits, other p are inert.


def _factorize(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _primes_above(p: int) -> List[Tuple[int, int, int]]:
    if p == 2:
        return [(2, 1, 1)]
    if p == 3:
        return [(3, 0, 1)]
    if p % 12 not in (1, 11):
        return [(p, p, 0)]
    y = 1
    while True:  # x^2 - 3y^2 = +-p has a solution: Z[sqrt3] is a PID
        for x2 in (p + 3 * y * y, 3 * y * y - p):
            x = isqrt(max(x2, 0))
            if x2 > 0 and x * x == x2:
                # x + y*sqrt3 and its conjugate, each made positive
                second = (p, x, -y) if x2 > 3 * y * y else (p, -x, y)
                return sorted([(p, x, y), second])
        y += 1


def _integral_parts(v: CycloScalar) -> Tuple[int, int, int]:
    """(a, b, c) in lowest terms with real v = (a + b*sqrt3) / c and c > 0."""
    (a, b, _, _), c = v.planar_lift()
    g = gcd(a, b, c)
    return a // g, b // g, c // g


def _divide_out(a: int, b: int, prime: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """(k, a', b') with a + b*sqrt3 = prime^k * (a' + b'*sqrt3), k maximal."""
    _, x, y = prime
    n = x * x - 3 * y * y
    k = 0
    while True:
        # (a + b*sqrt3)(x - y*sqrt3) / n
        s, t = a * x - 3 * b * y, b * x - a * y
        if s % n or t % n:
            return k, a, b
        a, b, k = s // n, t // n, k + 1


def _unit_log(a: int, b: int) -> Optional[int]:
    """k with a + b*sqrt3 = (2 + sqrt3)^k, or None."""
    if a <= 0 or a * a - 3 * b * b != 1:
        return None
    k = 0
    while b:
        if b > 0:
            a, b, k = 2 * a - 3 * b, 2 * b - a, k + 1
        else:
            a, b, k = 2 * a + 3 * b, a + 2 * b, k - 1
    return k


def _exponents(v: CycloScalar, primes: Sequence[Tuple[int, int, int]]) -> Optional[List[int]]:
    """Exponent vector of v > 0 over `primes` and then the unit 2+sqrt3;
    None when v has a prime factor outside `primes`."""
    a, b, c = _integral_parts(v)
    e, f = c, 0
    out = []
    for prime in primes:
        kn, a, b = _divide_out(a, b, prime)
        kd, e, f = _divide_out(e, f, prime)
        out.append(kn - kd)
    # what is left, (a + b*sqrt3) / (e + f*sqrt3), must be a unit
    n = e * e - 3 * f * f
    s, t = a * e - 3 * b * f, b * e - a * f
    if s % n or t % n:
        return None
    k = _unit_log(s // n, t // n)
    return None if k is None else out + [k]


def _prime_support(v: CycloScalar) -> List[Tuple[int, int, int]]:
    a, b, c = _integral_parts(v)
    rational = set(_factorize(a * a - 3 * b * b)) | set(_factorize(c))
    return [q for p in sorted(rational) for q in _primes_above(p)]


def _exponent_basis(base: CycloScalar) -> Tuple[List[Tuple[int, int, int]], List[int]]:
    """The primes dividing base != 1 and its exponent vector over them."""
    primes = _prime_support(base)
    return primes, _exponents(base, primes)


def _modulus_multiple(w: CycloScalar, basis) -> Optional[int]:
    """m with |w|^2 = base^m for the (primes, vector) basis of base, or None."""
    primes, vector = basis
    exps = _exponents(w.abs_sq(), primes)
    if exps is None:
        return None
    lead = next(i for i, e in enumerate(vector) if e)
    m, rem = divmod(exps[lead], vector[lead])
    if rem or any(x != m * e for x, e in zip(exps, vector)):
        return None
    return m


# arg(1 + zeta) = pi/12; powers of its conjugate rotate by -pi/12
_ETA_BAR_POWERS = tuple((CYCLO_ONE + ZETA_POWERS[1]).conj() ** k for k in range(12))


def _angle_pi12(w: CycloScalar) -> Optional[int]:
    """a in [0, 24) with arg w = a*pi/12, or None when arg w / pi is irrational."""
    wb = w.conj()
    for k in range(12):
        if w == ZETA_POWERS[k] * wb:
            # arg w is k*pi/12 or k*pi/12 + pi: the sign of w * conj(1+zeta)^k
            return k if (w * _ETA_BAR_POWERS[k]).sign() > 0 else k + 12
    return None


def _word(values: Sequence[CycloScalar], exponents: Sequence[int]) -> CycloScalar:
    out = CYCLO_ONE
    for v, e in zip(values, exponents):
        if e:
            out = out * v ** e
    return out


_FOUR_EXPONENTIALS = (
    "the moduli have rank >= 2, every modulus-1 word is a root of unity and "
    "some argument is an irrational multiple of pi: whether the closure "
    "fills the plane turns on linear relations between logarithms of moduli "
    "and arguments (a four-exponentials question), which is not decided here"
)


def classify_multiplicative_closure(ratios: Sequence[Scalar]) -> MultClosure:
    """Closure in C of the multiplicative group Lambda generated by the ratios.

    Exact for every list of exact ratios.  The exponent vectors of the
    |lambda|^2 span a lattice of rank r (an HNF of [vectors | identity]),
    whose kernel K holds the words of modulus 1; K maps onto roots of unity
    or onto a dense subgroup of the circle.
      r = 0: the roots of unity K reaches, or the unit circle;
      r = 1: a generator of the moduli with the roots, when K is torsion,
      else circles of its moduli;
      r >= 2: the plane when K is not torsion, rays when every argument is
      a multiple of pi/12, and otherwise shape "Unknown" with exact=False
      and its reason: a four-exponentials question, described by the
      superset C.
    Approximate ratios take the closure of their log-polar image,
    `_classify_mult_by_relations`, and are flagged as not exact.
    """
    values = [_exact_vector(r) for r in ratios]
    if any(v is None for v in values):
        return _classify_mult_by_relations(ratios)
    values = [v for v in values if v != CYCLO_ONE]
    moduli = [v.abs_sq() for v in values]
    primes = sorted({p for q in moduli for p in _prime_support(q)})
    width = len(primes) + 1
    units = np.eye(len(values), dtype=int).tolist()
    rows = hnf([_exponents(q, primes) + u for q, u in zip(moduli, units)])
    modulus_rows = [row for row in rows if any(row[:width])]
    circle = [_word(values, row[width:]) for row in rows if not any(row[:width])]
    logs = [u.root_of_unity_log() for u in circle]
    rank = len(modulus_rows)
    if rank >= 2:
        if None in logs:
            return MultClosure(directions=_PLANE)
        angles = [_angle_pi12(v) for v in values]
        if None in angles:
            return MultClosure(False, _PLANE, evidence={"reason": _FOUR_EXPONENTIALS})
        return MultClosure(directions=(_S_AXIS,), lattice=(_ray(gcd(24, *angles)),))
    if rank == 0:
        if None in logs:
            return MultClosure(directions=(_T_AXIS,))
        return MultClosure(lattice=(ZETA_POWERS[gcd(12, *logs) % 12],))
    generator = _word(values, modulus_rows[0][width:])
    if (generator.abs_sq() - 1).sign() < 0:
        generator = generator.inverse()
    if None in logs:
        return MultClosure(directions=(_T_AXIS,), lattice=(generator,))
    g = gcd(12, *logs)
    a = _angle_pi12(generator)
    if a is not None:
        generator = generator * ZETA_POWERS[(-g * (a // (2 * g))) % 12]
    return MultClosure(lattice=(generator, ZETA_POWERS[g % 12]))


def _classify_mult_by_relations(ratios: Sequence) -> MultClosure:
    """The closure of Lambda read off the closure V + L of its log-polar
    image w -> (log|w|, arg w / 2pi), with (0, 1) added for the turn, by the
    relation routine of the additive side, in the form the exact path gives
    each shape.  V's basis is in row echelon form, so its pivot tells the
    coordinate axes from other lines; L of rank 1 next to V = 0 or the
    first axis is Z(0, 1/k)."""
    z = np.array([_as_complex(r) for r in ratios], dtype=np.complex128)
    r = np.abs(z)
    x = np.vstack([np.column_stack([np.log(r), np.angle(z) / math.tau]), [[0.0, 1.0]]])
    err = [(q.err if isinstance(q, Scalar) else 0.0) / m for q, m in zip(ratios, r)]
    directions, lattice, evidence = _closure_by_relations(x, np.array(err + [0.0]), "ratios")
    found = {"exact": False, "evidence": evidence}
    if len(directions) == 2:
        return MultClosure(directions=_PLANE, **found)
    if len(directions) == 1:
        a, b = directions[0]
        if a != 1.0:  # no pivot on the first coordinate: V = span(0, 1)
            rows = tuple((abs(row[0]), 0.0) for row in lattice)
            return MultClosure(directions=(_T_AXIS,), lattice=rows, **found)
        if abs(b) <= _RESIDUAL:
            return MultClosure(directions=(_S_AXIS,), lattice=(_root_row(lattice[0]),), **found)
        transversal = tuple(map(float, lattice[0]))
        return MultClosure(directions=((1.0, float(b)),), lattice=(transversal,), **found)
    if len(lattice) == 1:
        return MultClosure(lattice=(_root_row(lattice[0]),), **found)
    # (0, 1) = c1 l1 + c2 l2, so (0, 1/k) with k = gcd(c1, c2) spans L meet
    # {0} x R, and u1 l1 + u2 l2 with u2 c1 - u1 c2 = k completes it
    c1, c2 = (int(c) for c in np.round(np.linalg.solve(lattice.T, [0.0, 1.0])))
    k = gcd(c1, c2)
    p, q = c1 // k, c2 // k
    u2 = pow(p, -1, abs(q)) if q else p
    u1 = (u2 * p - 1) // q if q else 0
    a, b = u1 * lattice[0] + u2 * lattice[1]
    if a < 0:
        a, b = -a, -b
    # the argument reduced into [0, 2pi/k), to 0 when it is a multiple of
    # 2pi/k within the relations' precision, as the exact path reduces it
    b = 0.0 if abs(b * k - round(b * k)) <= _RESIDUAL else b % (1 / k)
    return MultClosure(lattice=((a, b), (0.0, 1 / k)), **found)


def _root_row(row) -> Tuple[float, float]:
    """(0, 1/k) for a row (s, t) of L on the t-axis, k = round(1/|t|)."""
    return 0.0, 1 / round(1 / abs(row[1]))
