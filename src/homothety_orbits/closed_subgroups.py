"""Closed-subgroup classification in the plane and in C*.

Additive side: the closure of a finitely generated subgroup of R^2 whose
generators have coordinates in Q(sqrt(3)) is decided exactly.  Generators
are lifted to Q^4 through the basis {1, sqrt(3)} per axis; a Hermite normal
form gives the abstract Z-rank, and Kronecker duality (the closure is the
annihilator of the dual group D = {phi : phi.v in Z for all generators v})
reduces the classification to integer kernels of small rational systems.

Multiplicative side: the closure of a subgroup of C* generated by exact
ratios (elements of Q(zeta12)) is read through the log-polar map, from the
exponent vectors of the squared moduli over the primes and the unit of
Z[sqrt(3)] and the arguments in units of pi/12.  It is decided exactly
except in one case of four-exponentials type, which is reported as such.
Approximate ratios fall back to a numeric heuristic and are flagged.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .lattices import (
    field_nullspace,
    field_rank,
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
    format_scalar,
    widen,
)


# the field_* eliminations over Q(zeta): is_zero, zero, one
_CYCLO_FIELD = (CycloScalar.is_zero, CYCLO_ZERO, CYCLO_ONE)


def _planar_rank(vectors: Sequence[CycloScalar]) -> int:
    """Rank over Q(sqrt3) of the vectors (re v, im v), the same as over Q(zeta)."""
    return field_rank([[v.real_part(), v.imag_part()] for v in vectors], *_CYCLO_FIELD)


def _lift_rows(values: Sequence[CycloScalar]) -> Tuple[List[List[int]], int]:
    """Planar lifts of exact values as integer rows over their least common
    denominator."""
    lifts = [v.planar_lift() for v in values]
    den = lcm(*(d for _, d in lifts))
    rows = [[x * (den // d) for x in nums] for nums, d in lifts]
    g = gcd(den, *(x for row in rows for x in row))
    return [[x // g for x in row] for row in rows], den // g


def _lattice_basis(values: Sequence[CycloScalar]) -> List[CycloScalar]:
    """Z-basis (the HNF of the planar lifts) of the group the values generate."""
    rows, den = _lift_rows(values)
    return [CycloScalar.from_planar_lift(row, den) for row in hnf(rows)]


def _fmt_rq(a: int, b: int, den: int) -> str:
    p, q = Fraction(a, den), Fraction(b, den)
    return str(p) if q == 0 else f"{p}+{q}*sqrt3"


def _fmt_planar(v: CycloScalar) -> str:
    (x0, x1, y0, y1), den = v.planar_lift()
    return f"[{_fmt_rq(x0, x1, den)}, {_fmt_rq(y0, y1, den)}]"


# ---------------------------------------------------------------------------
# additive closures
#
# A planar vector x + iy is an exact CycloScalar.  Exact membership reads
# vectors through their planar lifts to Q^4 as integer numerators over one
# denominator each, v = (x0 + x1*sqrt3, y0 + y1*sqrt3) / den, against
# integer data of the closure computed once per closure object:
# `contains_lifts` tests an (N, 4) numerator array and an (N,) denominator
# array at once, and `contains` of an exact value is its one-row case.  The
# arrays are int64 or Python ints; int64 ones widen first (`widen`) when a
# bound on every product of the test reaches INT64_SAFE.  `distance_many`
# takes a 1-d complex array and `distance` is its one-point case; it is
# real arithmetic with np.hypot for lengths, so both give the same floats.


@dataclass(frozen=True)
class AdditiveClosure:
    shape: str
    exact: bool
    evidence: Optional[dict] = None

    def contains(self, v, eps: float = 1e-9) -> bool:
        x = _exact_cyclo(v) if self.exact else None
        if x is not None:
            nums, den = x.planar_lift()
            one = self.contains_lifts(np.array([nums], dtype=object), np.array([den], dtype=object))
            return bool(one[0])
        return self.distance(v) <= eps

    def contains_lifts(self, nums: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Exact membership, row by row, of the vectors
        (x0 + x1*sqrt3, y0 + y1*sqrt3) / den with (x0, x1, y0, y1) a row of
        the (N, 4) integer array `nums` and den > 0 an entry of `den`."""
        raise NotImplementedError

    def distance_many(self, v: np.ndarray) -> np.ndarray:
        """Distances to the closure from a 1-d array of complex numbers."""
        raise NotImplementedError

    def distance(self, v) -> float:
        return float(self.distance_many(np.array([_as_complex(v)], dtype=np.complex128))[0])

    def is_discrete(self) -> Trilean:
        if not self.exact:
            return Trilean.UNKNOWN
        return Trilean.of(self.shape in ("Zero", "Lattice1", "Lattice2"))

    def is_whole_plane(self) -> Trilean:
        if not self.exact:
            return Trilean.UNKNOWN
        return Trilean.of(self.shape == "Plane")

    def to_report(self) -> dict:
        out = {"shape": self.shape, "exact": self.exact}
        if self.evidence:
            out["evidence"] = self.evidence
        return out


def _exact_cyclo(v) -> Optional[CycloScalar]:
    if isinstance(v, Scalar):
        return v.exact_value if v.is_exact else None
    return v if isinstance(v, CycloScalar) else None


def _as_complex(v) -> complex:
    if isinstance(v, (Scalar, CycloScalar)):
        return v.to_complex()
    return complex(v)


@dataclass(frozen=True)
class ZeroGroup(AdditiveClosure):
    shape: str = "Zero"
    exact: bool = True

    def contains_lifts(self, nums: np.ndarray, den: np.ndarray) -> np.ndarray:
        return np.all(nums == 0, axis=1)

    def distance_many(self, v: np.ndarray) -> np.ndarray:
        return np.hypot(v.real, v.imag)


class _LatticeClosure(AdditiveClosure):
    """Lattice1 and Lattice2: exact membership solves against the integer
    HNF of the lifted basis."""

    def _basis_vectors(self) -> Tuple[CycloScalar, ...]:
        raise NotImplementedError

    @cached_property
    def _hnf(self) -> Tuple[List[List[int]], int]:
        """(rows, D): the lifted lattice is the Z-span of rows / D."""
        rows, den = _lift_rows(self._basis_vectors())
        return hnf(rows), den

    def contains_lifts(self, nums: np.ndarray, den: np.ndarray) -> np.ndarray:
        rows, scale = self._hnf
        # each elimination grows the target's entries by a factor of at
        # most 1 + the largest HNF entry
        growth = 1 + max(abs(x) for row in rows for x in row)
        nums, den = widen(scale * growth ** len(rows), nums, den)
        # the target, the lift over the basis denominator, must be integral
        t = nums * scale
        member = np.all(t % den[:, None] == 0, axis=1)
        t //= den[:, None]
        # back substitution against the HNF, all rows at once: later rows
        # are zero in a row's pivot column, so a remainder left there stays
        for row in rows:
            c = next(i for i, x in enumerate(row) if x)
            t -= (t[:, c] // row[c])[:, None] * np.array(row, dtype=t.dtype)
        return member & np.all(t == 0, axis=1)


@dataclass(frozen=True)
class Lattice1(_LatticeClosure):
    generator: CycloScalar = None
    shape: str = "Lattice1"
    exact: bool = True

    def _basis_vectors(self) -> Tuple[CycloScalar, ...]:
        return (self.generator,)

    @cached_property
    def _floats(self) -> Tuple[complex, float]:
        g = self.generator.to_complex()
        return g, abs(g) ** 2

    def distance_many(self, v: np.ndarray) -> np.ndarray:
        g, norm_sq = self._floats
        n = np.round((v.real * g.real + v.imag * g.imag) / norm_sq)
        return np.hypot(v.real - n * g.real, v.imag - n * g.imag)

    def to_report(self) -> dict:
        out = super().to_report()
        out["generator"] = _fmt_planar(self.generator)
        out["generator_value"] = _c2l(self.generator.to_complex())
        return out


@dataclass(frozen=True)
class Lattice2(_LatticeClosure):
    basis: Tuple[CycloScalar, CycloScalar] = None
    shape: str = "Lattice2"
    exact: bool = True

    def _basis_vectors(self) -> Tuple[CycloScalar, ...]:
        return self.basis

    @cached_property
    def _floats(self) -> Tuple[complex, complex, float]:
        """The basis after an exact Gauss reduction (|b1| <= |b2| and
        |b1.b2| <= |b1|^2 / 2), as floats, and its determinant.  The stored
        basis is an HNF and can be long and thin; for a reduced basis the
        nearest lattice point to v is a corner of the basis cell holding v."""
        b1, b2 = self.basis
        if (b1.abs_sq() - b2.abs_sq()).sign() > 0:
            b1, b2 = b2, b1
        while True:
            # the pairing b1.b2 is re(b1 * conj b2)
            m = round((b1 * b2.conj()).to_complex().real / b1.abs_sq().to_complex().real)
            b2 = b2 - m * b1
            if (b2.abs_sq() - b1.abs_sq()).sign() >= 0:
                break
            b1, b2 = b2, b1
        c1, c2 = b1.to_complex(), b2.to_complex()
        return c1, c2, c1.real * c2.imag - c1.imag * c2.real

    def distance_many(self, v: np.ndarray) -> np.ndarray:
        b1, b2, det = self._floats
        s = (v.real * b2.imag - v.imag * b2.real) / det
        t = (b1.real * v.imag - b1.imag * v.real) / det
        best = np.full(v.shape, np.inf)
        for ds in (np.floor(s), np.ceil(s)):
            for dt in (np.floor(t), np.ceil(t)):
                dx = v.real - ds * b1.real - dt * b2.real
                dy = v.imag - ds * b1.imag - dt * b2.imag
                best = np.minimum(best, np.hypot(dx, dy))
        return best

    def shortest_vector(self) -> float:
        """Length of a shortest nonzero vector: the first reduced one."""
        return abs(self._floats[0])

    def to_report(self) -> dict:
        out = super().to_report()
        out["basis"] = [_fmt_planar(b) for b in self.basis]
        out["basis_values"] = [_c2l(b.to_complex()) for b in self.basis]
        return out


@dataclass(frozen=True)
class LineDense(AdditiveClosure):
    direction: CycloScalar = None
    shape: str = "LineDense"
    exact: bool = True

    @cached_property
    def _direction_lift(self) -> Tuple[int, int, int, int]:
        return self.direction.planar_lift()[0]

    @cached_property
    def _unit(self) -> complex:
        u = self.direction.to_complex()
        return u / abs(u)

    def contains_lifts(self, nums: np.ndarray, den: np.ndarray) -> np.ndarray:
        # v parallel to the direction: v.x * dir.y == v.y * dir.x in Q(sqrt3)
        p, q, r, s = self._direction_lift
        nums, den = widen(4 * max(map(abs, self._direction_lift)), nums, den)
        a, b, c, e = nums.T
        return (a * r + 3 * b * s == c * p + 3 * e * q) & (a * s + b * r == c * q + e * p)

    def distance_many(self, v: np.ndarray) -> np.ndarray:
        u = self._unit
        t = v.real * u.real + v.imag * u.imag
        return np.hypot(v.real - t * u.real, v.imag - t * u.imag)

    def to_report(self) -> dict:
        out = super().to_report()
        out["direction"] = _fmt_planar(self.direction)
        out["direction_value"] = _c2l(self.direction.to_complex())
        return out


@dataclass(frozen=True)
class LineLattice(AdditiveClosure):
    """All x with dual.x in Z: a line of direction `direction` plus integer
    steps of `transversal`."""

    direction: CycloScalar = None
    transversal: CycloScalar = None
    dual: CycloScalar = None
    shape: str = "LineLattice"
    exact: bool = True

    @cached_property
    def _dual_lift(self) -> Tuple[Tuple[int, int, int, int], int]:
        return self.dual.planar_lift()

    @cached_property
    def _dual_floats(self) -> Tuple[complex, float]:
        d = self.dual.to_complex()
        return d, abs(d)

    def contains_lifts(self, nums: np.ndarray, den: np.ndarray) -> np.ndarray:
        # the pairing v.dual lies in Z: no sqrt3 part, integral rational part
        (p, q, r, s), scale = self._dual_lift
        nums, den = widen(max(8 * max(map(abs, (p, q, r, s))), scale), nums, den)
        a, b, c, e = nums.T
        return (a * q + b * p + c * s + e * r == 0) & (
            (a * p + 3 * b * q + c * r + 3 * e * s) % (den * scale) == 0
        )

    def distance_many(self, v: np.ndarray) -> np.ndarray:
        d, norm = self._dual_floats
        pairing = v.real * d.real + v.imag * d.imag
        return np.abs(pairing - np.round(pairing)) / norm

    def to_report(self) -> dict:
        out = super().to_report()
        out["direction"] = _fmt_planar(self.direction)
        out["transversal"] = _fmt_planar(self.transversal)
        out["direction_value"] = _c2l(self.direction.to_complex())
        out["transversal_value"] = _c2l(self.transversal.to_complex())
        return out


@dataclass(frozen=True)
class PlaneGroup(AdditiveClosure):
    shape: str = "Plane"
    exact: bool = True

    def contains_lifts(self, nums: np.ndarray, den: np.ndarray) -> np.ndarray:
        return np.ones(nums.shape[0], dtype=bool)

    def distance_many(self, v: np.ndarray) -> np.ndarray:
        return np.zeros(v.shape)


def _c2l(z: complex) -> List[float]:
    return [z.real, z.imag]


def classify_additive_closure(vectors: Sequence) -> AdditiveClosure:
    """Closure of the subgroup of R^2 generated by the given vectors.

    Exact when every vector has coordinates in Q(sqrt(3)); otherwise a
    numeric heuristic runs and the result carries exact=False.
    """
    planar = [_exact_cyclo(v) for v in vectors]
    if None in planar:
        return _classify_additive_heuristic([_as_complex(v) for v in vectors])
    gens = [p for p in planar if not p.is_zero()]
    if not gens:
        return ZeroGroup()
    d = _planar_rank(gens)
    basis = _lattice_basis(gens)
    t = len(basis)
    if t == d:
        if d == 1:
            return Lattice1(generator=basis[0])
        return Lattice2(basis=(basis[0], basis[1]))
    if d == 1:
        re = gens[0].real_part()
        return LineDense(direction=CYCLO_I if re.is_zero() else gens[0] / re)
    # d == 2 with extra abstract rank: compute the dual group D from the
    # 2 x t matrix of the basis coordinates, over Q(sqrt3)
    cols = [[w.real_part() for w in basis], [w.imag_part() for w in basis]]
    left_kernel = field_nullspace(cols, *_CYCLO_FIELD)
    int_rows: List[List[int]] = []
    for c in left_kernel:
        lifts, _ = _lift_rows(c)
        int_rows += [[x[0] for x in lifts], [x[1] for x in lifts]]
    int_rows = [r for r in int_rows if any(r)]
    if int_rows:
        m_basis = integer_kernel(int_rows)
    else:
        m_basis = [[1 if i == j else 0 for j in range(t)] for i in range(t)]
    m_basis = [row for row in m_basis if any(row)]
    if not m_basis:
        return PlaneGroup()
    duals: List[CycloScalar] = []
    for k in m_basis:
        target = [CycloScalar.from_int(x) for x in k]
        phi = field_solve(cols, target, *_CYCLO_FIELD)
        if phi is None:
            raise AssertionError("dual system inconsistent")
        duals.append(phi[0] + CYCLO_I * phi[1])
    dual_basis = _lattice_basis(duals)
    rank_d = _planar_rank(duals)
    if len(dual_basis) != rank_d:
        raise AssertionError("dual group of a closed subgroup must be discrete")
    if rank_d == 0:
        return PlaneGroup()
    if rank_d == 2:
        raise AssertionError("rank-2 dual with dense directions is impossible")
    g = dual_basis[0]
    transversal = g / g.abs_sq()
    direction = CYCLO_I * g  # g turned by a quarter
    re = direction.real_part()
    if (direction.imag_part() if re.is_zero() else re).sign() < 0:
        direction = -direction
    return LineLattice(direction=direction, transversal=transversal, dual=g)


def _classify_additive_heuristic(values: List[complex]) -> AdditiveClosure:
    """Numeric best effort for generators without exact coordinates.

    Rank-1 case: rational-dependence test on length ratios (denominator
    cap 10^4, residual 1e-9).  Rank-2 case: incremental basis reduction;
    spillover to a third independent short vector marks the group as
    non-discrete, and a grid-fill statistic separates Plane from the
    line-shaped closures.
    """
    vals = [v for v in values if abs(v) > 1e-13]
    ev: Dict[str, object] = {"path": "heuristic"}
    if not vals:
        return ZeroGroup(exact=False, evidence=ev)
    best = max(vals, key=abs)
    dim = 1
    for v in vals:
        cross = abs(v.real * best.imag - v.imag * best.real)
        if cross > 1e-10 * (abs(v) + abs(best)) ** 2:
            dim = 2
            break
    if dim == 1:
        u = best / abs(best)
        lengths = [v.real * u.real + v.imag * u.imag for v in vals]
        ratios = []
        rational = True
        for c in lengths:
            r = c / lengths[0]
            fr = Fraction(r).limit_denominator(10**4)
            if abs(float(fr) - r) > 1e-9 * (1 + abs(r)):
                rational = False
                break
            ratios.append(fr)
        ev["ratio_test"] = "rational" if rational else "irrational"
        if rational:
            num_gcd = gcd(*(abs(f.numerator) for f in ratios)) if len(ratios) > 1 else abs(ratios[0].numerator)
            den_lcm = 1
            for f in ratios:
                den_lcm = den_lcm * f.denominator // gcd(den_lcm, f.denominator)
            g = lengths[0] * num_gcd / den_lcm
            return Lattice1(generator=_planar_float(g * u), exact=False, evidence=ev)
        return LineDense(direction=_planar_float(u), exact=False, evidence=ev)
    basis, discrete = _reduce_basis_2d(vals)
    ev["reduced_rank"] = len(basis)
    if discrete:
        if len(basis) == 1:
            return Lattice1(generator=_planar_float(basis[0]), exact=False, evidence=ev)
        return Lattice2(
            basis=(_planar_float(basis[0]), _planar_float(basis[1])),
            exact=False,
            evidence=ev,
        )
    sums = _bounded_combinations(vals, span=7)
    fill = _grid_fill(sums)
    ev["grid_fill"] = fill
    if fill >= 0.5:
        return PlaneGroup(exact=False, evidence=ev)
    # concentrate along the direction of the shortest accumulating element
    small = min((s for s in sums if abs(s) > 1e-12), key=abs)
    u = small / abs(small)
    perp = [s.imag * u.real - s.real * u.imag for s in sums]
    offsets = sorted({round(p, 7) for p in perp})
    nonzero = [o for o in offsets if abs(o) > 1e-7]
    if not nonzero:
        return LineDense(direction=_planar_float(u), exact=False, evidence=ev)
    step = min(abs(o) for o in nonzero)
    if all(abs(o / step - round(o / step)) < 1e-6 for o in nonzero):
        t = complex(-u.imag, u.real) * step
        return LineLattice(
            direction=_planar_float(u),
            transversal=_planar_float(t),
            dual=_planar_float(t / step**2),
            exact=False,
            evidence=ev,
        )
    return PlaneGroup(exact=False, evidence=ev)


def _reduce_basis_2d(vals: List[complex]) -> Tuple[List[complex], bool]:
    """Greedy integer reduction of plane vectors; (basis, still_discrete)."""
    tol = 1e-9
    basis: List[complex] = []
    for v in sorted(vals, key=abs):
        r = v
        for _ in range(60):
            changed = False
            if len(basis) == 2:
                b1, b2 = basis
                det = b1.real * b2.imag - b1.imag * b2.real
                if abs(det) > 1e-15:
                    s = (r.real * b2.imag - r.imag * b2.real) / det
                    t = (b1.real * r.imag - b1.imag * r.real) / det
                    if round(s) or round(t):
                        r -= round(s) * b1 + round(t) * b2
                        changed = True
            for b in basis:
                n = round((r.real * b.real + r.imag * b.imag) / abs(b) ** 2)
                if n:
                    r -= n * b
                    changed = True
            if not changed:
                break
        if abs(r) > tol * (1 + abs(v)):
            basis.append(r)
            basis.sort(key=abs)
            if len(basis) > 2:
                return basis, False
    return basis, True


def _planar_float(z: complex) -> CycloScalar:
    return CycloScalar.gauss(
        Fraction(z.real).limit_denominator(10**12),
        Fraction(z.imag).limit_denominator(10**12),
    )


def _bounded_combinations(vals: List[complex], span: int) -> List[complex]:
    sums = [0j]
    for v in vals[:4]:
        sums = [s + k * v for s in sums for k in range(-span, span + 1)]
        if len(sums) > 60000:
            sums = sums[:60000]
    return sums


def _grid_fill(sums: List[complex], half: float = 3.0, res: int = 24) -> float:
    cells = set()
    for s in sums:
        if abs(s.real) <= half and abs(s.imag) <= half:
            # a point on the upper edge belongs to the last cell
            cells.add(
                (
                    min(int((s.real + half) / (2 * half) * res), res - 1),
                    min(int((s.imag + half) / (2 * half) * res), res - 1),
                )
            )
    return len(cells) / res**2


# ---------------------------------------------------------------------------
# multiplicative closures
#
# Exact ratios lie in Q(zeta)*, and a closure is read through the log-polar
# map w -> (log|w|, arg w).  The squared modulus |w|^2 is a positive element
# of Q(sqrt3), recorded by its exponent vector: one valuation per prime of
# Z[sqrt3] (a Euclidean domain) and, last, the exponent of the unit 2+sqrt3.
# The argument is a multiple of pi/12 exactly when (w / conj w)^12 = 1, since
# the roots of unity of Q(zeta) are the 12th roots; otherwise arg w / pi is
# irrational.  `distance_many` takes a complex array and `distance` is its
# one-point case; exact membership of an exact value never reads a float.


@dataclass(frozen=True)
class MultClosure:
    shape: str
    exact: bool
    includes_zero: bool
    evidence: Optional[dict] = None

    def contains(self, w, eps: float = 1e-9) -> bool:
        x = _exact_cyclo(w) if self.exact else None
        if x is not None:
            return self.includes_zero if x.is_zero() else self._member(x)
        return self.distance(w) <= eps

    def _member(self, w: CycloScalar) -> bool:
        """Exact membership of a nonzero exact value."""
        raise NotImplementedError

    def distance_many(self, xi: np.ndarray) -> np.ndarray:
        """Distances to the closure from a 1-d array of complex numbers."""
        raise NotImplementedError

    def distance(self, w) -> float:
        return float(self.distance_many(np.array([_as_complex(w)], dtype=np.complex128))[0])

    def is_whole_plane(self) -> Trilean:
        return Trilean.NO if self.exact else Trilean.UNKNOWN

    def to_report(self) -> dict:
        out = {
            "shape": self.shape,
            "exact": self.exact,
            "includes_zero": self.includes_zero,
        }
        if self.evidence:
            out["evidence"] = self.evidence
        return out


@dataclass(frozen=True)
class FiniteCyclic(MultClosure):
    order: int = 1
    generator_log: int = 0  # generator is zeta^generator_log
    shape: str = "FiniteCyclic"
    exact: bool = True
    includes_zero: bool = False

    def elements(self) -> List[complex]:
        return [
            ZETA_POWERS[(self.generator_log * j) % 12].to_complex()
            for j in range(self.order)
        ]

    def _member(self, w: CycloScalar) -> bool:
        k = w.root_of_unity_log()
        return k is not None and k % gcd(self.generator_log or 12, 12) == 0

    @cached_property
    def _element_array(self) -> np.ndarray:
        return np.array(self.elements(), dtype=np.complex128)

    def distance_many(self, xi: np.ndarray) -> np.ndarray:
        d = xi[:, None] - self._element_array[None, :]
        return np.hypot(d.real, d.imag).min(axis=1)

    def to_report(self) -> dict:
        out = super().to_report()
        out["order"] = self.order
        out["generator"] = f"zeta12^{self.generator_log}"
        return out


@dataclass(frozen=True)
class RaysDiscrete(MultClosure):
    """The discrete closure {0} u generator^Z * <zeta^root_step>.

    `generator` has modulus > 1 and generates the moduli of the group; when
    its argument is a multiple of pi/12 it is reduced into [0, root_step*pi/6).
    The argument may be irrational (a discrete spiral): membership of w goes
    through the exponent vectors, |w|^2 = |generator|^(2m), and the test
    w * generator^(-m) in <zeta^root_step>."""

    generator: CycloScalar = None
    root_step: int = 12
    shape: str = "RaysDiscrete"
    exact: bool = True
    includes_zero: bool = True

    @property
    def modulus_base_sq(self) -> CycloScalar:
        return self.generator.abs_sq()

    @cached_property
    def _modulus_basis(self):
        return _exponent_basis(self.modulus_base_sq)

    @property
    def modulus_base(self) -> float:
        return math.sqrt(self.modulus_base_sq.to_complex().real)

    @cached_property
    def angle_log(self) -> Optional[int]:
        """arg generator in units of pi/12, or None when it is irrational."""
        return _angle_pi12(self.generator)

    @property
    def angle_order(self) -> Optional[int]:
        if self.angle_log is None:
            return None
        return 24 // gcd(24, self.angle_log, 2 * self.root_step)

    @property
    def hnf_rows(self) -> Optional[Tuple[Tuple[int, int], Tuple[int, int]]]:
        """HNF over Z x Z/24 of the (modulus exponent, argument in pi/12)
        pairs of the group, or None when the argument is irrational."""
        if self.angle_log is None:
            return None
        return ((1, self.angle_log), (0, 2 * self.root_step))

    def _member(self, w: CycloScalar) -> bool:
        m = _modulus_multiple(w, self._modulus_basis)
        if m is None:
            return False
        k = (w * self.generator ** (-m)).root_of_unity_log()
        return k is not None and k % self.root_step == 0

    @cached_property
    def _floats(self) -> Tuple[float, float, float]:
        g = self.generator.to_complex()
        return abs(g), math.atan2(g.imag, g.real), math.tau * self.root_step / 12

    def distance_many(self, xi: np.ndarray) -> np.ndarray:
        """The nearest of 0 and the points on the circles |w| = rho^m.

        The circles are scanned outward and inward from |w| while the
        radial gap to the next one is below the best distance so far; inner
        circles of radius below 1e-12 |w| are skipped, which can only move
        a distance by that much."""
        rho, theta, step = self._floats
        r = np.hypot(xi.real, xi.imag)
        best = r.copy()  # 0 is a member
        phase = np.arctan2(xi.imag, xi.real)
        live = r > 0
        m0 = np.floor(np.log(np.where(live, r, 1.0)) / math.log(rho))
        for m, outward in ((m0 + 1, True), (m0, False)):
            active = live
            while True:
                radius = rho ** m
                gap = radius - r if outward else r - radius
                active = active & (gap < best)
                if not outward:
                    active &= radius > 1e-12 * r
                if not active.any():
                    break
                idx = np.nonzero(active)[0]
                base = m[idx] * theta
                ang = base + np.round((phase[idx] - base) / step) * step
                d = np.hypot(
                    xi.real[idx] - radius[idx] * np.cos(ang),
                    xi.imag[idx] - radius[idx] * np.sin(ang),
                )
                best[idx] = np.minimum(best[idx], d)
                m = m + 1 if outward else m - 1
        return best

    def to_report(self) -> dict:
        out = super().to_report()
        out["modulus_ratio"] = self.modulus_base
        out["generator"] = format_scalar(Scalar(self.generator))
        if self.angle_log is not None:
            out["angle_order"] = self.angle_order
            out["coupling_hnf"] = [list(r) for r in self.hnf_rows]
        return out


@dataclass(frozen=True)
class Circles(MultClosure):
    """Full circles |w| = rho^m, m in Z, and 0, with rho^2 = modulus_base_sq;
    with no modulus_base_sq (every ratio of modulus 1) only the unit circle."""

    modulus_base_sq: Optional[CycloScalar] = None
    shape: str = "Circles"
    exact: bool = True
    includes_zero: bool = True

    @cached_property
    def _modulus_basis(self):
        return _exponent_basis(self.modulus_base_sq)

    def _member(self, w: CycloScalar) -> bool:
        if self.modulus_base_sq is None:
            return w.abs_sq() == CYCLO_ONE
        return _modulus_multiple(w, self._modulus_basis) is not None

    def distance_many(self, xi: np.ndarray) -> np.ndarray:
        r = np.hypot(xi.real, xi.imag)
        if self.modulus_base_sq is None:
            return np.abs(r - 1.0)
        rho = math.sqrt(self.modulus_base_sq.to_complex().real)
        live = r > 0
        inner = rho ** np.floor(np.log(np.where(live, r, 1.0)) / math.log(rho))
        d = np.minimum(np.abs(r - inner), np.abs(rho * inner - r))
        return np.where(live, d, 0.0)

    def to_report(self) -> dict:
        out = super().to_report()
        if self.modulus_base_sq is not None:
            out["modulus_ratio"] = math.sqrt(self.modulus_base_sq.to_complex().real)
        return out


@dataclass(frozen=True)
class RaysDense(MultClosure):
    """Union of full rays at the angles angle_step * j * pi/12, and 0."""

    angle_order: int = 1
    angle_step: int = 24
    shape: str = "RaysDense"
    exact: bool = True
    includes_zero: bool = True

    def _member(self, w: CycloScalar) -> bool:
        a = _angle_pi12(w)
        return a is not None and a % self.angle_step == 0

    @cached_property
    def _directions(self) -> np.ndarray:
        angles = np.arange(0, 24, self.angle_step) * (math.pi / 12)
        return np.cos(angles) + 1j * np.sin(angles)

    def distance_many(self, xi: np.ndarray) -> np.ndarray:
        u = self._directions[None, :]
        w = xi[:, None]
        t = w.real * u.real + w.imag * u.imag
        perp = np.hypot(w.real - t * u.real, w.imag - t * u.imag)
        r = np.hypot(xi.real, xi.imag)
        return np.minimum(r, np.where(t > 0, perp, np.inf).min(axis=1))

    def to_report(self) -> dict:
        out = super().to_report()
        out["angle_order"] = self.angle_order
        return out


@dataclass(frozen=True)
class WholePlane(MultClosure):
    """All of C.  With exact=False, shape "Unknown": a closure this
    classifier does not decide, described by its superset C, so that no
    orbit point is ever rejected."""

    shape: str = "Plane"
    exact: bool = True
    includes_zero: bool = True

    def _member(self, w: CycloScalar) -> bool:
        return True

    def distance_many(self, xi: np.ndarray) -> np.ndarray:
        return np.zeros(xi.shape[0])

    def is_whole_plane(self) -> Trilean:
        return Trilean.YES if self.exact else Trilean.UNKNOWN


@dataclass(frozen=True)
class HeuristicMult(MultClosure):
    """Evidence-based description; `dense_angles` records that sampled
    arguments equidistribute, not that the planar closure is all of C."""

    samples: Tuple[complex, ...] = ()
    shape: str = "Unknown"
    exact: bool = False
    includes_zero: bool = False

    @cached_property
    def _sample_array(self) -> np.ndarray:
        return np.array(self.samples, dtype=np.complex128)

    def distance_many(self, xi: np.ndarray) -> np.ndarray:
        best = np.hypot(xi.real, xi.imag) if self.includes_zero else np.full(xi.shape, np.inf)
        s = self._sample_array
        if s.size:
            # np.hypot, not np.abs: it is bit for bit the abs() of a complex;
            # queries go in blocks of about 2^20 differences
            block = max(1, 2**20 // s.size)
            for i in range(0, xi.shape[0], block):
                d = xi[i : i + block, None] - s[None, :]
                best[i : i + block] = np.minimum(
                    best[i : i + block], np.hypot(d.real, d.imag).min(axis=1)
                )
        return best

    def is_whole_plane(self) -> Trilean:
        if self.shape == "HeuristicDiscrete":
            return Trilean.NO
        return Trilean.UNKNOWN


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
      r = 0: FiniteCyclic, or the unit circle (Circles);
      r = 1: RaysDiscrete when K is torsion, else Circles;
      r >= 2: WholePlane when K is not torsion, RaysDense when every argument
      is a multiple of pi/12, and otherwise shape "Unknown" with exact=False
      and its reason: a four-exponentials question, described by the
      superset C.
    Approximate ratios go to a sampled heuristic with evidence.
    """
    values = [_exact_cyclo(r) for r in ratios]
    if any(v is None for v in values):
        return _classify_mult_heuristic(ratios)
    values = [v for v in values if v != CYCLO_ONE]
    moduli = [v.abs_sq() for v in values]
    primes = sorted({p for q in moduli for p in _prime_support(q)})
    width = len(primes) + 1
    rows = hnf(
        [
            _exponents(q, primes) + [int(i == j) for j in range(len(values))]
            for i, q in enumerate(moduli)
        ]
    )
    modulus_rows = [row for row in rows if any(row[:width])]
    circle = [_word(values, row[width:]) for row in rows if not any(row[:width])]
    logs = [u.root_of_unity_log() for u in circle]
    rank = len(modulus_rows)
    if rank >= 2:
        if None in logs:
            return WholePlane()
        angles = [_angle_pi12(v) for v in values]
        if None in angles:
            return WholePlane(shape="Unknown", exact=False, evidence={"reason": _FOUR_EXPONENTIALS})
        step = gcd(24, *angles)
        return RaysDense(angle_order=24 // step, angle_step=step)
    if rank == 0:
        if None in logs:
            return Circles(includes_zero=False)
        g = gcd(12, *logs)
        return FiniteCyclic(order=12 // g, generator_log=g % 12)
    generator = _word(values, modulus_rows[0][width:])
    if (generator.abs_sq() - 1).sign() < 0:
        generator = generator.inverse()
    if None in logs:
        return Circles(modulus_base_sq=generator.abs_sq())
    g = gcd(12, *logs)
    a = _angle_pi12(generator)
    if a is not None:
        generator = generator * ZETA_POWERS[(-g * (a // (2 * g))) % 12]
    return RaysDiscrete(generator=generator, root_step=g)


def _classify_mult_heuristic(ratios: Sequence) -> MultClosure:
    vals = [_as_complex(r) for r in ratios]
    vals = [v for v in vals if abs(v - 1.0) > 1e-15]
    if not vals:
        return FiniteCyclic(order=1, generator_log=0)
    samples = {1.0 + 0j}
    frontier = [1.0 + 0j]
    level = 0
    # deep levels are cheap for few generators and sharpen the angle
    # statistics; the sample cap bounds the many-generator blowup
    while frontier and level < 200 and len(samples) < 40000:
        level += 1
        nxt = []
        for s in frontier:
            for v in vals:
                for w in (s * v, s / v):
                    key = complex(round(w.real, 12), round(w.imag, 12))
                    if key not in samples and len(samples) < 40000:
                        samples.add(key)
                        nxt.append(w)
        frontier = nxt
    pts = sorted(samples, key=lambda z: (z.real, z.imag))
    angles = sorted((cmath.phase(z) % math.tau) / math.tau for z in pts)
    n = len(angles)
    disc = max(
        max(abs((i + 1) / n - a), abs(a - i / n)) for i, a in enumerate(angles)
    )
    logmods = sorted(math.log(abs(z)) for z in pts if abs(z) > 0)
    mod_spread = logmods[-1] - logmods[0] if logmods else 0.0
    includes_zero = any(abs(abs(v) - 1.0) > 1e-9 for v in vals)
    ev = {
        "path": "heuristic",
        "samples": len(pts),
        "angle_discrepancy": round(disc, 6),
        "log_modulus_spread": round(mod_spread, 6),
    }
    if disc < 0.05:
        return HeuristicMult(
            shape="HeuristicDense",
            includes_zero=includes_zero,
            evidence=ev,
            samples=tuple(pts),
        )
    # angles concentrate: check gap stability for discreteness evidence
    gaps = []
    for frac in (0.5, 1.0):
        sub = pts[: max(2, int(len(pts) * frac))]
        best = math.inf
        for i, a in enumerate(sub[: min(len(sub), 400)]):
            for b in sub[i + 1 : min(len(sub), 400)]:
                best = min(best, abs(a - b))
        gaps.append(best)
    ev["min_gap_trend"] = [round(g, 9) for g in gaps]
    if gaps[-1] > 1e-6 and abs(gaps[0] - gaps[-1]) < 1e-9:
        return HeuristicMult(
            shape="HeuristicDiscrete",
            includes_zero=includes_zero,
            evidence=ev,
            samples=tuple(pts),
        )
    return HeuristicMult(
        shape="Unknown", includes_zero=includes_zero, evidence=ev, samples=tuple(pts)
    )
