"""Affine homotheties of C^n and small vector utilities.

A homothety is stored in linear form z -> ratio * z + shift.  The center
form (a, ratio) with fixed point a satisfies shift = (1 - ratio) * a and is
derived on demand.  Maps with ratio 1 are translations; the identity counts
as a translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .exact_algebra import SCALAR_ONE, SCALAR_ZERO, Scalar, Trilean

Point = Tuple[Scalar, ...]


def as_point(values: Iterable) -> Point:
    out = []
    for v in values:
        out.append(v if isinstance(v, Scalar) else Scalar._coerce(v))
    return tuple(out)


def zero_point(dim: int) -> Point:
    return tuple(SCALAR_ZERO for _ in range(dim))


def v_add(u: Point, v: Point) -> Point:
    return tuple(a + b for a, b in zip(u, v))


def v_sub(u: Point, v: Point) -> Point:
    return tuple(a - b for a, b in zip(u, v))


def v_scale(s: Scalar, u: Point) -> Point:
    return tuple(s * a for a in u)


def v_is_zero(u: Point) -> Trilean:
    out = Trilean.YES
    for a in u:
        out = out.both(a.eq_zero())
    return out


def v_exact(u: Point) -> bool:
    return all(a.is_exact for a in u)


def v_to_complex(u: Point) -> Tuple[complex, ...]:
    return tuple(a.to_complex() for a in u)


def hermitian_dot(u: Point, v: Point) -> Scalar:
    out = SCALAR_ZERO
    for a, b in zip(u, v):
        out = out + a * b.conj()
    return out


@dataclass(frozen=True)
class Homothety:
    """z -> ratio * z + shift on C^n."""

    ratio: Scalar
    shift: Point

    def __post_init__(self):
        object.__setattr__(self, "shift", as_point(self.shift))
        if not isinstance(self.ratio, Scalar):
            object.__setattr__(self, "ratio", Scalar._coerce(self.ratio))

    @property
    def dim(self) -> int:
        return len(self.shift)

    @property
    def is_exact(self) -> bool:
        return self.ratio.is_exact and v_exact(self.shift)

    @staticmethod
    def with_center(ratio, center) -> "Homothety":
        ratio = ratio if isinstance(ratio, Scalar) else Scalar._coerce(ratio)
        center = as_point(center)
        shift = v_scale(SCALAR_ONE - ratio, center)
        return Homothety(ratio, shift)

    @staticmethod
    def translation(vector) -> "Homothety":
        return Homothety(SCALAR_ONE, as_point(vector))

    @staticmethod
    def identity(dim: int) -> "Homothety":
        return Homothety(SCALAR_ONE, zero_point(dim))

    @staticmethod
    def scaling(ratio, dim: int) -> "Homothety":
        return Homothety.with_center(ratio, zero_point(dim))

    def apply(self, z: Point) -> Point:
        return tuple(self.ratio * c + s for c, s in zip(z, self.shift))

    def compose(self, other: "Homothety") -> "Homothety":
        """self after other: (self o other)(z) = self(other(z))."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Homothety(
            self.ratio * other.ratio,
            tuple(self.ratio * s + t for s, t in zip(other.shift, self.shift)),
        )

    def inverse(self) -> "Homothety":
        inv = self.ratio.inverse()
        return Homothety(inv, tuple(-(inv * s) for s in self.shift))

    def is_translation(self) -> Trilean:
        return self.ratio.eq(SCALAR_ONE)

    def center(self) -> Point:
        """Fixed point; defined only when ratio != 1."""
        t = self.is_translation()
        if t is not Trilean.NO:
            raise ValueError("translations have no center")
        inv = (SCALAR_ONE - self.ratio).inverse()
        return v_scale(inv, self.shift)

    def commutator(self, other: "Homothety") -> Point:
        """Translation vector of self o other o self^-1 o other^-1,
        which equals (ratio_self - 1) * shift_other + (1 - ratio_other) * shift_self."""
        lam, mu = self.ratio, other.ratio
        return v_add(
            v_scale(lam - SCALAR_ONE, other.shift),
            v_scale(SCALAR_ONE - mu, self.shift),
        )

    def commutes(self, other: "Homothety") -> Trilean:
        return v_is_zero(self.commutator(other))


# ---------------------------------------------------------------------------
# Gaussian elimination over Scalar entries (exact field operations when all
# entries are exact; otherwise error-radius-aware float pivoting).


def _pivot_ok(s: Scalar, eps: float) -> bool:
    if s.is_exact:
        return not s.exact_value.is_zero()
    return abs(s.to_complex()) > max(s.err * 4.0, eps)


def scalar_columns_solve(
    cols: Sequence[Point], target: Point, eps: float = 1e-12
) -> Optional[List[Scalar]]:
    """Solve sum_j x_j cols[j] = target over scalars; None when inconsistent."""
    m = len(cols)
    n = len(target)
    aug = [[cols[j][i] for j in range(m)] + [target[i]] for i in range(n)]
    pivots: List[Tuple[int, int]] = []
    row = 0
    for col in range(m):
        best = None
        for r in range(row, n):
            if _pivot_ok(aug[r][col], eps):
                if best is None or abs(aug[r][col].to_complex()) > abs(
                    aug[best][col].to_complex()
                ):
                    best = r
                    if aug[r][col].is_exact:
                        break
        if best is None:
            continue
        aug[row], aug[best] = aug[best], aug[row]
        inv = aug[row][col].inverse()
        aug[row] = [x * inv for x in aug[row]]
        for r in range(n):
            if r != row:
                f = aug[r][col]
                if _pivot_ok(f, 0.0):
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == n:
            break
    # consistency: rows without pivot must have ~zero RHS
    pivot_rows = {r for r, _ in pivots}
    for r in range(n):
        if r not in pivot_rows:
            rhs = aug[r][m]
            if rhs.is_exact:
                if not rhs.exact_value.is_zero():
                    return None
            elif abs(rhs.to_complex()) > max(rhs.err * 4.0, eps):
                return None
    sol: List[Scalar] = [SCALAR_ZERO] * m
    for r, c in pivots:
        sol[c] = aug[r][m]
    return sol
