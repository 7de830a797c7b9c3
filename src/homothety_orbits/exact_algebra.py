"""Exact and approximate complex scalars.

Exact values live in the degree-4 cyclotomic field Q(zeta) with
zeta = exp(i*pi/6), minimal polynomial x^4 - x^2 + 1.  The field contains
i = zeta^3, sqrt(3) = 2*zeta - zeta^3, and every 4th and 6th root of unity,
which is all the algebraic structure the closure classification consumes.
A planar vector x + iy is one CycloScalar, and an element of the real
subfield Q(sqrt(3)) is a real one.
Values outside the field are carried as floats with a conservative error
radius, and every predicate on them is three-valued.

Arrays of exact values are integer numerator arrays, int64 while a bound
on every product the caller will form stays below INT64_SAFE and Python
ints (object arrays) past it.
"""

from __future__ import annotations

import math
import re as _regex
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Tuple, Union

import numpy as np

SQRT3 = math.sqrt(3.0)
_MACH_EPS = 2.220446049250313e-16
INT64_SAFE = 2 ** 62  # int64 numerator arrays widen to Python ints before products reach this


class UncertainZero(ArithmeticError):
    """An approximate value cannot be distinguished from zero."""


class UndecidableAtPrecision(ArithmeticError):
    """A predicate on approximate data cannot be resolved within its error radius."""


class Trilean(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    @staticmethod
    def of(flag: bool) -> "Trilean":
        return Trilean.YES if flag else Trilean.NO

    def both(self, other: "Trilean") -> "Trilean":
        if self is Trilean.NO or other is Trilean.NO:
            return Trilean.NO
        if self is Trilean.YES and other is Trilean.YES:
            return Trilean.YES
        return Trilean.UNKNOWN

    @property
    def definite(self) -> bool:
        return self is not Trilean.UNKNOWN


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


# Galois coefficient maps on the basis (1, zeta, zeta^2, zeta^3); the group
# (Z/12)* = {1, 5, 7, 11} with sigma_k(zeta) = zeta^k, sigma_11 = conjugation.
def _galois5(n):
    return (n[0] + n[2], -n[1], -n[2], n[1] + n[3])


def _galois7(n):
    return (n[0], -n[1], n[2], -n[3])


def _galois11(n):
    return (n[0] + n[2], n[1], -n[2], -n[1] - n[3])


class CycloScalar:
    """Element of Q(zeta) stored as four integer numerators over one
    positive denominator, kept in lowest terms."""

    __slots__ = ("_n", "_d")

    def __init__(self, n0=0, n1=0, n2=0, n3=0, d=1):
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            n0, n1, n2, n3, d = -n0, -n1, -n2, -n3, -d
        if d != 1:
            g = gcd(n0, n1, n2, n3, d)
            if g > 1:
                n0, n1, n2, n3, d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
        self._n = (n0, n1, n2, n3)
        self._d = d

    @classmethod
    def _raw(cls, n, d):
        """The value n / d in lowest terms, d nonzero; a denominator of 1
        needs no reduction."""
        obj = object.__new__(cls)
        if d < 0:
            n = (-n[0], -n[1], -n[2], -n[3])
            d = -d
        if d != 1:
            g = gcd(*n, d)
            if g > 1:
                n = (n[0] // g, n[1] // g, n[2] // g, n[3] // g)
                d //= g
        obj._n = n
        obj._d = d
        return obj

    @classmethod
    def from_fractions(cls, c0, c1=0, c2=0, c3=0) -> "CycloScalar":
        c = [_as_fraction(x) for x in (c0, c1, c2, c3)]
        d = 1
        for x in c:
            d = d * x.denominator // gcd(d, x.denominator)
        n = tuple(int(x * d) for x in c)
        return cls._raw(n, d)

    @classmethod
    def from_int(cls, k: int) -> "CycloScalar":
        return cls._raw((k, 0, 0, 0), 1)

    @classmethod
    def gauss(cls, re, im=0) -> "CycloScalar":
        """Gaussian rational re + im*i (i = zeta^3)."""
        return cls.from_fractions(re, 0, 0, im)

    @classmethod
    def zeta_power(cls, k: int) -> "CycloScalar":
        return ZETA_POWERS[k % 12]

    @classmethod
    def from_planar_lift(cls, nums: Sequence[int], den: int) -> "CycloScalar":
        """The inverse of `planar_lift`: (x0 + x1*sqrt3 + i*(y0 + y1*sqrt3)) / den."""
        x0, x1, y0, y1 = nums
        # sqrt(3) = 2*zeta - zeta^3 and i = zeta^3
        return cls._raw((x0 - y1, 2 * x1, 2 * y1, y0 - x1), den)

    @property
    def coeffs(self):
        d = self._d
        return tuple(Fraction(n, d) for n in self._n)

    @property
    def numerators(self) -> Tuple[Tuple[int, int, int, int], int]:
        """((n0, n1, n2, n3), d): the value is sum(n_k zeta^k) / d."""
        return self._n, self._d

    def _coerce(self, x):
        if isinstance(x, CycloScalar):
            return x
        if isinstance(x, int):
            return CycloScalar._raw((x, 0, 0, 0), 1)
        if isinstance(x, Fraction):
            return CycloScalar._raw((x.numerator, 0, 0, 0), x.denominator)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not CycloScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = other._n
        da, db = self._d, other._d
        if da == db:
            return CycloScalar._raw((a0 + b0, a1 + b1, a2 + b2, a3 + b3), da)
        return CycloScalar._raw(
            (a0 * db + b0 * da, a1 * db + b1 * da, a2 * db + b2 * da, a3 * db + b3 * da),
            da * db,
        )

    __radd__ = __add__

    def __neg__(self):
        n = self._n
        return CycloScalar._raw((-n[0], -n[1], -n[2], -n[3]), self._d)

    def __sub__(self, other):
        if type(other) is not CycloScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = other._n
        da, db = self._d, other._d
        if da == db:
            return CycloScalar._raw((a0 - b0, a1 - b1, a2 - b2, a3 - b3), da)
        return CycloScalar._raw(
            (a0 * db - b0 * da, a1 * db - b1 * da, a2 * db - b2 * da, a3 * db - b3 * da),
            da * db,
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not CycloScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = other._n
        # the product's coefficients of zeta^4, zeta^5, zeta^6, reduced with
        # zeta^4 = zeta^2 - 1, zeta^5 = zeta^3 - zeta, zeta^6 = -1
        p4 = a1 * b3 + a2 * b2 + a3 * b1
        p5 = a2 * b3 + a3 * b2
        return CycloScalar._raw(
            (a0 * b0 - p4 - a3 * b3,
             a0 * b1 + a1 * b0 - p5,
             a0 * b2 + a1 * b1 + a2 * b0 + p4,
             a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + p5),
            self._d * other._d,
        )

    __rmul__ = __mul__

    def galois(self, k: int) -> "CycloScalar":
        if k % 12 == 1:
            return self
        if k % 12 == 5:
            return CycloScalar._raw(_galois5(self._n), self._d)
        if k % 12 == 7:
            return CycloScalar._raw(_galois7(self._n), self._d)
        if k % 12 == 11:
            return CycloScalar._raw(_galois11(self._n), self._d)
        raise ValueError("k must be coprime to 12")

    def conj(self) -> "CycloScalar":
        return self.galois(11)

    def inverse(self) -> "CycloScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        y = self.galois(5) * self.galois(7) * self.galois(11)
        w = self * y
        if w._n[1] or w._n[2] or w._n[3]:
            raise AssertionError("field norm left the rationals")
        # self * y = w0, so 1/self = y / w0
        return CycloScalar._raw(
            tuple(n * w._d for n in y._n), y._d * w._n[0]
        )

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        out = CYCLO_ONE
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if type(other) is not CycloScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash((self._n, self._d))

    def is_zero(self) -> bool:
        return self._n == (0, 0, 0, 0)

    def is_rational(self) -> bool:
        return self._n[1] == 0 and self._n[2] == 0 and self._n[3] == 0

    def real_part(self) -> "CycloScalar":
        (x0, x1, _, _), den = self.planar_lift()
        return CycloScalar.from_planar_lift((x0, x1, 0, 0), den)

    def imag_part(self) -> "CycloScalar":
        (_, _, y0, y1), den = self.planar_lift()
        return CycloScalar.from_planar_lift((y0, y1, 0, 0), den)

    def is_real(self) -> bool:
        n = self._n
        return n[2] == 0 and n[1] == -2 * n[3]

    def sign(self) -> int:
        """-1, 0 or 1 for a real value (a + b*sqrt3) / D, D > 0."""
        if not self.is_real():
            raise ValueError("sign of a non-real value")
        (a, b, _, _), _ = self.planar_lift()
        # a^2 == 3 b^2 only for a = b = 0, as sqrt3 is irrational
        if a * a > 3 * b * b:
            return (a > 0) - (a < 0)
        return (b > 0) - (b < 0)

    def abs_sq(self) -> "CycloScalar":
        return self * self.conj()

    def planar_lift(self) -> Tuple[Tuple[int, int, int, int], int]:
        """Integer numerators (x0, x1, y0, y1) over a common denominator D
        with re = (x0 + x1*sqrt3)/D and im = (y0 + y1*sqrt3)/D.  D = 2d is
        not reduced against the numerators."""
        n0, n1, n2, n3 = self._n
        return (2 * n0 + n2, n1, n1 + 2 * n3, n2), 2 * self._d

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as Fraction.__float__ is, so each
        # part equals float(p) + float(q)*SQRT3 of its reduced fractions
        (x0, x1, y0, y1), den = self.planar_lift()
        return complex(x0 / den + (x1 / den) * SQRT3, y0 / den + (y1 / den) * SQRT3)

    def root_of_unity_log(self) -> Optional[int]:
        """k with self == zeta^k, or None."""
        for k in range(12):
            if self == ZETA_POWERS[k]:
                return k
        return None

    def root_of_unity_order(self) -> Optional[int]:
        k = self.root_of_unity_log()
        if k is None:
            return None
        return 12 // gcd(k, 12)

    def polar_pi6(self):
        """(k, rho) with self == rho * zeta^k, rho a positive real value,
        when the argument is a multiple of pi/6; else None."""
        if self.is_zero():
            return None
        for k in range(12):
            y = self * ZETA_POWERS[(-k) % 12]
            if y.is_real() and y.sign() > 0:
                return k, y
        return None

    def __repr__(self):
        return f"CycloScalar{self._n + (self._d,)}"


ZETA_POWERS = tuple(
    CycloScalar._raw(n, 1)
    for n in [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (-1, 0, 1, 0), (0, -1, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0),
        (0, 0, -1, 0), (0, 0, 0, -1), (1, 0, -1, 0), (0, 1, 0, -1),
    ]
)
CYCLO_ZERO = CycloScalar.from_int(0)
CYCLO_ONE = CycloScalar.from_int(1)
CYCLO_I = ZETA_POWERS[3]


def max_abs(a: np.ndarray) -> int:
    """The largest absolute entry of an integer array, as a Python int."""
    return int(np.abs(a).max()) if a.size else 0


def widen(factor: int, *arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The integer arrays, as Python-int (object) arrays when `factor` times
    their largest entry, the caller's bound on every product it will form
    from them, reaches INT64_SAFE."""
    if all(a.dtype == object for a in arrays):
        return arrays
    if factor * max(map(max_abs, arrays)) >= INT64_SAFE:
        return tuple(a.astype(object) for a in arrays)
    return arrays


def planar_lifts(nums: np.ndarray, den: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`CycloScalar.planar_lift` entry by entry: numerators (..., 4) over
    denominators `den` give lifted numerators (..., 4) over 2 * den.  Their
    entries are at most 3 times the largest input entry."""
    n0, n1, n2, n3 = (nums[..., j] for j in range(4))
    return np.stack([2 * n0 + n2, n1, n1 + 2 * n3, n2], axis=-1), 2 * den


@dataclass(frozen=True)
class ApproxScalar:
    """Float complex value with a conservative absolute error radius."""

    re: float
    im: float
    err: float = 0.0

    @staticmethod
    def of(z: complex, err: Optional[float] = None) -> "ApproxScalar":
        z = complex(z)
        if err is None:
            err = 4.0 * _MACH_EPS * (abs(z.real) + abs(z.imag) + 1.0)
        return ApproxScalar(z.real, z.imag, err)

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    def _slack(self) -> float:
        return 4.0 * _MACH_EPS * (abs(self.re) + abs(self.im) + 1.0)

    def add(self, other: "ApproxScalar") -> "ApproxScalar":
        z = self.value + other.value
        out = ApproxScalar(z.real, z.imag, self.err + other.err)
        return ApproxScalar(z.real, z.imag, out.err + out._slack())

    def neg(self) -> "ApproxScalar":
        return ApproxScalar(-self.re, -self.im, self.err)

    def mul(self, other: "ApproxScalar") -> "ApproxScalar":
        z = self.value * other.value
        err = (
            abs(self.value) * other.err
            + abs(other.value) * self.err
            + self.err * other.err
        )
        out = ApproxScalar(z.real, z.imag, err)
        return ApproxScalar(z.real, z.imag, err + out._slack())

    def conj(self) -> "ApproxScalar":
        return ApproxScalar(self.re, -self.im, self.err)

    def inverse(self) -> "ApproxScalar":
        m = abs(self.value)
        if m <= 2.0 * self.err:
            raise UncertainZero("inverse of a value within its error radius of 0")
        z = 1.0 / self.value
        err = self.err / (m * (m - self.err))
        out = ApproxScalar(z.real, z.imag, err)
        return ApproxScalar(z.real, z.imag, err + out._slack())

    def eq_zero(self) -> Trilean:
        m = abs(self.value)
        if m > self.err:
            return Trilean.NO
        if m == 0.0 and self.err == 0.0:
            return Trilean.YES
        return Trilean.UNKNOWN


ScalarValue = Union[CycloScalar, ApproxScalar]


class Scalar:
    """Tagged exact-or-approximate complex scalar.

    Arithmetic between two exact operands stays exact; anything touching an
    approximate operand is demoted to approximate with propagated error.
    """

    __slots__ = ("_v",)

    def __init__(self, value: ScalarValue):
        if not isinstance(value, (CycloScalar, ApproxScalar)):
            raise TypeError(f"not a scalar payload: {type(value).__name__}")
        self._v = value

    # constructors
    @staticmethod
    def exact(c0, c1=0, c2=0, c3=0) -> "Scalar":
        return Scalar(CycloScalar.from_fractions(c0, c1, c2, c3))

    @staticmethod
    def integer(k: int) -> "Scalar":
        return Scalar(CycloScalar.from_int(k))

    @staticmethod
    def rational(q) -> "Scalar":
        return Scalar(CycloScalar.from_fractions(q))

    @staticmethod
    def gauss(re, im=0) -> "Scalar":
        return Scalar(CycloScalar.gauss(re, im))

    @staticmethod
    def zeta_power(k: int) -> "Scalar":
        return Scalar(CycloScalar.zeta_power(k))

    @staticmethod
    def approx(z: complex, err: Optional[float] = None) -> "Scalar":
        return Scalar(ApproxScalar.of(z, err))

    @property
    def is_exact(self) -> bool:
        return isinstance(self._v, CycloScalar)

    @property
    def exact_value(self) -> CycloScalar:
        if not isinstance(self._v, CycloScalar):
            raise TypeError("scalar is approximate")
        return self._v

    @property
    def approx_value(self) -> ApproxScalar:
        if isinstance(self._v, ApproxScalar):
            return self._v
        z = self._v.to_complex()
        return ApproxScalar.of(z)

    def to_complex(self) -> complex:
        if isinstance(self._v, CycloScalar):
            return self._v.to_complex()
        return self._v.value

    @property
    def err(self) -> float:
        if isinstance(self._v, CycloScalar):
            return 0.0
        return self._v.err

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar(CycloScalar.from_fractions(x))
        if isinstance(x, (float, complex)):
            return Scalar.approx(complex(x))
        return NotImplemented

    def _pair(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return None
        if isinstance(self._v, CycloScalar) and isinstance(other._v, CycloScalar):
            return self._v, other._v, True
        return self.approx_value, other.approx_value, False

    # Exact operands come first and skip _pair: their result is wrapped
    # without re-validating it.
    def __add__(self, other):
        if (type(other) is Scalar and type(self._v) is CycloScalar
                and type(other._v) is CycloScalar):
            return _exact(self._v + other._v)
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b, ex = p
        return Scalar(a + b if ex else a.add(b))

    __radd__ = __add__

    def __neg__(self):
        if type(self._v) is CycloScalar:
            return _exact(-self._v)
        return Scalar(self._v.neg())

    def __sub__(self, other):
        if (type(other) is Scalar and type(self._v) is CycloScalar
                and type(other._v) is CycloScalar):
            return _exact(self._v - other._v)
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if (type(other) is Scalar and type(self._v) is CycloScalar
                and type(other._v) is CycloScalar):
            return _exact(self._v * other._v)
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b, ex = p
        return Scalar(a * b if ex else a.mul(b))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if type(self._v) is CycloScalar:
            return _exact(self._v.inverse())
        return Scalar(self._v.inverse())

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if isinstance(self._v, CycloScalar):
            return Scalar(self._v ** k)
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = Scalar.integer(1)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "Scalar":
        return Scalar(self._v.conj())

    def abs_sq(self) -> "Scalar":
        if isinstance(self._v, CycloScalar):
            return Scalar(self._v.abs_sq())
        return self * self.conj()

    # three-valued predicates
    def eq_zero(self) -> Trilean:
        if isinstance(self._v, CycloScalar):
            return Trilean.of(self._v.is_zero())
        return self._v.eq_zero()

    def eq(self, other) -> Trilean:
        other = Scalar._coerce(other)
        return (self - other).eq_zero()

    def is_zero(self) -> bool:
        t = self.eq_zero()
        if not t.definite:
            raise UncertainZero("value within its error radius of 0")
        return t is Trilean.YES

    def is_real(self) -> Trilean:
        if isinstance(self._v, CycloScalar):
            return Trilean.of(self._v.is_real())
        a = self._v
        if abs(a.im) > a.err:
            return Trilean.NO
        return Trilean.UNKNOWN

    def modulus_is_one(self) -> Trilean:
        if isinstance(self._v, CycloScalar):
            return Trilean.of(self._v.abs_sq() == CYCLO_ONE)
        a = self._v
        m = abs(a.value)
        if abs(m - 1.0) > a.err + 4.0 * _MACH_EPS:
            return Trilean.NO
        return Trilean.UNKNOWN

    def _near_root_table(self, step: int) -> Trilean:
        # step 3 tests F_2 (4th roots), step 2 tests F_3 (6th roots)
        if isinstance(self._v, CycloScalar):
            k = self._v.root_of_unity_log()
            return Trilean.of(k is not None and k % step == 0)
        a = self._v
        d = min(
            abs(a.value - ZETA_POWERS[k].to_complex()) for k in range(0, 12, step)
        )
        if d > a.err + 1e-12:
            return Trilean.NO
        return Trilean.UNKNOWN

    def in_f2(self) -> Trilean:
        return self._near_root_table(3)

    def in_f3(self) -> Trilean:
        return self._near_root_table(2)

    def root_of_unity_order(self) -> Optional[int]:
        if isinstance(self._v, CycloScalar):
            return self._v.root_of_unity_order()
        return None

    def __eq__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._v == other._v or (
            type(self._v) is type(other._v) and self._v == other._v
        )

    def __hash__(self):
        return hash(self._v)

    def __repr__(self):
        if isinstance(self._v, CycloScalar):
            return f"Scalar({format_scalar(self)!r})"
        return f"Scalar(~{self._v.value!r}, err={self._v.err:.2e})"


def _exact(v: CycloScalar) -> Scalar:
    """Scalar(v) for a payload known to be a CycloScalar."""
    out = object.__new__(Scalar)
    out._v = v
    return out


SCALAR_ZERO = Scalar.integer(0)
SCALAR_ONE = Scalar.integer(1)
SCALAR_I = Scalar.zeta_power(3)


# ---------------------------------------------------------------------------
# text syntax
#
#   scalar  := term (('+'|'-') term)*
#   term    := factor ('*' factor)*
#   factor  := 'i' | 'zeta12' ['^' int] | 'exp(i*pi*' rational ')'
#            | 'exp(i*' number ')' | rational | decimal | rational 'i'
#
# Rationals ("3/2", "-2") parse exactly; decimals ("1.4142") parse as
# approximate values with a few-ulp error radius.  exp(i*pi*q) is exact
# precisely when 6q is an integer (the angle is a multiple of pi/6).

_TERM_SPLIT = _regex.compile(r"(?<![eE*/^(])([+-])")
_RATIONAL = _regex.compile(r"^[+-]?\d+(/\d+)?$")
_DECIMAL = _regex.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+\.?\d*[eE][+-]?\d+)$")
_ZETA = _regex.compile(r"^zeta12(\^(-?\d+))?$")
_EXP = _regex.compile(r"^exp\(i\*(pi\*)?([^)]+)\)$")


class ScalarParseError(ValueError):
    pass


def _parse_number(text: str):
    """-> (Fraction, exact=True) or (float, exact=False)"""
    if _RATIONAL.match(text):
        try:
            return Fraction(text), True
        except ZeroDivisionError:
            raise ScalarParseError(f"zero denominator: {text!r}") from None
    if _DECIMAL.match(text):
        return float(text), False
    raise ScalarParseError(f"not a number: {text!r}")


def _parse_factor(text: str) -> Scalar:
    text = text.strip()
    if not text:
        raise ScalarParseError("empty factor")
    if text == "i":
        return SCALAR_I
    if text == "-i":
        return -SCALAR_I
    m = _ZETA.match(text)
    if m:
        k = int(m.group(2)) if m.group(2) else 1
        return Scalar.zeta_power(k)
    m = _EXP.match(text)
    if m:
        val, exact = _parse_number(m.group(2).strip())
        if m.group(1):  # angle is pi * val
            if exact:
                k = val * 6
                if k.denominator == 1:
                    return Scalar.zeta_power(int(k))
                angle = math.pi * float(val)
            else:
                angle = math.pi * val
        else:
            if exact and val == 0:
                return SCALAR_ONE
            angle = float(val)
        return Scalar.approx(complex(math.cos(angle), math.sin(angle)))
    if text.endswith("i"):
        val, exact = _parse_number(text[:-1])
        if exact:
            return Scalar.gauss(0, val)
        return Scalar.approx(complex(0.0, val))
    val, exact = _parse_number(text)
    if exact:
        return Scalar.rational(val)
    return Scalar.approx(complex(val, 0.0))


def parse_scalar(text: str) -> Scalar:
    s = text.strip().replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar")
    # split into signed terms at top level (never inside exp(...))
    terms = []
    depth = 0
    start = 0
    for idx, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and idx > start:
            prev = s[idx - 1]
            if prev not in "eE*/^(+-":
                terms.append(s[start:idx])
                start = idx
    terms.append(s[start:])
    total = SCALAR_ZERO
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ScalarParseError(f"dangling sign in {text!r}")
        value = None
        for factor in _split_factors(term):
            f = _parse_factor(factor)
            value = f if value is None else value * f
        if sign < 0:
            value = -value
        total = total + value
    return total


def _split_factors(term: str):
    # '*' separates factors except inside parentheses
    parts = []
    depth = 0
    start = 0
    for idx, ch in enumerate(term):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "*" and depth == 0:
            parts.append(term[start:idx])
            start = idx + 1
    parts.append(term[start:])
    return parts


def _format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_scalar(s: Scalar) -> str:
    """Render a scalar in the text syntax; exact values round-trip."""
    if not s.is_exact:
        a = s.approx_value
        return f"{a.re!r}{'+' if a.im >= 0 else '-'}{abs(a.im)!r}i"
    x = s.exact_value
    c0, c1, c2, c3 = x.coeffs
    if c1 == 0 and c2 == 0:  # Gaussian rational
        if c3 == 0:
            return _format_fraction(c0)
        im = f"{_format_fraction(abs(c3))}i"
        if c0 == 0:
            return im if c3 > 0 else f"-{im}"
        return f"{_format_fraction(c0)}{'+' if c3 > 0 else '-'}{im}"
    polar = x.polar_pi6()
    if polar is not None and polar[1].is_rational():
        k, rho = polar
        head = "" if rho == 1 else f"{_format_fraction(rho.coeffs[0])}*"
        return f"{head}zeta12^{k}" if k != 1 else f"{head}zeta12"
    parts = []
    for power, c in enumerate((c0, c1, c2, c3)):
        if c == 0:
            continue
        mag = _format_fraction(abs(c))
        if power == 0:
            body = mag
        else:
            tail = "zeta12" if power == 1 else f"zeta12^{power}"
            body = tail if abs(c) == 1 else f"{mag}*{tail}"
        parts.append(("-" if c < 0 else "+") + body)
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out
