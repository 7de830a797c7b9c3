"""Symbolic orbit-closure descriptions and global verdicts.

Given a group profile and a point, produce a closed-form description of the
orbit closure (whole space, invariant affine subspace, scaled cone over it,
or a finite union of rotated lattice cosets), each with a membership
predicate, a distance function, a window trace and a sampler, so the
brute-force oracle can cross-examine every claim.  Global verdicts (dense orbit, discrete orbit,
minimality) are three-valued: whenever a heuristic classifier feeds a
hypothesis, the answer is "unknown", never a silent "no".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from .affine_maps import (
    Homothety,
    Point,
    as_point,
    hermitian_dot,
    point_row,
    rows_to_points,
    v_add,
    v_is_zero,
    v_scale,
    v_sub,
    v_to_complex,
)
from .closed_subgroups import (
    AdditiveClosure,
    MultClosure,
    classify_additive_closure,
)
from .exact_algebra import (
    SCALAR_ONE,
    Scalar,
    Trilean,
    UndecidableAtPrecision,
    format_scalar,
    planar_lifts,
    widen,
)
from .group_profile import (
    AffineSubspace,
    GroupProfile,
    GroupSpec,
    crystallographic_test,
    CrystalVerdict,
    schreier_generators,
)

_TRACE_CELL_CAP = 300_000
# relative slack on the half-diagonal: a closure point on a cell corner is
# exactly that far from four cell centres, and the float distance must not
# decide by its last bit whether those cells are on the trace
_TRACE_SLACK = 1e-9


def _format_point(p: Point) -> List[str]:
    return [format_scalar(c) for c in p]


def _point_rows(points: Sequence[Point]) -> np.ndarray:
    return np.array([v_to_complex(p) for p in points], dtype=np.complex128)


def _cell_centers(center: np.ndarray, half: float, res: int) -> np.ndarray:
    """(res^{2n}, 2n) real coordinates of every cell center; caller caps size."""
    axes = [
        center[d] - half + (2.0 * half / res) * (np.arange(res) + 0.5)
        for d in range(center.shape[0])
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _real_to_complex(rows: np.ndarray) -> np.ndarray:
    return rows[:, 0::2] + 1j * rows[:, 1::2]


def _complex_to_real(rows: np.ndarray) -> np.ndarray:
    """(N, n) complex -> (N, 2n) real: re(z1), im(z1), ..., re(zn), im(zn)."""
    return np.stack([rows.real, rows.imag], axis=2).reshape(rows.shape[0], -1)


def _complex_projector(basis: Sequence[Point], n: int) -> np.ndarray:
    """Orthogonal projector of C^n onto the complex span of `basis`."""
    if not basis:
        return np.zeros((n, n), dtype=np.complex128)
    b = _point_rows(basis).T
    return b @ np.linalg.pinv(b)


@dataclass(frozen=True)
class ClosureDesc:
    """Base description: subclasses implement the geometry.

    The oracle reads a description through `contains_rows` (with
    `contains` for a single point), `distance_many` (with `distance` its
    one-point case), `trace_points` and `sample`."""

    provenance: str
    exact: bool

    def contains(self, z, eps: float = 1e-9) -> bool:
        raise NotImplementedError

    def contains_rows(self, rows: np.ndarray, eps: float = 1e-9) -> np.ndarray:
        """Membership of the exact points of (N, 4n + 1) integer rows (see
        `affine_maps.point_row`), int64 or Python ints, as a bool array.
        Here `contains` point by point; a description with an integer test
        of its own overrides this."""
        points = rows_to_points(rows, (rows.shape[1] - 1) // 4)
        return np.array([self.contains(p, eps) for p in points], dtype=bool)

    def distance_many(self, arr: np.ndarray) -> np.ndarray:
        """Distances to the closure of the rows of an (N, n) complex array."""
        raise NotImplementedError

    def distance(self, z) -> float:
        return float(self.distance_many(_point_rows([as_point(z)]))[0])

    def trace_points(self, center, half: float, res: int) -> Optional[np.ndarray]:
        """Real coordinates (rows of 2n floats) of the window's cell centres
        within half a cell diagonal of the closure (up to _TRACE_SLACK, so a
        cell that touches the closure only at a corner counts); None stands
        for every cell, which is the answer when the grid has more than
        _TRACE_CELL_CAP cells."""
        center = np.asarray(center, dtype=float)
        if res ** center.shape[0] > _TRACE_CELL_CAP:
            return None
        cell = 2.0 * half / res
        centers = _cell_centers(center, half, res)
        d = self.distance_many(_real_to_complex(centers))
        limit = cell * math.sqrt(center.shape[0]) / 2.0
        return centers[d <= limit * (1.0 + _TRACE_SLACK)]

    def sample(self, rng, count: int, translations: Sequence[Point] = ()) -> List[Point]:
        raise NotImplementedError

    def to_report(self) -> dict:
        raise NotImplementedError

    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class WholeSpace(ClosureDesc):
    dim: int = 1
    point: Point = ()

    def contains(self, z, eps: float = 1e-9) -> bool:
        return len(as_point(z)) == self.dim

    def contains_rows(self, rows: np.ndarray, eps: float = 1e-9) -> np.ndarray:
        return np.full(rows.shape[0], rows.shape[1] == 4 * self.dim + 1)

    def distance_many(self, arr: np.ndarray) -> np.ndarray:
        return np.zeros(arr.shape[0])

    def sample(self, rng, count: int, translations: Sequence[Point] = ()) -> List[Point]:
        out: List[Point] = [self.point]
        out += [v_add(self.point, t) for t in translations[: max(0, count - 1)]]
        while len(out) < count:
            out.append(
                as_point(
                    [
                        Scalar.approx(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
                        for _ in range(self.dim)
                    ]
                )
            )
        return out[: max(1, count)]

    def to_report(self) -> dict:
        return {
            "kind": "WholeSpace",
            "dim": self.dim,
            "provenance": self.provenance,
            "exact": self.exact,
            "point": _format_point(self.point),
        }


@dataclass(frozen=True)
class Affine(ClosureDesc):
    subspace: AffineSubspace = None
    point: Point = ()

    def contains(self, z, eps: float = 1e-9) -> bool:
        return self.subspace.contains(z, eps)

    @cached_property
    def _float_data(self) -> Tuple[np.ndarray, np.ndarray]:
        base = np.array(v_to_complex(self.subspace.base), dtype=np.complex128)
        return base, _complex_projector(self.subspace.basis, base.shape[0])

    def distance_many(self, arr: np.ndarray) -> np.ndarray:
        base, proj = self._float_data
        diff = arr - base
        res = diff - diff @ proj.T
        return np.linalg.norm(res, axis=1)

    def trace_points(self, center, half: float, res: int) -> Optional[np.ndarray]:
        pts = super().trace_points(center, half, res)
        if pts is not None:
            return pts
        # too many cells to test one by one: the trace is where a fixed
        # sample of the subspace lands
        rows = _point_rows(self.sample(random.Random(20260817), 20_000))
        return _complex_to_real(rows)

    def sample(self, rng, count: int, translations: Sequence[Point] = ()) -> List[Point]:
        return self.subspace.sample(rng, count, translations)

    def to_report(self) -> dict:
        return {
            "kind": "Affine",
            "provenance": self.provenance,
            "exact": self.exact,
            "subspace": self.subspace.to_report(),
            "point": _format_point(self.point),
        }


@dataclass(frozen=True)
class LambdaCone(ClosureDesc):
    """The set Lambda-closure * (z - apex) + E, apex in E, z outside E."""

    apex: Point = ()
    base: AffineSubspace = None
    lambda_closure: MultClosure = None
    point: Point = ()  # the defining z
    ratio_pool: Tuple[Scalar, ...] = ()  # exact group elements of the ratio group

    # -- transverse reduction ------------------------------------------------
    def _off_base(self, w: Point) -> Point:
        """w - apex minus its orthogonal projection on E's directions."""
        t = v_sub(as_point(w), self.apex)
        for u in self.base.basis:
            t = v_sub(t, v_scale(hermitian_dot(t, u) / hermitian_dot(u, u), u))
        return t

    @cached_property
    def _tz(self) -> Point:
        return self._off_base(self.point)

    def _transverse(self, w: Point) -> Tuple[Scalar, Point]:
        """Decompose w - apex = (parallel to E) + xi * t_z + residual."""
        t = self._off_base(w)
        tz = self._tz
        xi = hermitian_dot(t, tz) / hermitian_dot(tz, tz)
        return xi, v_sub(t, v_scale(xi, tz))

    def contains(self, w, eps: float = 1e-9) -> bool:
        xi, residual = self._transverse(w)
        rz = v_is_zero(residual)
        if self.exact and rz is Trilean.YES:
            return self.lambda_closure.contains(xi, eps)
        return self.distance(w) <= eps

    @cached_property
    def _float_data(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        apex = np.array(v_to_complex(self.apex), dtype=np.complex128)
        proj = _complex_projector(self.base.basis, apex.shape[0])
        return apex, proj, np.array(v_to_complex(self._tz), dtype=np.complex128)

    def distance_many(self, arr: np.ndarray) -> np.ndarray:
        apex, proj, tz = self._float_data
        diff = arr - apex
        t = diff - diff @ proj.T
        den = float(np.vdot(tz, tz).real)
        xi = (t @ np.conj(tz)) / den
        res = t - xi[:, None] * tz
        rn = np.linalg.norm(res, axis=1)
        dxi = self.lambda_closure.distance_many(xi)
        return np.sqrt(rn ** 2 + (dxi * math.sqrt(den)) ** 2)

    def sample(self, rng, count: int, translations: Sequence[Point] = ()) -> List[Point]:
        """Members built from short group data: apex + rho*(z-apex) + t with
        rho a finite product of generator ratios and t a single harvested
        translation vector; when 0 lies in the ratio closure the bare base
        points join too.  Everything emitted is a member by construction."""
        za = v_sub(self.point, self.apex)
        pool: List[Scalar] = [SCALAR_ONE] + list(self.ratio_pool)
        t_pool: List[Optional[Point]] = [None] + list(translations)
        out: List[Point] = [self.point]
        for rho in pool:
            for t in t_pool:
                p = v_add(self.apex, v_scale(rho, za))
                if t is not None:
                    p = v_add(p, t)
                out.append(p)
                if len(out) >= count * 2:
                    break
            if len(out) >= count * 2:
                break
        if self.lambda_closure.includes_zero:
            out.append(self.apex)
            for t in translations:
                out.append(v_add(self.apex, t))
                out.append(v_sub(self.apex, t))
            base_extra = self.base.sample(rng, max(1, count // 4), translations)
            out.extend(base_extra)
        seen = set()
        unique: List[Point] = []
        for p in out:
            k = tuple(v_to_complex(p))
            if k not in seen:
                seen.add(k)
                unique.append(p)
        return unique[: max(1, count)]

    def to_report(self) -> dict:
        return {
            "kind": "LambdaCone",
            "provenance": self.provenance,
            "exact": self.exact,
            "apex": _format_point(self.apex),
            "base": self.base.to_report(),
            "lambda_closure": self.lambda_closure.to_report(),
            "point": _format_point(self.point),
            "renderings": [
                "closure(Lambda) * (z - apex) + E",
                "F-form: closure of {f(z): f in G} for z outside E",
            ],
        }


@dataclass(frozen=True)
class RotationCoset(ClosureDesc):
    """Finite rotation family applied to (z - apex), translated by the
    closure of the translation subgroup T: union over k of
    zeta^(step*k) * (z - apex) + apex + T-closure."""

    family: str = "S2"  # "S2" -> 4th roots, "S3" -> 6th roots
    point: Point = ()
    apex: Point = ()
    translation_closure: Optional[AdditiveClosure] = None  # ambient dim 1 only
    translation_generators: Tuple[Point, ...] = ()  # generate T (Schreier)
    inner_bound: Optional[Tuple[Scalar, ...]] = None
    outer_bound: Optional[Tuple[Scalar, ...]] = None
    pinned: Optional[bool] = None
    g1_unstable: bool = False
    # zeta12 exponent step of the rotation group actually generated, which
    # may be a proper subgroup of the family (e.g. two half-turns)
    step: int = 3

    @property
    def order(self) -> int:
        return 12 // self.step

    @property
    def dim(self) -> int:
        return len(self.point)

    def _rotations(self) -> List[Scalar]:
        return [Scalar.zeta_power(self.step * k) for k in range(self.order)]

    @cached_property
    def _offsets(self) -> Tuple[Point, ...]:
        """apex + rho^k (point - apex) for every rotation rho^k: the closure
        is the union of these points translated by the closure of T."""
        za = v_sub(self.point, self.apex)
        return tuple(v_add(self.apex, v_scale(rho, za)) for rho in self._rotations())

    @cached_property
    def _offset_lifts(self) -> Optional[Tuple[Tuple[Tuple[int, ...], int], ...]]:
        """Planar lifts of the offsets when membership is exact: ambient
        dim 1, exact closure of T and exact offsets; else None."""
        closure = self.translation_closure
        if self.dim != 1 or closure is None or not closure.exact:
            return None
        if not all(o[0].is_exact for o in self._offsets):
            return None
        return tuple(o[0].exact_value.planar_lift() for o in self._offsets)

    @cached_property
    def _float_data(self) -> Tuple[np.ndarray, np.ndarray, Tuple[complex, ...]]:
        apex = np.array(v_to_complex(self.apex), dtype=np.complex128)
        za = np.array(v_to_complex(v_sub(self.point, self.apex)), dtype=np.complex128)
        return apex, za, tuple(rho.to_complex() for rho in self._rotations())

    # real span of T (ambient dim >= 2): a closed superset of its closure
    @cached_property
    def _span_projector(self) -> np.ndarray:
        if not self.translation_generators:
            return np.zeros((2 * self.dim, 2 * self.dim))
        m = _complex_to_real(_point_rows(self.translation_generators)).T  # (2n, k)
        return m @ np.linalg.pinv(m)

    def contains(self, w, eps: float = 1e-9) -> bool:
        w = as_point(w)
        if self._offset_lifts is not None and w[0].is_exact:
            return bool(self.contains_rows(np.array([point_row(w)], dtype=object), eps)[0])
        return self.distance(w) <= eps

    def contains_rows(self, rows: np.ndarray, eps: float = 1e-9) -> np.ndarray:
        lifts = self._offset_lifts
        if lifts is None:
            return super().contains_rows(rows, eps)
        # lifted rows have entries up to 3 * max|row| over 2 * max|row|, and
        # w - offset = (lw * d - lo * dw) / (dw * d) is tested in the lift
        rows = widen(max(3 * d + 2 * max(map(abs, lo)) for lo, d in lifts), rows)[0]
        lw, dw = planar_lifts(rows[:, :4], rows[:, 4])
        member = np.zeros(rows.shape[0], dtype=bool)
        for lo, d in lifts:
            todo = np.flatnonzero(~member)
            if not todo.size:
                break
            nums = lw[todo] * d - np.array(lo, dtype=rows.dtype) * dw[todo, None]
            member[todo] = self.translation_closure.contains_lifts(nums, dw[todo] * d)
        return member

    def distance_many(self, arr: np.ndarray) -> np.ndarray:
        apex, za, rotations = self._float_data
        wa = arr - apex
        out = np.full(wa.shape[0], np.inf)
        if self.dim == 1 and self.translation_closure is not None:
            for rho in rotations:
                v = wa[:, 0] - rho * za[0]
                out = np.minimum(out, self.translation_closure.distance_many(v))
            return out
        proj = self._span_projector
        for rho in rotations:
            rows = _complex_to_real(wa - rho * za)
            res = rows - rows @ proj.T
            out = np.minimum(out, np.linalg.norm(res, axis=1))
        return out

    def sample(self, rng, count: int, translations: Sequence[Point] = ()) -> List[Point]:
        """The first `count` distinct points offset + t, t = 0, a generator
        of T or one of `translations`, in that order per offset."""
        limit = max(1, count)
        t_pool = (None, *self.translation_generators, *translations)
        seen = set()
        unique: List[Point] = []
        for offset in self._offsets:
            for t in t_pool:
                p = offset if t is None else v_add(offset, t)
                k = tuple(v_to_complex(p))
                if k not in seen:
                    seen.add(k)
                    unique.append(p)
                    if len(unique) == limit:
                        return unique
        return unique

    def to_report(self) -> dict:
        out = {
            "kind": "RotationCoset",
            "provenance": self.provenance,
            "exact": self.exact,
            "family": self.family,
            "rotation_order": self.order,
            "point": _format_point(self.point),
            "apex": _format_point(self.apex),
            "g1_unstable": self.g1_unstable,
            "renderings": [
                "F * (z - apex) + apex + closure(G1(0))",
                "uncentered: F * z + closure(G(0))",
            ],
        }
        if self.translation_closure is not None:
            out["translation_closure"] = self.translation_closure.to_report()
        if self.inner_bound is not None:
            out["inner_bound"] = [format_scalar(s) for s in self.inner_bound]
            out["outer_bound"] = [format_scalar(s) for s in self.outer_bound]
            out["pinned"] = self.pinned
        out["translation_generator_count"] = len(self.translation_generators)
        return out


@dataclass(frozen=True)
class Unsupported(ClosureDesc):
    reason: str = ""

    def contains(self, z, eps: float = 1e-9) -> bool:
        raise RuntimeError(f"unsupported case has no membership test: {self.reason}")

    def distance_many(self, arr: np.ndarray) -> np.ndarray:
        raise RuntimeError(f"unsupported case has no distance: {self.reason}")

    def sample(self, rng, count: int, translations: Sequence[Point] = ()) -> List[Point]:
        raise RuntimeError(f"unsupported case has no sampler: {self.reason}")

    def to_report(self) -> dict:
        return {
            "kind": "Unsupported",
            "provenance": self.provenance,
            "exact": self.exact,
            "reason": self.reason,
        }


# ---------------------------------------------------------------------------
# the branch table


def _ratio_pool(spec: GroupSpec, span: int = 2, cap: int = 24) -> Tuple[Scalar, ...]:
    """Small products of generator ratios: exact elements of the ratio group."""
    ratios = [g.ratio for g in spec.generators]
    pool: List[Scalar] = []
    seen = set()

    def _push(s: Scalar) -> None:
        key = s.exact_value if s.is_exact else complex(round(s.to_complex().real, 12), round(s.to_complex().imag, 12))
        if key in seen:
            return
        seen.add(key)
        pool.append(s)

    frontier = [SCALAR_ONE]
    _push(SCALAR_ONE)
    for _ in range(span):
        nxt = []
        for s in frontier:
            for r in ratios:
                for q in (s * r, s * r.inverse()):
                    before = len(pool)
                    _push(q)
                    if len(pool) > before:
                        nxt.append(q)
                    if len(pool) >= cap:
                        return tuple(pool[1:])  # drop the leading 1
        frontier = nxt
    return tuple(pool[1:])


def orbit_closure(profile: GroupProfile, z) -> ClosureDesc:
    """Branch table keyed on the ratio flags and the position of z.

    (a) outside the crystallographic families, z in E: the closure is E
        itself (whole space when E fills it);
    (b) outside the families, z off E: scaled cone over E through z;
    (c) ratios inside a crystallographic family: finitely many rotated
        translates of the translation-closure coset through z;
    (d) no non-real ratio: out of scope here, reported as such.
    """
    z = as_point(z)
    if len(z) != profile.spec.dim:
        raise ValueError("point dimension does not match the group")
    if not profile.has_nonreal_ratio:
        return Unsupported(
            provenance="Remark1.5",
            exact=profile.exact,
            reason="real-ratio case: see real companion paper",
        )
    eps = profile.spec.eps
    if profile.outside_SR:
        eg = profile.E_G
        if eg.contains(z, eps):
            if eg.is_whole_space():
                return WholeSpace(
                    provenance="Thm1.1(1)(i)",
                    exact=profile.exact,
                    dim=profile.spec.dim,
                    point=z,
                )
            return Affine(
                provenance="Thm1.1(1)(i)",
                exact=profile.exact,
                subspace=eg,
                point=z,
            )
        whole = (
            eg.dim == profile.spec.dim - 1
            and profile.lambda_closure.is_whole_plane() is Trilean.YES
        )
        if whole:
            return WholeSpace(
                provenance="Thm1.1(1)(ii)",
                exact=profile.exact,
                dim=profile.spec.dim,
                point=z,
            )
        return LambdaCone(
            provenance="Thm1.1(1)(ii)",
            exact=profile.exact and profile.lambda_closure.exact and eg.exact,
            apex=eg.base,
            base=eg,
            lambda_closure=profile.lambda_closure,
            point=z,
            ratio_pool=_ratio_pool(profile.spec),
        )
    # crystallographic branch: every ratio is an exact 12th root of unity,
    # so the Schreier data exists.  The apex must be a fixed point whose
    # stabilizer realizes the whole rotation group, so every coset of the
    # family is witnessed by an actual group element about that point
    schreier = profile.schreier
    unstable = profile.g1_pinned is False
    exact_flag = (
        profile.spec.dim == 1
        and profile.g1_closure is not None
        and profile.g1_closure.exact
        and profile.exact
    )
    return RotationCoset(
        provenance="Thm1.1(2)(ii)",
        exact=exact_flag,
        family=profile.sr_membership,
        point=z,
        apex=schreier.witness.center(),
        translation_closure=profile.g1_closure if profile.spec.dim == 1 else None,
        translation_generators=schreier.shifts,
        inner_bound=profile.g1_inner,
        outer_bound=profile.g1_outer,
        pinned=profile.g1_pinned,
        g1_unstable=unstable,
        step=schreier.step,
    )


# ---------------------------------------------------------------------------
# global verdicts


@dataclass(frozen=True)
class Verdicts:
    has_dense_orbit: Trilean
    all_orbits_in_U_dense: Trilean
    no_discrete_orbit: Trilean
    all_orbits_closed_discrete: Trilean
    orbits_in_U_minimal: bool
    orbits_in_U_homeomorphic: bool
    notes: Tuple[str, ...] = ()

    def to_report(self) -> dict:
        def t(x: Trilean) -> str:
            return {Trilean.YES: "yes", Trilean.NO: "no", Trilean.UNKNOWN: "unknown"}[x]

        return {
            "has_dense_orbit": t(self.has_dense_orbit),
            "all_orbits_in_U_dense": t(self.all_orbits_in_U_dense),
            "no_discrete_orbit": t(self.no_discrete_orbit),
            "all_orbits_closed_discrete": t(self.all_orbits_closed_discrete),
            "orbits_in_U_minimal": self.orbits_in_U_minimal,
            "orbits_in_U_homeomorphic": self.orbits_in_U_homeomorphic,
            "notes": list(self.notes),
        }


def _not(t: Trilean) -> Trilean:
    if t is Trilean.YES:
        return Trilean.NO
    if t is Trilean.NO:
        return Trilean.YES
    return Trilean.UNKNOWN


def global_verdicts(profile: GroupProfile) -> Verdicts:
    notes: List[str] = []
    n = profile.spec.dim
    m = len(profile.spec.generators)

    if not profile.has_nonreal_ratio:
        notes.append("real-ratio group: out of scope (Remark1.5)")
        dense = Trilean.UNKNOWN
        if m <= n - 2:
            dense = Trilean.NO
            notes.append(
                f"generator-count shortcut: {m} generators in dimension {n} (Cor1.6)"
            )
        return Verdicts(
            has_dense_orbit=dense,
            all_orbits_in_U_dense=Trilean.UNKNOWN,
            no_discrete_orbit=Trilean.UNKNOWN,
            all_orbits_closed_discrete=Trilean.UNKNOWN,
            orbits_in_U_minimal=False,
            orbits_in_U_homeomorphic=False,
            notes=tuple(notes),
        )

    shortcut = None
    if m <= n - 2:
        shortcut = Trilean.NO
        notes.append(
            f"generator-count shortcut: {m} generators in dimension {n} "
            "cannot give a dense orbit (Cor1.6)"
        )

    if profile.outside_SR:
        eg = profile.E_G
        lam_whole = profile.lambda_closure.is_whole_plane()
        if eg.is_whole_space():
            dense = Trilean.YES
            in_u_dense = Trilean.YES
            notes.append("E is the whole space: every orbit is dense (Cor1.4(3)(i))")
        elif eg.dim == n - 1:
            dense = lam_whole
            in_u_dense = lam_whole
            notes.append(
                "E is a hyperplane: density rides on the ratio closure "
                "filling the plane (Cor1.4(3)(ii))"
            )
        else:
            dense = Trilean.NO
            in_u_dense = Trilean.NO
            notes.append(
                "codim(E) >= 2: cone closures are proper subsets (Cor1.4)"
            )
        if shortcut is not None:
            dense = shortcut
        no_disc = Trilean.YES
        notes.append(
            "non-real non-crystallographic ratio: no orbit is discrete (Cor1.3)"
        )
        minimal = profile.has_modulus_ne1
        if minimal:
            notes.append(
                "ratio of modulus != 1 present: orbits off E are minimal and "
                "pairwise homeomorphic (Cor1.2(1))"
            )
        if not profile.spec.is_exact:
            notes.append("approximate inputs: verdicts rest on resolved sign tests")
        elif not profile.lambda_closure.exact:
            notes.append(
                "exact inputs, but the ratio closure is undecided: "
                + profile.lambda_closure.evidence["reason"]
            )
        return Verdicts(
            has_dense_orbit=dense,
            all_orbits_in_U_dense=in_u_dense,
            no_discrete_orbit=no_disc,
            all_orbits_closed_discrete=Trilean.NO,
            orbits_in_U_minimal=minimal,
            orbits_in_U_homeomorphic=minimal,
            notes=tuple(notes),
        )

    # crystallographic branch
    if n == 1 and profile.g1_closure is not None:
        g1 = profile.g1_closure
        discrete = g1.is_discrete()
        dense = g1.is_whole_plane()
        # the outer sandwich lattice bounds only the pair's translations, not
        # those a third generator adds, so discreteness comes from g1 alone
        if profile.g1_outer is not None:
            if profile.g1_pinned:
                notes.append("sandwich bounds pin the translation closure")
            else:
                notes.append(
                    "sandwich bounds bracket but do not pin the translation "
                    "closure; the Schreier generators decide between them"
                )
        elif g1.exact:
            notes.append(
                "translation closure classified exactly from the Schreier "
                "generators of the translation subgroup"
            )
        dense_out = dense if shortcut is None else shortcut
        notes.append(
            "crystallographic ratios: orbit closures are finite unions of "
            "translation-closure cosets (Thm1.1(2))"
        )
        return Verdicts(
            has_dense_orbit=dense_out,
            all_orbits_in_U_dense=dense,
            no_discrete_orbit=_not(discrete),
            all_orbits_closed_discrete=discrete,
            orbits_in_U_minimal=False,
            orbits_in_U_homeomorphic=False,
            notes=tuple(notes),
        )

    notes.append(
        "crystallographic ratios in dimension >= 2: the translation subgroup "
        "has exact Schreier generators, but its closure in R^(2n) is not "
        "classified here; verdicts stay open"
    )
    return Verdicts(
        has_dense_orbit=Trilean.UNKNOWN if shortcut is None else shortcut,
        all_orbits_in_U_dense=Trilean.UNKNOWN,
        no_discrete_orbit=Trilean.UNKNOWN,
        all_orbits_closed_discrete=Trilean.UNKNOWN,
        orbits_in_U_minimal=False,
        orbits_in_U_homeomorphic=False,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# the planar two-rotation classifier


@dataclass(frozen=True)
class RotationPairVerdict:
    kind: str  # "AllDense" | "AllClosedDiscrete" | "Unknown"
    provenance: str
    lattice: Optional[AdditiveClosure] = None
    notes: Tuple[str, ...] = ()

    def to_report(self) -> dict:
        out = {
            "kind": self.kind,
            "provenance": self.provenance,
            "notes": list(self.notes),
        }
        if self.lattice is not None:
            out["lattice"] = self.lattice.to_report()
        return out


def _angle_to_ratio(theta) -> Tuple[Scalar, Optional[int]]:
    """Radians -> unit ratio; returns (ratio, k) with k the exact multiple
    of pi/6 when the angle is one (within 1e-9)."""
    if isinstance(theta, Scalar):
        theta = theta.to_complex().real
    theta = float(theta)
    k_hat = theta / (math.pi / 6.0)
    k = round(k_hat)
    if abs(k_hat - k) <= 1e-9:
        return Scalar.zeta_power(k % 12), k % 12
    return Scalar.approx(complex(math.cos(theta), math.sin(theta)), 1e-15), None


def _families(k: Optional[int], theta) -> Optional[Set[str]]:
    """Which of H2 (multiples of pi/2) / H3 (multiples of pi/3) hold."""
    if k is None:
        return None
    fams = set()
    if k % 3 == 0:
        fams.add("S2")
    if k % 2 == 0:
        fams.add("S3")
    return fams if fams else None


def _exact_coord(x) -> Scalar:
    if isinstance(x, Scalar):
        if x.is_exact:
            return x
        x = x.to_complex()
    z = complex(x)
    return Scalar.exact(Fraction(z.real), 0, 0, Fraction(z.imag))


def _exact_center(c) -> Point:
    """Lift a planar center to one exact complex coordinate.

    A pair is a point of R^2, identified with x + i*y; a single number is
    already the complex coordinate.  The dense/discrete verdict is
    invariant under affine conjugation, so only *which* rational the caller
    handed us matters — and every float is exactly a rational, so the lift
    is lossless and keeps the translation arithmetic exact."""
    coords = list(c) if isinstance(c, (tuple, list)) else [c]
    if len(coords) == 2:
        a, b = (_exact_coord(x) for x in coords)
        if not (a.exact_value.is_real() and b.exact_value.is_real()):
            raise ValueError(
                "a planar center must be one complex number or a pair of reals"
            )
        return as_point([a + b * Scalar.gauss(0, 1)])
    if len(coords) != 1:
        raise ValueError("rotation-pair centers live in the plane")
    return as_point([_exact_coord(coords[0])])


def rotation_pair_classify(theta, theta_prime, c1, c2) -> RotationPairVerdict:
    """Two planar rotations by theta, theta' about distinct centers.

    Dense whenever one angle leaves both crystallographic families or the
    two angles live in different families (then the composed rotation
    leaves both); closed and discrete when both angles share a family and
    the translation subgroup, built from its Schreier generators, is a
    genuine lattice.
    """
    c1p = _exact_center(c1)
    c2p = _exact_center(c2)
    if v_is_zero(v_sub(c1p, c2p)) is not Trilean.NO:
        raise ValueError("the two rotation centers must be distinct")
    r1, k1 = _angle_to_ratio(theta)
    r2, k2 = _angle_to_ratio(theta_prime)
    for r, k in ((r1, k1), (r2, k2)):
        if k is None:
            # margin check: reject angles too close to the boundary set
            c = r.to_complex().real
            if min(abs(c - x) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)) <= 1e-12:
                raise UndecidableAtPrecision(
                    "angle numerically indistinguishable from a "
                    "crystallographic one"
                )
        if k is not None and k % 12 == 0:
            raise ValueError("angles must not be multiples of 2*pi")
    f1 = _families(k1, theta)
    f2 = _families(k2, theta_prime)
    notes = (
        "clause (1)(i) is implemented as: some angle outside both "
        "crystallographic families (the literal statement is vacuous)",
    )
    if f1 is None or f2 is None:
        return RotationPairVerdict(
            kind="AllDense", provenance="Thm1.2(1)", notes=notes
        )
    common = f1 & f2
    if not common:
        # mixed families: decide on the composed rotation, which must leave both
        verdict = crystallographic_test(r1 * r2)
        if verdict is not CrystalVerdict.FORCES_DENSE:
            raise AssertionError(
                "mixed-family composition should force density"
            )
        return RotationPairVerdict(
            kind="AllDense",
            provenance="Thm1.2(1)",
            notes=notes + ("mixed families: composed rotation leaves both",),
        )
    spec = GroupSpec(
        dim=1,
        generators=(
            Homothety.with_center(r1, c1p),
            Homothety.with_center(r2, c2p),
        ),
    )
    lattice = classify_additive_closure([t[0] for t in schreier_generators(spec).shifts])
    if lattice.is_discrete() is Trilean.YES:
        return RotationPairVerdict(
            kind="AllClosedDiscrete",
            provenance="Thm1.2(2)",
            lattice=lattice,
            notes=notes,
        )
    return RotationPairVerdict(
        kind="Unknown",
        provenance="Thm1.2(2)",
        lattice=lattice,
        notes=notes
        + ("translation subgroup did not classify as discrete",),
    )
