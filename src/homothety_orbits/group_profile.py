"""Structural data of a finitely generated homothety group.

From the generators alone this module derives: ratio flags (non-real ratio
present, modulus other than 1 present, containment in the crystallographic
families), the canonical invariant affine subspace obtained by saturating
the affine hull of the fixed-point seeds, the crystallographic test for a
single rotation ratio, generators of the translation subgroup when the
ratio group is finite (Schreier's lemma), and the inner/outer lattice
sandwich that brackets the translation subgroup in dimension one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .affine_maps import (
    Homothety,
    Point,
    as_point,
    scalar_columns_solve,
    v_add,
    v_is_zero,
    v_scale,
    v_sub,
    v_to_complex,
)
from .closed_subgroups import (
    PLANE_DIRECTIONS,
    AdditiveClosure,
    MultClosure,
    _planar_float,
    classify_additive_closure,
    classify_multiplicative_closure,
)
from .exact_algebra import (
    SCALAR_ONE,
    Scalar,
    Trilean,
    UndecidableAtPrecision,
)


class AbelianGroup(Exception):
    """All generator pairs commute; fixed-point-based structure degenerates."""


@dataclass(frozen=True)
class GroupSpec:
    """Input group: dimension, generators, and enumeration options."""

    dim: int
    generators: Tuple[Homothety, ...]
    word_cap: Optional[int] = None
    eps: float = 1e-9

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if not self.generators:
            raise ValueError("at least one generator required")
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.dim != self.dim:
                raise ValueError(
                    f"generator dimension {g.dim} does not match spec dimension {self.dim}"
                )

    @property
    def is_exact(self) -> bool:
        return all(g.is_exact for g in self.generators)

    def default_word_cap(self) -> int:
        if self.word_cap is not None:
            return self.word_cap
        return 12 if self.dim <= 2 else 8


class RatioFlags(NamedTuple):
    has_nonreal_ratio: bool
    has_modulus_ne1: bool
    sr_membership: Optional[str]  # "S2" | "S3" | None
    outside_SR: bool


def _some(values: List[Trilean], value: Trilean, what: str) -> bool:
    """Whether some entry is `value`: any such entry settles it, and it is
    undecidable only when none is and some entry is UNKNOWN."""
    if value in values:
        return True
    if Trilean.UNKNOWN in values:
        raise UndecidableAtPrecision(what)
    return False


def ratio_flags(spec: GroupSpec) -> RatioFlags:
    """Flags of the ratio group, decidable from generators alone.

    Real scalars multiply to real scalars, moduli multiply, and each
    crystallographic family is closed under products, so each flag is
    determined by the generators, and one generator that settles a flag
    settles it for the group: the other ratios may stay unresolved.
    """
    ratios = [g.ratio for g in spec.generators]
    nonreal = _some([r.is_real() for r in ratios], Trilean.NO,
                    "cannot resolve whether a ratio is real")
    # modulus != 1 is claimed only when provable: the flag licenses an
    # extra conclusion (minimality), never a branch, so an unresolved
    # modulus safely degrades to "not claimed" instead of aborting
    mod_ne1 = any(r.modulus_is_one() is Trilean.NO for r in ratios)
    if not _some([r.in_f2() for r in ratios], Trilean.NO,
                 "cannot resolve membership in the 4th roots"):
        sr = "S2"
    elif not _some([r.in_f3() for r in ratios], Trilean.NO,
                   "cannot resolve membership in the 6th roots"):
        sr = "S3"
    else:
        sr = None
    return RatioFlags(nonreal, mod_ne1, sr, sr is None)


# ---------------------------------------------------------------------------
# invariant affine subspace


@dataclass(frozen=True)
class AffineSubspace:
    """base + complex span of basis; basis kept orthogonal (Gram-Schmidt
    without normalization in exact mode, normalized in approx mode)."""

    base: Point
    basis: Tuple[Point, ...]
    exact: bool

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.base)

    def is_whole_space(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, z, eps: float = 1e-9) -> bool:
        z = as_point(z)
        diff = v_sub(z, self.base)
        if not self.basis:
            t = v_is_zero(diff)
            if t is Trilean.UNKNOWN:
                return max(abs(c) for c in v_to_complex(diff)) <= eps
            return t is Trilean.YES
        sol = scalar_columns_solve(list(self.basis), diff, eps=eps)
        return sol is not None

    def sample(self, rng, count: int, translations: Sequence[Point] = ()) -> List[Point]:
        """Points of the subspace.  When translation vectors are supplied the
        sample favors base +/- one vector (short words realize these)."""
        out: List[Point] = [self.base]
        usable = [t for t in translations if self.contains(v_add(self.base, t))]
        for t in usable:
            out.append(v_add(self.base, t))
            out.append(v_sub(self.base, t))
        while len(out) < count and self.basis:
            coeffs = [
                Scalar.approx(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), 0.0)
                for _ in self.basis
            ]
            p = self.base
            for c, v in zip(coeffs, self.basis):
                p = v_add(p, v_scale(c, v))
            out.append(p)
        return out[: max(count, 1)]

    def to_report(self) -> dict:
        from .exact_algebra import format_scalar

        return {
            "dim": self.dim,
            "ambient_dim": self.ambient_dim,
            "exact": self.exact,
            "base": [format_scalar(c) for c in self.base],
            "basis": [[format_scalar(c) for c in v] for v in self.basis],
        }


def _independent_append(basis: List[Point], v: Point, eps: float) -> bool:
    """Append v if it is outside span(basis); True when appended."""
    zero = v_is_zero(v)
    if zero is Trilean.YES:
        return False
    if basis and scalar_columns_solve(basis, v, eps=eps) is not None:
        return False
    if not basis and zero is Trilean.UNKNOWN:
        return False
    basis.append(v)
    return True


def _orthogonalize(basis: List[Point], exact: bool) -> List[Point]:
    from .affine_maps import hermitian_dot

    out: List[Point] = []
    for v in basis:
        w = v
        for u in out:
            num = hermitian_dot(w, u)
            den = hermitian_dot(u, u)
            w = v_sub(w, v_scale(num / den, u))
        if v_is_zero(w) is not Trilean.YES:
            if not exact:
                norm = math.hypot(*(abs(c) for c in v_to_complex(w)))
                if norm == 0.0:
                    raise UndecidableAtPrecision("cannot resolve whether E_G gains a direction")
                w = v_scale(Scalar.approx(complex(1.0 / norm, 0.0), 0.0), w)
            out.append(w)
    return out


def compute_EG(spec: GroupSpec) -> AffineSubspace:
    """Smallest generator-invariant affine subspace containing the seed set.

    Seeds: centers of non-translation generators, plus p0 shifted by every
    translation-generator vector and every pairwise commutator vector (p0
    the first center).  A homothety maps base + span(B) into itself exactly
    when it maps the base point in, so saturation only tracks images of the
    base; each round either adds an independent direction or stops.
    """
    gens = spec.generators
    non_translations: List[Homothety] = []
    translation_vectors: List[Point] = []
    for g in gens:
        t = g.is_translation()
        if t is Trilean.UNKNOWN:
            raise UndecidableAtPrecision("cannot resolve whether a ratio equals 1")
        if t is Trilean.YES:
            translation_vectors.append(g.shift)
        else:
            non_translations.append(g)

    # one pair that does not commute settles it, whatever the others give
    commuting = {f.commutes(g) for f, g in combinations(gens, 2)}
    if Trilean.NO not in commuting:
        if Trilean.UNKNOWN in commuting:
            raise UndecidableAtPrecision("cannot resolve a commutation test")
        raise AbelianGroup("all generator pairs commute")
    if not non_translations:
        raise AbelianGroup("translation-only groups are abelian")

    p0 = non_translations[0].center()
    seeds: List[Point] = [g.center() for g in non_translations]
    for v in translation_vectors:
        seeds.append(v_add(p0, v))
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            v = gens[i].commutator(gens[j])
            if v_is_zero(v) is not Trilean.YES:
                seeds.append(v_add(p0, v))

    eps = spec.eps
    basis: List[Point] = []
    for s in seeds:
        _independent_append(basis, v_sub(s, p0), eps)
    for _ in range(spec.dim + 1):
        grew = False
        for g in gens:
            image = g.apply(p0)
            if _independent_append(basis, v_sub(image, p0), eps):
                grew = True
        if not grew:
            break
    exact = spec.is_exact
    basis = _orthogonalize(basis, exact)
    sub = AffineSubspace(base=p0, basis=tuple(basis), exact=exact)
    images = [g.apply(p0) for g in gens]
    for what, points in (("lost a seed point", seeds), ("is not generator-invariant", images)):
        if not all(sub.contains(p, eps) for p in points):
            # approximate data fail this check when eps is below their rounding
            error = AssertionError if exact else UndecidableAtPrecision
            raise error(f"invariant subspace {what}")
    return sub


# ---------------------------------------------------------------------------
# crystallographic restriction


class CrystalVerdict:
    NOT_ROTATION = "NotRotation"
    COMPATIBLE_DISCRETE = "CompatibleDiscrete"
    FORCES_DENSE = "ForcesDense"


_CRYSTAL_COS = (-1.0, -0.5, 0.0, 0.5, 1.0)


def crystallographic_test(ratio: Scalar) -> str:
    """Can the rotation with this ratio preserve a planar lattice?

    Unit-modulus ratios are lattice-compatible exactly when cos of the
    angle lies in {-1, -1/2, 0, 1/2, 1}; anything else forces density.
    """
    ratio = Scalar._coerce(ratio)
    m = ratio.modulus_is_one()
    if m is Trilean.NO:
        return CrystalVerdict.NOT_ROTATION
    if ratio.is_exact:
        if 2 * ratio.exact_value.real_part() in (-2, -1, 0, 1, 2):
            return CrystalVerdict.COMPATIBLE_DISCRETE
        return CrystalVerdict.FORCES_DENSE
    # approximate ratio numerically consistent with the unit circle: the
    # angle decides regardless of how the modulus resolves, because neither
    # a non-crystallographic rotation nor a strict contraction/expansion
    # can preserve a planar lattice
    z = ratio.to_complex()
    cos_theta = z.real / abs(z)
    err = ratio.err * 4 + 1e-15
    dist = min(abs(cos_theta - c) for c in _CRYSTAL_COS)
    if dist <= err:
        raise UndecidableAtPrecision(
            "cos of the rotation angle is within error of the crystallographic set"
        )
    return CrystalVerdict.FORCES_DENSE


# ---------------------------------------------------------------------------
# the translation subgroup T = ker(G -> Lambda)


class SchreierGenerators(NamedTuple):
    step: int  # the ratio group Lambda is generated by zeta12^step
    witness: Homothety  # a word whose ratio is zeta12^step
    shifts: Tuple[Point, ...]  # nonzero shift vectors generating T


def schreier_generators(spec: GroupSpec) -> Optional[SchreierGenerators]:
    """Generators of the translation subgroup when every ratio is an exact
    12th root of unity; None otherwise (Lambda infinite or approximate).

    Breadth-first search over exponent residues mod 12 keeps one word w_r
    per element zeta12^r of Lambda, w_0 the identity.  For each w_r and each
    generator g of exponent e, w_(r+e)^-1 o g o w_r has ratio exactly 1,
    and by Schreier's lemma these translations generate T.  The fixed point
    of the witness is a valid coset apex: its powers realize all of Lambda
    about that point (no single generator need do so).
    """
    expo: List[int] = []
    for g in spec.generators:
        k = g.ratio.exact_value.root_of_unity_log() if g.ratio.is_exact else None
        if k is None:
            return None
        expo.append(k)
    words = {0: Homothety.identity(spec.dim)}
    frontier = [0]
    steps = [(g, e) for g, e in zip(spec.generators, expo)]
    steps += [(g.inverse(), (-e) % 12) for g, e in zip(spec.generators, expo)]
    while frontier:
        nxt: List[int] = []
        for r in frontier:
            for g, e in steps:
                r2 = (r + e) % 12
                if r2 not in words:
                    words[r2] = g.compose(words[r])
                    nxt.append(r2)
        frontier = nxt
    shifts: List[Point] = []
    seen = set()
    for r, w in words.items():
        for g, e in zip(spec.generators, expo):
            t = words[(r + e) % 12].inverse().compose(g.compose(w)).shift
            key = tuple(c.exact_value if c.is_exact else c.to_complex() for c in t)
            if key not in seen and v_is_zero(t) is not Trilean.YES:
                seen.add(key)
                shifts.append(t)
    step = math.gcd(12, *expo)
    return SchreierGenerators(step, words[step % 12], tuple(shifts))


def _infinite_ratio_g1_closure(spec: GroupSpec, nonreal: bool) -> AdditiveClosure:
    # Some ratio is not an exact 12th root of unity.  ratio_flags has then
    # proved Lambda to lie in neither crystallographic family (an
    # approximate ratio is never proved to be a root), so Lambda holds a
    # ratio of modulus other than 1 or of infinite order, or is a finite
    # rotation group of an order other than 1, 2, 3, 4 and 6; either way it
    # preserves no lattice.  T is nonzero (the group is non-abelian) and
    # invariant under multiplication by every ratio, so T is not discrete.
    # A non-discrete closed subgroup of C that a non-real ratio preserves is
    # all of C; with real ratios only, it is the real span of T, which the
    # commutator vectors span.
    vectors = [f.commutator(g)[0] for f, g in combinations(spec.generators, 2)]
    c = next(v for v in vectors if v.eq_zero() is Trilean.NO)
    if nonreal or any((v * c.conj()).is_real() is Trilean.NO for v in vectors):
        return AdditiveClosure(exact=spec.is_exact, directions=PLANE_DIRECTIONS)
    direction = c.exact_value if c.is_exact else _planar_float(c.to_complex())
    return AdditiveClosure(exact=spec.is_exact, directions=(direction,))


# ---------------------------------------------------------------------------
# translation-subgroup sandwich (dimension 1)


def g1_lattice_bounds(spec: GroupSpec) -> Tuple[List[Scalar], List[Scalar]]:
    """Inner and outer lattice generators bracketing the translation
    subgroup for a one-dimensional pair of equal-ratio rotations, as
    scalars (inner, outer)."""
    if spec.dim != 1:
        raise ValueError("lattice sandwich applies to dimension 1")
    pair = _sandwich_pair(spec)
    if pair is None:
        raise ValueError(
            "lattice sandwich needs two unit-modulus generators sharing a ratio"
            " with distinct centers"
        )
    f, g = pair
    lam = f.ratio
    a = v_sub(g.center(), f.center())[0]
    one = SCALAR_ONE
    lam_bar = lam.conj()
    inner = [
        (one - lam_bar) ** 2 * a,
        (lam - one) ** 2 * a,
        lam * (lam - one) ** 2 * a,
    ]
    outer = [(one - lam_bar) * a, (one - lam) * a]
    return inner, outer


def _sandwich_pair(spec: GroupSpec) -> Optional[Tuple[Homothety, Homothety]]:
    gens = [
        g
        for g in spec.generators
        if g.is_translation() is Trilean.NO
        and g.ratio.modulus_is_one() is Trilean.YES
        # the bracketing lattices exist only for crystallographic angles:
        # an order-8/12/infinite rotation spreads Z[ratio] densely
        and g.ratio.root_of_unity_order() in (2, 3, 4, 6)
    ]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            f, g = gens[i], gens[j]
            if f.ratio.eq(g.ratio) is not Trilean.YES:
                continue
            if v_is_zero(v_sub(f.center(), g.center())) is Trilean.NO:
                return f, g
    return None


# ---------------------------------------------------------------------------
# the assembled profile


@dataclass(frozen=True)
class GroupProfile:
    spec: GroupSpec
    has_nonreal_ratio: bool
    has_modulus_ne1: bool
    sr_membership: Optional[str]
    outside_SR: bool
    E_G: AffineSubspace
    gamma_seeds: Tuple[Point, ...]
    lambda_closure: MultClosure
    schreier: Optional[SchreierGenerators] = None
    g1_closure: Optional[AdditiveClosure] = None
    g1_inner: Optional[Tuple[Scalar, ...]] = None
    g1_outer: Optional[Tuple[Scalar, ...]] = None
    g1_pinned: Optional[bool] = None
    exact: bool = True

    def to_report(self) -> dict:
        from .exact_algebra import format_scalar

        out = {
            "has_nonreal_ratio": self.has_nonreal_ratio,
            "has_modulus_ne1": self.has_modulus_ne1,
            "sr_membership": self.sr_membership,
            "outside_SR": self.outside_SR,
            "invariant_subspace": self.E_G.to_report(),
            "gamma_seeds": [
                [format_scalar(c) for c in p] for p in self.gamma_seeds
            ],
            "lambda_closure": self.lambda_closure.to_report(),
            "exact": self.exact,
        }
        if self.g1_closure is not None:
            out["translation_closure"] = self.g1_closure.to_report()
        if self.g1_inner is not None:
            out["g1_inner"] = [format_scalar(s) for s in self.g1_inner]
            out["g1_outer"] = [format_scalar(s) for s in self.g1_outer]
            out["g1_pinned"] = self.g1_pinned
        return out


def compute_profile(spec: GroupSpec) -> GroupProfile:
    """Derive every profile field; raises AbelianGroup for abelian input."""
    flags = ratio_flags(spec)
    eg = compute_EG(spec)
    gamma_seeds = tuple(
        g.center() for g in spec.generators if g.is_translation() is Trilean.NO
    )
    lam = classify_multiplicative_closure([g.ratio for g in spec.generators])
    schreier = schreier_generators(spec)
    g1_closure = None
    g1_inner = None
    g1_outer = None
    g1_pinned = None
    if schreier is not None:
        g1_closure = classify_additive_closure(schreier.shifts)
    elif spec.dim == 1:
        g1_closure = _infinite_ratio_g1_closure(spec, flags.has_nonreal_ratio)
    if spec.dim == 1:
        try:
            inner, outer = g1_lattice_bounds(spec)
            g1_inner = tuple(inner)
            g1_outer = tuple(outer)
            g1_pinned = classify_additive_closure(inner) == classify_additive_closure(outer)
        except ValueError:
            pass
    exact = spec.is_exact and eg.exact and lam.exact
    return GroupProfile(
        spec=spec,
        has_nonreal_ratio=flags.has_nonreal_ratio,
        has_modulus_ne1=flags.has_modulus_ne1,
        sr_membership=flags.sr_membership,
        outside_SR=flags.outside_SR,
        E_G=eg,
        gamma_seeds=gamma_seeds,
        lambda_closure=lam,
        schreier=schreier,
        g1_closure=g1_closure,
        g1_inner=g1_inner,
        g1_outer=g1_outer,
        g1_pinned=g1_pinned,
        exact=exact,
    )
