"""Brute-force ground truth for orbit structure.

Enumerates orbit points breadth-first by words in the generators and their
inverses, harvests the translation subgroup by composing maps and keeping
ratio-one words, and measures density/discreteness evidence against a
predicted closure description.  Nothing here is clever on purpose: the
point of the module is to be an independent check on the symbolic engine,
and it reads nothing of the engine but the generator list.

All four searches (points or maps, exact or approximate) run one
breadth-first loop over arrays of rows: a generation expands the whole
frontier at once and keeps the rows whose keys are not yet in a hash set
of exact row keys (a row's bytes, or its tuple of Python ints).  Exact
input uses integer rows: a point of Q(zeta)^n is its 4n numerators and
one common denominator, reduced, so equal points have equal rows, and
each letter is an integer matrix; the harvest runs the same kernel on map
states [ratio | shift].  Rows are int64 while a bound on the next
products stays below 2^62 and Python ints past it.  Approximate input
uses complex rows keyed on a grid: points on a 1e-7 grid, letter-major;
maps, frontier-major like the exact searches, on a 1e-12 grid, with the
net generator exponents carried along.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .affine_maps import Homothety, Point, as_point, point_row, rows_to_points, v_to_complex
from .exact_algebra import (
    INT64_SAFE,
    SCALAR_ONE,
    SQRT3,
    CycloScalar,
    Scalar,
    Trilean,
    UndecidableAtPrecision,
    max_abs,
    planar_lifts,
)
from .group_profile import GroupSpec

DEFAULT_BUDGET = 2_000_000
HARVEST_BUDGET = 200_000
GRID_DEDUP_EPS = 1e-7
MIN_GAP_POINT_CAP = 200_000
APPROACH_COUNT = 24  # closure points tested for approach by the orbit
_FLOAT_SAFE = 2 ** 51  # below this, lifted numerators and 2 * den are exact in float64


class BudgetExceeded(Exception):
    """Enumeration passed the configured point cap; `.sample` holds the
    deduplicated points found so far (flagged truncated)."""

    def __init__(self, sample: "OrbitSample"):
        super().__init__(
            f"orbit enumeration exceeded budget at {len(sample.array)} points"
        )
        self.sample = sample


@dataclass
class OrbitSample:
    """Deduplicated orbit points with first-appearance word lengths.

    `array` always holds float coordinates (rows of complex numbers, one
    column per ambient dimension); `rows` is set only in exact-dedup mode
    and is parallel to `array`: the search kernel's reduced integer rows
    (see `affine_maps.point_row`), int64 or Python ints.
    """

    base: Point
    array: np.ndarray  # (N, n) complex128
    generations: np.ndarray  # (N,) int32, first word length
    word_cap: int
    dedup: str  # "exact" | "grid"
    grid_eps: float
    rows: Optional[np.ndarray] = None  # (N, 4n + 1) integers
    truncated: bool = False

    def __len__(self) -> int:
        return int(self.array.shape[0])

    @property
    def dim(self) -> int:
        return int(self.array.shape[1])

    @property
    def exact_points(self) -> Optional[List[Point]]:
        """The exact points of `rows`, built on each access; None in grid mode."""
        return None if self.rows is None else rows_to_points(self.rows, self.dim)

    def real_array(self) -> np.ndarray:
        """(N, 2n) float64 view: re(z1), im(z1), ..., re(zn), im(zn)."""
        n = self.dim
        out = np.empty((len(self), 2 * n), dtype=np.float64)
        out[:, 0::2] = self.array.real
        out[:, 1::2] = self.array.imag
        return out

    def generation_counts(self) -> List[Tuple[int, int]]:
        counts = np.bincount(self.generations).tolist()
        return list(zip(range(len(counts)), counts))

    def csv_text(self) -> str:
        n = self.dim
        header = []
        for j in range(1, n + 1):
            header += [f"re(z{j})", f"im(z{j})"]
        header.append("generation")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        rows = self.real_array()
        for row, g in zip(rows, self.generations):
            w.writerow([repr(float(x)) for x in row] + [int(g)])
        return buf.getvalue()

    def to_report(self) -> dict:
        return {
            "n_points": len(self),
            "word_cap": self.word_cap,
            "dedup": self.dedup,
            "grid_eps": self.grid_eps,
            "truncated": self.truncated,
            "generation_counts": self.generation_counts(),
        }


def _letters(spec: GroupSpec) -> List[Homothety]:
    """Generator alphabet in deterministic order: g1, g1^-1, g2, g2^-1, ..."""
    out: List[Homothety] = []
    for g in spec.generators:
        out.append(g)
        out.append(g.inverse())
    return out


def enumerate(
    spec: GroupSpec,
    z,
    L: int,
    budget: int = DEFAULT_BUDGET,
    force_grid: bool = False,
) -> OrbitSample:
    """Breadth-first closure of {z} under the generators and inverses up to
    word length L.

    Deduplication is exact when every scalar in sight is exact, else an
    epsilon-grid (a completeness device, not a soundness one: distinct cells
    are genuinely distinct points, merged cells may hide near-duplicates).
    Output order is deterministic: by generation, then by the order in
    which the fixed generator alphabet produces new points, frontier-major
    (each point under every letter in turn) in exact mode and letter-major
    (each letter over the whole frontier) on the grid.
    """
    if L < 0:
        raise ValueError("word cap must be nonnegative")
    z = as_point(z)
    if len(z) != spec.dim:
        raise ValueError("point dimension does not match the group")
    exact_mode = spec.is_exact and all(c.is_exact for c in z) and not force_grid
    if exact_mode:
        letters = [_letter_matrix(h, False) for h in _letters(spec)]
        rows, gens, truncated = _row_bfs(point_row(z), letters, L, budget + 1)
        array, cell = _rows_to_complex(rows, spec.dim), 0.0
    else:
        rows, cell = None, GRID_DEDUP_EPS
        array, gens, truncated = _grid_bfs(spec, z, L, budget + 1)
    sample = OrbitSample(base=z, array=array, generations=gens, word_cap=L, grid_eps=cell,
                         dedup="exact" if exact_mode else "grid", rows=rows, truncated=truncated)
    if truncated:
        raise BudgetExceeded(sample)
    return sample


# ---------------------------------------------------------------------------
# the breadth-first loop of every search
#
# A search state is one row of an array, a generation is one step on the
# whole frontier, and dedup looks up one exact key per row in a set.


def _row_keys(q: np.ndarray) -> list:
    """One hashable key per row: the row's bytes (int64 or float64 rows),
    else a tuple of Python ints."""
    if q.dtype == object:
        return list(map(tuple, q.tolist()))
    q = np.ascontiguousarray(q)
    return q.view(f"V{q.shape[1] * q.itemsize}").reshape(-1).tolist()


# candidates keyed at a time, so that the keys of a whole generation never
# exist at once
_KEY_BLOCK = 1 << 16


def _admit(
    seen: set, cand: np.ndarray, keys: Callable[[np.ndarray], list], room: int
) -> Tuple[np.ndarray, bool]:
    """Indices, in candidate order, of the first occurrence of each key
    not in `seen`, which become seen: the dedup step of the breadth-first
    loop.  When there are `room` or more the first max(room, 1) are kept
    and `full` is True; the keys past them are not added, since a search
    stops right after the row that reaches its cap."""
    new = []
    limit = max(room, 1)
    for start in range(0, cand.shape[0], _KEY_BLOCK):
        block = keys(cand[start : start + _KEY_BLOCK])
        for i, k in zip(range(start, start + len(block)), block):
            if k not in seen:
                seen.add(k)
                new.append(i)
                if len(new) == limit:
                    return np.array(new, dtype=np.intp), True
    return np.array(new, dtype=np.intp), False


def _bfs(
    start: np.ndarray,
    expand: Callable[[np.ndarray], np.ndarray],
    keys: Callable[[np.ndarray], list],
    L: int,
    cap: int,
    prepare: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """(rows, generations, stopped): breadth-first closure of the one-row
    array `start` up to word length L, stopping right after the row count
    reaches `cap`.

    `expand` maps a frontier to its candidate rows and `keys` gives one
    hashable key per row; the new candidates, those whose key is not yet
    in the set of seen keys, keep candidate order.  `prepare`, when given,
    runs on each frontier before it is expanded; when it returns another
    dtype, every earlier row is converted too and keyed again."""
    frontier = start
    seen = set(keys(frontier))
    chunks = [frontier]
    gens = [np.zeros(1, dtype=np.int32)]
    total = 1
    stopped = False
    for level in range(1, L + 1):
        if frontier.shape[0] == 0:
            break
        if prepare is not None:
            frontier = prepare(frontier)
            if frontier.dtype != chunks[-1].dtype:
                chunks = [c.astype(frontier.dtype) for c in chunks]
                seen = set(keys(np.concatenate(chunks)))
        cand = expand(frontier)
        new, stopped = _admit(seen, cand, keys, cap - total)
        frontier = cand[new]
        chunks.append(frontier)
        gens.append(np.full(new.shape[0], level, dtype=np.int32))
        total += new.shape[0]
        if stopped:
            break
    return np.concatenate(chunks), np.concatenate(gens), stopped


# ---------------------------------------------------------------------------
# integer rows (exact mode)
#
# A point of Q(zeta)^k is its reduced row of 4k + 1 integers (see
# `affine_maps.point_row`).  A letter z -> lam * z + s acts on rows as one
# integer matrix (homogeneous coordinates), and a generation is one matrix
# product of the frontier with every letter.


def _letter_matrix(h: Homothety, ratio_coord: bool) -> np.ndarray:
    """Integer (K, K) matrix T of h with row' = T @ row, as Python ints.

    With lam = Lam/a and s = S/b, h(N/D) = (b Lam N + a S D) / (a b D).
    With `ratio_coord` the row is a map state [ratio | shift] and T is
    composition on the left: the ratio coordinate is multiplied by lam and
    not shifted."""
    lam_nums, a = h.ratio.exact_value.numerators
    num = CycloScalar(*lam_nums)
    mul = np.array(
        [(num * CycloScalar.zeta_power(j)).numerators[0] for j in range(4)], dtype=object
    ).T  # column j: Lam * zeta^j
    shift = point_row(h.shift)
    b = shift[-1]
    first = 4 if ratio_coord else 0
    size = first + len(shift)
    out = np.zeros((size, size), dtype=object)
    for i in range(0, size - 1, 4):
        out[i: i + 4, i: i + 4] = b * mul
    out[first:-1, -1] = [a * s for s in shift[:-1]]
    out[-1, -1] = a * b
    return out


def _row_bfs(
    start: List[int], letters: Sequence[np.ndarray], L: int, cap: int
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """`_bfs` on integer rows under the letter matrices, frontier-major.

    Rows are int64 while every product provably stays below 2^62, checked
    in Python ints before each generation; past that the same search runs
    on Python-int (object) rows."""
    size = len(start)
    wide = np.concatenate([t.T for t in letters], axis=1)  # (K, letters * K)
    growth = max(int(np.abs(t).sum(axis=1).max()) for t in letters)
    wide64 = wide.astype(np.int64) if growth < INT64_SAFE else None

    def prepare(rows: np.ndarray) -> np.ndarray:
        if rows.dtype != object and max_abs(rows) * growth >= INT64_SAFE:
            return rows.astype(object)
        return rows

    def expand(rows: np.ndarray) -> np.ndarray:
        cand = (rows @ (wide if rows.dtype == object else wide64)).reshape(-1, size)
        cand //= np.gcd.reduce(cand, axis=1)[:, None]
        return cand

    first = np.array([start], dtype=object)
    if max_abs(first) * growth < INT64_SAFE:
        first = first.astype(np.int64)
    return _bfs(first, expand, _row_keys, L, cap, prepare)


def _rows_to_complex(rows: np.ndarray, k: int) -> np.ndarray:
    """(N, k) complex128 coordinates of (N, 4k + 1) rows, bit for bit
    `CycloScalar.to_complex`: both divide the same rationals, correctly
    rounded (int64 only while numerators and denominators are exact in
    float64, Python ints otherwise).  A coordinate past float range raises
    UndecidableAtPrecision: the float evidence cannot hold such an orbit."""
    if rows.dtype != object and max_abs(rows) >= _FLOAT_SAFE:
        rows = rows.astype(object)
    lift, den = planar_lifts(rows[:, :-1].reshape(rows.shape[0], k, 4), rows[:, -1:])
    out = np.empty((rows.shape[0], k), dtype=np.complex128)
    try:
        out.real = lift[..., 0] / den + (lift[..., 1] / den) * SQRT3
        out.imag = lift[..., 2] / den + (lift[..., 3] / den) * SQRT3
        finite = bool(np.isfinite(out).all())
    except OverflowError:  # a quotient of Python ints past float range
        finite = False
    if not finite:
        raise UndecidableAtPrecision(
            "an orbit point lies beyond float range, so its float evidence cannot be measured"
        )
    return out


# ---------------------------------------------------------------------------
# complex rows (approximate mode), deduplicated on a grid


def _cell_keys(rows: np.ndarray, cell: float) -> np.ndarray:
    """One key per complex row: its parts divided by `cell` and rounded,
    kept in float64 so that no coordinate overflows (adding 0.0 folds -0.0
    into 0.0); a row past float range keys as inf or nan, silently, and
    overflows later where the caller turns it into exit 3."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _row_keys(np.round(np.ascontiguousarray(rows).view(np.float64) / cell) + 0.0)


def _grid_bfs(spec: GroupSpec, z: Point, L: int, cap: int) -> Tuple[np.ndarray, np.ndarray, bool]:
    letters = _letters(spec)
    ratios = [l.ratio.to_complex() for l in letters]
    shifts = np.array([v_to_complex(l.shift) for l in letters], dtype=np.complex128)

    def expand(rows: np.ndarray) -> np.ndarray:
        # letter-major, in numpy's complex products
        return np.concatenate([r * rows + t for r, t in zip(ratios, shifts)])

    start = np.array([v_to_complex(z)], dtype=np.complex128)
    return _bfs(start, expand, lambda rows: _cell_keys(rows, GRID_DEDUP_EPS), L, cap)


# ---------------------------------------------------------------------------
# translation harvesting (map-level breadth-first search)


def _vector_key(v: Point, exact: bool, cell: float = 1e-12):
    if exact:
        return v
    coords = v_to_complex(v)
    if not np.isfinite(coords).all():  # exit 3, not a ValueError on nan
        raise OverflowError("a harvested translation is past float range")
    return tuple((round(c.real / cell), round(c.imag / cell)) for c in coords)


def harvest_translations(spec: GroupSpec, L: int) -> List[Point]:
    """Translation vectors of all words of length <= L whose composed map
    has ratio exactly 1, deduplicated, plus every pairwise generator
    commutator (a length-4 word); the zero vector (empty word) is always
    present.

    Maps, not points, are enumerated, frontier-major.  With exact
    generators a map state is the row [ratio | shift] of the integer
    kernel, and the ratio-one states are read off the rows.  With
    approximate ones it is a complex row that also carries the net
    exponent of each generator: the ratio of a word is the product of
    generator ratios with those exponents, which detects ratio-one words
    even with approximate scalars.  When the map-state count reaches
    HARVEST_BUDGET the search stops expanding (the result is then a
    sublist of the full harvest, which is safe for every use here:
    harvests are lower-bound evidence).
    """
    exact = spec.is_exact
    found = _harvest_exact(spec, L) if exact else _harvest_approx(spec, L)
    # commutators are always included, whatever the cap
    m = len(spec.generators)
    for i in range(m):
        for j in range(i + 1, m):
            f, g = spec.generators[i], spec.generators[j]
            found.append(f.compose(g).compose(f.inverse()).compose(g.inverse()).shift)
    vectors: List[Point] = []
    known: Set = set()
    for v in found:
        key = _vector_key(v, exact)
        if key not in known:
            known.add(key)
            vectors.append(v)
    return vectors


def _harvest_exact(spec: GroupSpec, L: int) -> List[Point]:
    letters = [_letter_matrix(h, True) for h in _letters(spec)]
    identity = [1, 0, 0, 0] + [0] * (4 * spec.dim) + [1]
    rows, _, _ = _row_bfs(identity, letters, L, HARVEST_BUDGET)
    # distinct maps of ratio one have distinct shifts
    ratio_one = (rows[:, 0] == rows[:, -1]) & np.all(rows[:, 1:4] == 0, axis=1)
    return rows_to_points(rows[ratio_one][:, 4:], spec.dim)


def _harvest_approx(spec: GroupSpec, L: int) -> List[Point]:
    """The map search on complex rows [ratio | shift | exponents | count],
    where `count` is the number of letters with an approximate ratio in the
    word.  Maps are keyed on their first n + 1 columns at 1e-12, so a float
    word equal to an exact one is not a second state.  A word has ratio one
    when its exponents are all zero, or when its count is 0 and the exact
    ratios raised to its exponents multiply to 1."""
    n, m = spec.dim, len(spec.generators)
    letters = _letters(spec)
    ratios = np.array([[l.ratio.to_complex()] for l in letters])
    # what letter i adds: its shift, +-1 to generator i // 2, and 1 to the
    # count when its ratio is approximate
    steps = np.zeros((len(letters), n + m + 1), dtype=np.complex128)
    for i, l in zip(range(len(letters)), letters):
        steps[i, :n] = v_to_complex(l.shift)
        steps[i, n + i // 2] = 1 - 2 * (i % 2)
        steps[i, -1] = 0 if l.ratio.is_exact else 1

    def expand(rows: np.ndarray) -> np.ndarray:
        # frontier-major; ratio and shift are multiplied by the letter's
        # ratio as Python multiplies complex numbers (numpy's product can
        # differ in the last bit)
        cand = np.repeat(rows[:, None], len(letters), axis=1)
        a, b = ratios, rows[:, None, : n + 1]
        head = cand[..., : n + 1]
        with np.errstate(over="ignore", invalid="ignore"):  # keyed as inf or nan, as above
            head.real, head.imag = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
        cand[..., 1:] += steps
        return cand.reshape(-1, rows.shape[1])

    start = np.eye(1, n + m + 2, dtype=np.complex128)  # the identity map
    rows, _, _ = _bfs(start, expand, lambda r: _cell_keys(r[:, : n + 1], 1e-12), L, HARVEST_BUDGET)

    @functools.cache
    def ratio_one(e: Tuple[int, ...]) -> bool:
        # for a word of exact-ratio letters: is its ratio exactly 1?
        r = SCALAR_ONE
        for g, k in zip(spec.generators, e):
            r = r * g.ratio ** k
        return r.eq(SCALAR_ONE) is Trilean.YES

    exps = map(tuple, rows[:, n + 1: -1].real.astype(np.int64).tolist())
    keep = [not any(e) or (c == 0 and ratio_one(e)) for e, c in zip(exps, rows[:, -1].real.tolist())]
    return [tuple(map(Scalar.approx, v)) for v, k in zip(rows[:, 1: n + 1].tolist(), keep) if k]


# ---------------------------------------------------------------------------
# evidence measurement


@dataclass
class EvidenceReport:
    """Numbers a skeptic would ask for, plus the pass/fail they imply.

    soundness: no sampled orbit point may sit farther than tolerance from
    the predicted closure (exactly on it in exact mode).  density: fraction
    of window grid cells on the closure's trace that the orbit actually
    visits.  discreteness: the minimum pairwise gap must stop shrinking as
    the word length grows.
    """

    n_points: int
    max_violation: float
    violations_checked: int
    exact_membership: bool
    fill_fraction: float
    window_fill_fraction: float
    occupied_cells: int
    trace_cell_count: int
    total_cells: int
    min_gap: float
    min_gap_history: List[Tuple[int, float]]
    min_gap_points_used: int
    window_center: Tuple[float, ...]
    window_half: float
    grid_res: int
    eps: float
    approach_max: Optional[float] = None
    approach_points: int = 0

    @property
    def soundness_pass(self) -> bool:
        if self.exact_membership:
            return self.max_violation == 0.0
        return self.max_violation <= 1e-9

    @property
    def density_pass(self) -> bool:
        return self.fill_fraction >= 0.9

    @property
    def discreteness_pass(self) -> bool:
        h = self.min_gap_history
        if len(h) < 3 or self.min_gap <= 0.0:
            return False
        tail = [g for _, g in h[-3:]]
        lo, hi = min(tail), max(tail)
        return hi - lo <= 1e-12 * max(1.0, hi)

    def to_report(self) -> dict:
        return {
            "n_points": self.n_points,
            "max_violation": self.max_violation,
            "violations_checked": self.violations_checked,
            "exact_membership": self.exact_membership,
            "fill_fraction": self.fill_fraction,
            "window_fill_fraction": self.window_fill_fraction,
            "occupied_cells": self.occupied_cells,
            "trace_cell_count": self.trace_cell_count,
            "total_cells": self.total_cells,
            "min_gap": self.min_gap,
            "min_gap_history": [[int(g), float(v)] for g, v in self.min_gap_history],
            "min_gap_points_used": self.min_gap_points_used,
            "approach_max": self.approach_max,
            "approach_points": self.approach_points,
            "window_center": list(self.window_center),
            "window_half": self.window_half,
            "grid_res": self.grid_res,
            "eps": self.eps,
            "soundness_pass": self.soundness_pass,
            "density_pass": self.density_pass,
            "discreteness_pass": self.discreteness_pass,
        }


def _window_params(window, dim: int) -> Tuple[np.ndarray, float]:
    """Accept a half-width or a (center, half-width) pair; center is a
    point of C^n flattened to 2n reals."""
    if isinstance(window, (int, float)):
        return np.zeros(2 * dim), float(window)
    center, half = window
    c = np.asarray(
        [x for z in center for x in (complex(z).real, complex(z).imag)], dtype=float
    )
    if c.shape != (2 * dim,):
        raise ValueError("window center dimension mismatch")
    return c, float(half)


def _occupied_cells(
    real_pts: np.ndarray, center: np.ndarray, half: float, res: int
) -> Set[bytes]:
    """Cells of the window grid visited by at least one point."""
    cell = 2.0 * half / res
    rel = real_pts - center
    inside = np.all(np.abs(rel) <= half + 1e-12, axis=1)
    idx = np.floor((rel[inside] + half) / cell).astype(np.int64)
    np.clip(idx, 0, res - 1, out=idx)
    return set(_row_keys(idx))


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of a and b (one broadcasts).

    Summed as a k-d tree query sums them for the Euclidean metric: four
    running sums over the coordinates in blocks of four, added in order,
    then the remaining coordinates one by one; so the square roots are
    the distances such a query reports, bit for bit."""
    d = a - b
    d *= d
    n = d.shape[-1]
    head = n - n % 4
    s = np.zeros(d.shape[:-1])
    if head:
        acc = [d[..., k] for k in range(4)]
        for i in range(4, head):
            acc[i % 4] = acc[i % 4] + d[..., i]
        s = ((acc[0] + acc[1]) + acc[2]) + acc[3]
    for i in range(head, n):
        s = s + d[..., i]
    return s


# odd 64-bit multipliers: a cell's key is the wrapping dot product of its
# integer coordinates with these, so a neighbouring cell's key is the key
# plus a constant; distinct cells whose keys collide only add candidates
# (no cell's key is a neighbour's, so a point never meets itself)
_CELL_HASH = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93],
    dtype=np.uint64,
)
# per count of binned coordinates, the neighbour offsets whose first nonzero
# coordinate is +1: with the own cell, each pair of neighbouring cells once
_FORWARD = {
    k: np.array([o for o in itertools.product((-1, 0, 1), repeat=k) if o > (0,) * k], dtype=np.int64)
    for k in range(1, 5)
}
_DENSE_CELLS = 16  # a grid box of at most this many cells per point (and 4,096) is a flat table
_ANCHOR_BLOCK = 1024
_PAIR_BLOCK = 1 << 16
_FIRST_EPOCH = 64  # points
_EPOCH_SHRINK = 16.0


def _pair_minima(pts: np.ndarray, gen: np.ndarray, lo: int, stop: int, bound_sq: float) -> np.ndarray:
    """For each generation g from lo to stop - 1: the least squared distance
    between two points the later of which has generation g (pts in
    generation order, none of generation stop or later), exact whenever it
    is at most bound_sq, and otherwise some value above it.

    Grid cells on the first (up to four) coordinates are a little over
    sqrt(bound_sq) wide, so two points that close lie in one cell or in
    neighbouring ones.  Each point, in the order of its cell's key, meets the
    points after it in its own cell and every point of its forward
    neighbours, so each such pair is measured once.  A small box of cells is
    a flat table indexed by cell; a large one is looked up in the sorted keys.
    At most 2^40 cells span the extent, so cell positions round by at most
    2^-12 of a cell, far inside the 2^-7 margin."""
    hi, k = pts.shape[0], min(pts.shape[1], 4)
    sub = pts[:, :k]
    low = sub.min(axis=0)
    extent = sub.max(axis=0) - low
    side = max(math.sqrt(bound_sq) * (1 + 2.0**-6), float(extent.max()) * 2.0**-40)
    cell = np.floor((sub - low) / side).astype(np.int64)
    span = np.floor(extent / side) + 3  # with an empty cell on each side
    cells = float(np.prod(span))
    table = cells <= _DENSE_CELLS * hi + 4096
    if table:
        mult = np.cumprod(np.r_[1, span[:-1]]).astype(np.int64)
        keys = (cell + 1) @ mult
        steps = _FORWARD[k] @ mult
    else:
        mult = _CELL_HASH[:k]
        keys = (cell.astype(np.uint64) * mult).sum(axis=1)
        steps = (_FORWARD[k].astype(np.uint64) * mult).sum(axis=1)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if table:
        count = np.bincount(keys, minlength=int(cells))
        past = np.cumsum(count)
        run_end = past[keys]
    else:
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        ukeys = keys[first]
        ucount = np.diff(np.r_[first, hi])
        run_end = np.repeat(first + ucount, ucount)
    # a pair goes to the generation of its later point; pairs wholly before
    # lo go to the last slot, which is dropped
    slot = np.maximum(gen - lo, -1)
    out = np.full(stop - lo + 1, math.inf)
    for start in range(0, hi, _ANCHOR_BLOCK):
        anchors = np.arange(start, min(start + _ANCHOR_BLOCK, hi))
        # targets offset-major: each row is sorted but for a wrap, so the
        # binary searches stay local
        target = (steps[:, None] + keys[None, anchors]).ravel()
        if table:
            counts = count[target]
            firsts = past[target] - counts
        else:
            at = np.minimum(np.searchsorted(ukeys, target), ukeys.shape[0] - 1)
            counts = np.where(ukeys[at] == target, ucount[at], 0)
            firsts = first[at]
        # the own cell: the points after the anchor
        firsts = np.concatenate([anchors + 1, firsts])
        counts = np.concatenate([run_end[anchors] - anchors - 1, counts])
        source = np.tile(anchors, steps.shape[0] + 1)
        ends = np.cumsum(counts)
        # pairs go in pieces of about _PAIR_BLOCK, so that a crowded cell
        # costs time but not memory
        a = 0
        while a < counts.shape[0] and ends[-1]:
            b = max(a + 1, int(np.searchsorted(ends, ends[a] - counts[a] + _PAIR_BLOCK, "right")))
            c = counts[a:b]
            total = int(c.sum())
            if total:
                i = order[np.repeat(source[a:b], c)]
                j = order[np.repeat(firsts[a:b] - (np.cumsum(c) - c), c) + np.arange(total)]
                np.fmin.at(out, slot[np.maximum(i, j)], _sq_dists(pts[i], pts[j]))
            a = b
    return out[:-1]


def _gap_bounds(pts: np.ndarray, gen: np.ndarray) -> np.ndarray:
    """Per generation (pts in generation order): the least squared distance
    between two of its points adjacent in the first coordinate, inf below two
    points.  Each is a pair distance, so it bounds the gap of every prefix
    that holds the generation."""
    x = pts[:, 0] - pts[:, 0].min()
    width = float(x.max())
    order = np.argsort(gen + x * (0.5 / width if width > 0 else 0.0), kind="stable")
    d = _sq_dists(pts[order[1:]], pts[order[:-1]])
    later = gen[order[1:]]
    d[later != gen[order[:-1]]] = math.inf
    out = np.full(int(gen[-1]) + 1, math.inf)
    np.fmin.at(out, later, d)
    return out


def _min_gap_history(
    real_pts: np.ndarray, gens: np.ndarray
) -> Tuple[float, List[Tuple[int, float]], int]:
    """Closest-pair distance of the points of word length <= g, for each g.

    In generation order, the gap at length g is the smaller of the gap at
    g - 1 and the least distance from a point of length g to an earlier one.
    Generations are searched in epochs, each on one grid over its points and
    all earlier ones (`_pair_minima`), with cells sized by an actual pair
    distance U at the epoch's start: the least of the gap so far, the first
    two points' distance and the `_gap_bounds` of the generations so far.
    Every gap in the epoch is at most U, so the pair that sets it is on the
    grid, and the history is exact.  An epoch ends before the generation at
    which the `_gap_bounds` fall below U / _EPOCH_SHRINK, where new points
    would crowd the cells; the first ends by _FIRST_EPOCH points, so that U is
    soon the gap itself."""
    if real_pts.shape[0] > MIN_GAP_POINT_CAP:
        real_pts = real_pts[:MIN_GAP_POINT_CAP]
        gens = gens[:MIN_GAP_POINT_CAP]
    used = int(real_pts.shape[0])
    if used < 2:
        return float("inf"), [], used
    order = np.argsort(gens, kind="stable")
    pts = real_pts[order]
    gen = gens[order]
    ends = np.searchsorted(gen, np.arange(int(gen[-1]) + 1), "right")
    bound = np.fmin(np.minimum.accumulate(_gap_bounds(pts, gen)), float(_sq_dists(pts[1], pts[0])))
    gaps = np.zeros(ends.shape[0])
    first = g = int(np.searchsorted(ends, 2))
    best = math.inf
    while g < ends.shape[0]:
        u = min(best, float(bound[g]))
        if u == 0:  # two points coincide: this gap and every later one is 0
            break
        stop = g + max(1, int(np.count_nonzero(bound[g:] * _EPOCH_SHRINK > u)))
        if best == math.inf:
            stop = min(stop, max(g + 1, int(np.count_nonzero(ends <= _FIRST_EPOCH))))
        hi = int(ends[stop - 1])
        gaps[g:stop] = np.minimum.accumulate(np.minimum(best, _pair_minima(pts[:hi], gen[:hi], g, stop, u)))
        best = float(gaps[stop - 1])
        g = stop
    history = [(h, math.sqrt(v)) for h, v in zip(range(first, ends.shape[0]), gaps[first:].tolist())]
    return history[-1][1], history, used


def _nearest_sq(pts: np.ndarray, target: np.ndarray) -> float:
    """Least squared distance from target to a row of pts, by blocks."""
    return min(
        float(_sq_dists(pts[i : i + 2**16], target).min()) for i in range(0, pts.shape[0], 2**16)
    )


def verify(
    closure,
    sample: OrbitSample,
    window=2.0,
    grid_res: int = 40,
    eps: float = 1e-9,
    approach_translations: Sequence[Point] = (),
) -> EvidenceReport:
    """Measure a predicted closure against an enumerated orbit.

    `closure` is a description from `closure_engine.orbit_closure` (any but
    `Unsupported`), read through its contract: contains_rows(rows, eps),
    one call over the sample's integer rows, for exact membership when
    `closure.exact` and the sample is exact, distance_many(array) otherwise
    and for the size of a failed exact test (through `distance`, on the
    failing points alone), trace_points(center, half, res) for the cells of
    the window on the closure, and sample(rng, count, translations) for
    approach evidence.  Failures are report fields, never exceptions.
    """
    if len(sample) == 0:
        raise ValueError("empty orbit sample")
    dim = sample.dim
    center, half = _window_params(window, dim)
    real_pts = sample.real_array()

    # --- soundness -----------------------------------------------------
    exact_membership = closure.exact and sample.rows is not None
    max_violation = 0.0
    if exact_membership:
        checked = len(sample)
        bad = sample.rows[~closure.contains_rows(sample.rows, eps)]
        if bad.shape[0]:
            max_violation = max(closure.distance(p) for p in rows_to_points(bad, dim))
            if max_violation == 0.0:
                max_violation = float(eps)  # a failed exact test is a failure
    else:
        d = closure.distance_many(sample.array)
        checked = int(d.shape[0])
        max_violation = float(d.max())

    # --- fill fractions -------------------------------------------------
    occupied = _occupied_cells(real_pts, center, half, grid_res)
    total_cells = grid_res ** (2 * dim)
    window_fill = len(occupied) / total_cells
    trace_pts = closure.trace_points(center, half, grid_res)
    if trace_pts is None:  # the trace is every cell
        trace_count = total_cells
        fill = window_fill
    else:
        trace = _occupied_cells(trace_pts, center, half, grid_res)
        trace_count = len(trace)
        fill = len(occupied & trace) / trace_count if trace else 0.0

    # --- discreteness ----------------------------------------------------
    min_gap, history, used = _min_gap_history(real_pts, sample.generations)

    # --- approach (completeness) evidence --------------------------------
    approach_max = None
    approach_points = 0
    rng = random.Random(20260817)
    t_rows = []
    for p in closure.sample(rng, APPROACH_COUNT, approach_translations):
        zs = v_to_complex(as_point(p))
        row = [x for zz in zs for x in (zz.real, zz.imag)]
        if all(abs(r - c) <= half for r, c in zip(row, center)):
            t_rows.append(row)
    if t_rows:
        approach_max = math.sqrt(max(_nearest_sq(real_pts, np.array(t)) for t in t_rows))
        approach_points = len(t_rows)

    return EvidenceReport(
        n_points=len(sample),
        max_violation=max_violation,
        violations_checked=checked,
        exact_membership=exact_membership,
        fill_fraction=fill,
        window_fill_fraction=window_fill,
        occupied_cells=len(occupied),
        trace_cell_count=trace_count,
        total_cells=total_cells,
        min_gap=min_gap,
        min_gap_history=history,
        min_gap_points_used=used,
        window_center=tuple(float(c) for c in center),
        window_half=half,
        grid_res=grid_res,
        eps=eps,
        approach_max=approach_max,
        approach_points=approach_points,
    )
