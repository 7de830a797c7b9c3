"""Brute-force ground truth for orbit structure.

Enumerates orbit points breadth-first by words in the generators and their
inverses, harvests the translation subgroup by composing maps and keeping
ratio-one words, and measures density/discreteness evidence against a
predicted closure description.  Nothing here is clever on purpose: the
point of the module is to be an independent check on the symbolic engine,
and it reads nothing of the engine but the generator list.

With exact input both searches run on one kernel over integer rows: a
point of Q(zeta)^n is its 4n numerators and one common denominator,
reduced, so equal points have equal rows; each letter is an integer
matrix, and a generation is one matrix product over the whole frontier,
deduplicated by sorting row keys.  The harvest runs the same kernel on
map states [ratio | shift].  Rows are int64 while a bound on the next
products stays below 2^62 and Python ints past it.  Approximate input
runs the same breadth-first order in floats, deduplicated on an epsilon
grid.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from .affine_maps import Homothety, Point, as_point, point_row, rows_to_points, v_to_complex
from .exact_algebra import (
    INT64_SAFE,
    SQRT3,
    CycloScalar,
    Scalar,
    Trilean,
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
        out = []
        for g in range(int(self.generations.max()) + 1 if len(self) else 0):
            out.append((g, int(np.count_nonzero(self.generations == g))))
        return out

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
    which the fixed generator alphabet produces new points.
    """
    if L < 0:
        raise ValueError("word cap must be nonnegative")
    z = as_point(z)
    if len(z) != spec.dim:
        raise ValueError("point dimension does not match the group")
    exact_mode = spec.is_exact and all(c.is_exact for c in z) and not force_grid
    if exact_mode:
        return _enumerate_exact(spec, z, L, budget)
    return _enumerate_grid(spec, z, L, budget)


# ---------------------------------------------------------------------------
# breadth-first search on integer rows (exact mode)
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


def _row_keys(q: np.ndarray) -> np.ndarray:
    """One comparable key per row: the row's bytes (int64), else a tuple."""
    if q.dtype == object:
        return np.fromiter(map(tuple, q.tolist()), dtype=object, count=q.shape[0])
    q = np.ascontiguousarray(q)
    return q.view(f"V{q.shape[1] * q.itemsize}").reshape(-1)


class _SeenRows:
    """Sorted keys of every row found so far: the dedup step of both
    breadth-first searches."""

    def __init__(self, keys: np.ndarray):
        self.keys = np.sort(keys)

    def admit(self, keys: np.ndarray, room: int) -> Tuple[np.ndarray, bool]:
        """Indices, in candidate order, of the first occurrence of each key
        not seen before, which become seen.  When there are `room` or more
        the first max(room, 1) are kept and `full` is True (a search stops
        right after the row that reaches its cap)."""
        _, first = np.unique(keys, return_index=True)
        first.sort()
        cand = keys[first]
        pos = np.searchsorted(self.keys, cand)
        hit = pos < self.keys.shape[0]
        hit[hit] = self.keys[pos[hit]] == cand[hit]
        new = first[~hit]
        full = new.shape[0] > 0 and new.shape[0] >= room
        if full:
            new = new[: max(room, 1)]
        add = np.sort(keys[new])
        self.keys = np.insert(self.keys, np.searchsorted(self.keys, add), add)
        return new, full


def _row_bfs(
    start: List[int], letters: Sequence[np.ndarray], L: int, cap: int
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """(rows, generations, stopped): breadth-first closure of `start` under
    the letter matrices up to word length L, new rows in frontier-major
    letter order, stopping right after the row count reaches `cap`.

    Rows are int64 while every product provably stays below 2^62, checked
    in Python ints before each generation; past that the same search runs
    on Python-int (object) rows."""
    size = len(start)
    wide = np.concatenate([t.T for t in letters], axis=1)  # (K, letters * K)
    growth = max(int(np.abs(t).sum(axis=1).max()) for t in letters)
    wide64 = wide.astype(np.int64) if growth < INT64_SAFE else None
    frontier = np.array([start], dtype=object)
    if max_abs(frontier) * growth < INT64_SAFE:
        frontier = frontier.astype(np.int64)
    seen = _SeenRows(_row_keys(frontier))
    chunks = [frontier]
    gens = [np.zeros(1, dtype=np.int32)]
    total = 1
    stopped = False
    for level in range(1, L + 1):
        if frontier.shape[0] == 0:
            break
        if frontier.dtype != object and max_abs(frontier) * growth >= INT64_SAFE:
            chunks = [c.astype(object) for c in chunks]
            frontier = chunks[-1]
            seen = _SeenRows(_row_keys(np.concatenate(chunks)))
        cand = (frontier @ (wide if frontier.dtype == object else wide64)).reshape(-1, size)
        cand //= np.gcd.reduce(cand, axis=1)[:, None]
        new, stopped = seen.admit(_row_keys(cand), cap - total)
        frontier = cand[new]
        chunks.append(frontier)
        gens.append(np.full(new.shape[0], level, dtype=np.int32))
        total += new.shape[0]
        if stopped:
            break
    return np.concatenate(chunks), np.concatenate(gens), stopped


def _rows_to_complex(rows: np.ndarray, k: int) -> np.ndarray:
    """(N, k) complex128 coordinates of (N, 4k + 1) rows, bit for bit
    `CycloScalar.to_complex`: both divide the same rationals, correctly
    rounded (int64 only while numerators and denominators are exact in
    float64, Python ints otherwise)."""
    if rows.dtype != object and max_abs(rows) >= _FLOAT_SAFE:
        rows = rows.astype(object)
    lift, den = planar_lifts(rows[:, :-1].reshape(rows.shape[0], k, 4), rows[:, -1:])
    out = np.empty((rows.shape[0], k), dtype=np.complex128)
    out.real = lift[..., 0] / den + (lift[..., 1] / den) * SQRT3
    out.imag = lift[..., 2] / den + (lift[..., 3] / den) * SQRT3
    return out


def _enumerate_exact(spec: GroupSpec, z: Point, L: int, budget: int) -> OrbitSample:
    letters = [_letter_matrix(h, False) for h in _letters(spec)]
    rows, gens, truncated = _row_bfs(point_row(z), letters, L, budget + 1)
    sample = OrbitSample(
        base=z,
        array=_rows_to_complex(rows, spec.dim),
        generations=gens,
        word_cap=L,
        dedup="exact",
        grid_eps=0.0,
        rows=rows,
        truncated=truncated,
    )
    if truncated:
        raise BudgetExceeded(sample)
    return sample


# ---------------------------------------------------------------------------
# epsilon-grid search (approximate mode)


def _quantize(arr: np.ndarray, cell: float) -> np.ndarray:
    """(N, n) complex -> (N, 2n) int64 cell indices."""
    n = arr.shape[1]
    out = np.empty((arr.shape[0], 2 * n), dtype=np.int64)
    out[:, 0::2] = np.round(arr.real / cell)
    out[:, 1::2] = np.round(arr.imag / cell)
    return out


def _enumerate_grid(spec: GroupSpec, z: Point, L: int, budget: int) -> OrbitSample:
    cell = GRID_DEDUP_EPS
    letters = _letters(spec)
    ratios = np.array([l.ratio.to_complex() for l in letters], dtype=np.complex128)
    shifts = np.array(
        [v_to_complex(l.shift) for l in letters], dtype=np.complex128
    ).reshape(len(letters), spec.dim)

    base_row = np.array([v_to_complex(z)], dtype=np.complex128).reshape(1, spec.dim)
    seen = _SeenRows(_row_keys(_quantize(base_row, cell)))
    chunks: List[np.ndarray] = [base_row]
    gen_chunks: List[np.ndarray] = [np.zeros(1, dtype=np.int32)]
    frontier = base_row
    total = 1
    truncated = False
    for level in range(1, L + 1):
        if frontier.shape[0] == 0:
            break
        cand = np.concatenate(
            [ratios[i] * frontier + shifts[i] for i in range(len(letters))], axis=0
        )
        new, truncated = seen.admit(_row_keys(_quantize(cand, cell)), budget + 1 - total)
        frontier = cand[new]
        chunks.append(frontier)
        gen_chunks.append(np.full(new.shape[0], level, dtype=np.int32))
        total += new.shape[0]
        if truncated:
            break
    arr = np.concatenate(chunks, axis=0)
    gens = np.concatenate(gen_chunks)
    sample = OrbitSample(
        base=z,
        array=arr,
        generations=gens,
        word_cap=L,
        dedup="grid",
        grid_eps=cell,
        truncated=truncated,
    )
    if truncated:
        raise BudgetExceeded(sample)
    return sample


# ---------------------------------------------------------------------------
# translation harvesting (map-level breadth-first search)


def _map_key(h: Homothety, cell: float = 1e-12):
    # every map of an approximate group, exact ones (the identity, words in
    # exact generators) included, is keyed on the same grid, so a float word
    # equal to an exact one is not a second state
    r = h.ratio.to_complex()
    parts: List[float] = [round(r.real / cell), round(r.imag / cell)]
    for c in v_to_complex(h.shift):
        parts += [round(c.real / cell), round(c.imag / cell)]
    return tuple(parts)


def _vector_key(v: Point, exact: bool, cell: float = 1e-12):
    if exact:
        return v
    return tuple((round(c.real / cell), round(c.imag / cell)) for c in v_to_complex(v))


def harvest_translations(spec: GroupSpec, L: int) -> List[Point]:
    """Translation vectors of all words of length <= L whose composed map
    has ratio exactly 1, deduplicated, plus every pairwise generator
    commutator (a length-4 word); the zero vector (empty word) is always
    present.

    Maps, not points, are enumerated, in the order `enumerate` uses.  With
    exact generators a map state is the row [ratio | shift] of the integer
    kernel, and the ratio-one states are read off the rows.  With
    approximate ones the ratio of a word is the product of generator ratios
    with signed exponents, so tracking the net exponent vector detects
    ratio-one words even with approximate scalars.  When the map-state
    count reaches HARVEST_BUDGET the search stops expanding (the result is
    then a sublist of the full harvest, which is safe for every use here:
    harvests are lower-bound evidence).
    """
    found = _harvest_exact(spec, L) if spec.is_exact else _harvest_approx(spec, L)
    # commutators are always included, whatever the cap
    m = len(spec.generators)
    for i in range(m):
        for j in range(i + 1, m):
            f, g = spec.generators[i], spec.generators[j]
            found.append(f.compose(g).compose(f.inverse()).compose(g.inverse()).shift)
    vectors: List[Point] = []
    known: Set = set()
    for v in found:
        key = _vector_key(v, spec.is_exact)
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
    m = len(spec.generators)
    letters = _letters(spec)
    # letter i corresponds to generator i // 2, exponent +1 if i even else -1
    identity = Homothety.identity(spec.dim)
    states: List[Tuple[Homothety, Tuple[int, ...]]] = [
        (identity, tuple([0] * m))
    ]
    seen = {_map_key(identity)}
    frontier = [0]
    shifts: List[Point] = [identity.shift]
    stopped = False
    for _level in range(1, L + 1):
        if stopped or not frontier:
            break
        new_frontier: List[int] = []
        for idx in frontier:
            h, e = states[idx]
            for li, letter in zip(range(len(letters)), letters):
                gi, sign = li // 2, (1 if li % 2 == 0 else -1)
                comp = letter.compose(h)
                key = _map_key(comp)
                if key in seen:
                    continue
                seen.add(key)
                e2 = list(e)
                e2[gi] += sign
                e2t = tuple(e2)
                states.append((comp, e2t))
                new_frontier.append(len(states) - 1)
                if not any(e2t) or comp.ratio.eq(Scalar.integer(1)) is Trilean.YES:
                    shifts.append(comp.shift)
                if len(states) >= HARVEST_BUDGET:
                    stopped = True
                    break
            if stopped:
                break
        frontier = new_frontier
    return shifts


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
    if not inside.any():
        return set()
    idx = np.floor((rel[inside] + half) / cell).astype(np.int64)
    np.clip(idx, 0, res - 1, out=idx)
    return {k.tobytes() for k in _row_keys(idx)}


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
_CELL_HASH = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93],
    dtype=np.uint64,
)
_QUERY_BLOCK = 8192
_PAIR_BLOCK = 1 << 20
_SMALL_PREFIX = 128


def _closest_sq(pts: np.ndarray, queries: np.ndarray, others: np.ndarray, bound_sq: float) -> float:
    """Least squared distance from a point of `queries` to another point of
    `others` (index arrays into pts; queries a subset of others), exact
    whenever it is at most bound_sq, and otherwise some value above it.

    Grid cells on the first (up to four) coordinates are a little over
    twice sqrt(bound_sq) wide, so a point closer than that to a query lies
    in the query's cell or in the next cell on the side of each coordinate
    nearer the query: 2^k cells per query.  At most 2^40 cells span the
    extent, so cell positions round by at most 2^-12 of a cell, far inside
    the 2^-7 margin."""
    k = min(pts.shape[1], 4)
    sub = pts[others, :k]
    low = sub.min(axis=0)
    side = max(2.0 * math.sqrt(bound_sq) * (1 + 2.0**-6), float((sub.max(axis=0) - low).max()) * 2.0**-40)
    mult = _CELL_HASH[:k]

    def cells(rows):
        pos = (pts[rows, :k] - low) / side
        cell = np.floor(pos)
        return cell.astype(np.int64).astype(np.uint64), pos - cell

    cell, _ = cells(others)
    okeys = (cell * mult).sum(axis=1)
    order = np.argsort(okeys, kind="stable")
    okeys, others = okeys[order], others[order]
    first = np.flatnonzero(np.r_[True, okeys[1:] != okeys[:-1]])
    ukeys = okeys[first]
    ucount = np.diff(np.r_[first, okeys.shape[0]])
    # every subset of the coordinates, as 0/1 rows: which ones step over
    patterns = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.uint64)
    best = math.inf
    for start in range(0, queries.shape[0], _QUERY_BLOCK):
        q = queries[start : start + _QUERY_BLOCK]
        cell, frac = cells(q)
        qkeys = (cell * mult).sum(axis=1)
        # the key step to the neighbour on the nearer side, per coordinate
        step = np.where(frac < 0.5, -mult.astype(np.int64), mult.astype(np.int64)).astype(np.uint64)
        target = (qkeys[:, None] + step @ patterns.T).ravel()
        at = np.minimum(np.searchsorted(ukeys, target), ukeys.shape[0] - 1)
        counts = np.where(ukeys[at] == target, ucount[at], 0)
        source = np.repeat(q, patterns.shape[0])
        ends = np.cumsum(counts)
        # pairs go in pieces of about _PAIR_BLOCK, so that a crowded cell
        # costs time but not memory
        a = 0
        while a < target.shape[0] and ends[-1]:
            b = max(a + 1, int(np.searchsorted(ends, ends[a] - counts[a] + _PAIR_BLOCK, "right")))
            c = counts[a:b]
            total = int(c.sum())
            if total:
                i = np.repeat(source[a:b], c)
                j = others[np.repeat(first[at[a:b]] - (np.cumsum(c) - c), c) + np.arange(total)]
                keep = i != j
                if keep.any():
                    best = min(best, float(_sq_dists(pts[i[keep]], pts[j[keep]]).min()))
            a = b
    return best


def _min_gap_history(
    real_pts: np.ndarray, gens: np.ndarray
) -> Tuple[float, List[Tuple[int, float]], int]:
    """Closest-pair distance of the points of word length <= g, for each g.

    Points are ordered by word length, so that each g has a leading range.
    While that range holds at most _SMALL_PREFIX points, every pair is
    measured at once.  Past it, a pair that lowers the gap at length g holds
    a point of length g, so the grid search starts only from those points,
    within the smaller of the gap so far and the least distance between new
    points adjacent in their first coordinate (a crowd of new points
    shrinks the cells)."""
    if real_pts.shape[0] > MIN_GAP_POINT_CAP:
        real_pts = real_pts[:MIN_GAP_POINT_CAP]
        gens = gens[:MIN_GAP_POINT_CAP]
    used = int(real_pts.shape[0])
    history: List[Tuple[int, float]] = []
    if used < 2:
        return float("inf"), history, used
    order = np.argsort(gens, kind="stable")
    pts = real_pts[order]
    ends = np.searchsorted(gens[order], np.arange(int(gens.max()) + 1), "right")
    small = int(ends[ends <= _SMALL_PREFIX].max(initial=0))
    d = _sq_dists(pts[:small, None], pts[None, :small])
    d[np.triu_indices(small)] = math.inf
    nearest_before = d.min(axis=1, initial=math.inf)  # over the earlier points
    best_sq = math.inf
    start = 0
    for g in range(ends.shape[0]):
        end = int(ends[g])
        if end <= small:
            best_sq = min(best_sq, float(nearest_before[start:end].min(initial=math.inf)))
        elif best_sq > 0:
            new = np.arange(start, end)
            if new.shape[0] > 1:
                rows = pts[new][np.argsort(pts[new, 0], kind="stable")]
                best_sq = min(best_sq, float(_sq_dists(rows[1:], rows[:-1]).min()))
            if best_sq > 0:
                best_sq = min(best_sq, _closest_sq(pts, new, np.arange(end), best_sq))
        if end >= 2:
            history.append((g, math.sqrt(best_sq)))
        start = end
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
