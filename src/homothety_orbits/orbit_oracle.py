"""Brute-force ground truth for orbit structure.

Enumerates orbit points breadth-first by words in the generators and their
inverses, harvests the translation subgroup by composing maps and keeping
ratio-one words, and measures density/discreteness evidence against a
predicted closure description.  Nothing here is clever on purpose: the
point of the module is to be an independent check on the symbolic engine.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from .affine_maps import Homothety, Point, as_point, v_to_complex
from .exact_algebra import Scalar, Trilean
from .group_profile import GroupSpec

DEFAULT_BUDGET = 2_000_000
HARVEST_BUDGET = 200_000
GRID_DEDUP_EPS = 1e-7
MIN_GAP_POINT_CAP = 200_000
APPROACH_COUNT = 24  # closure points tested for approach by the orbit


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
    column per ambient dimension); `exact_points` is populated only in
    exact-dedup mode and is parallel to `array`.
    """

    base: Point
    array: np.ndarray  # (N, n) complex128
    generations: np.ndarray  # (N,) int32, first word length
    word_cap: int
    dedup: str  # "exact" | "grid"
    grid_eps: float
    exact_points: Optional[List[Point]] = None
    truncated: bool = False

    def __len__(self) -> int:
        return int(self.array.shape[0])

    @property
    def dim(self) -> int:
        return int(self.array.shape[1])

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

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.csv_text())

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


def _exact_key(p: Point):
    return tuple(c.exact_value for c in p)


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


def _enumerate_exact(spec: GroupSpec, z: Point, L: int, budget: int) -> OrbitSample:
    letters = _letters(spec)
    points: List[Point] = [z]
    gens: List[int] = [0]
    seen = {_exact_key(z): 0}
    frontier = [0]
    truncated = False
    for level in range(1, L + 1):
        new_frontier: List[int] = []
        for idx in frontier:
            p = points[idx]
            for letter in letters:
                q = letter.apply(p)
                k = _exact_key(q)
                if k in seen:
                    continue
                seen[k] = len(points)
                points.append(q)
                gens.append(level)
                new_frontier.append(len(points) - 1)
                if len(points) > budget:
                    truncated = True
                    break
            if truncated:
                break
        frontier = new_frontier
        if truncated or not frontier:
            break
    arr = np.array(
        [v_to_complex(p) for p in points], dtype=np.complex128
    ).reshape(len(points), spec.dim)
    sample = OrbitSample(
        base=z,
        array=arr,
        generations=np.array(gens, dtype=np.int32),
        word_cap=L,
        dedup="exact",
        grid_eps=0.0,
        exact_points=points,
        truncated=truncated,
    )
    if truncated:
        raise BudgetExceeded(sample)
    return sample


def _quantize(arr: np.ndarray, cell: float) -> np.ndarray:
    """(N, n) complex -> (N, 2n) int64 cell indices."""
    n = arr.shape[1]
    out = np.empty((arr.shape[0], 2 * n), dtype=np.int64)
    out[:, 0::2] = np.round(arr.real / cell)
    out[:, 1::2] = np.round(arr.imag / cell)
    return out


def _row_keys(q: np.ndarray) -> np.ndarray:
    """View int64 rows as void scalars so whole rows hash/compare at once."""
    q = np.ascontiguousarray(q)
    return q.view([("", q.dtype)] * q.shape[1]).reshape(-1)


def _enumerate_grid(spec: GroupSpec, z: Point, L: int, budget: int) -> OrbitSample:
    cell = GRID_DEDUP_EPS
    letters = _letters(spec)
    ratios = np.array([l.ratio.to_complex() for l in letters], dtype=np.complex128)
    shifts = np.array(
        [v_to_complex(l.shift) for l in letters], dtype=np.complex128
    ).reshape(len(letters), spec.dim)

    base_row = np.array([v_to_complex(z)], dtype=np.complex128).reshape(1, spec.dim)
    seen: Set[bytes] = {_row_keys(_quantize(base_row, cell))[0].tobytes()}
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
        keys = _row_keys(_quantize(cand, cell))
        # first occurrence within this generation, preserving candidate order
        _, first = np.unique(keys, return_index=True)
        first.sort()
        cand = cand[first]
        keys = keys[first]
        fresh_rows: List[int] = []
        for i, k in zip(range(len(keys)), keys):
            b = k.tobytes()
            if b in seen:
                continue
            seen.add(b)
            fresh_rows.append(i)
            if total + len(fresh_rows) > budget:
                truncated = True
                break
        new = cand[fresh_rows] if fresh_rows else cand[:0]
        chunks.append(new)
        gen_chunks.append(np.full(new.shape[0], level, dtype=np.int32))
        total += new.shape[0]
        frontier = new
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
        exact_points=None,
        truncated=truncated,
    )
    if truncated:
        raise BudgetExceeded(sample)
    return sample


# ---------------------------------------------------------------------------
# translation harvesting (map-level breadth-first search)


def _map_key(h: Homothety, cell: float = 1e-12):
    if h.is_exact:
        return ("e", h.ratio.exact_value) + tuple(c.exact_value for c in h.shift)
    r = h.ratio.to_complex()
    parts: List[float] = [round(r.real / cell), round(r.imag / cell)]
    for c in v_to_complex(h.shift):
        parts += [round(c.real / cell), round(c.imag / cell)]
    return ("a", *parts)


def harvest_translations(spec: GroupSpec, L: int) -> List[Point]:
    """Translation vectors of all words of length <= L whose composed map
    has ratio exactly 1, deduplicated, plus every pairwise generator
    commutator (a length-4 word); the zero vector (empty word) is always
    present.

    Maps, not points, are enumerated: the ratio of a word is the product of
    generator ratios with signed exponents, so tracking the net exponent
    vector detects ratio-one words exactly even with approximate scalars.
    When the map-state count reaches HARVEST_BUDGET the search stops expanding
    (the result is then a sublist of the full harvest, which is safe for
    every use here: harvests are lower-bound evidence).
    """
    m = len(spec.generators)
    letters = _letters(spec)
    # letter i corresponds to generator i // 2, exponent +1 if i even else -1
    identity = Homothety.identity(spec.dim)
    states: List[Tuple[Homothety, Tuple[int, ...]]] = [
        (identity, tuple([0] * m))
    ]
    seen = {_map_key(identity)}
    frontier = [0]
    vectors: List[Point] = []
    vec_seen: Set = set()

    def _emit(h: Homothety, exponents: Tuple[int, ...]) -> None:
        if any(exponents):
            r1 = h.ratio.eq(Scalar.integer(1))
            if r1 is not Trilean.YES:
                return
        # key on the shift alone
        if h.is_exact:
            vk = tuple(c.exact_value for c in h.shift)
        else:
            vk = tuple(
                (round(c.real / 1e-12), round(c.imag / 1e-12))
                for c in v_to_complex(h.shift)
            )
        if vk in vec_seen:
            return
        vec_seen.add(vk)
        vectors.append(h.shift)

    _emit(identity, tuple([0] * m))
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
                _emit(comp, e2t)
                if len(states) >= HARVEST_BUDGET:
                    stopped = True
                    break
            if stopped:
                break
        frontier = new_frontier
    # commutators are always included, whatever the cap
    for i in range(m):
        for j in range(i + 1, m):
            f, g = spec.generators[i], spec.generators[j]
            w = f.compose(g).compose(f.inverse()).compose(g.inverse())
            _emit(w, tuple([0] * m))
    return vectors


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


def _min_gap_history(
    real_pts: np.ndarray, gens: np.ndarray
) -> Tuple[float, List[Tuple[int, float]], int]:
    from scipy.spatial import cKDTree

    if real_pts.shape[0] > MIN_GAP_POINT_CAP:
        real_pts = real_pts[:MIN_GAP_POINT_CAP]
        gens = gens[:MIN_GAP_POINT_CAP]
    used = int(real_pts.shape[0])
    history: List[Tuple[int, float]] = []
    best = float("inf")
    if used < 2:
        return float("inf"), history, used
    max_gen = int(gens.max())
    for g in range(max_gen + 1):
        mask = gens <= g
        pts = real_pts[mask]
        if pts.shape[0] < 2:
            continue
        tree = cKDTree(pts)
        d, _ = tree.query(pts, k=2)
        gap = float(d[:, 1].min())
        best = min(best, gap)
        history.append((g, best))
    return best, history, used


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
    `Unsupported`), read through its contract: contains(point, eps) for
    exact membership when `closure.exact` and the sample has exact points,
    distance_many(array) otherwise and for the size of a failed exact test
    (through `distance`), trace_points(center, half, res) for the cells of
    the window on the closure, and sample(rng, count, translations) for
    approach evidence.  Failures are report fields, never exceptions.
    """
    if len(sample) == 0:
        raise ValueError("empty orbit sample")
    dim = sample.dim
    center, half = _window_params(window, dim)
    real_pts = sample.real_array()

    # --- soundness -----------------------------------------------------
    exact_membership = closure.exact and sample.exact_points is not None
    max_violation = 0.0
    if exact_membership:
        checked = len(sample)
        bad: List[Point] = [
            p for p in sample.exact_points if not closure.contains(p, eps)
        ]
        if bad:
            max_violation = max(closure.distance(p) for p in bad)
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
    from scipy.spatial import cKDTree

    rng = random.Random(20260817)
    t_rows = []
    for p in closure.sample(rng, APPROACH_COUNT, approach_translations):
        zs = v_to_complex(as_point(p))
        row = [x for zz in zs for x in (zz.real, zz.imag)]
        if all(abs(r - c) <= half for r, c in zip(row, center)):
            t_rows.append(row)
    if t_rows:
        tree = cKDTree(real_pts)
        d, _ = tree.query(np.array(t_rows), k=1)
        approach_max = float(np.max(d))
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
