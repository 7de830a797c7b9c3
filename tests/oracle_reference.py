"""Reference orbit searches, one point or map at a time.

`enumerate_exact` applies each generator letter to each frontier point with
`Homothety.apply`, and `harvest_exact` composes maps with `Homothety.compose`
and keeps the ratio-one words: the exact-mode searches the oracle ran before
its integer-row kernel.  `harvest_approx` is the approximate-mode map search
it ran before its float rows, in `Scalar` arithmetic, and `enumerate_grid`
dedups grid points on Python-int keys.  `SeenRows` is the dedup step of
the breadth-first loop as it was before the hash set, on sorted keys, and
`occupied_cells` the window binning with one `tobytes` key per row.  The
`cyclo_*` functions are `CycloScalar` arithmetic on `Fraction`
coefficients: the product is the double loop the class ran before its
straight-line product, and the inverse goes through three Galois
conjugates.  They are slow and obviously right, which is what the kernel
equivalence tests need.
"""

from fractions import Fraction
from math import lcm
from typing import List, Set, Tuple

import numpy as np

from homothety_orbits.affine_maps import Homothety, Point, v_to_complex
from homothety_orbits.exact_algebra import Scalar, Trilean
from homothety_orbits.group_profile import GroupSpec


def sorted_keys(q: np.ndarray) -> np.ndarray:
    """One comparable key per row: a void scalar of the row's bytes (int64
    or float64 rows), else a tuple of Python ints."""
    if q.dtype == object:
        return np.fromiter(map(tuple, q.tolist()), dtype=object, count=q.shape[0])
    q = np.ascontiguousarray(q)
    return q.view(f"V{q.shape[1] * q.itemsize}").reshape(-1)


class SeenRows:
    """Sorted keys of every row found so far."""

    def __init__(self, keys: np.ndarray):
        self.keys = np.sort(keys)

    def admit(self, keys: np.ndarray, room: int) -> Tuple[np.ndarray, bool]:
        """Indices, in candidate order, of the first occurrence of each key
        not seen before, which become seen.  When there are `room` or more
        the first max(room, 1) are kept and `full` is True."""
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


def occupied_cells(real_pts: np.ndarray, center: np.ndarray, half: float, res: int) -> Set[bytes]:
    """Cells of the window grid visited by at least one point, keyed by the
    bytes of each row of int64 cell indices."""
    cell = 2.0 * half / res
    rel = real_pts - center
    inside = np.all(np.abs(rel) <= half + 1e-12, axis=1)
    if not inside.any():
        return set()
    idx = np.floor((rel[inside] + half) / cell).astype(np.int64)
    np.clip(idx, 0, res - 1, out=idx)
    return {k.tobytes() for k in sorted_keys(idx)}


def letters(spec: GroupSpec) -> List[Homothety]:
    """g1, g1^-1, g2, g2^-1, ... (the oracle's alphabet order)."""
    out: List[Homothety] = []
    for g in spec.generators:
        out += [g, g.inverse()]
    return out


def exact_key(p: Point):
    return tuple(c.exact_value for c in p)


def enumerate_exact(spec: GroupSpec, z: Point, L: int, budget: int):
    """(points, generations, float array, truncated) of the orbit of z up to
    word length L; stops right after the point count passes `budget`."""
    alphabet = letters(spec)
    points: List[Point] = [z]
    gens: List[int] = [0]
    seen = {exact_key(z)}
    frontier = [0]
    truncated = False
    for level in range(1, L + 1):
        new_frontier: List[int] = []
        for idx in frontier:
            for letter in alphabet:
                q = letter.apply(points[idx])
                k = exact_key(q)
                if k in seen:
                    continue
                seen.add(k)
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
    return points, np.array(gens, dtype=np.int32), arr, truncated


def enumerate_grid(spec: GroupSpec, z: Point, L: int, cell: float):
    """(float array, generations) of the orbit of z up to word length L on
    the epsilon grid, without a budget.  Each generation's candidates come
    letter by letter from numpy's complex products, as in the oracle; a
    candidate is new when its parts divided by `cell` and rounded, as
    Python ints (which never overflow), have not been seen."""
    alphabet = letters(spec)

    def key(row) -> tuple:
        return tuple(round(x / cell) for c in row.tolist() for x in (c.real, c.imag))

    frontier = np.array([v_to_complex(z)], dtype=np.complex128)
    seen = {key(frontier[0])}
    chunks, gens = [frontier], [0]
    for level in range(1, L + 1):
        cand = np.concatenate(
            [h.ratio.to_complex() * frontier + np.array(v_to_complex(h.shift)) for h in alphabet]
        )
        new = []
        for i in range(cand.shape[0]):
            k = key(cand[i])
            if k not in seen:
                seen.add(k)
                new.append(i)
        frontier = cand[new]
        chunks.append(frontier)
        gens += [level] * len(new)
    return np.concatenate(chunks), np.array(gens, dtype=np.int32)

def harvest_exact(spec: GroupSpec, L: int, budget: int) -> List[Point]:
    """Shifts of the ratio-one maps among words of length <= L, in search
    order, then the generator commutators; the search stops when it holds
    `budget` maps."""
    alphabet = letters(spec)
    identity = Homothety.identity(spec.dim)
    states = [identity]
    seen = {(identity.ratio.exact_value,) + exact_key(identity.shift)}
    frontier = [0]
    vectors: List[Point] = []
    vec_seen = set()

    def emit(h: Homothety) -> None:
        if h.ratio.exact_value != 1:
            return
        k = exact_key(h.shift)
        if k not in vec_seen:
            vec_seen.add(k)
            vectors.append(h.shift)

    emit(identity)
    stopped = False
    for _level in range(1, L + 1):
        if stopped or not frontier:
            break
        new_frontier: List[int] = []
        for idx in frontier:
            for letter in alphabet:
                comp = letter.compose(states[idx])
                key = (comp.ratio.exact_value,) + exact_key(comp.shift)
                if key in seen:
                    continue
                seen.add(key)
                states.append(comp)
                new_frontier.append(len(states) - 1)
                emit(comp)
                if len(states) >= budget:
                    stopped = True
                    break
            if stopped:
                break
        frontier = new_frontier
    gens = spec.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            f, g = gens[i], gens[j]
            emit(f.compose(g).compose(f.inverse()).compose(g.inverse()))
    return vectors


def _map_key(h: Homothety, cell: float = 1e-12):
    # every map of an approximate group, exact ones (the identity, words in
    # exact generators) included, is keyed on the same grid, so a float word
    # equal to an exact one is not a second state
    r = h.ratio.to_complex()
    parts: List[float] = [round(r.real / cell), round(r.imag / cell)]
    for c in v_to_complex(h.shift):
        parts += [round(c.real / cell), round(c.imag / cell)]
    return tuple(parts)


def harvest_approx(spec: GroupSpec, L: int, budget: int) -> List[Point]:
    """The approximate-mode harvest: shifts of the words of length <= L
    whose net exponent vector is zero or whose composed ratio is exactly 1,
    in search order, then the generator commutators, deduplicated on the
    1e-12 grid; the search stops when it holds `budget` maps."""
    m = len(spec.generators)
    alphabet = letters(spec)
    # letter i corresponds to generator i // 2, exponent +1 if i even else -1
    identity = Homothety.identity(spec.dim)
    states: List[Tuple[Homothety, Tuple[int, ...]]] = [(identity, tuple([0] * m))]
    seen = {_map_key(identity)}
    frontier = [0]
    found: List[Point] = [identity.shift]
    stopped = False
    for _level in range(1, L + 1):
        if stopped or not frontier:
            break
        new_frontier: List[int] = []
        for idx in frontier:
            h, e = states[idx]
            for li, letter in zip(range(len(alphabet)), alphabet):
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
                    found.append(comp.shift)
                if len(states) >= budget:
                    stopped = True
                    break
            if stopped:
                break
        frontier = new_frontier
    gens = spec.generators
    for i in range(m):
        for j in range(i + 1, m):
            f, g = gens[i], gens[j]
            found.append(f.compose(g).compose(f.inverse()).compose(g.inverse()).shift)
    vectors: List[Point] = []
    known = set()
    for v in found:
        key = tuple((round(c.real / 1e-12), round(c.imag / 1e-12)) for c in v_to_complex(v))
        if key not in known:
            known.add(key)
            vectors.append(v)
    return vectors


# ---------------------------------------------------------------------------
# Q(zeta12) arithmetic on coefficient tuples (c0, c1, c2, c3) of Fractions

Coeffs = Tuple[Fraction, Fraction, Fraction, Fraction]


def cyclo_numerators(c: Coeffs) -> Tuple[Tuple[int, int, int, int], int]:
    """((n0, n1, n2, n3), d) with c_k = n_k / d and d the least common
    denominator, the lowest-terms form `CycloScalar.numerators` gives."""
    d = lcm(*(x.denominator for x in c))
    return tuple(int(x * d) for x in c), d


def cyclo_add(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(x + y for x, y in zip(a, b))


def cyclo_sub(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(x - y for x, y in zip(a, b))


def cyclo_mul(a: Coeffs, b: Coeffs) -> Coeffs:
    p = [Fraction(0)] * 7
    for i in range(4):
        for j in range(4):
            p[i + j] += a[i] * b[j]
    # zeta^4 = zeta^2 - 1, zeta^5 = zeta^3 - zeta, zeta^6 = -1
    return (p[0] - p[4] - p[6], p[1] - p[5], p[2] + p[4], p[3] + p[5])


def cyclo_inverse(a: Coeffs) -> Coeffs:
    """1/a = y / (a y) with y the product of the conjugates sigma_5(a),
    sigma_7(a), sigma_11(a), so that a y is the rational norm of a."""
    c0, c1, c2, c3 = a
    s5 = (c0 + c2, -c1, -c2, c1 + c3)
    s7 = (c0, -c1, c2, -c3)
    s11 = (c0 + c2, c1, -c2, -c1 - c3)
    y = cyclo_mul(cyclo_mul(s5, s7), s11)
    norm = cyclo_mul(a, y)
    assert norm[1] == norm[2] == norm[3] == 0
    return tuple(x / norm[0] for x in y)
