"""Reference orbit searches in `CycloScalar` arithmetic, one map at a time.

These are the exact-mode breadth-first searches the oracle ran before its
integer-row kernel: `enumerate_exact` applies each generator letter to each
frontier point with `Homothety.apply`, and `harvest_exact` composes maps with
`Homothety.compose` and keeps the ratio-one words.  They are slow and
obviously right, which is what the kernel equivalence tests need.
"""

from typing import List

import numpy as np

from homothety_orbits.affine_maps import Homothety, Point, v_to_complex
from homothety_orbits.group_profile import GroupSpec


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
