"""Small exact linear algebra: Hermite normal form, integer kernels, and
generic field elimination.

Everything here works on lists of lists.  Matrices are tiny (a few rows,
and four columns per complex coordinate of C^n), so the classical cubic
algorithms are used with no attempt at pivots-size control.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple


def hnf(rows: List[List[int]]) -> List[List[int]]:
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Returns a canonical basis: zero rows dropped, pivots positive, entries
    above each pivot reduced into [0, pivot).
    """
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    out: List[List[int]] = []
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        # clear the column below with extended gcd steps
        for r in range(row + 1, len(mat)):
            while mat[r][col] != 0:
                q = mat[row][col] // mat[r][col]
                for c in range(ncols):
                    mat[row][c] -= q * mat[r][c]
                mat[row], mat[r] = mat[r], mat[row]
        if mat[row][col] < 0:
            mat[row] = [-x for x in mat[row]]
        row += 1
        if row == len(mat):
            break
    basis = [r for r in mat[:row]]
    # reduce entries above each pivot
    pivots = []
    for r in basis:
        c = next(i for i, x in enumerate(r) if x != 0)
        pivots.append(c)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            c = pivots[j]
            p = basis[j][c]
            q = basis[i][c] // p
            if q:
                for k in range(ncols):
                    basis[i][k] -= q * basis[j][k]
    return basis


def integer_kernel(rows: List[List[int]]) -> List[List[int]]:
    """Basis of { x in Z^n : M x = 0 } for the matrix with the given rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    # HNF of the transpose-augmented identity: classic kernel extraction.
    aug = [[rows[r][c] for r in range(len(rows))] + [1 if i == c else 0 for i in range(ncols)]
           for c in range(ncols)]
    reduced = hnf(aug)
    m = len(rows)
    kernel = []
    for row in reduced:
        if all(x == 0 for x in row[:m]):
            kernel.append(row[m:])
    return kernel


# ---------------------------------------------------------------------------
# generic elimination over any field-like type supporting +, -, *, /
# and an is_zero predicate.


def field_rref(
    rows: List[List],
    is_zero: Callable,
    zero,
    one,
) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: List[int] = []
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(mat)):
            if not is_zero(mat[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = one / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for r in range(len(mat)):
            if r != row and not is_zero(mat[r][col]):
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat[:row], pivots


def field_solve(
    cols: List[List],
    target: List,
    is_zero,
    zero,
    one,
) -> Optional[List]:
    """Solve sum_j x_j * cols[j] = target; None when inconsistent.

    When the columns are linearly dependent an arbitrary consistent solution
    is returned (free coordinates set to zero).
    """
    n = len(target)
    m = len(cols)
    aug = [[cols[j][i] for j in range(m)] + [target[i]] for i in range(n)]
    rref, pivots = field_rref(aug, is_zero, zero, one)
    if m in pivots:
        return None
    sol = [zero] * m
    for r, c in enumerate(pivots):
        sol[c] = rref[r][m]
    return sol


def field_nullspace(rows: List[List], is_zero, zero, one) -> List[List]:
    """Basis of { x : M x = 0 } with M given by rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = field_rref(rows, is_zero, zero, one)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, c in enumerate(pivots):
            vec[c] = zero - rref[r][f]
        basis.append(vec)
    return basis
