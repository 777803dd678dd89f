"""Exact integer matrix helpers (no floating point anywhere).

Matrices are tuples of row tuples.  Equality checks elsewhere in the package
rely on these being exact, so everything here is plain Python integers:
Bareiss determinants, inverses of unimodular matrices by integer row
reduction, and fraction-free row reduction for ranks over Z.
"""

from __future__ import annotations


def identity(m: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def transpose(mat) -> tuple:
    return tuple(tuple(row) for row in zip(*mat))


def matmul(a, b) -> tuple:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matvec(a, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def det(mat) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    m = len(mat)
    if m == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for j in range(m - 1):
        if a[j][j] == 0:
            for i in range(j + 1, m):
                if a[i][j] != 0:
                    a[j], a[i] = a[i], a[j]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(j + 1, m):
            for c in range(j + 1, m):
                a[i][c] = (a[i][c] * a[j][j] - a[i][j] * a[j][c]) // prev
            a[i][j] = 0
        prev = a[j][j]
    return sign * a[m - 1][m - 1]


def inverse_unimodular(mat) -> tuple:
    """Inverse of an integer matrix with determinant +-1.

    Integer Gauss-Jordan on ``[mat | I]``: in each column, Euclid's
    algorithm on the rows at and below the diagonal leaves one nonzero
    entry, which is the pivot; row swaps, negations and adding integer
    multiples of one row to another are invertible over Z, so the pivot
    is +-1 exactly when the determinant is.  The pivot is made 1 and the
    rest of its column cleared, which leaves the inverse on the right.
    """
    m = len(mat)
    a = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(mat)]
    for col in range(m):
        while True:
            rows = [r for r in range(col, m) if a[r][col]]
            if not rows:
                break
            low = min(rows, key=lambda r: abs(a[r][col]))
            a[col], a[low] = a[low], a[col]
            if len(rows) == 1:
                break
            prow, p = a[col], a[col][col]
            for r in range(col + 1, m):
                q = a[r][col] // p
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], prow)]
        p = a[col][col]
        if p not in (1, -1):
            raise ValueError(f"matrix is not invertible over Z (det = {det(mat)})")
        if p == -1:
            a[col] = [-x for x in a[col]]
        prow = a[col]
        for r in range(m):
            q = a[r][col]
            if r != col and q:
                a[r] = [x - q * y for x, y in zip(a[r], prow)]
    return tuple(tuple(row[m:]) for row in a)


def rank(rows) -> int:
    """Rank over the integers (equivalently over Q) of a list of int rows."""
    a = [list(r) for r in rows if any(r)]
    if not a:
        return 0
    ncols = len(a[0])
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(a)):
            if a[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, len(a)):
            if a[i][col] != 0:
                # fraction-free elimination keeps everything in Z
                lead, cur = a[r][col], a[i][col]
                a[i] = [lead * x - cur * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r
