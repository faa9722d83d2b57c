"""Exact linear algebra over Gaussian rationals: row reduction, kernels,
images, subspace intersections.  Matrices are lists of row lists."""

from __future__ import annotations

from .rational import ComplexRational as CR


def _coerce_matrix(m):
    return [[CR.coerce(x) for x in row] for row in m]


def rref(matrix):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = _coerce_matrix(matrix)
    if not m:
        return [], []
    cols = len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if not m[i][c].is_zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = CR(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def kernel_basis(matrix):
    """Basis vectors of the right kernel."""
    m = _coerce_matrix(matrix)
    if not m:
        return []
    cols = len(m[0])
    rows, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [CR(0)] * cols
        v[f] = CR(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return basis


def image_basis(matrix):
    """Basis of the column space: the columns of the matrix at the pivot
    columns of its reduced row echelon form."""
    m = _coerce_matrix(matrix)
    _, pivots = rref(m)
    return [[row[p] for row in m] for p in pivots]


def solve(matrix, rhs):
    """One solution of M x = b, or None if inconsistent."""
    m = _coerce_matrix(matrix)
    b = [CR.coerce(x) for x in rhs]
    cols = len(m[0]) if m else 0
    aug = [row + [bb] for row, bb in zip(m, b)]
    rows, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [CR(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = rows[r][-1]
    return x


def mat_mul(a, b):
    a = _coerce_matrix(a)
    b = _coerce_matrix(b)
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), CR(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_vec(a, v):
    a = _coerce_matrix(a)
    v = [CR.coerce(x) for x in v]
    return [sum((row[k] * v[k] for k in range(len(v))), CR(0)) for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def identity(n):
    return [[CR(1) if i == j else CR(0) for j in range(n)] for i in range(n)]


def det(matrix) -> CR:
    m = _coerce_matrix(matrix)
    n = len(m)
    sign = CR(1)
    out = CR(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if not m[i][c].is_zero), None)
        if pivot is None:
            return CR(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        out = out * m[c][c]
        inv = CR(1) / m[c][c]
        for i in range(c + 1, n):
            if not m[i][c].is_zero:
                factor = m[i][c] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
    return out * sign


def invert(matrix):
    """Exact inverse, or None when singular."""
    m = _coerce_matrix(matrix)
    n = len(m)
    aug = [row + ident_row for row, ident_row in zip(m, identity(n))]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rows]


def span_intersection(basis_a, basis_b):
    """Basis of the intersection of span(A) and span(B)."""
    if not basis_a or not basis_b:
        return []
    n = len(basis_a[0])
    stacked = [list(col) for col in zip(*(basis_a + basis_b))]  # n x (ka+kb)
    ka = len(basis_a)
    combos = kernel_basis(stacked)
    vectors = []
    for combo in combos:
        v = [CR(0)] * n
        for j in range(ka):
            for i in range(n):
                v[i] = v[i] + combo[j] * basis_a[j][i]
        vectors.append(v)
    if not vectors:
        return []
    rows, pivots = rref(vectors)
    return [rows[r] for r in range(len(pivots))]


def span_dim(vectors) -> int:
    if not vectors:
        return 0
    return len(rref(vectors)[1])
