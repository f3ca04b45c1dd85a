"""Small dense linear algebra over exact scalars (Fraction / ComplexRational).

numpy cannot do rational arithmetic, and the classification verdicts in this
package (signatures, ranks, kernel dimensions) must be tolerance-free, so the
handful of routines needed are written out over a generic scalar type.  They
also run on floats (pass a pivot tolerance) for the sampling paths.

Matrices are lists of row lists; vectors are flat lists/tuples.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import I_EXACT, sabs, sconj, sre


class DegenerateFormError(ValueError):
    """A form required to be nondegenerate has nontrivial kernel."""


def _nz(x, tol):
    # exact mode must not round-trip through floats
    return bool(x) if tol == 0.0 else sabs(x) > tol


def _fx(x):
    # int/int is float division in Python; promote ints before any division
    return Fraction(x) if isinstance(x, int) else x


def _fx_rows(m):
    return [[_fx(x) for x in row] for row in m]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError(f"cannot multiply a {n}x{len(a[0])} matrix by a {k}x{m} matrix")
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), start=a[i][0] * 0) for j in range(m)]
        for i in range(n)
    ]


def mat_vec(a, v):
    return [sum((a[i][j] * v[j] for j in range(len(v))), start=a[i][0] * 0) for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def conj_transpose(a):
    return [[sconj(x) for x in col] for col in zip(*a)]


def mat_conj(a):
    return [[sconj(x) for x in row] for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def identity(n, one=Fraction(1)):
    return [[one if i == j else one * 0 for j in range(n)] for i in range(n)]


def _pivot_row(rows, col, start, tol):
    if tol == 0.0:
        for r in range(start, len(rows)):
            if rows[r][col]:
                return r
        return None
    best, best_mag = None, tol
    for r in range(start, len(rows)):
        mag = sabs(rows[r][col])
        if mag > best_mag:
            best, best_mag = r, mag
    return best


def det(m, tol=0.0):
    n = len(m)
    a = _fx_rows(m)
    sign = 1
    result = None
    for c in range(n):
        p = _pivot_row(a, c, c, tol)
        if p is None:
            return a[0][0] * 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        piv = a[c][c]
        for r in range(c + 1, n):
            if _nz(a[r][c], tol):
                f = a[r][c] / piv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        result = piv if result is None else result * piv
    return result if sign > 0 else -result


def solve(m, rhs, tol=0.0):
    """Solve m x = rhs; rhs is a vector. Raises on singular m."""
    n = len(m)
    a = [[_fx(x) for x in row] + [_fx(rhs[i])] for i, row in enumerate(m)]
    for c in range(n):
        p = _pivot_row(a, c, c, tol)
        if p is None:
            raise DegenerateFormError("singular linear system")
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and _nz(a[r][c], tol):
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[i][n] for i in range(n)]


def inverse(m, tol=0.0):
    n = len(m)
    one = 1.0 if isinstance(m[0][0], (float, complex)) else _fx(m[0][0]) * 0 + 1
    a = [
        [_fx(x) for x in row] + [one if i == j else one * 0 for j in range(n)]
        for i, row in enumerate(m)
    ]
    for c in range(n):
        p = _pivot_row(a, c, c, tol)
        if p is None:
            raise DegenerateFormError("matrix is singular")
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and _nz(a[r][c], tol):
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def rank(m, tol=0.0):
    if not m:
        return 0
    a = _fx_rows(m)
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        p = _pivot_row(a, c, r, tol)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv = a[r][c]
        for rr in range(r + 1, len(a)):
            if _nz(a[rr][c], tol):
                f = a[rr][c] / piv
                a[rr] = [x - f * y for x, y in zip(a[rr], a[r])]
        r += 1
        if r == len(a):
            break
    return r


def kernel_dim(m, tol=0.0):
    return len(m[0]) - rank(m, tol) if m else 0


def _transvect(s, a, b, c):
    """Congruence update for the basis change e_a <- e_a + c*e_b.

    Convention: s[i][j] = B(e_i, e_j) with B conjugate-linear in the first
    slot, so hermitian matrices satisfy s[j][i] = conj(s[i][j]).
    """
    n = len(s)
    cc = sconj(c)
    for j in range(n):
        s[a][j] = s[a][j] + cc * s[b][j]
    for i in range(n):
        s[i][a] = s[i][a] + s[i][b] * c


def signature(m, tol=0.0):
    """Inertia (pos, neg) of a symmetric/hermitian matrix by exact congruence.

    No eigenvalues are computed: the matrix is diagonalized by congruence
    (symmetric Gaussian reduction, with a transvection step when the whole
    remaining diagonal vanishes).  A rank-deficient input raises
    :class:`DegenerateFormError`.
    """
    s = _fx_rows(m)
    alive = list(range(len(m)))
    pos = neg = 0

    while alive:
        a = next((i for i in alive if _nz(s[i][i], tol)), None)
        if a is None:
            found = next(
                (
                    (i, j)
                    for i in alive
                    for j in alive
                    if i != j and _nz(s[i][j], tol)
                ),
                None,
            )
            if found is None:
                raise DegenerateFormError("form is degenerate (kernel nonempty)")
            i, j = found
            t = s[i][j]
            if _nz(sre(t), tol):
                _transvect(s, i, j, t * 0 + 1)
            else:
                _transvect(s, i, j, 1j if isinstance(t, complex) else I_EXACT)
            continue
        if sre(s[a][a]) > 0:
            pos += 1
        else:
            neg += 1
        alive.remove(a)
        for b in alive:
            if _nz(s[b][a], tol):
                f = -(s[b][a] / s[a][a])
                _transvect(s, b, a, sconj(f))
    return (pos, neg)
