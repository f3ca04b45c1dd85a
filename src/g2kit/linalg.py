"""Small dense linear algebra over exact scalars (Fraction / ComplexRational).

numpy cannot do rational arithmetic, and the classification verdicts in this
package (signatures, ranks, kernel dimensions) must be tolerance-free, so the
handful of routines needed are written out over a generic scalar type.  They
also run on floats.  ``rank``, ``solve``, ``inverse`` and ``signature`` read the
mode of all their entries once: exact input pivots exactly and never reads
``tol``, float input pivots at ``tol`` times its largest |entry|, and a mix raises
MixedModeError.  ``det`` always pivots exactly, at tolerance 0.

Rational and Gaussian-rational inputs run fraction-free: ``mat_mul`` and
``mat_vec`` clear each row's and column's denominators once, form the sums
of products over Z or Z[i] on Python ints, and normalize one scalar per
output entry.  A ``ComplexRational`` already holds its cleared triple
(a + b*i)/d, which ``_cleared`` reads directly, and a Gaussian-rational
result is built from its triple by one reducing constructor.  ``det`` is a
type dispatch in front of two kernels, which ``forms`` also calls directly,
one check per call: ``_det_z`` on int rows (closed form up to 3x3, else
Bareiss elimination; Bareiss, Sylvester's identity and multistep
integer-preserving Gaussian elimination, Math. Comp. 22, 1968), and
``_det_elim``, the generic elimination for float, complex and mixed rows,
unrolled for 2x2 and 3x3 rows (``_det_elim2``/``3``).
Results equal the generic path's in value and in type, and float arithmetic
order is unchanged.

This is the one module with Gaussian-integer matrix kernels.  The private
``_zi_*`` helpers on plain ``(re, im)`` int pairs serve chern's signature sweep,
whose many small products Fraction normalization would dominate.  The sweep
only uses 3x3 shapes, and those run as straight-line code on the unpacked
ints: ``_zi_dot3`` (a 3-term dot product), ``_zi_mat_mul`` on it (inner
dimension 3 only), ``_zi_cross`` entry by entry, and
``_zi_cofactors``/``_zi_det3`` built on those.  ``_zi_dot`` is the general
Z[i] dot product, under ``mat_mul``.

Matrices are lists of row lists; vectors are flat lists/tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul

from .scalars import FLOAT, I_EXACT, ComplexRational, matrix_mode, sabs, sconj, sre


class DegenerateFormError(ValueError):
    """A form required to be nondegenerate has nontrivial kernel."""


def _nz(x, tol):
    # exact mode must not round-trip through floats
    return bool(x) if tol == 0.0 else sabs(x) > tol


def _fx(x, mode=None):
    # int/int is float division in Python; promote ints before any division, to floats in float mode
    return (float(x) if mode == FLOAT else Fraction(x)) if isinstance(x, int) else x


def _fx_rows(m):
    return [[_fx(x) for x in row] for row in m]


_RATIONAL = frozenset((int, Fraction))


def _cleared(seq):
    """Clear the denominators of a sequence of exact scalars, once.

    int/Fraction entries give ``(nums, d)`` with ``seq[i] == nums[i] / d``;
    ``d`` is None when every entry is an int, because then a generic sum of
    products stays an int.  ComplexRational entries give the Gaussian-integer
    pair ``(re, im, d)`` with ``seq[i] == (re[i] + i im[i]) / d``.  Any other
    mix of types gives None, and the caller takes the generic path.
    """
    types = set(map(type, seq))
    if types <= _RATIONAL:
        if Fraction not in types:
            return list(seq), None
        d = lcm(*(x.denominator for x in seq))
        return [x.numerator * (d // x.denominator) for x in seq], d
    if types == {ComplexRational}:
        d = lcm(*(x._d for x in seq))
        return [x._a * (d // x._d) for x in seq], [x._b * (d // x._d) for x in seq], d
    return None


def _cleared_all(seqs):
    """``_cleared`` of every sequence, or None as soon as one fails to clear over a common ring."""
    out = []
    for s in seqs:
        c = _cleared(s)
        if c is None or (out and len(c) != len(out[0])):
            return None
        out.append(c)
    return out or None


def _cleared_over_z(seqs):
    """``(nums, d)`` of every sequence, with d an int, or None unless all are rational."""
    out = _cleared_all(seqs)
    if out is None or len(out[0]) != 2:
        return None
    return [(nums, d or 1) for nums, d in out]


def _dot_q(x, y):
    """x . y for cleared rational sequences: int when no Fraction took part."""
    s = sum(map(mul, x[0], y[0]))
    if x[1] is None:
        return s if y[1] is None else Fraction(s, y[1])
    return Fraction(s, x[1] if y[1] is None else x[1] * y[1])


def _zi_dot(xr, xi, yr, yi):
    """x . y over Z[i] for int sequences of real and imaginary parts, as (re, im)."""
    return (
        sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)),
        sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)),
    )


def _dot_qi(x, y):
    """x . y for cleared Gaussian-rational sequences, as a ComplexRational."""
    (xr, xi, dx), (yr, yi, dy) = x, y
    re, im = _zi_dot(xr, xi, yr, yi)
    d = dx * dy
    return ComplexRational._from_cleared(re, im, d)


def _zi_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _zi_conj(m):
    return [[(x[0], -x[1]) for x in row] for row in m]


def _zi_dot3(x, y):
    """x . y over Z[i] for 3-vectors of (re, im) pairs, written out."""
    (p0, q0), (p1, q1), (p2, q2) = x
    (r0, s0), (r1, s1), (r2, s2) = y
    return (
        p0 * r0 - q0 * s0 + p1 * r1 - q1 * s1 + p2 * r2 - q2 * s2,
        p0 * s0 + q0 * r0 + p1 * s1 + q1 * r1 + p2 * s2 + q2 * r2,
    )


def _zi_mat_mul(a, b):
    """a b for pair matrices with 3 rows in b, the sweep's only shape: one ``_zi_dot3`` per entry."""
    cols = list(zip(*b))
    return [[_zi_dot3(x, y) for y in cols] for x in a]


def _zi_cross(a, b):
    """a x b for pair 3-vectors, bilinear: entry k is a[k+1] b[k+2] - a[k+2] b[k+1]."""
    (p0, q0), (p1, q1), (p2, q2) = a
    (r0, s0), (r1, s1), (r2, s2) = b
    return [
        (p1 * r2 - q1 * s2 - p2 * r1 + q2 * s1, p1 * s2 + q1 * r2 - p2 * s1 - q2 * r1),
        (p2 * r0 - q2 * s0 - p0 * r2 + q0 * s2, p2 * s0 + q2 * r0 - p0 * s2 - q0 * r2),
        (p0 * r1 - q0 * s1 - p1 * r0 + q1 * s0, p0 * s1 + q0 * r1 - p1 * s0 - q1 * r0),
    ]


def _zi_cofactors(m):
    """Cofactor matrix of a 3x3 pair matrix: row k is m[k+1] x m[k+2]."""
    return [_zi_cross(m[1], m[2]), _zi_cross(m[2], m[0]), _zi_cross(m[0], m[1])]


def _zi_det3(m):
    """det of a 3x3 pair matrix as m[0] . (m[1] x m[2])."""
    return _zi_dot3(m[0], _zi_cross(m[1], m[2]))


def _fraction_free_products(rows, cols):
    """Matrix of dot products of rows with cols, or None off the exact rings."""
    rows = _cleared_all(rows)
    cols = rows and _cleared_all(cols)
    if not cols or len(rows[0]) != len(cols[0]):
        return None
    dot = _dot_q if len(rows[0]) == 2 else _dot_qi
    return [[dot(r, c) for c in cols] for r in rows]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError(f"cannot multiply a {n}x{len(a[0])} matrix by a {k}x{m} matrix")
    out = _fraction_free_products(a, list(zip(*b)))
    if out is not None:
        return out
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), start=a[i][0] * 0) for j in range(m)]
        for i in range(n)
    ]


def mat_vec(a, v):
    if all(len(row) == len(v) for row in a):
        out = _fraction_free_products(a, [v])
        if out is not None:
            return [row[0] for row in out]
    return [sum((a[i][j] * v[j] for j in range(len(v))), start=a[i][0] * 0) for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_conj(a):
    return [[sconj(x) for x in row] for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


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


def _bareiss(a):
    """Determinant of a square int matrix by fraction-free elimination.

    Every entry after step c is a (c+1)x(c+1) minor of the input, so the
    division by the previous pivot is exact (Bareiss 1968).  Rows of ``a``
    are replaced, not mutated in place.
    """
    n = len(a)
    sign, prev = 1, 1
    for c in range(n - 1):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        piv, top = a[c][c], a[c][c + 1 :]
        for r in range(c + 1, n):
            row, f = a[r], a[r][c]
            a[r] = [0] * (c + 1) + [(piv * x - f * y) // prev for x, y in zip(row[c + 1 :], top)]
        prev = piv
    return sign * a[n - 1][n - 1]


def _det_z(a):
    """Determinant of a square int matrix: closed form up to 3x3, else Bareiss."""
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if len(a) == 3:
        (p, q, r), (s, t, u), (v, w, x) = a
        return p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v)
    return _bareiss(a)


def _det_elim(a):
    """Determinant by elimination, the first nonzero entry as pivot; rows of ``a`` are replaced.

    2x2 and 3x3 input runs the same operations unrolled: the same pivots, the
    same row updates (skipped below a zero entry), and the pivots multiplied
    left to right.
    """
    n = len(a)
    if n in (2, 3):
        return _det_elim2(a) if n == 2 else _det_elim3(a)
    sign = 1
    result = None
    for c in range(n):
        p = _pivot_row(a, c, c, 0.0)
        if p is None:
            return a[0][0] * 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        piv = a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / piv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        result = piv if result is None else result * piv
    return result if sign > 0 else -result


def _det_elim2(a):
    """``_det_elim`` of a 2x2 matrix, unrolled; ``a`` is only read."""
    (p, q), (r, t) = a
    if not p:  # swap the rows, unless r is zero too
        if not r:
            return p * 0
        return -(r * q) if q else r * 0
    if r:
        t = t - r / p * q
    return p * t if t else p * 0


def _det_elim3(a):
    """``_det_elim`` of a 3x3 matrix, unrolled; ``a`` is only read."""
    r0, r1, r2 = a
    neg = not r0[0]
    if neg:
        if r1[0]:
            r0, r1 = r1, r0
        elif r2[0]:
            r0, r2 = r2, r0
        else:
            return r0[0] * 0
    (p, u1, u2), (b, c1, c2), (d, e1, e2) = r0, r1, r2
    if b:
        f = b / p
        c1, c2 = c1 - f * u1, c2 - f * u2
    if d:
        f = d / p
        e1, e2 = e1 - f * u1, e2 - f * u2
    if not c1:
        if not e1:
            return p * 0
        c1, c2, e1, e2, neg = e1, e2, c1, c2, not neg
    if e1:
        e2 = e2 - e1 / c1 * c2
    if not e2:
        return p * 0
    return -(p * c1 * e2) if neg else p * c1 * e2


def det(m):
    """Rational input runs ``_det_z`` on cleared rows, anything else ``_det_elim``."""
    n = len(m)
    rows = _cleared_over_z(m) if n else None
    if rows is not None and all(len(nums) == n for nums, _ in rows):
        return Fraction(_det_z([nums for nums, _ in rows]), prod(d for _, d in rows))
    return _det_elim(_fx_rows(m))


def _gauss_jordan(a, n, tol, mode, message):
    """Reduce the augmented rows ``a`` until their left n x n block is I.  Rows keep the
    block's scale, tested at ``_relative`` of it, until divided by their pivot; their
    entries are then ratios, tested at ``tol`` itself."""
    ratio_tol = tol if mode == FLOAT else 0.0
    tol = _relative([row[:n] for row in a], tol, mode)
    for c in range(n):
        p = _pivot_row(a, c, c, tol)
        if p is None:
            raise DegenerateFormError(message)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and _nz(a[r][c], ratio_tol if r < c else tol):
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a


def max_abs(m):
    return max((sabs(x) for row in m for x in row), default=0.0)


def _relative(m, tol, mode):
    """The one rule: 0 for exact ``mode``, else ``tol`` times the largest |entry| of m."""
    return tol * max_abs(m) if tol and mode == FLOAT else 0.0


def solve(m, rhs, tol=0.0):
    """Solve m x = rhs; rhs is a vector. Raises on singular m; ``tol`` as in :func:`rank`."""
    n, mode = len(m), matrix_mode([*m, rhs])
    a = [[_fx(x, mode) for x in row] + [_fx(rhs[i], mode)] for i, row in enumerate(m)]
    return [row[n] for row in _gauss_jordan(a, n, tol, mode, "singular linear system")]


def inverse(m, tol=0.0):
    """m^-1 by Gauss-Jordan, ``tol`` as in :func:`rank`; a mode mix raises MixedModeError."""
    n = len(m)
    mode = matrix_mode(m)
    one = 1.0 if mode == FLOAT else _fx(m[0][0]) * 0 + 1
    a = [
        [_fx(x) for x in row] + [one if i == j else one * 0 for j in range(n)]
        for i, row in enumerate(m)
    ]
    return [row[n:] for row in _gauss_jordan(a, n, tol, mode, "matrix is singular")]


def rank(m, tol=0.0):
    """Rank by elimination; ``tol`` is read only on float input, relative to its largest |entry|."""
    if not m:
        return 0
    tol = _relative(m, tol, matrix_mode(m))
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
    :class:`DegenerateFormError`.  ``tol`` is read only on float input, as in :func:`rank`.
    """
    tol = _relative(m, tol, matrix_mode(m))
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
