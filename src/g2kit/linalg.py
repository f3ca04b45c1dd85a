"""Small dense linear algebra over exact scalars (Fraction / ComplexRational).

numpy cannot do rational arithmetic, and the classification verdicts in this
package (signatures, ranks, kernel dimensions) must be tolerance-free, so the
handful of routines needed are written out over a generic scalar type.  They
also run on floats.  ``rank``, ``solve``, ``inverse`` and ``signature`` read the
mode of all their entries once: exact input pivots exactly, float input on its largest
entry above ``PIVOT_TOL`` = 1e-9 times its largest |entry| (no caller picks a tolerance),
and a mix raises MixedModeError.  ``det`` always pivots exactly, at tolerance 0.
``rank`` and ``det`` (n >= 4) read their pivots from one forward elimination, ``_eliminate``.

Rational and Gaussian-rational inputs run fraction-free: ``mat_mul`` clears
each row's and column's denominators once, forms the sums of products over
Z or Z[i] on Python ints, and normalizes one scalar per output entry;
``mat_vec`` is ``mat_mul`` on one column, so a vector of the wrong length
raises.  A ``ComplexRational`` already holds its cleared triple (a + b*i)/d,
which ``_cleared`` reads directly, and a Gaussian-rational result is built
from its triple by one reducing constructor.  ``det`` is a
type dispatch in front of two kernels, one check per call: ``_det_z`` on int
rows (closed form up to 3x3, else Bareiss elimination; Bareiss, Sylvester's
identity and multistep integer-preserving Gaussian elimination, Math. Comp.
22, 1968), and ``_det_elim``, the generic elimination for float, complex and
mixed rows.  Its 2x2 and 3x3 cases are ``_det2``/``_det3``, the same
elimination unrolled on the unpacked entries.  ``forms`` calls ``_det_z`` on
exact minors and ``_det2``/``_det3`` on float minors directly.  Results equal
the generic path's in value and in type, and float arithmetic order is
unchanged.

This is the one module with Gaussian-integer matrix kernels.  chern's
signature sweep, whose many small products Fraction normalization would
dominate, runs on flat 3x3 Z[i] matrices, each a pair (re, im) of row-major
9-tuples of ints: ``_zi3_mul``, ``_zi3_cofactors``, ``_zi3_det`` and
``_zi3_charpoly`` (the coefficients of det(x - m) from five 2x2 minors) are
written out on the unpacked ints, ``_zi3_transpose`` is one ``itemgetter``
per part and ``_zi3_conj`` negates ``im``.  ``_zi_dot`` is the general Z[i]
dot product, under ``mat_mul``.

Matrices are lists of row lists; vectors are flat lists/tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import itemgetter, mul, neg

from .scalars import FLOAT, I_EXACT, ComplexRational, matrix_mode

PIVOT_TOL = 1e-9  # relative to the input's largest |entry|, read only on float input


class DegenerateFormError(ValueError):
    """A form required to be nondegenerate has nontrivial kernel."""


def _nz(x, tol):
    # exact mode must not round-trip through floats
    return bool(x) if tol == 0.0 else abs(x) > tol


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


_T3 = itemgetter(0, 3, 6, 1, 4, 7, 2, 5, 8)


def _zi3_transpose(m):
    return _T3(m[0]), _T3(m[1])


def _zi3_conj(m):
    return m[0], tuple(map(neg, m[1]))


def _zi3_mul(a, b):
    """a b for flat 3x3 Z[i] matrices, written out."""
    (a0, a1, a2, a3, a4, a5, a6, a7, a8), (c0, c1, c2, c3, c4, c5, c6, c7, c8) = a
    (b0, b1, b2, b3, b4, b5, b6, b7, b8), (d0, d1, d2, d3, d4, d5, d6, d7, d8) = b
    return (
        (
            a0 * b0 + a1 * b3 + a2 * b6 - c0 * d0 - c1 * d3 - c2 * d6,
            a0 * b1 + a1 * b4 + a2 * b7 - c0 * d1 - c1 * d4 - c2 * d7,
            a0 * b2 + a1 * b5 + a2 * b8 - c0 * d2 - c1 * d5 - c2 * d8,
            a3 * b0 + a4 * b3 + a5 * b6 - c3 * d0 - c4 * d3 - c5 * d6,
            a3 * b1 + a4 * b4 + a5 * b7 - c3 * d1 - c4 * d4 - c5 * d7,
            a3 * b2 + a4 * b5 + a5 * b8 - c3 * d2 - c4 * d5 - c5 * d8,
            a6 * b0 + a7 * b3 + a8 * b6 - c6 * d0 - c7 * d3 - c8 * d6,
            a6 * b1 + a7 * b4 + a8 * b7 - c6 * d1 - c7 * d4 - c8 * d7,
            a6 * b2 + a7 * b5 + a8 * b8 - c6 * d2 - c7 * d5 - c8 * d8,
        ),
        (
            a0 * d0 + a1 * d3 + a2 * d6 + c0 * b0 + c1 * b3 + c2 * b6,
            a0 * d1 + a1 * d4 + a2 * d7 + c0 * b1 + c1 * b4 + c2 * b7,
            a0 * d2 + a1 * d5 + a2 * d8 + c0 * b2 + c1 * b5 + c2 * b8,
            a3 * d0 + a4 * d3 + a5 * d6 + c3 * b0 + c4 * b3 + c5 * b6,
            a3 * d1 + a4 * d4 + a5 * d7 + c3 * b1 + c4 * b4 + c5 * b7,
            a3 * d2 + a4 * d5 + a5 * d8 + c3 * b2 + c4 * b5 + c5 * b8,
            a6 * d0 + a7 * d3 + a8 * d6 + c6 * b0 + c7 * b3 + c8 * b6,
            a6 * d1 + a7 * d4 + a8 * d7 + c6 * b1 + c7 * b4 + c8 * b7,
            a6 * d2 + a7 * d5 + a8 * d8 + c6 * b2 + c7 * b5 + c8 * b8,
        ),
    )


def _zi3_cofactors(m):
    """Cofactor matrix (x, y) of a flat 3x3 Z[i] matrix: entry (i, j) is the 2x2 minor
    m[i+1][j+1] m[i+2][j+2] - m[i+1][j+2] m[i+2][j+1], indices mod 3, written out."""
    (a0, a1, a2, a3, a4, a5, a6, a7, a8), (c0, c1, c2, c3, c4, c5, c6, c7, c8) = m
    x0, y0 = a4 * a8 - c4 * c8 - a5 * a7 + c5 * c7, a4 * c8 + c4 * a8 - a5 * c7 - c5 * a7
    x1, y1 = a5 * a6 - c5 * c6 - a3 * a8 + c3 * c8, a5 * c6 + c5 * a6 - a3 * c8 - c3 * a8
    x2, y2 = a3 * a7 - c3 * c7 - a4 * a6 + c4 * c6, a3 * c7 + c3 * a7 - a4 * c6 - c4 * a6
    x3, y3 = a7 * a2 - c7 * c2 - a8 * a1 + c8 * c1, a7 * c2 + c7 * a2 - a8 * c1 - c8 * a1
    x4, y4 = a8 * a0 - c8 * c0 - a6 * a2 + c6 * c2, a8 * c0 + c8 * a0 - a6 * c2 - c6 * a2
    x5, y5 = a6 * a1 - c6 * c1 - a7 * a0 + c7 * c0, a6 * c1 + c6 * a1 - a7 * c0 - c7 * a0
    x6, y6 = a1 * a5 - c1 * c5 - a2 * a4 + c2 * c4, a1 * c5 + c1 * a5 - a2 * c4 - c2 * a4
    x7, y7 = a2 * a3 - c2 * c3 - a0 * a5 + c0 * c5, a2 * c3 + c2 * a3 - a0 * c5 - c0 * a5
    x8, y8 = a0 * a4 - c0 * c4 - a1 * a3 + c1 * c3, a0 * c4 + c0 * a4 - a1 * c3 - c1 * a3
    return (x0, x1, x2, x3, x4, x5, x6, x7, x8), (y0, y1, y2, y3, y4, y5, y6, y7, y8)


def _zi3_det(m):
    """det of a flat 3x3 Z[i] matrix as (re, im): row 0 against its cofactors (x_j, y_j), written out."""
    (a0, a1, a2, a3, a4, a5, a6, a7, a8), (c0, c1, c2, c3, c4, c5, c6, c7, c8) = m
    x0, y0 = a4 * a8 - c4 * c8 - a5 * a7 + c5 * c7, a4 * c8 + c4 * a8 - a5 * c7 - c5 * a7
    x1, y1 = a5 * a6 - c5 * c6 - a3 * a8 + c3 * c8, a5 * c6 + c5 * a6 - a3 * c8 - c3 * a8
    x2, y2 = a3 * a7 - c3 * c7 - a4 * a6 + c4 * c6, a3 * c7 + c3 * a7 - a4 * c6 - c4 * a6
    return (
        a0 * x0 - c0 * y0 + a1 * x1 - c1 * y1 + a2 * x2 - c2 * y2,
        a0 * y0 + c0 * x0 + a1 * y1 + c1 * x1 + a2 * y2 + c2 * x2,
    )


def _zi3_charpoly(m):
    """(c1, c2, c3) of det(x - m) = x^3 - c1 x^2 + c2 x - c3 for a flat 3x3 Z[i] matrix, each as
    (re, im), written out: the trace, the sum of the principal 2x2 minors (cofactors 0, 4 and 8)
    and the det, row 0 against cofactors 0, 1 and 2; five 2x2 minors in all."""
    (a0, a1, a2, a3, a4, a5, a6, a7, a8), (c0, c1, c2, c3, c4, c5, c6, c7, c8) = m
    x0, y0 = a4 * a8 - c4 * c8 - a5 * a7 + c5 * c7, a4 * c8 + c4 * a8 - a5 * c7 - c5 * a7
    x1, y1 = a5 * a6 - c5 * c6 - a3 * a8 + c3 * c8, a5 * c6 + c5 * a6 - a3 * c8 - c3 * a8
    x2, y2 = a3 * a7 - c3 * c7 - a4 * a6 + c4 * c6, a3 * c7 + c3 * a7 - a4 * c6 - c4 * a6
    x4, y4 = a8 * a0 - c8 * c0 - a6 * a2 + c6 * c2, a8 * c0 + c8 * a0 - a6 * c2 - c6 * a2
    x8, y8 = a0 * a4 - c0 * c4 - a1 * a3 + c1 * c3, a0 * c4 + c0 * a4 - a1 * c3 - c1 * a3
    return (a0 + a4 + a8, c0 + c4 + c8), (x0 + x4 + x8, y0 + y4 + y8), (
        a0 * x0 - c0 * y0 + a1 * x1 - c1 * y1 + a2 * x2 - c2 * y2,
        a0 * y0 + c0 * x0 + a1 * y1 + c1 * x1 + a2 * y2 + c2 * x2,
    )


def _fraction_free_products(rows, cols):
    """Matrix of dot products of rows with cols, or None off the exact rings."""
    rows = _cleared_all(rows)
    cols = rows and _cleared_all(cols)
    if not cols or len(rows[0]) != len(cols[0]):
        return None
    dot = _dot_q if len(rows[0]) == 2 else _dot_qi
    return [[dot(r, c) for c in cols] for r in rows]


def mat_mul(a, b):
    k, m = len(b), len(b[0]) if b else 0
    if {*map(len, a)} != {k} or {*map(len, b)} != {m}:
        raise ValueError(f"cannot multiply rows of lengths {[*map(len, a)]} by {[*map(len, b)]}")
    cols = list(zip(*b))
    out = _fraction_free_products(a, cols)
    if out is not None:
        return out
    return [[sum(map(mul, row, col), start=row[0] * 0) for col in cols] for row in a]


def mat_vec(a, v):
    return [row[0] for row in mat_mul(a, [[x] for x in v])]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_conj(a):
    return [[x.conjugate() for x in row] for row in a]


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
        mag = abs(rows[r][col])
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


def _eliminate(a, tol):
    """Forward elimination of the rows ``a`` in place: yields each column's pivot (None
    if it has none) and whether its row was swapped up, until every row holds a pivot."""
    r = 0
    for c in range(len(a[0]) if a else 0):
        p = _pivot_row(a, c, r, tol)
        if p is None:
            yield None, False
            continue
        a[r], a[p] = a[p], a[r]
        piv = a[r][c]
        for rr in range(r + 1, len(a)):
            if _nz(a[rr][c], tol):
                f = a[rr][c] / piv
                a[rr] = [x - f * y for x, y in zip(a[rr], a[r])]
        yield piv, p != r
        r += 1
        if r == len(a):
            return


def _det_elim(a):
    """Determinant by elimination, the first nonzero entry as pivot; rows of ``a`` are replaced.

    2x2 and 3x3 input runs ``_det2``/``_det3`` on its entries, larger input ``_eliminate``.
    """
    n = len(a)
    if n == 2:
        return _det2(*a[0], *a[1])
    if n == 3:
        return _det3(*a[0], *a[1], *a[2])
    sign, result = 1, None
    for piv, swapped in _eliminate(a, 0.0):
        if piv is None:
            return a[0][0] * 0
        sign = -sign if swapped else sign
        result = piv if result is None else result * piv
    return result if sign > 0 else -result


def _det2(p, q, r, t):
    """``_det_elim`` of the rows (p, q), (r, t), unrolled: the same pivots, the same
    row updates (skipped below a zero entry), the pivots multiplied left to right."""
    if not p:  # swap the rows, unless r is zero too
        if not r:
            return p * 0
        return -(r * q) if q else r * 0
    if r:
        t = t - r / p * q
    return p * t if t else p * 0


def _det3(p, u1, u2, b, c1, c2, d, e1, e2):
    """``_det_elim`` of the rows (p, u1, u2), (b, c1, c2), (d, e1, e2), unrolled as ``_det2``."""
    neg = not p
    if neg:
        if b:
            p, u1, u2, b, c1, c2 = b, c1, c2, p, u1, u2
        elif d:
            p, u1, u2, d, e1, e2 = d, e1, e2, p, u1, u2
        else:
            return p * 0
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
    """Rational input runs ``_det_z`` on cleared rows, anything else ``_det_elim``; det([]) is 1."""
    n = len(m)
    if not n:
        return 1  # the empty product
    rows = _cleared_over_z(m)
    if rows is not None and all(len(nums) == n for nums, _ in rows):
        return Fraction(_det_z([nums for nums, _ in rows]), prod(d for _, d in rows))
    return _det_elim(_fx_rows(m))


def _gauss_jordan(a, n, mode, message):
    """Reduce the augmented rows ``a`` until their left n x n block is I.  Rows keep the
    block's scale, tested at ``_relative`` of it, until divided by their pivot; their
    entries are then ratios, tested at ``PIVOT_TOL`` itself."""
    ratio_tol = PIVOT_TOL if mode == FLOAT else 0.0
    tol = _relative([row[:n] for row in a], mode)
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
    return max((abs(x) for row in m for x in row), default=0.0)


def _relative(m, mode):
    """The one rule: 0 for exact ``mode``, else ``PIVOT_TOL`` times the largest |entry| of m."""
    return PIVOT_TOL * max_abs(m) if mode == FLOAT else 0.0


def solve(m, rhs):
    """Solve m x = rhs; rhs is a vector. Raises on singular m."""
    n, mode = len(m), matrix_mode([*m, rhs])
    a = [[_fx(x, mode) for x in row] + [_fx(rhs[i], mode)] for i, row in enumerate(m)]
    return [row[n] for row in _gauss_jordan(a, n, mode, "singular linear system")]


def inverse(m):
    """m^-1 by Gauss-Jordan; a mode mix raises MixedModeError."""
    n = len(m)
    mode = matrix_mode(m)
    one = 1.0 if mode == FLOAT else _fx(m[0][0]) * 0 + 1
    a = [
        [_fx(x) for x in row] + [one if i == j else one * 0 for j in range(n)]
        for i, row in enumerate(m)
    ]
    return [row[n:] for row in _gauss_jordan(a, n, mode, "matrix is singular")]


def rank(m):
    """Rank by elimination."""
    tol = _relative(m, matrix_mode(m))
    return sum(piv is not None for piv, _ in _eliminate(_fx_rows(m), tol))


def _transvect(s, a, b, c):
    """Congruence update for the basis change e_a <- e_a + c*e_b.

    Convention: s[i][j] = B(e_i, e_j) with B conjugate-linear in the first
    slot, so hermitian matrices satisfy s[j][i] = conj(s[i][j]).
    """
    n = len(s)
    cc = c.conjugate()
    for j in range(n):
        s[a][j] = s[a][j] + cc * s[b][j]
    for i in range(n):
        s[i][a] = s[i][a] + s[i][b] * c


def signature(m):
    """Inertia (pos, neg) of a symmetric/hermitian matrix by exact congruence.

    No eigenvalues are computed: the matrix is diagonalized by congruence
    (symmetric Gaussian reduction, with a transvection step when the whole
    remaining diagonal vanishes).  A rank-deficient input raises
    :class:`DegenerateFormError`.
    """
    tol = _relative(m, matrix_mode(m))
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
            if _nz(t.real, tol):
                _transvect(s, i, j, t * 0 + 1)
            else:
                _transvect(s, i, j, 1j if isinstance(t, complex) else I_EXACT)
            continue
        if s[a][a].real > 0:
            pos += 1
        else:
            neg += 1
        alive.remove(a)
        for b in alive:
            if _nz(s[b][a], tol):
                f = -(s[b][a] / s[a][a])
                _transvect(s, b, a, f.conjugate())
    return (pos, neg)
