import json
import math
import os
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from g2kit import linalg
from g2kit.compat import NotComplexStructureError
from g2kit.forms import ExteriorForm
from g2kit.linalg import _det2, _det3, _fraction_free_products, _fx_rows, _nz, _pivot_row
from g2kit.scalars import EXACT, FLOAT, ComplexRational, matrix_mode, to_float


def e_vec(dim, k, float_mode=False):
    """Standard basis vector e_k (1-based)."""
    if float_mode:
        return tuple(1.0 if i == k - 1 else 0.0 for i in range(dim))
    return tuple(Fraction(1 if i == k - 1 else 0) for i in range(dim))


def e7(k):
    return e_vec(7, k)


def orientation_sign_reference(j, vol, tol):
    """Sign of vol on a J-adapted basis (v1, Jv1, v2, Jv2, v3, Jv3), with the basis.

    The v_i are the first coordinate vectors that grow the span, by rank tests at
    pivot tolerance ``tol``.  This is the loop with which ``classify_3form`` chose
    the sign of J before J was taken as -K / sqrt(-lambda).
    """
    n = 6
    float_mode = isinstance(j[0][0], (float, complex))
    chosen = []
    span_rows = []
    for a in range(n):
        v = e_vec(n, a + 1, float_mode)
        jv = tuple(linalg.mat_vec(j, list(v)))
        candidate = span_rows + [list(v), list(jv)]
        if rank(candidate, tol) == len(candidate):
            span_rows = candidate
            chosen.extend([v, jv])
        if len(chosen) == 6:
            break
    if len(chosen) != 6:
        raise NotComplexStructureError("could not build a J-adapted basis")
    val = vol.evaluate(chosen)
    return (1 if to_float(val) > 0 else -1), chosen


# The type-dispatching scalar helpers that every scalar's own real, imag,
# conjugate() and abs() replaced, verbatim, as the references they are checked against.
def sconj(x):
    if isinstance(x, ComplexRational):
        return x.conjugate()
    if isinstance(x, complex):
        return x.conjugate()
    return x


def sre(x):
    if isinstance(x, ComplexRational):
        return x.re
    if isinstance(x, complex):
        return x.real
    return x


def sim(x):
    if isinstance(x, ComplexRational):
        return x.im
    if isinstance(x, complex):
        return x.imag
    if isinstance(x, (int, Fraction)):
        return Fraction(0)
    return 0.0


def sabs(x) -> float:
    if isinstance(x, ComplexRational):
        return math.hypot(float(x.re), float(x.im))
    return abs(x)


# linalg's rank and _det_elim loops, and its mat_vec, as they were before rank and
# _det_elim shared linalg._eliminate and mat_vec became mat_mul on one column,
# verbatim, as the references they are checked against; _relative as it was
# before linalg.PIVOT_TOL replaced the callers' tolerances.
def _relative(m, tol, mode):
    """The one rule: 0 for exact ``mode``, else ``tol`` times the largest |entry| of m."""
    return tol * linalg.max_abs(m) if tol and mode == FLOAT else 0.0


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


def _det_elim(a):
    """Determinant by elimination, the first nonzero entry as pivot; rows of ``a`` are replaced.

    2x2 and 3x3 input runs ``_det2``/``_det3`` on its entries.
    """
    n = len(a)
    if n == 2:
        return _det2(*a[0], *a[1])
    if n == 3:
        return _det3(*a[0], *a[1], *a[2])
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


def mat_vec(a, v):
    if all(len(row) == len(v) for row in a):
        out = _fraction_free_products(a, [v])
        if out is not None:
            return [row[0] for row in out]
    return [sum((a[i][j] * v[j] for j in range(len(v))), start=a[i][0] * 0) for i in range(len(a))]


# threeforms._k_table, the entry table that threeforms._K_PAIRS was once merged from,
# threeforms._k_integers's accumulation as it was before it ran the pair table
# threeforms._K_PAIRS (one product per entry of _K_TABLE, 240 in a dense form), and
# jsonio._canonical as it was before it quoted strings with encode_basestring_ascii,
# verbatim, as the references they are checked against.
def _k_table():
    """3-subset I -> one ``(sign, ((k, J, s), ...))`` per a in I, as described in k_operator."""
    full = range(1, 7)
    table = {}
    for idx in combinations(full, 3):
        per_a = []
        for pos, a in enumerate(idx):
            r1, r2 = idx[:pos] + idx[pos + 1 :]
            entries = []
            for b in full:
                if b != r1 and b != r2:
                    j = tuple(i for i in full if i != b and i != r1 and i != r2)
                    # e_r1 ^ e_r2 ^ e_J takes one transposition per i in J below r1 or r2
                    moves = r1 + r2 - 3 - (b < r1) - (b < r2)
                    entries.append((6 * b + a - 7, j, -1 if moves % 2 else 1))
            per_a.append((-1 if pos % 2 else 1, tuple(entries)))
        table[idx] = tuple(per_a)
    return table


_K_TABLE = _k_table()


def k_integers_reference(rho, vol):
    """``(acc, num, den)`` of ``_k_integers`` for a Fraction 3-form rho and volume form vol."""
    c = vol.terms[(1, 2, 3, 4, 5, 6)]
    nums, d = linalg._cleared([*rho.terms.values()])
    coeff = dict(zip(rho.terms, nums))
    acc = [0] * 36
    for idx, n in coeff.items():
        for sign, entries in _K_TABLE[idx]:
            n_a = sign * n
            for k, j, s in entries:
                m = coeff.get(j)
                if m is not None:
                    acc[k] += s * n_a * m
    return acc, c.denominator, (d or 1) ** 2 * c.numerator


# threeforms.recover_upsilon's real part as it was before it read every value from one
# evaluator (J's columns by mat_vec, one evaluate per triple), and CandidateJ.flipped's rows
# as they were before it skipped the zero entries of a plane (all 49 entries a plane),
# verbatim apart from the returned values, as the references they are checked against.
def upsilon_real_terms_reference(rho, j):
    """The 20 values (zeros kept) that ``recover_upsilon`` reads for Re(Upsilon)."""
    float_mode = rho.mode == FLOAT or matrix_mode(j) == FLOAT
    if float_mode:
        rho = rho.as_float()
    third, one = (1.0 / 3.0, 1.0) if float_mode else (Fraction(1, 3), Fraction(1))
    im_part = third * rho
    basis = [[one if i == a else 0 * one for i in range(6)] for a in range(6)]
    j_cols = [linalg.mat_vec(j, e) for e in basis]
    return {
        (a, b, c): im_part.evaluate([j_cols[a - 1], basis[b - 1], basis[c - 1]])
        for a, b, c in combinations(range(1, 7), 3)
    }


def flipped_rows_reference(frame, planes=(2, 3)):
    """The 7x7 rows that ``CandidateJ.flipped(frame, planes)`` passes to the constructor."""
    n = 7
    rows = [[Fraction(0) if frame.mode == EXACT else 0.0] * n for _ in range(n)]
    for k in (1, 2, 3):
        sgn = -1 if k in planes else 1
        a, b = frame.col(2 * k), frame.col(2 * k + 1)
        for i in range(n):
            for j in range(n):
                rows[i][j] += sgn * (b[i] * a[j] - a[i] * b[j])
    return rows


def bits(x):
    """Type and value of x, a float or complex by ``float.hex`` of both parts, lists entry by entry."""
    if isinstance(x, list):
        return [bits(y) for y in x]
    if isinstance(x, (float, complex)):
        return type(x), x.real.hex(), x.imag.hex()
    return type(x), x


def canonical_reference(obj):
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{json.dumps(str(k))}:{canonical_reference(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_reference(x) for x in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, ComplexRational):
        return json.dumps(f"{obj.re}{'+' if obj.im >= 0 else ''}{obj.im}i")
    if isinstance(obj, complex):
        return json.dumps(f"{format(obj.real, '.17g')}{'+' if obj.imag >= 0 else ''}{format(obj.imag, '.17g')}i")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


# chern._random_rz_pairs and linalg's Gaussian-integer pair helpers as they were before the
# sweep ran on linalg's flat 3x3 kernels, verbatim apart from the module prefix, as the
# references they are checked against.  A matrix is a list of rows of (re, im) int pairs.
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


_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _random_rz_pairs(rng):
    """(r, s_bar) over the Gaussian integers: omega-compatible, residual zero.

    M := t(r) conj(s) is drawn complex symmetric (symmetry is exactly
    omega-compatibility) with det(M) = det(r)^2 pinned by construction
    (P L D t(L) t(P) with diagonal a unit split of (det r, det r, 1)), which
    forces det(conj(s)) = det(r).  The datum is scaled by |det r|^2 to clear
    the one matrix inverse; a positive real scale changes neither the
    residual's vanishing nor any signature.
    """
    while True:
        r = [
            [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
            for _ in range(3)
        ]
        det_r = _zi_det3(r)
        if det_r == (0, 0):
            continue
        u1, u2 = _UNITS[rng.randrange(4)], _UNITS[rng.randrange(4)]
        u12 = _zi_mul(u1, u2)  # a unit, so its inverse is its conjugate
        diag = [_zi_mul(u1, det_r), _zi_mul(u2, det_r), (u12[0], -u12[1])]
        rng.shuffle(diag)
        low = [[(1 if i == j else 0, 0) for j in range(3)] for i in range(3)]
        for i in range(3):
            for j in range(i):
                low[i][j] = (rng.randint(-2, 2), rng.randint(-2, 2))
        low_d = [[_zi_mul(x, diag[j]) for j, x in enumerate(row)] for row in low]
        m2 = _zi_mat_mul(low_d, linalg.transpose(low))
        perm = [0, 1, 2]
        rng.shuffle(perm)
        m2 = [[m2[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        # adj(t(r)) is the cofactor matrix of r
        cd = (det_r[0], -det_r[1])
        s_bar = [
            [_zi_mul(cd, x) for x in row]
            for row in _zi_mat_mul(_zi_cofactors(r), m2)
        ]
        scale = det_r[0] * det_r[0] + det_r[1] * det_r[1]
        r_scaled = [[(x[0] * scale, x[1] * scale) for x in row] for row in r]
        return r_scaled, s_bar


def flat3(m):
    """A 3x3 matrix of (re, im) pairs as linalg's flat pair (re, im) of row-major 9-tuples."""
    return tuple(tuple(x[part] for row in m for x in row) for part in (0, 1))


def unflat3(m):
    """The inverse of ``flat3``: rows of (re, im) pairs."""
    return [[(m[0][k], m[1][k]) for k in (i, i + 1, i + 2)] for i in (0, 3, 6)]


def tiny_pivot_elliptic_form():
    """An exact elliptic (rho, vol) with lambda = -2989/648, a non-square mu = -lambda.

    Its float J sent the float 6x6 elimination of the orientation search that
    ``classify_3form`` once ran onto a rounding residue of 6.9e-18 as pivot, and
    that search chose the J of the wrong orientation.
    """
    f = Fraction
    rho = ExteriorForm(6, 3, {
        (1, 2, 3): f(-1, 3), (1, 2, 4): f(-3, 2), (1, 3, 4): f(-2, 3), (1, 3, 5): f(-1),
        (1, 3, 6): f(1, 2), (1, 5, 6): f(1, 2), (2, 3, 4): f(-2), (2, 3, 5): f(-3, 2),
        (2, 3, 6): f(-1), (2, 4, 5): f(1), (2, 4, 6): f(-2), (2, 5, 6): f(1, 3),
        (3, 4, 5): f(-2, 3), (3, 5, 6): f(-1), (4, 5, 6): f(3, 2),
    })
    return rho, ExteriorForm(6, 6, {(1, 2, 3, 4, 5, 6): f(2)})


def complex_frame_vector(frame, j):
    """f_j = (g_2j - i g_2j+1) / 2 of an exact adapted frame."""
    a, b = frame.col(2 * j), frame.col(2 * j + 1)
    return tuple(ComplexRational(Fraction(x) / 2, -Fraction(y) / 2) for x, y in zip(a, b))


# The constants that hypothesis's st.floats favours (its providers._constant_floats),
# which a float builder driven by one drawn seed must keep reaching.
_HYPOTHESIS_FLOATS = (
    0.5, 1.1, 1.5, 1.9, 1 / 3, 10e6, 10e-6, 1.175494351e-38, 5e-324, sys.float_info.min,
    sys.float_info.max, 3.402823466e38, 9007199254740992.0, 1 - 10e-6, 2 + 10e-6,
    1.192092896e-07, 2.2204460492503131e-016, 2.0**-24, 2.0**-14, 2.0**-149, 2.0**-126,
    *(sys.float_info.min / n for n in (2, 10, 1000, 100_000)),
)


def seeded_float(rng, lo, hi):
    """A float in [lo, hi], 0 <= hi = -lo, drawn as st.floats(lo, hi) reaches them: a
    quarter each from the bounds, +-0.0 and the constants above; from magnitudes
    spread over every binade down to the subnormals; and uniformly."""
    r = rng.random()
    if r < 0.25:
        edges = [x for c in (0.0, hi, *_HYPOTHESIS_FLOATS) for x in (c, -c) if lo <= x <= hi]
        return rng.choice(edges)
    if r < 0.5:
        return rng.choice((-1.0, 1.0)) * hi * 2.0 ** -rng.uniform(0, 1100)
    return rng.uniform(lo, hi)


def rand_fraction(rng, bound=6, denom=4):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, denom))


def rand_vector(rng, dim, bound=6, denom=4):
    return tuple(rand_fraction(rng, bound, denom) for _ in range(dim))


def rand_form(rng, dim, degree, nterms=3, complex_coeffs=False):
    from itertools import combinations

    pool = list(combinations(range(1, dim + 1), degree))
    rng.shuffle(pool)
    terms = {}
    for idx in pool[:nterms]:
        if complex_coeffs:
            terms[idx] = ComplexRational(rand_fraction(rng), rand_fraction(rng))
        else:
            terms[idx] = rand_fraction(rng)
    return ExteriorForm(dim, degree, terms)


two_cpus = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--threads 2 needs two CPUs")


@pytest.fixture
def rng():
    return random.Random(20240817)
