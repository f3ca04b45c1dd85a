"""Linear algebra of compatible pairs on R^{2n}.

A complex structure J (J^2 = -I) and a nondegenerate 2-form omega are
*compatible* when omega(Jv, Jw) = omega(v, w); the induced bilinear form
g(v, w) = omega(v, Jw) is then symmetric and nondegenerate, and its inertia
(2p, 2q) defines the omega-index (p, q) of J.  Everything here works on
plain matrices: omega is the matrix O with O[i][j] = omega(e_i, e_j).

The package builds every J-complex basis here (:func:`complex_basis`) and
halves every hermitian inertia here (:func:`hermitian_index`).

Signatures are computed by exact congruence reduction over the rationals
(see :mod:`g2kit.linalg`), never by eigenvalues.  Every zero test here is
:func:`defect_vanishes`: exact input gives exactly zero, float input zero
within 1e-10 times the input's scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from . import linalg
from .linalg import DegenerateFormError
from .scalars import FLOAT, matrix_mode


class NotComplexStructureError(ValueError):
    """Matrix does not square to minus the identity."""


class IncompatiblePairError(ValueError):
    """omega-index requested for a non-compatible pair."""


def defect_vanishes(defect, j, *factors):
    """Whether ``defect``, a sum of products of J, J and ``factors``, is zero: the one zero test.

    Exact input must give exactly zero, float input entries within 1e-10 times the scale
    of the products summed, max(1, max|J|)^2 times each factor's max|entry|; an absolute
    bound rejects a valid J with large entries and accepts any small omega.  The mode is
    read from every matrix given, and exact and float together raise MixedModeError.
    """
    if matrix_mode([*defect, *j, *(row for m in factors for row in m)]) != FLOAT:
        return not any(x for row in defect for x in row)
    m = max(1.0, linalg.max_abs(j))  # m * m overflows to inf, where m ** 2 would raise
    bound = 1e-10 * (m * m) * prod(map(linalg.max_abs, factors))
    return all(abs(x) <= bound for row in defect for x in row)


def check_complex_structure(j):
    """J as a list of rows if J^2 = -I, by :func:`defect_vanishes`."""
    j = [list(r) for r in j]
    n = len(j)
    if n % 2 or any(len(r) != n for r in j):
        raise NotComplexStructureError("complex structures need even square matrices")
    jj = linalg.mat_mul(j, j)
    defect = [[jj[a][b] + (1 if a == b else 0) for b in range(n)] for a in range(n)]
    if not defect_vanishes(defect, j):
        raise NotComplexStructureError("J^2 != -I")
    return j


def standard_complex_structure(n):
    """Block [[0, -I], [I, 0]] on R^{2n}."""
    z, one = Fraction(0), Fraction(1)
    j = [[z] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        j[k][n + k] = -one
        j[n + k][k] = one
    return j


def standard_symplectic_matrix(n):
    """The 2-form matrix paired with the standard J so the metric is identity."""
    z, one = Fraction(0), Fraction(1)
    o = [[z] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        o[k][n + k] = one
        o[n + k][k] = -one
    return o


def induced_metric(omega, j):
    """g(v, w) = omega(v, Jw) as a matrix; symmetric iff the pair is compatible."""
    omega = [list(r) for r in omega]
    matrix_mode([*omega, *j])  # omega and J share one mode, or MixedModeError
    if linalg.rank(omega) != len(omega):
        raise DegenerateFormError("omega is degenerate")
    return linalg.mat_mul(omega, j)


def is_compatible_omega(omega, j):
    """omega(Jv, Jw) = omega(v, w), i.e. t(J) omega J = omega, by :func:`defect_vanishes`."""
    omega = [list(r) for r in omega]
    j = check_complex_structure(j)
    lhs = linalg.mat_mul(linalg.transpose(j), linalg.mat_mul(omega, j))
    return defect_vanishes(linalg.mat_sub(lhs, omega), j, omega)


def complex_basis(seeds, apply_j, n):
    """The pairs (v, Jv) of the first n seeds, in order, that grow the real span.

    Jv is ``apply_j(v)``; independence is a rank test.
    """
    pairs = []
    rows = []
    for v in seeds:
        jv = apply_j(v)
        candidate = rows + [list(v), list(jv)]
        if linalg.rank(candidate) == len(candidate):
            rows = candidate
            pairs.append((v, jv))
            if len(pairs) == n:
                return pairs
    raise NotComplexStructureError(f"the seeds span no J-complex basis of {n} pairs")


def hermitian_index(g):
    """The (p, q) of a J-hermitian g(v, w) = omega(v, Jw) with inertia (2p, 2q); odd raises."""
    pos, neg = linalg.signature(g)
    if pos % 2 or neg % 2:
        raise IncompatiblePairError(f"hermitian inertia ({pos},{neg}) is not even")
    return (pos // 2, neg // 2)


def omega_index(omega, j):
    """The (p, q) with p + q = n such that the induced metric has inertia (2p, 2q)."""
    if not is_compatible_omega(omega, j):
        raise IncompatiblePairError("pair is not omega-compatible")
    g = induced_metric(omega, j)
    return hermitian_index(g)


# ---------------------------------------------------------------------------
# dimension counts of the compatibility spaces
# ---------------------------------------------------------------------------

def _linear_map_matrix(apply_map, n):
    """Matrix of A |-> apply_map(A) on the n x n matrix space, row per output entry."""
    n2 = n * n
    cols = []
    for k in range(n2):
        a = [[Fraction(0)] * n for _ in range(n)]
        a[k // n][k % n] = Fraction(1)
        out = apply_map(a)
        cols.append([out[i][j] for i in range(n) for j in range(n)])
    return [[cols[k][r] for k in range(n2)] for r in range(n2)]


def compatibility_space_dims(n):
    """Tangent dimensions at the standard pair of three structure spaces.

    Returns a dict with the dimension of the space of complex structures
    (2n^2), of the omega-compatible ones (n^2 + n), and of the metric-
    compatible ones (n^2 - n), each computed as the kernel dimension of the
    linearized defining equations at (g0, omega0, J0); the achieved ranks are
    included as evidence.
    """
    if n < 1:
        raise ValueError("n must be positive")
    j0 = standard_complex_structure(n)
    om0 = standard_symplectic_matrix(n)
    m = 2 * n

    def anticommute(a):  # tangent to {J^2 = -I}: A J0 + J0 A = 0
        return linalg.mat_add(linalg.mat_mul(a, j0), linalg.mat_mul(j0, a))

    def omega_lin(a):  # derivative of t(J) om J = om
        return linalg.mat_add(
            linalg.mat_mul(linalg.transpose(a), linalg.mat_mul(om0, j0)),
            linalg.mat_mul(linalg.transpose(j0), linalg.mat_mul(om0, a)),
        )

    def metric_lin(a):  # derivative of t(J) g J = g at g = I
        return linalg.mat_add(
            linalg.mat_mul(linalg.transpose(a), j0),
            linalg.mat_mul(linalg.transpose(j0), a),
        )

    m_anti = _linear_map_matrix(anticommute, m)
    m_omega = _linear_map_matrix(omega_lin, m)
    m_metric = _linear_map_matrix(metric_lin, m)

    # each rank is computed once; a kernel dimension is the m * m columns minus it
    ranks = [linalg.rank(x) for x in (m_anti, m_anti + m_omega, m_anti + m_metric)]
    total, omega_dim, metric_dim = (m * m - r for r in ranks)
    return {
        "n": n,
        "total": total,
        "omega_compatible": omega_dim,
        "g_compatible": metric_dim,
        "evidence": {
            "rank_anticommutator": ranks[0],
            "rank_with_omega_condition": ranks[1],
            "rank_with_metric_condition": ranks[2],
            "matrix_space_dim": m * m,
        },
    }
