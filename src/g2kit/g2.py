"""The R^7 cross product, its calibration 3-form, and adapted frames.

The compact exceptional group is realized as the stabilizer of the 3-form

    phi = e^123 + e^145 + e^167 + e^246 - e^257 - e^347 - e^356,

and the cross product is the bilinear map with (u x v) . w = phi(u, v, w).
An *adapted frame* is a matrix g in the stabilizer, read as an orthonormal
frame (columns g1..g7) together with the complex frame f_j = (g_2j - i g_2j+1)/2
on the tangent space of the unit sphere at x = g1.

Membership is verified at the boundary, once: the public constructors
(``AdaptedFrame``, ``adapted_frame``, ``frame_rotate``) check their result with
:func:`is_g2`, while the private builders ``_completion_rows`` and
``_rotation_rows`` do not, so that products of verified elements can be
assembled first and the finished frame checked once.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import mul

from .forms import ExteriorForm, sort_sign
from .linalg import _cleared_over_z, mat_mul, mat_vec, transpose
from .scalars import (
    EXACT,
    FLOAT,
    ComplexRational,
    Immutable,
    join_modes,
    matrix_mode,
    vector_mode,
)

PHI_TERMS = (
    ((1, 2, 3), 1),
    ((1, 4, 5), 1),
    ((1, 6, 7), 1),
    ((2, 4, 6), 1),
    ((2, 5, 7), -1),
    ((3, 4, 7), -1),
    ((3, 5, 6), -1),
)

DEFAULT_TOL = 1e-10


class FrameConstructionError(ValueError):
    """Input triple is not orthonormal/admissible, or the completion failed."""


def associative_three_form() -> ExteriorForm:
    """The calibration 3-form phi on R^7 (exact, unit coefficients)."""
    return ExteriorForm(7, 3, {idx: Fraction(s) for idx, s in PHI_TERMS})


@functools.cache
def float_three_form() -> ExteriorForm:
    """phi with float coefficients, built once per process: forms never change."""
    return associative_three_form().as_float()


_PHI = dict(PHI_TERMS)
# row i - 1: (j - 1, k - 1, s < 0) for each j with e_i x e_j = s e_k, j increasing, where
# s = phi(e_i, e_j, e_k) is the sign of sorting (i, j, k) into a term w of PHI_TERMS
_CROSS_ROWS = tuple(
    tuple((j - 1, k - 1, s * _PHI[w] < 0) for j in range(1, 8) for k in range(1, 8)
          for w, s in [sort_sign((i, j, k))] if w in _PHI)
    for i in range(1, 8)
)
# the 21 pairs i < j of is_g2's test, as 0-based (i, j, k, sign < 0), in row order
_CROSS_PAIRS = tuple((i, j, k, neg) for i, row in enumerate(_CROSS_ROWS) for j, k, neg in row if j > i)


def cross(u, v):
    """The seven-dimensional cross product: exact, or the float bits of the ``_cross`` loop.

    Nonzero floats take the straight-line ``_cross_float``, and rerun the loop if an
    output is zero, as its sign may differ there.  A zero input runs the loop, which
    skips it: the kernel would multiply it, and 0 * inf is NaN.  Rationals run the
    loop on integers, one division per entry.
    """
    u, v = list(u), list(v)
    if len(u) != 7 or len(v) != 7:
        raise ValueError("cross product needs 7-vectors")
    join_modes(vector_mode(u), vector_mode(v))
    uv = u + v
    types = set(map(type, uv))
    if types == {Fraction}:  # integer products, one division per entry
        (nu, du), (nv, dv) = _cleared_over_z((u, v))
        return tuple(Fraction(x, du * dv) for x in _cross(nu, nv))
    if types == {float} and 0.0 not in uv and all(out := _cross_float(u, v)):
        return out
    return _cross(u, v)


def _cross(u, v):
    """The cross product of two 7-sequences of one scalar mode, unchecked."""
    out = [u[0] * 0] * 7
    for ui, row in zip(u, _CROSS_ROWS):
        if not ui:
            continue
        for j, k, negative in row:
            vj = v[j]
            if vj:
                out[k] = out[k] - ui * vj if negative else out[k] + ui * vj
    return tuple(out)


def _cross_float(u, v):
    """``_cross`` written out, each entry summed in the loop's order; it does not skip
    zero inputs, so on finite input only the signs of zero entries can differ."""
    u1, u2, u3, u4, u5, u6, u7 = u
    v1, v2, v3, v4, v5, v6, v7 = v
    return (
        u2 * v3 - u3 * v2 + u4 * v5 - u5 * v4 + u6 * v7 - u7 * v6,
        -u1 * v3 + u3 * v1 + u4 * v6 - u5 * v7 - u6 * v4 + u7 * v5,
        u1 * v2 - u2 * v1 - u4 * v7 - u5 * v6 + u6 * v5 + u7 * v4,
        -u1 * v5 - u2 * v6 + u3 * v7 + u5 * v1 + u6 * v2 - u7 * v3,
        u1 * v4 + u2 * v7 + u3 * v6 - u4 * v1 - u6 * v3 - u7 * v2,
        -u1 * v7 + u2 * v4 - u3 * v5 - u4 * v2 + u5 * v3 + u7 * v1,
        u1 * v6 - u2 * v5 - u3 * v4 + u4 * v3 + u5 * v2 - u6 * v1,
    )


def dot(u, v):
    """u . v by ``linalg.mat_vec``: fraction-free on exact input, a left-to-right sum on floats."""
    u, v = list(u), list(v)
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    join_modes(vector_mode(u), vector_mode(v))
    return mat_vec((u,), v)[0]


def g2_defect(matrix) -> ExteriorForm:
    """pullback(phi, g) - phi; the zero form exactly when g is in the group."""
    phi = float_three_form() if matrix_mode(matrix) == FLOAT else associative_three_form()
    return phi.pullback(matrix) - phi


def is_g2(matrix) -> bool:
    """Whether the 7x7 matrix preserves phi (exactly, or within DEFAULT_TOL for floats).

    g preserves phi if and only if it is orthogonal and preserves the cross
    product, since phi fixes the metric and the orientation (Harvey-Lawson,
    Calibrated geometries, Acta Math. 148, 1982; Bryant, Some remarks on
    G_2-structures, arXiv:math/0305124).  So the test checks the 28 dot
    products of the columns against 0/1, then g(e_i) x g(e_j) = +-g(e_k) for
    the 21 pairs i < j with e_i x e_j = +-e_k, and stops at the first failure.
    det(g) = 1 follows and is not computed.  :func:`g2_defect` is the
    independent pullback oracle.  Rational matrices run the same test on
    integer columns with their denominators cleared.
    """
    rows = [list(r) for r in matrix]
    if len(rows) != 7 or any(len(r) != 7 for r in rows):
        raise ValueError("group membership test needs a 7x7 matrix")
    cols = transpose(rows)
    cleared = _cleared_over_z(cols)
    if cleared is not None:
        return _is_g2_cleared(cleared)
    if matrix_mode(rows) == FLOAT:
        return _is_g2_loop(cols, DEFAULT_TOL, _cross_float)
    return _is_g2_loop(cols, None, _cross)


def _is_g2_loop(cols, tol, kernel):
    """The 28 + 21 tests of :func:`is_g2` in order, up to the first residual r (value
    minus target) that is nonzero, or for floats fails ``abs(r) < tol`` (NaN fails).
    The float ``kernel``, ``_cross_float`` unguarded, meets only finite columns, as they
    passed the dot tests, so its residuals have the loop's absolute values."""
    for i in range(7):
        for j in range(i, 7):
            r = sum(map(mul, cols[i], cols[j])) - (i == j)
            if r if tol is None else not abs(r) < tol:
                return False
    for i, j, k, negative in _CROSS_PAIRS:
        for a, b in zip(kernel(cols[i], cols[j]), cols[k]):
            r = a + b if negative else a - b
            if r if tol is None else not abs(r) < tol:
                return False
    return True


def _is_g2_cleared(cols):
    """:func:`is_g2` on columns g(e_j) = N_j / D_j given as int pairs (N_j, D_j).

    With the denominators cleared, orthonormality reads N_i . N_j =
    delta_ij D_i D_j and the cross-product test reads
    D_k (N_i x N_j) = +-D_i D_j N_k; the order of the checks is unchanged.
    """
    for i in range(7):
        ni, di = cols[i]
        for j in range(i, 7):
            nj, dj = cols[j]
            if sum(map(mul, ni, nj)) != (di * dj if i == j else 0):
                return False
    for i, j, k, negative in _CROSS_PAIRS:
        (ni, di), (nj, dj), (nk, dk) = cols[i], cols[j], cols[k]
        scale = -di * dj if negative else di * dj
        if any(dk * a != scale * b for a, b in zip(_cross(ni, nj), nk)):
            return False
    return True


def theta_value(x, y, exact):
    """theta_j(v) = (y - i x)/2, x = g_2j . v, y = g_2j+1 . v: ComplexRational, or complex of floats."""
    if exact:
        return ComplexRational(Fraction(y) / 2, -Fraction(x) / 2)
    return (y - 1j * x) / 2.0


class AdaptedFrame(Immutable):
    """A group element as a moving frame: base point x = g1, complex frame f_j.

    ``matrix`` is row-major; ``col(j)`` returns column j (1-based).  theta(j)
    is the complex-valued tangent coframe normalized so that the invariant
    2-form at x equals 2i * sum_j theta_j ^ conj(theta_j) exactly.

    The constructor verifies membership with :func:`is_g2` and raises
    :class:`FrameConstructionError` on failure.  ``check=False`` skips that
    test; it is for a matrix already known to be in the group, such as a
    product of verified elements.  A matrix that is not 7x7 raises
    :class:`FrameConstructionError` either way.
    """

    __slots__ = ("matrix", "mode")

    def __init__(self, matrix, check=True):
        rows = tuple(tuple(r) for r in matrix)
        if len(rows) != 7 or any(len(r) != 7 for r in rows):
            raise FrameConstructionError("a frame is a 7x7 matrix")
        mode = EXACT if matrix_mode(rows) != FLOAT else FLOAT
        if check and not is_g2(rows):
            raise FrameConstructionError("matrix does not preserve phi")
        super().__init__(rows, mode)

    def col(self, j):
        return tuple(self.matrix[i][j - 1] for i in range(7))

    @property
    def x(self):
        return self.col(1)

    def theta(self, j) -> ExteriorForm:
        """Coframe 1-form theta_j = (g_2j+1 - i g_2j)/2 as covector (ambient)."""
        pairs, exact = zip(self.col(2 * j), self.col(2 * j + 1)), self.mode == EXACT
        terms = {(i,): theta_value(x, y, exact) for i, (x, y) in enumerate(pairs, 1)}
        return ExteriorForm._trusted(7, 1, terms, self.mode)

    def tangent_columns(self):
        return [self.col(j) for j in range(2, 8)]

    def __eq__(self, other):
        if not isinstance(other, AdaptedFrame):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"AdaptedFrame(x={self.x})"


def adapted_frame(u, v, w) -> AdaptedFrame:
    """Complete an orthonormal triple with phi(u,v,w) = 0 to a group element.

    Columns: u, v, u x v, w, u x w, v x w, -(u x v) x w.  The standard triple
    (e1, e2, e4) completes to the identity.  The triple is not checked on its
    own: the 28 column dot products that :func:`is_g2` tests on the completion
    include |u|^2, |v|^2, |w|^2, u.v, u.w, v.w and (u x v).w = phi(u, v, w),
    at the same tolerance (exact, or DEFAULT_TOL for floats).  So an
    inadmissible triple raises :class:`FrameConstructionError` that names the
    completion, as does a completion that fails the membership test otherwise.
    Exact and float entries together raise MixedModeError from :func:`cross`.
    """
    try:
        return AdaptedFrame(_completion_rows(tuple(u), tuple(v), tuple(w)), check=True)
    except FrameConstructionError as exc:
        raise FrameConstructionError(
            "cross-product completion failed the membership check"
        ) from exc


def _completion_rows(u, v, w):
    """Rows of the cross-product completion of (u, v, w); nothing is checked."""
    uv = cross(u, v)
    return transpose([u, v, uv, w, cross(u, w), cross(v, w), tuple(-x for x in cross(uv, w))])


def standard_frame() -> AdaptedFrame:
    """The identity frame, completed from (e1, e2, e4).

    It is a constant of the group, so it is built without a membership check.
    """
    e1 = (Fraction(1), 0, 0, 0, 0, 0, 0)
    e2 = (0, Fraction(1), 0, 0, 0, 0, 0)
    e4 = (0, 0, 0, Fraction(1), 0, 0, 0)
    return AdaptedFrame(_completion_rows(e1, e2, e4), check=False)


def frame_rotate(frame: AdaptedFrame, unitary) -> AdaptedFrame:
    """Act on a frame by a special-unitary 3x3 matrix in the complex frame.

    New complex columns f'_k = sum_j U[j][k] f_j; the base point is fixed.
    For U in SU(3) the result is again a group element; it is verified, so a
    U outside SU(3) (even one in U(3)) raises FrameConstructionError.
    """
    return AdaptedFrame(_rotation_rows(frame, unitary), check=True)


def _unitary_block(unitary):
    """The real 7x7 matrix of a complex 3x3 U acting on the f-planes, with g1 fixed.

    Entry U_jk = a + ib fills rows 2j, 2j+1 and columns 2k, 2k+1 (1-based)
    with [[a, -b], [b, a]], so that frame.matrix times it has the complex
    columns f'_k = sum_j U_jk f_j.
    """
    out = [[1 if a == b == 0 else 0 for b in range(7)] for a in range(7)]
    for j, row in enumerate(unitary):
        for k, c in enumerate(row):
            a, b = c.real, c.imag
            out[2 * j + 1][2 * k + 1 : 2 * k + 3] = a, -b
            out[2 * j + 2][2 * k + 1 : 2 * k + 3] = b, a
    return out


def _rotation_rows(frame: AdaptedFrame, unitary):
    """Rows of ``frame`` rotated by ``unitary`` as in frame_rotate, unchecked."""
    return mat_mul(frame.matrix, _unitary_block(unitary))
