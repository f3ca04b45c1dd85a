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

from fractions import Fraction
from operator import mul

from .forms import ExteriorForm
from .linalg import _cleared_over_z
from .scalars import (
    EXACT,
    FLOAT,
    ComplexRational,
    join_modes,
    matrix_mode,
    to_float,
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


def _structure_constants():
    # c[i][j] = list of (k, sign): (e_i x e_j) has component sign on e_k
    table = [[[] for _ in range(8)] for _ in range(8)]
    for (a, b, c), s in PHI_TERMS:
        for (i, j, k), sign in (
            ((a, b, c), s),
            ((b, c, a), s),
            ((c, a, b), s),
            ((b, a, c), -s),
            ((a, c, b), -s),
            ((c, b, a), -s),
        ):
            table[i][j].append((k, sign))
    return table

_CROSS_TABLE = _structure_constants()

# row i - 1: (j - 1, k - 1, sign < 0) for each j with e_i x e_j = sign e_k, j increasing
_CROSS_ROWS = tuple(
    tuple((j - 1, k - 1, sign < 0) for j in range(1, 8) for k, sign in _CROSS_TABLE[i][j])
    for i in range(1, 8)
)


def cross(u, v):
    """The seven-dimensional cross product, componentwise exact."""
    u, v = list(u), list(v)
    if len(u) != 7 or len(v) != 7:
        raise ValueError("cross product needs 7-vectors")
    join_modes(vector_mode(u), vector_mode(v))
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


def dot(u, v):
    u, v = list(u), list(v)
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    join_modes(vector_mode(u), vector_mode(v))
    return sum((a * b for a, b in zip(u, v)), start=u[0] * 0)


def ambient_metric(u, v):
    """The inner product the cross product is calibrated against."""
    return dot(u, v)


def g2_defect(matrix) -> ExteriorForm:
    """pullback(phi, g) - phi; the zero form exactly when g is in the group."""
    phi = associative_three_form()
    if matrix_mode(matrix) == FLOAT:
        phi = phi.as_float()
    return phi.pullback(matrix) - phi


def is_g2(matrix, tol=None) -> bool:
    """Whether the 7x7 matrix preserves phi (exactly, or within tol for floats).

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
    cols = [[rows[i][j] for i in range(7)] for j in range(7)]
    cleared = _cleared_over_z(cols)
    if cleared is not None:
        return _is_g2_cleared(cleared)
    if matrix_mode(rows) == FLOAT:
        t = DEFAULT_TOL if tol is None else tol
        close = lambda a, b: abs(a - b) < t
    else:
        close = lambda a, b: a == b
    for i in range(7):
        for j in range(i, 7):
            d = sum((a * b for a, b in zip(cols[i], cols[j])), start=cols[i][0] * 0)
            if not close(d, 1 if i == j else 0):
                return False
    for i in range(1, 8):
        for j in range(i + 1, 8):
            ((k, sign),) = _CROSS_TABLE[i][j]
            for a, b in zip(_cross(cols[i - 1], cols[j - 1]), cols[k - 1]):
                if not close(a, b if sign == 1 else -b):
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
    for i in range(1, 8):
        for j in range(i + 1, 8):
            ((k, sign),) = _CROSS_TABLE[i][j]
            (ni, di), (nj, dj), (nk, dk) = cols[i - 1], cols[j - 1], cols[k - 1]
            scale = sign * di * dj
            if any(dk * a != scale * b for a, b in zip(_cross(ni, nj), nk)):
                return False
    return True


class AdaptedFrame:
    """A group element as a moving frame: base point x = g1, complex frame f_j.

    ``matrix`` is row-major; ``col(j)`` returns column j (1-based).  theta(j)
    is the complex-valued tangent coframe normalized so that the invariant
    2-form at x equals 2i * sum_j theta_j ^ conj(theta_j) exactly.

    The constructor verifies membership with :func:`is_g2` and raises
    :class:`FrameConstructionError` on failure.  ``check=False`` skips that
    test; it is for a matrix already known to be in the group, such as a
    product of verified elements.
    """

    __slots__ = ("matrix", "mode")

    def __init__(self, matrix, check=True, tol=None):
        rows = tuple(tuple(r) for r in matrix)
        mode = EXACT if matrix_mode(rows) != FLOAT else FLOAT
        if check and not is_g2(rows, tol):
            raise FrameConstructionError("matrix does not preserve phi")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("AdaptedFrame is immutable")

    def __reduce__(self):  # already verified to be in the group
        return AdaptedFrame, (self.matrix, False)

    def col(self, j):
        return tuple(self.matrix[i][j - 1] for i in range(7))

    @property
    def x(self):
        return self.col(1)

    def f(self, j):
        """Complex tangent frame vector f_j = (g_2j - i g_2j+1)/2."""
        a, b = self.col(2 * j), self.col(2 * j + 1)
        if self.mode == EXACT:
            return tuple(
                ComplexRational(Fraction(x) / 2, -Fraction(y) / 2) for x, y in zip(a, b)
            )
        return tuple((x - 1j * y) / 2.0 for x, y in zip(a, b))

    def theta(self, j) -> ExteriorForm:
        """Coframe 1-form theta_j = (g_2j+1 - i g_2j)/2 as covector (ambient)."""
        a, b = self.col(2 * j), self.col(2 * j + 1)
        if self.mode == EXACT:
            comps = [
                ComplexRational(Fraction(y) / 2, -Fraction(x) / 2) for x, y in zip(a, b)
            ]
        else:
            comps = [(y - 1j * x) / 2.0 for x, y in zip(a, b)]
        return ExteriorForm.from_covector(comps)

    def tangent_columns(self):
        return [self.col(j) for j in range(2, 8)]

    def __eq__(self, other):
        if not isinstance(other, AdaptedFrame):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"AdaptedFrame(x={self.x})"


def adapted_frame(u, v, w, tol=None) -> AdaptedFrame:
    """Complete an orthonormal triple with phi(u,v,w) = 0 to a group element.

    Columns: u, v, u x v, w, u x w, v x w, -(u x v) x w.  The standard triple
    (e1, e2, e4) completes to the identity.  The triple is checked to be
    admissible, and the completed frame is verified once by ``AdaptedFrame``;
    the construction fails hard if the completion does not preserve phi.
    """
    u, v, w = tuple(u), tuple(v), tuple(w)
    mode = join_modes(join_modes(vector_mode(u), vector_mode(v)), vector_mode(w))
    mode = FLOAT if mode == FLOAT else EXACT
    t = DEFAULT_TOL if tol is None else tol

    def check(value, name):
        if mode == EXACT:
            if value != 0:
                raise FrameConstructionError(f"triple not admissible: {name} = {value}")
        elif abs(to_float(value)) > t:
            raise FrameConstructionError(f"triple not admissible: {name} = {value}")

    check(dot(u, u) - 1, "|u|^2 - 1")
    check(dot(v, v) - 1, "|v|^2 - 1")
    check(dot(w, w) - 1, "|w|^2 - 1")
    check(dot(u, v), "u.v")
    check(dot(u, w), "u.w")
    check(dot(v, w), "v.w")
    check(dot(cross(u, v), w), "phi(u,v,w)")

    try:
        return AdaptedFrame(_completion_rows(u, v, w), check=True, tol=tol)
    except FrameConstructionError as exc:
        raise FrameConstructionError(
            "cross-product completion failed the membership check"
        ) from exc


def _completion_rows(u, v, w):
    """Rows of the cross-product completion of (u, v, w); nothing is checked."""
    uv = cross(u, v)
    cols = [u, v, uv, w, cross(u, w), cross(v, w), tuple(-x for x in cross(uv, w))]
    return [[cols[j][i] for j in range(7)] for i in range(7)]


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


def _rotation_rows(frame: AdaptedFrame, unitary):
    """Rows of ``frame`` rotated by ``unitary`` as in frame_rotate, unchecked."""
    u = [list(r) for r in unitary]
    cols = [frame.col(1)]
    new_cols = {}
    for k in range(1, 4):
        re_col = [0] * 7
        im_col = [0] * 7
        for j in range(1, 4):
            c = u[j - 1][k - 1]
            a = c.re if isinstance(c, ComplexRational) else c.real
            b = c.im if isinstance(c, ComplexRational) else c.imag
            gj, gj1 = frame.col(2 * j), frame.col(2 * j + 1)
            for i in range(7):
                re_col[i] = re_col[i] + a * gj[i] + b * gj1[i]
                im_col[i] = im_col[i] + a * gj1[i] - b * gj[i]
        new_cols[2 * k] = tuple(re_col)
        new_cols[2 * k + 1] = tuple(im_col)
    for j in range(2, 8):
        cols.append(new_cols[j])
    return [[cols[j][i] for j in range(7)] for i in range(7)]
