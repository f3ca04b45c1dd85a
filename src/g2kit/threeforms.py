"""Orbit classification of 3-forms on a six-dimensional real vector space.

GL(6) has two open orbits on 3-forms: the *split* type (normal form
e^123 + e^456) and the *elliptic* type (normal form Im((e^1+ie^2)^(e^3+ie^4)
^(e^5+ie^6))); everything else is lumped as *degenerate*.  The invariant is
computed from the operator K_rho(v) = (iota_v rho) ^ rho read as an
endomorphism through a fixed volume form: K^2 is a multiple lambda * Id of
the identity on the open orbits, with lambda > 0 split and lambda < 0
elliptic.  In the elliptic case J = K / sqrt(-lambda) is a complex structure
and rho = 3 Im(Upsilon) for a decomposable (3,0)-form Upsilon, both of which
are recovered here.

lambda naturally carries the square of a volume weight; the reported scalar
depends on the chosen volume form, but its sign (the tag) does not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import linalg
from .compat import check_complex_structure
from .forms import ExteriorForm
from .scalars import EXACT, FLOAT, I_EXACT, sabs, sqrt_fraction, to_float


class NotEllipticError(ValueError):
    """Operation requires an elliptic 3-form."""


class ThreeFormClass:
    """Classification result: tag, discriminant, and elliptic extras.

    ``upsilon`` is built by :func:`recover_upsilon` on first access, and cached.
    """

    __slots__ = ("tag", "discriminant", "j_matrix", "sqrt_is_exact", "_rho", "_upsilon")

    def __init__(self, tag, discriminant, j_matrix=None, upsilon=None, sqrt_is_exact=True, rho=None):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "discriminant", discriminant)
        object.__setattr__(self, "j_matrix", j_matrix)
        object.__setattr__(self, "sqrt_is_exact", sqrt_is_exact)
        object.__setattr__(self, "_rho", rho)
        object.__setattr__(self, "_upsilon", upsilon)

    @property
    def upsilon(self):
        if self._upsilon is None and self._rho is not None:
            object.__setattr__(self, "_upsilon", recover_upsilon(self._rho, self.j_matrix))
        return self._upsilon

    def __setattr__(self, name, value):
        raise AttributeError("ThreeFormClass is immutable")

    def __reduce__(self):
        return ThreeFormClass, (
            self.tag, self.discriminant, self.j_matrix, self._upsilon, self.sqrt_is_exact, self._rho
        )

    def __repr__(self):
        return f"ThreeFormClass({self.tag}, discriminant={self.discriminant})"


def split_normal_form() -> ExteriorForm:
    return ExteriorForm(6, 3, {(1, 2, 3): Fraction(1), (4, 5, 6): Fraction(1)})


def elliptic_normal_form() -> ExteriorForm:
    return ExteriorForm(
        6,
        3,
        {
            (1, 3, 6): Fraction(1),
            (1, 4, 5): Fraction(1),
            (2, 3, 5): Fraction(1),
            (2, 4, 6): Fraction(-1),
        },
    )


def standard_volume_form(dim=6) -> ExteriorForm:
    return ExteriorForm(dim, dim, {tuple(range(1, dim + 1)): Fraction(1)})


def _basis_vec(dim, a, float_mode):
    if float_mode:
        return tuple(1.0 if i == a else 0.0 for i in range(dim))
    return tuple(Fraction(1 if i == a else 0) for i in range(dim))


def k_operator(rho: ExteriorForm, vol: ExteriorForm):
    """Matrix of v |-> (iota_v rho) ^ rho under iota_w vol = that 5-form."""
    if rho.dim != 6 or rho.degree != 3:
        raise ValueError("classification needs a 3-form on R^6")
    if vol.dim != 6 or vol.degree != 6 or vol.is_zero:
        raise ValueError("volume form must be a nonzero 6-form")
    float_mode = rho.mode == FLOAT or vol.mode == FLOAT
    if float_mode:
        rho, vol = rho.as_float(), vol.as_float()
    c = vol.terms.get((1, 2, 3, 4, 5, 6), 0.0 if float_mode else Fraction(0))
    full = tuple(range(1, 7))
    cols = []
    for a in range(6):
        xi = rho.interior(_basis_vec(6, a, float_mode)).wedge(rho)
        col = []
        for b in range(1, 7):
            rest = tuple(i for i in full if i != b)
            sign = 1 if (b - 1) % 2 == 0 else -1
            coeff = xi.terms.get(rest, 0.0 if float_mode else Fraction(0))
            col.append(sign * coeff / c)
        cols.append(col)
    return [[cols[a][b] for a in range(6)] for b in range(6)]


def discriminant(rho: ExteriorForm, vol: ExteriorForm):
    """lambda = trace(K^2) / 6; K^2 = lambda * Id on the open orbits."""
    return _discriminant_of(k_operator(rho, vol))


def _discriminant_of(k):
    """lambda = trace(K^2) / 6 from the matrix K of :func:`k_operator`."""
    k2 = linalg.mat_mul(k, k)
    return sum((k2[i][i] for i in range(6)), start=k2[0][0] * 0) / 6


def _orientation_sign(j, vol, tol):
    """Sign of vol on a J-adapted basis (v1, Jv1, v2, Jv2, v3, Jv3)."""
    n = 6
    float_mode = isinstance(j[0][0], (float, complex))
    chosen = []
    span_rows = []
    for a in range(n):
        v = _basis_vec(n, a, float_mode)
        jv = tuple(linalg.mat_vec(j, list(v)))
        candidate = span_rows + [list(v), list(jv)]
        if linalg.rank(candidate, tol) == len(candidate):
            span_rows = candidate
            chosen.extend([v, jv])
        if len(chosen) == 6:
            break
    if len(chosen) != 6:
        raise NotEllipticError("could not build a J-adapted basis")
    val = vol.evaluate(chosen)
    return (1 if to_float(val) > 0 else -1), chosen


def recover_upsilon(rho: ExteriorForm, j) -> ExteriorForm:
    """The (3,0)-form Upsilon with 3 Im(Upsilon) = rho, given its J.

    Re(Upsilon)(v, w, z) = Im(Upsilon)(Jv, w, z) for a (3,0)-form, so the real
    part is recovered by feeding J into the first slot.  The input must be
    elliptic with j its recovered structure; a j that is not a complex
    structure is rejected outright.
    """
    check_complex_structure(j)
    float_mode = rho.mode == FLOAT or isinstance(j[0][0], (float, complex))
    if float_mode:
        rho = rho.as_float()
    third = (1.0 / 3.0) if float_mode else Fraction(1, 3)
    im_part = third * rho
    basis = [list(_basis_vec(6, a, float_mode)) for a in range(6)]
    j_cols = [linalg.mat_vec(j, e) for e in basis]
    re_terms = {
        (a, b, c): im_part.evaluate([j_cols[a - 1], basis[b - 1], basis[c - 1]])
        for a, b, c in combinations(range(1, 7), 3)
    }
    re_part = ExteriorForm(6, 3, re_terms, mode=rho.mode)
    i_unit = 1j if float_mode else I_EXACT
    return re_part + i_unit * im_part


def upsilon_type_defect(upsilon: ExteriorForm, j, tol=0.0):
    """Max |Upsilon(Jv, w, z) - i Upsilon(v, w, z)| over basis triples ((3,0)-ness)."""
    float_mode = upsilon.mode == FLOAT
    i_unit = 1j if float_mode else I_EXACT
    worst = 0.0
    for idx in combinations(range(1, 7), 3):
        vecs = [list(_basis_vec(6, a - 1, float_mode)) for a in idx]
        lhs = upsilon.evaluate([linalg.mat_vec(j, vecs[0]), vecs[1], vecs[2]])
        rhs = i_unit * upsilon.evaluate(vecs)
        worst = max(worst, sabs(lhs - rhs))
    return worst


def classify_3form(rho: ExteriorForm, vol: ExteriorForm = None, tol=1e-12) -> ThreeFormClass:
    """Split / elliptic / degenerate tag, with (J, Upsilon) in the elliptic case.

    J is normalized to induce the same orientation as ``vol`` (default: the
    standard volume form).  In exact mode J is exact whenever -lambda is a
    rational square; otherwise J is produced in float mode.  In float mode
    the tag is degenerate when |lambda| <= tol |rho|^4 / |vol|^2 (max-norm of
    rho, coefficient of vol), a test unchanged by rescaling rho or vol.
    """
    if vol is None:
        vol = standard_volume_form()
    exact = rho.mode == EXACT and vol.mode == EXACT
    if not exact:
        rho, vol = rho.as_float(), vol.as_float()
    pivot_tol = 0.0 if exact else tol
    k = k_operator(rho, vol)
    lam = _discriminant_of(k)
    # lambda has degree 4 in rho and -2 in vol, and so has the float bound
    bound = 0 if exact else tol * rho.norm_inf() ** 4 / abs(vol.terms[(1, 2, 3, 4, 5, 6)]) ** 2
    if abs(lam) <= bound:
        return ThreeFormClass("degenerate", lam)
    if to_float(lam) > 0:
        return ThreeFormClass("split", lam)

    sqrt_is_exact = True
    if exact:
        root = sqrt_fraction(-lam)
        if root is None:
            sqrt_is_exact = False
            root = (-to_float(lam)) ** 0.5
            k = [[to_float(x) for x in row] for row in k]
            rho = rho.as_float()
            vol = vol.as_float()
            pivot_tol = tol
    else:
        root = (-to_float(lam)) ** 0.5
    j = [[x / root for x in row] for row in k]
    sign, _ = _orientation_sign(j, vol, pivot_tol)
    if sign < 0:
        j = [[-x for x in row] for row in j]
    check_complex_structure(j)
    return ThreeFormClass("elliptic", lam, j_matrix=j, sqrt_is_exact=sqrt_is_exact, rho=rho)
