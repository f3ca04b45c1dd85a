"""Primitive decomposition of d(omega) and the elliptic-definite verdict.

At a point of an almost-symplectic 6-manifold, d(omega) splits uniquely as

    d(omega) = lambda ^ omega + pi,      omega ^ pi = 0,

because wedging with omega^2 is an isomorphism from 1-forms to 5-forms when
omega is nondegenerate.  When pi is of elliptic type it determines an
almost-complex structure J (orientation-normalized against omega^3), omega is
then automatically of J-type (1,1), and its signature as a J-hermitian form
is either (3, 0) or (1, 2); the structure is *elliptic definite* when it is
(3, 0).  Everything here is pointwise linear algebra on forms over R^6.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .compat import hermitian_index
from .forms import ExteriorForm
from .linalg import DegenerateFormError
from .scalars import EXACT, FLOAT, Immutable

from .threeforms import classify_3form


class PrimitivityError(ArithmeticError):
    """The remainder pi of a primitive decomposition failed omega ^ pi = 0."""


class PrimitiveDecomposition(Immutable):
    """The pair (lambda 1-form, pi primitive 3-form) with d(omega) = lam^omega + pi."""

    __slots__ = ("lam", "pi")

    def __iter__(self):
        return iter((self.lam, self.pi))


class EllipticDefiniteReport(Immutable):
    __slots__ = ("tag", "j_matrix", "signature", "elliptic_definite", "decomposition")

    def as_dict(self):
        return {
            "tag": self.tag,
            "signature": list(self.signature) if self.signature else None,
            "elliptic_definite": self.elliptic_definite,
        }


def _five_form_coords(form):
    full = tuple(range(1, 7))
    keys = [tuple(i for i in full if i != b) for b in range(1, 7)]
    zero = 0.0 if form.mode == FLOAT else 0
    return [form.terms.get(k, zero) for k in keys]


def _om2_matrix(om2):
    """The matrix of lam -> lam ^ omega^2 in ``_five_form_coords``, read off omega^2.

    Entry (b, a) is (-1)^#{k in K : k < a} omega^2_K with K = full - {a, b}, so
    for p < q it is (-1)^(p-1) omega^2_K at (q, p) and (-1)^q omega^2_K at (p, q).
    """
    zero = 0.0 if om2.mode == FLOAT else 0
    matrix = [[zero] * 6 for _ in range(6)]
    for key, c in om2.terms.items():
        p, q = (i for i in range(1, 7) if i not in key)
        matrix[q - 1][p - 1] = c if p % 2 else -c
        matrix[p - 1][q - 1] = -c if q % 2 else c
    return matrix


def primitive_decompose(omega: ExteriorForm, domega: ExteriorForm) -> PrimitiveDecomposition:
    """Unique (lambda, pi) with domega = lambda ^ omega + pi and omega ^ pi = 0.

    Solved from domega ^ omega = lambda ^ omega^2 (a 6x6 linear system); the
    remainder pi = domega - lambda ^ omega is then primitive by construction,
    which is re-verified (:class:`PrimitivityError` if not): exactly, or on float
    forms as |omega ^ pi| <= 1e-9 |omega| |domega|.  Degenerate omega raises.
    """
    return _decompose(omega, domega)[0]


def _decompose(omega, domega):
    """``primitive_decompose`` and the omega^3 it formed, both in the forms' joint mode."""
    if omega.dim != 6 or omega.degree != 2:
        raise ValueError("omega must be a 2-form on R^6")
    if domega.dim != 6 or domega.degree != 3:
        raise ValueError("domega must be a 3-form on R^6")
    float_mode = omega.mode == FLOAT or domega.mode == FLOAT
    if float_mode:
        omega, domega = omega.as_float(), domega.as_float()
    om2 = omega.wedge(omega)
    om3 = omega.wedge(om2)
    if om3.is_zero:
        raise DegenerateFormError("omega is degenerate (omega^3 = 0)")
    rhs = _five_form_coords(domega.wedge(omega))
    coeffs = linalg.solve(_om2_matrix(om2), rhs)
    lam = ExteriorForm(6, 1, {(a + 1,): c for a, c in enumerate(coeffs) if c})
    if float_mode and lam.mode == EXACT:
        lam = lam.as_float()
    pi = domega - lam.wedge(omega)
    check = omega.wedge(pi)
    if float_mode:
        primitive = check.norm_inf() <= 1e-9 * (omega.norm_inf() * domega.norm_inf())
    else:
        primitive = check.is_zero
    if not primitive:
        raise PrimitivityError(f"omega ^ pi = {check} is not zero")
    return PrimitiveDecomposition(lam, pi), om3


def elliptic_definite_check(
    omega: ExteriorForm, domega: ExteriorForm, tol=1e-12
) -> EllipticDefiniteReport:
    """Classify the primitive part of domega and the hermitian signature of omega.

    Both forms are taken in their joint mode, float when either is.  For an
    elliptic primitive part, J is the structure recovered from it (inducing
    the orientation of omega^3) and the signature is the
    :func:`~g2kit.compat.hermitian_index` of g(v, w) = omega(v, Jw); the
    verdict is elliptic-definite iff that signature is (3, 0).  ``tol`` is
    the float degeneracy bound of :func:`~g2kit.threeforms.classify_3form`.
    """
    decomp, om3 = _decompose(omega, domega)
    cls = classify_3form(decomp.pi, om3, tol)
    if cls.tag != "elliptic":
        return EllipticDefiniteReport(cls.tag, None, None, False, decomp)
    j = cls.j_matrix
    # a float J comes from float forms or from an irrational sqrt(-lambda) of exact ones
    om, zero = (omega.as_float(), 0.0) if cls.mode == FLOAT else (omega, Fraction(0))
    omat = [[om.coeff((a, b)) if a != b else zero for b in range(1, 7)] for a in range(1, 7)]
    g = linalg.mat_mul(omat, j)
    signature = hermitian_index(g)
    return EllipticDefiniteReport(
        "elliptic", j, signature, signature == (3, 0), decomp
    )
