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
from .forms import ExteriorForm
from .linalg import DegenerateFormError
from .scalars import EXACT, FLOAT

from .compat import inertial_index
from .threeforms import classify_3form


class PrimitivityError(ArithmeticError):
    """The remainder pi of a primitive decomposition failed omega ^ pi = 0."""


class PrimitiveDecomposition:
    """The pair (lambda 1-form, pi primitive 3-form) with d(omega) = lam^omega + pi."""

    __slots__ = ("lam", "pi")

    def __init__(self, lam, pi):
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "pi", pi)

    def __setattr__(self, name, value):
        raise AttributeError("PrimitiveDecomposition is immutable")

    def __reduce__(self):
        return PrimitiveDecomposition, (self.lam, self.pi)

    def __iter__(self):
        return iter((self.lam, self.pi))


class EllipticDefiniteReport:
    __slots__ = ("tag", "j_matrix", "signature", "elliptic_definite", "decomposition")

    def __init__(self, tag, j_matrix, signature, elliptic_definite, decomposition):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "j_matrix", j_matrix)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "elliptic_definite", elliptic_definite)
        object.__setattr__(self, "decomposition", decomposition)

    def __setattr__(self, name, value):
        raise AttributeError("EllipticDefiniteReport is immutable")

    def __reduce__(self):
        fields = (self.tag, self.j_matrix, self.signature, self.elliptic_definite, self.decomposition)
        return EllipticDefiniteReport, fields

    def as_dict(self):
        return {
            "tag": self.tag,
            "signature": list(self.signature) if self.signature else None,
            "elliptic_definite": self.elliptic_definite,
        }


def _one_form_basis(float_mode):
    return [ExteriorForm.basis(6, (a,), 1.0 if float_mode else 1) for a in range(1, 7)]


def _five_form_coords(form):
    full = tuple(range(1, 7))
    keys = [tuple(i for i in full if i != b) for b in range(1, 7)]
    zero = 0.0 if form.mode == FLOAT else 0
    return [form.terms.get(k, zero) for k in keys]


def primitive_decompose(omega: ExteriorForm, domega: ExteriorForm, tol=0.0) -> PrimitiveDecomposition:
    """Unique (lambda, pi) with domega = lambda ^ omega + pi and omega ^ pi = 0.

    Solved from domega ^ omega = lambda ^ omega^2 (a 6x6 linear system); the
    remainder pi = domega - lambda ^ omega is then primitive by construction,
    which is re-verified (:class:`PrimitivityError` if not).  Degenerate
    omega raises.
    """
    return _decompose(omega, domega, tol)[0]


def _decompose(omega, domega, tol):
    """``primitive_decompose`` and the omega ^ omega it formed."""
    if omega.dim != 6 or omega.degree != 2:
        raise ValueError("omega must be a 2-form on R^6")
    if domega.dim != 6 or domega.degree != 3:
        raise ValueError("domega must be a 3-form on R^6")
    float_mode = omega.mode == FLOAT or domega.mode == FLOAT
    if float_mode:
        omega, domega = omega.as_float(), domega.as_float()
    om2 = omega.wedge(omega)
    if omega.wedge(om2).is_zero:
        raise DegenerateFormError("omega is degenerate (omega^3 = 0)")
    cols = [_five_form_coords(b.wedge(om2)) for b in _one_form_basis(float_mode)]
    matrix = [[cols[j][i] for j in range(6)] for i in range(6)]
    rhs = _five_form_coords(domega.wedge(omega))
    coeffs = linalg.solve(matrix, rhs, tol)
    lam = ExteriorForm(6, 1, {(a + 1,): c for a, c in enumerate(coeffs) if c})
    if float_mode and lam.mode == EXACT:
        lam = lam.as_float()
    pi = domega - lam.wedge(omega)
    check = omega.wedge(pi)
    if float_mode:
        scale = max(domega.norm_inf(), 1.0)
        primitive = check.norm_inf() <= max(tol, 1e-9) * scale
    else:
        primitive = check.is_zero
    if not primitive:
        raise PrimitivityError(f"omega ^ pi = {check} is not zero")
    return PrimitiveDecomposition(lam, pi), om2


def elliptic_definite_check(
    omega: ExteriorForm, domega: ExteriorForm, orientation: ExteriorForm = None, tol=1e-12
) -> EllipticDefiniteReport:
    """Classify the primitive part of domega and the hermitian signature of omega.

    orientation defaults to omega^3.  For an elliptic primitive part, J is the
    structure recovered from it (inducing the given orientation) and the
    signature is the inertia of g(v, w) = omega(v, Jw) halved per complex
    direction; the verdict is elliptic-definite iff that signature is (3, 0).
    """
    decomp, om2 = _decompose(omega, domega, 0.0 if omega.mode == EXACT else tol)
    if orientation is None:  # omega^2 of the decomposition, unless it ran on a float copy
        orientation = (om2 if om2.mode == omega.mode else omega.wedge(omega)).wedge(omega)
    cls = classify_3form(decomp.pi, orientation, tol)
    if cls.tag != "elliptic":
        return EllipticDefiniteReport(cls.tag, None, None, False, decomp)
    j = cls.j_matrix
    float_mode = isinstance(j[0][0], (float, complex)) or omega.mode == FLOAT
    om = omega.as_float() if (float_mode and omega.mode == EXACT) else omega
    zero = 0.0 if float_mode else Fraction(0)
    omat = [[om.coeff((a, b)) if a != b else zero for b in range(1, 7)] for a in range(1, 7)]
    jmat = j if not (float_mode and not isinstance(j[0][0], (float, complex))) else [
        [float(x) for x in row] for row in j
    ]
    g = linalg.mat_mul(omat, jmat)
    pos, neg = inertial_index(g, None if not float_mode else tol * 100)
    if pos % 2 or neg % 2:
        raise DegenerateFormError(f"hermitian inertia ({pos},{neg}) is not even")
    signature = (pos // 2, neg // 2)
    return EllipticDefiniteReport(
        "elliptic", j, signature, signature == (3, 0), decomp
    )
