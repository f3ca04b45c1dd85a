"""Pointwise geometry of the unit six-sphere in R^7.

The cross product gives each point u a complex structure J_u(v) = u x v on
the tangent space u-perp, an invariant 2-form omega_u = iota_u phi, and a
complex volume form Upsilon_u built from any adapted frame at u.  The global
identity d(omega) = 3 Im(Upsilon) reduces, through the exact ambient identity
d(iota_E phi) = 3 phi, to the pointwise equality Im(Upsilon_u) = phi
restricted to u-perp, which is checked exactly at rational points and to
tolerance at sampled float points.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .forms import ExteriorForm, form_defect
from .g2 import AdaptedFrame, adapted_frame, associative_three_form, cross, dot
from .polyforms import PolyCoefForm, ext_d, position_field
from .scalars import EXACT, FLOAT, sabs, to_float, vector_mode

UNIT_TOL = 1e-12
DEFAULT_TOL = 1e-10


class NotTangentError(ValueError):
    """Vector is not tangent to the sphere at the given point."""


class SpherePoint:
    """A unit vector in R^7 (exact rational or float)."""

    __slots__ = ("u", "mode")

    def __init__(self, u, tol=UNIT_TOL):
        u = tuple(u)
        if len(u) != 7:
            raise ValueError("sphere points live in R^7")
        mode = EXACT if vector_mode(u) != FLOAT else FLOAT
        n = dot(u, u)
        if mode == EXACT:
            if n != 1:
                raise ValueError(f"|u|^2 = {n} != 1")
        elif abs(n - 1.0) > tol:
            raise ValueError(f"|u|^2 = {n} deviates from 1 beyond {tol}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("SpherePoint is immutable")

    def __reduce__(self):  # checked when first built, at its own tolerance
        return SpherePoint, (self.u, math.inf)

    def __iter__(self):
        return iter(self.u)

    def __eq__(self, other):
        if isinstance(other, SpherePoint):
            return self.u == other.u
        return NotImplemented

    def __repr__(self):
        return f"SpherePoint({self.u})"


def point_vector(u):
    return tuple(u.u) if isinstance(u, SpherePoint) else tuple(u)


def basis_point(k) -> SpherePoint:
    return SpherePoint(tuple(Fraction(1 if i == k - 1 else 0) for i in range(7)))


def check_tangent(u, v, tol=UNIT_TOL):
    """Raise unless u.v = 0; floats within ``tol * max|v_i|``, as their rounding scales with |v|."""
    u, v = point_vector(u), tuple(v)
    p = dot(u, v)
    exact = vector_mode(u) != FLOAT and vector_mode(v) != FLOAT
    if (exact and p != 0) or (not exact and abs(to_float(p)) > tol * max(map(sabs, v))):
        raise NotTangentError(f"u.v = {p} != 0")


def tangent_basis(u):
    """Six independent vectors spanning u-perp (projections of coordinate axes).

    The axis with the largest |u_i| is dropped, which guarantees independence.
    """
    u = point_vector(u)
    drop = max(range(7), key=lambda i: abs(to_float(u[i])))
    basis = []
    for a in range(7):
        if a == drop:
            continue
        ua = u[a]
        vec = tuple((1 if i == a else 0) - ua * u[i] for i in range(7))
        basis.append(vec)
    return basis


def standard_j(u, v, tol=UNIT_TOL):
    """The invariant almost-complex structure: v |-> u x v on tangent vectors."""
    u = point_vector(u)
    check_tangent(u, v, tol)
    return cross(u, v)


def omega_at(u) -> ExteriorForm:
    """The invariant 2-form at u as the ambient contraction iota_u phi."""
    u = point_vector(u)
    phi = associative_three_form()
    if vector_mode(u) == FLOAT:
        phi = phi.as_float()
    return phi.interior(u)


def phi_tangential(u) -> ExteriorForm:
    """phi restricted to u-perp, written ambiently: phi - u-flat ^ iota_u phi."""
    u = point_vector(u)
    phi = associative_three_form()
    if vector_mode(u) == FLOAT:
        phi = phi.as_float()
    uflat = ExteriorForm.from_covector(u)
    return phi - uflat.wedge(phi.interior(u))


def upsilon_at(u, frame: AdaptedFrame, scale=8) -> ExteriorForm:
    """The complex volume 3-form at u: scale * theta_1 ^ theta_2 ^ theta_3.

    Independent of the adapted frame chosen at u; its imaginary part equals
    the tangential part of phi.  ``scale`` exists only as a mutation hook for
    defect-detection tests (the honest value is 8).
    """
    u = point_vector(u)
    if frame.x != u:
        raise ValueError("frame is not based at the given point")
    t1, t2, t3 = frame.theta(1), frame.theta(2), frame.theta(3)
    w = t1.wedge(t2).wedge(t3)
    return (Fraction(scale) if frame.mode == EXACT else float(scale)) * w


def ambient_omega_extension() -> PolyCoefForm:
    """iota_E phi with E the position field; its exterior derivative is 3 phi."""
    phi = PolyCoefForm.from_constant_form(associative_three_form())
    return phi.interior_field(position_field(7))


@functools.cache
def _ambient_identity_holds() -> bool:
    """d(iota_E phi) == 3 phi, symbolically; a constant, so computed once per process."""
    return ext_d(ambient_omega_extension()) == PolyCoefForm.from_constant_form(
        associative_three_form()
    ).scale(3)


def nijenhuis_closed_form(u, X, Y):
    """Nijenhuis tensor of the invariant structure at u on tangent X, Y, in closed form.

    J_x(v) = x x v is linear in x, so along the tangent extensions of X and Y
    every bracket reduces to cross products (Calabi, Trans. AMS 87, 1958;
    Gray, Math. Ann. 223, 1976):

        N(X, Y) = (u x X) x Y - (u x Y) x X - 2 u x (X x Y).

    Exact at rational input.  ``nijenhuis_sphere`` computes the same tensor by
    finite differences in a chart and serves as the independent oracle.
    """
    u = point_vector(u)
    check_tangent(u, X)
    check_tangent(u, Y)
    a = cross(cross(u, X), Y)
    b = cross(cross(u, Y), X)
    c = cross(u, cross(X, Y))
    return tuple(x - y - 2 * z for x, y, z in zip(a, b, c))


# ---------------------------------------------------------------------------
# float sampling helpers
# ---------------------------------------------------------------------------

def random_float_point(rng) -> tuple:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(7)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-3:
            return tuple(x / n for x in v)


def _project_unit(z, against):
    z = list(z)
    for a in against:
        p = sum(x * y for x, y in zip(z, a))
        z = [x - p * y for x, y in zip(z, a)]
    n = math.sqrt(sum(x * x for x in z))
    if n < 1e-6:
        return None
    return tuple(x / n for x in z)


def random_admissible_triple(rng, u=None):
    """Orthonormal (u, v, w) with phi(u,v,w) = 0, float mode.

    w is obtained by projecting a random vector against u, v and u x v; the
    last projection is exactly the admissibility constraint.
    """
    u = tuple(u) if u is not None else random_float_point(rng)
    while True:
        v = _project_unit([rng.gauss(0.0, 1.0) for _ in range(7)], [u])
        if v is None:
            continue
        w = _project_unit(
            [rng.gauss(0.0, 1.0) for _ in range(7)], [u, v, cross(u, v)]
        )
        if w is not None:
            return u, v, w


def frame_at_float_point(rng, u) -> AdaptedFrame:
    u, v, w = random_admissible_triple(rng, u)
    return adapted_frame(u, v, w)


def verify_domega_pointwise(samples, seed, tol=DEFAULT_TOL, upsilon_scale=8):
    """Check Im(Upsilon_u) = phi|_{u-perp} pointwise.

    The ambient extension iota_E phi of the invariant 2-form has exact
    exterior derivative 3 phi (verified symbolically, once per process), so
    the global derivative identity reduces to this pointwise comparison.
    Returns a report dict with the max defect over the samples; the exact
    path at u = e1 is always included and must have defect zero.
    """
    import random

    symbolic_ok = _ambient_identity_holds()

    e1 = basis_point(1)
    std = adapted_frame(
        e1.u,
        tuple(Fraction(1 if i == 1 else 0) for i in range(7)),
        tuple(Fraction(1 if i == 3 else 0) for i in range(7)),
    )
    exact_defect_form = upsilon_at(e1, std, upsilon_scale).imag() - phi_tangential(e1)
    exact_zero = exact_defect_form.is_zero

    max_defect = 0.0
    rng = random.Random(seed)
    for _ in range(samples):
        frame = frame_at_float_point(rng, None)
        u = frame.x
        defect = form_defect(upsilon_at(u, frame, upsilon_scale).imag(), phi_tangential(u))
        max_defect = max(max_defect, defect)
    return {
        "check": "im_upsilon_equals_tangential_phi",
        "symbolic_d_omega_ambient": symbolic_ok,
        "exact_point_defect_zero": exact_zero,
        "max_defect": max_defect,
        "samples": samples,
        "seed": seed,
        "pass": symbolic_ok and exact_zero and max_defect < tol,
    }


# ---------------------------------------------------------------------------
# charts and the Nijenhuis tensor by finite differences
# ---------------------------------------------------------------------------

# The chart code is the finite-difference oracle for nijenhuis_closed_form.
# It needs numpy, which is a test extra and not a runtime dependency; it
# imports numpy where it runs, so that importing g2kit does not load it.

class StereographicChart:
    """Chart centered at u0 (projection from the antipode -u0), float mode.

    Needs numpy (the ``test`` extra).
    """

    def __init__(self, u0):
        import numpy as np

        u0 = np.asarray([to_float(x) for x in point_vector(u0)], dtype=float)
        self.u0 = u0 / np.linalg.norm(u0)
        # orthonormal basis of u0-perp
        basis = []
        for a in np.argsort(-np.abs(self.u0))[1:]:
            v = np.zeros(7)
            v[a] = 1.0
            for b in [self.u0] + basis:
                v = v - (v @ b) * b
            n = np.linalg.norm(v)
            if n > 1e-9:
                basis.append(v / n)
        seeds = 0
        while len(basis) < 6:  # unreachable for unit u0, kept for safety
            v = np.zeros(7)
            v[seeds % 7] = 1.0
            for b in [self.u0] + basis:
                v = v - (v @ b) * b
            n = np.linalg.norm(v)
            if n > 1e-9:
                basis.append(v / n)
            seeds += 1
        self.E = np.column_stack(basis)  # 7 x 6

    def point(self, y):
        import numpy as np

        y = np.asarray(y, dtype=float)
        t = y @ y
        return ((1.0 - t) * self.u0 + 2.0 * (self.E @ y)) / (1.0 + t)

    def jacobian(self, y):
        import numpy as np

        y = np.asarray(y, dtype=float)
        t = y @ y
        s = 1.0 + t
        # d/dy_j of ((1-t) u0 + 2 E y) / s
        core = -2.0 * np.outer(self.u0, y) + 2.0 * self.E
        corr = -2.0 * np.outer(self.point(y), y)
        return (core + corr) / s

    def to_chart_vector(self, y, ambient_v):
        import numpy as np

        J = self.jacobian(y)
        v = np.asarray([to_float(x) for x in ambient_v], dtype=float)
        sol, *_ = np.linalg.lstsq(J, v, rcond=None)
        return sol

    def from_chart_vector(self, y, chart_v):
        import numpy as np

        return self.jacobian(y) @ np.asarray(chart_v, dtype=float)


def sphere_j_chart_field(chart: StereographicChart):
    """The invariant structure as a 6x6 matrix field in chart coordinates."""
    import numpy as np

    def field(y):
        p = chart.point(y)
        J = chart.jacobian(y)
        cols = []
        for j in range(6):
            v = J[:, j]
            w = np.asarray(cross(tuple(p), tuple(v)), dtype=float)
            sol, *_ = np.linalg.lstsq(J, w, rcond=None)
            cols.append(sol)
        return np.column_stack(cols)

    return field


def nijenhuis_chart(field, y0, X, Y, h=1e-4):
    """N(X, Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] by central differences.

    X and Y enter as constant vector fields on the chart, so every bracket
    reduces to a directional derivative of the matrix field:
        N = (D_{JX} J)Y - (D_{JY} J)X + J((D_Y J)X - (D_X J)Y).

    Needs numpy (the ``test`` extra).
    """
    import numpy as np

    y0 = np.asarray(y0, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    J0 = field(y0)
    JX, JY = J0 @ X, J0 @ Y

    def dj(direction, vec):
        # derivative of the field y |-> J(y) vec along the direction
        return (field(y0 + h * direction) @ vec - field(y0 - h * direction) @ vec) / (2 * h)

    return dj(JX, Y) - dj(JY, X) + J0 @ (dj(Y, X) - dj(X, Y))


def nijenhuis_sphere(u, X, Y, h=1e-4):
    """Nijenhuis tensor of the invariant structure at u, ambient components.

    The finite-difference oracle for :func:`nijenhuis_closed_form`; needs
    numpy (the ``test`` extra).
    """
    import numpy as np

    chart = StereographicChart(u)
    y0 = np.zeros(6)
    field = sphere_j_chart_field(chart)
    Xc = chart.to_chart_vector(y0, X)
    Yc = chart.to_chart_vector(y0, Y)
    N = nijenhuis_chart(field, y0, Xc, Yc, h)
    return chart.from_chart_vector(y0, N)
