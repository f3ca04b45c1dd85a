"""Seeded random generators for exact test data.

Everything here produces rational (or Gaussian-rational) objects exactly on
their target varieties: unit-norm Gaussian pairs from the quaternion squaring
trick (|q^2| = |q|^2 is a perfect square), special-unitary matrices as
products of embedded 2x2 blocks, symplectic matrices as Cayley transforms of
hamiltonian ones, and group elements for the calibration 3-form as products
of stabilizer rotations about two different axes.

Group elements are assembled without membership checks: each factor is a
known group element (the real matrix of an SU(3) rotation about e1, or the
fixed frame at e4), so their product is one too.  The finished frame is verified
once, by ``AdaptedFrame`` in :func:`random_rational_frame`.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .g2 import AdaptedFrame, _completion_rows, _unitary_block, dot
from .scalars import ComplexRational


def gaussian_unit_pair(rng):
    """(c, s) in Q(i)^2 with |c|^2 + |s|^2 = 1 (quaternion squaring trick)."""
    while True:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        n = a * a + b * b + c * c + d * d
        if n:
            break
    # components of q^2 for q = a + bi + cj + dk; norm n^2
    w = a * a - b * b - c * c - d * d
    x, y, z = 2 * a * b, 2 * a * c, 2 * a * d
    return (
        ComplexRational(Fraction(w, n), Fraction(x, n)),
        ComplexRational(Fraction(y, n), Fraction(z, n)),
    )


def _su2_embed(i, j, c, s):
    """The 3x3 identity with the block [[c, -conj(s)], [s, conj(c)]] in rows/cols i, j."""
    m = [[ComplexRational(1 if a == b else 0) for b in range(3)] for a in range(3)]
    m[i][i] = c
    m[i][j] = -s.conjugate()
    m[j][i] = s
    m[j][j] = c.conjugate()
    return m


def random_su3(rng):
    """Random exact special-unitary 3x3 matrix over the Gaussian rationals."""
    out = [[ComplexRational(1 if a == b else 0) for b in range(3)] for a in range(3)]
    for i, j in ((0, 1), (1, 2), (0, 2)):
        c, s = gaussian_unit_pair(rng)
        out = linalg.mat_mul(out, _su2_embed(i, j, c, s))
    return out


def random_gl3_complex(rng):
    """Random invertible 3x3 matrix with Gaussian-integer entries in [-3, 3] + [-3, 3]i."""
    while True:
        m = [
            [ComplexRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
            for _ in range(3)
        ]
        if linalg.det(m):
            return m


def random_invertible_rational(rng, n, bound=4):
    while True:
        m = [
            [Fraction(rng.randint(-bound, bound)) for _ in range(n)] for _ in range(n)
        ]
        if linalg.det(m):
            return m


def random_symmetric_rational(rng, n):
    """Random symmetric n x n matrix with integer entries in [-2, 2]."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = Fraction(rng.randint(-2, 2))
    return m


def random_symplectic(rng, omega_matrix):
    """Cayley transform (I - A)(I + A)^-1 of a random hamiltonian A.

    A = Omega^-1 S with S symmetric satisfies t(A) Omega + Omega A = 0, and
    its Cayley transform preserves Omega exactly.
    """
    n = len(omega_matrix)
    om_inv = linalg.inverse([list(r) for r in omega_matrix])
    ident = linalg.identity(n)
    while True:
        s = random_symmetric_rational(rng, n)
        a = linalg.mat_mul(om_inv, s)
        try:
            cay = linalg.mat_mul(
                linalg.mat_sub(ident, a), linalg.inverse(linalg.mat_add(ident, a))
            )
        except linalg.DegenerateFormError:
            continue
        return cay


# ---------------------------------------------------------------------------
# exact group elements and rational sphere data
# ---------------------------------------------------------------------------

# the fixed frame at e4: rows of the completion of (e4, e5, e2), a signed permutation in the group
_HOP = _completion_rows(*(tuple(Fraction(int(i == k)) for i in range(7)) for k in (3, 4, 1)))


def random_g2_matrix(rng) -> list:
    """Random exact matrix preserving the calibration form.

    Two factors rot . hop . rot, each rot the real matrix of a special-unitary
    rotation about e1 (``_unitary_block``) and hop the fixed frame based at
    e4, already move the base point over a dense set of rational sphere
    points.  The product is not verified here; :func:`random_rational_frame`
    verifies it.
    """
    total = None
    for _ in range(2):
        rot1 = _unitary_block(random_su3(rng))
        rot2 = _unitary_block(random_su3(rng))
        piece = linalg.mat_mul(rot1, linalg.mat_mul(_HOP, rot2))
        total = piece if total is None else linalg.mat_mul(total, piece)
    return total


def random_rational_frame(rng) -> AdaptedFrame:
    """Random exact adapted frame (hence a random rational sphere point).

    This is where the assembled product is verified, once.
    """
    return AdaptedFrame(random_g2_matrix(rng))


def random_rational_tangent(rng, u):
    """Random rational tangent vector at u: an integer vector in [-5, 5]^7, projected."""
    while True:
        z = [Fraction(rng.randint(-5, 5)) for _ in range(7)]
        p = dot(z, u)
        v = tuple(a - p * b for a, b in zip(z, u))
        if any(v):
            return v
