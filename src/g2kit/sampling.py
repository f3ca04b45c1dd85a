"""Seeded random generators for exact test data.

Everything here produces rational (or Gaussian-rational) objects exactly on
their target varieties: unit-circle points from Pythagorean parametrization,
unit-norm Gaussian pairs from the quaternion squaring trick (|q^2| = |q|^2 is
a perfect square), special-unitary matrices as products of embedded 2x2
blocks, symplectic matrices as Cayley transforms of hamiltonian ones, and
group elements for the calibration 3-form as products of stabilizer rotations
about two different axes.

Group elements are assembled without membership checks: each factor is a
known group element (an SU(3) rotation of the identity frame, or the fixed
frame at e4), so their product is one too.  The finished frame is verified
once, by ``AdaptedFrame`` in :func:`random_rational_frame`.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .g2 import AdaptedFrame, _completion_rows, _rotation_rows, standard_frame
from .scalars import ComplexRational


def rational_unit_circle(rng):
    """(c, s) with c^2 + s^2 = 1, from a random integer parameter."""
    while True:
        m, n = rng.randint(-9, 9), rng.randint(1, 9)
        if m * m + n * n:
            break
    c = Fraction(n * n - m * m, n * n + m * m)
    s = Fraction(2 * m * n, n * n + m * m)
    return c, s


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


def _su2_embed(i, j, c, s, size=3):
    """Identity with the block [[c, -conj(s)], [s, conj(c)]] in rows/cols i, j."""
    m = [
        [ComplexRational(1 if a == b else 0) for b in range(size)]
        for a in range(size)
    ]
    m[i][i] = c
    m[i][j] = -s.conjugate()
    m[j][i] = s
    m[j][j] = c.conjugate()
    return m


def random_su3(rng, factors=3):
    """Random exact special-unitary 3x3 matrix over the Gaussian rationals."""
    out = [[ComplexRational(1 if a == b else 0) for b in range(3)] for a in range(3)]
    pairs = [(0, 1), (1, 2), (0, 2)]
    for k in range(factors):
        c, s = gaussian_unit_pair(rng)
        i, j = pairs[k % 3]
        out = linalg.mat_mul(out, _su2_embed(i, j, c, s))
    return out


def random_gl3_complex(rng, bound=3):
    """Random invertible 3x3 matrix over the Gaussian rationals."""
    while True:
        m = [
            [
                ComplexRational(rng.randint(-bound, bound), rng.randint(-bound, bound))
                for _ in range(3)
            ]
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


def random_symmetric_rational(rng, n, bound=3):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = Fraction(rng.randint(-bound, bound))
    return m


def random_symplectic(rng, omega_matrix, bound=2):
    """Cayley transform (I - A)(I + A)^-1 of a random hamiltonian A.

    A = Omega^-1 S with S symmetric satisfies t(A) Omega + Omega A = 0, and
    its Cayley transform preserves Omega exactly.
    """
    n = len(omega_matrix)
    om_inv = linalg.inverse([list(r) for r in omega_matrix])
    ident = linalg.identity(n)
    while True:
        s = random_symmetric_rational(rng, n, bound)
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

def _frame_at_e4():
    """Rows of the completion of (e4, e5, e2): a signed permutation in the group."""
    e = lambda k: tuple(Fraction(1 if i == k - 1 else 0) for i in range(7))
    return _completion_rows(e(4), e(5), e(2))


def random_g2_matrix(rng, factors=2) -> list:
    """Random exact matrix preserving the calibration form.

    Product of special-unitary stabilizer rotations about e1 interleaved with
    the fixed frame based at e4; two factors already move the base point over
    a dense set of rational sphere points.  The product is not verified here;
    :func:`random_rational_frame` verifies it.
    """
    std = standard_frame()
    hop = _frame_at_e4()
    total = None
    for _ in range(factors):
        rot1 = _rotation_rows(std, random_su3(rng))
        rot2 = _rotation_rows(std, random_su3(rng))
        piece = linalg.mat_mul(rot1, linalg.mat_mul(hop, rot2))
        total = piece if total is None else linalg.mat_mul(total, piece)
    return total


def random_rational_frame(rng, factors=2) -> AdaptedFrame:
    """Random exact adapted frame (hence a random rational sphere point).

    This is where the assembled product is verified, once.
    """
    return AdaptedFrame(random_g2_matrix(rng, factors))


def random_rational_tangent(rng, u, bound=5):
    """Random rational tangent vector at a rational sphere point."""
    while True:
        z = [Fraction(rng.randint(-bound, bound)) for _ in range(7)]
        p = sum(a * b for a, b in zip(z, u))
        v = tuple(a - p * b for a, b in zip(z, u))
        if any(v):
            return v


def random_rational_vector(rng, n=7, bound=9, denom=4):
    return tuple(
        Fraction(rng.randint(-bound, bound), rng.randint(1, denom)) for _ in range(n)
    )
