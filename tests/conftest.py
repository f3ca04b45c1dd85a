import random
from fractions import Fraction

import pytest

from g2kit.forms import ExteriorForm
from g2kit.scalars import ComplexRational


def e_vec(dim, k, float_mode=False):
    """Standard basis vector e_k (1-based)."""
    if float_mode:
        return tuple(1.0 if i == k - 1 else 0.0 for i in range(dim))
    return tuple(Fraction(1 if i == k - 1 else 0) for i in range(dim))


def e7(k):
    return e_vec(7, k)


def complex_frame_vector(frame, j):
    """f_j = (g_2j - i g_2j+1) / 2 of an exact adapted frame."""
    a, b = frame.col(2 * j), frame.col(2 * j + 1)
    return tuple(ComplexRational(Fraction(x) / 2, -Fraction(y) / 2) for x, y in zip(a, b))


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


@pytest.fixture
def rng():
    return random.Random(20240817)
