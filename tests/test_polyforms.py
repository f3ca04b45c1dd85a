import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from g2kit.polyforms import (
    DegreeCapError,
    Poly,
    PolyCoefForm,
    ext_d,
    position_field,
)
from g2kit.scalars import ComplexRational, I_EXACT, MixedModeError


def rand_poly(rng, nvars, max_deg=3, nterms=3):
    terms = {}
    for _ in range(nterms):
        expo = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            expo[rng.randrange(nvars)] += 1
        terms[tuple(expo)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(nvars, terms)


def rand_polyform(rng, dim, degree, max_deg=3, nterms=3):
    pool = list(combinations(range(1, dim + 1), degree))
    rng.shuffle(pool)
    return PolyCoefForm(
        dim, degree, {idx: rand_poly(rng, dim, max_deg) for idx in pool[:nterms]}
    )


def test_poly_arithmetic():
    p = Poly.var(3, 1) + 2 * Poly.var(3, 2)
    q = Poly.var(3, 1) - Poly.const(3, Fraction(1, 2))
    assert (p * q).eval([1, 1, 0]) == (1 + 2) * (1 - Fraction(1, 2))
    assert p.diff(2) == Poly.const(3, 2)
    assert (p * p).total_degree() == 2


def test_scalar_minus_poly():
    x = Poly.var(2, 1)
    assert 1 - x == -(x - 1) == Poly(2, {(0, 0): 1, (1, 0): -1})
    assert (Fraction(1, 2) - x).eval([3, 0]) == Fraction(-5, 2)


@pytest.mark.parametrize("c", [0.1, 1.0, 0.0, 1j, -2.5 + 0j])
def test_poly_rejects_float_coefficients(c):
    """A float coefficient is an error, not a silently stored binary fraction."""
    with pytest.raises(MixedModeError):
        Poly(1, {(0,): c})
    with pytest.raises(MixedModeError):
        Poly.var(2, 1) * c
    with pytest.raises(MixedModeError):
        Poly.var(2, 1) + c


def test_poly_gaussian_coefficients():
    x, y = Poly.var(2, 1), Poly.var(2, 2)
    p = x * I_EXACT + y * ComplexRational(1, -2)
    assert p.terms == {(1, 0): I_EXACT, (0, 1): ComplexRational(1, -2)}
    # (x + iy)(x - iy) = x^2 + y^2: imaginary parts cancel to Fraction coefficients
    norm = (x + I_EXACT * y) * (x - I_EXACT * y)
    assert norm == x * x + y * y
    assert all(type(c) is Fraction for c in norm.terms.values())
    # evaluation stays exact at Gaussian-rational points
    value = p.eval([ComplexRational(Fraction(1, 3), 1), Fraction(2)])
    assert value == ComplexRational(1, Fraction(-11, 3)) and type(value) is ComplexRational
    assert p.eval([0.5, 1.0]) == 1.0 - 1.5j


def test_poly_degree_cap():
    x = Poly.var(2, 1)
    p = x
    for _ in range(7):
        p = p * x
    with pytest.raises(DegreeCapError):
        p * x


def test_d_monomial():
    # d(x1 dx2) = dx1 ^ dx2
    f = PolyCoefForm(3, 1, {(2,): Poly.var(3, 1)})
    expected = PolyCoefForm(3, 2, {(1, 2): Poly.const(3, 1)})
    assert ext_d(f) == expected


def test_d_constant_form_is_zero():
    f = PolyCoefForm(4, 2, {(1, 3): Poly.const(4, Fraction(7, 2))})
    assert ext_d(f).is_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 6), st.integers(0, 2))
def test_d_squared_zero(seed, dim, degree):
    rng = random.Random(seed)
    f = rand_polyform(rng, dim, degree)
    assert ext_d(ext_d(f)).is_zero


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_d_leibniz(seed):
    rng = random.Random(seed)
    a = rand_polyform(rng, 4, 1, max_deg=2, nterms=2)
    b = rand_polyform(rng, 4, 1, max_deg=2, nterms=2)
    # deg(a) = 1: d(a^b) = da^b - a^db
    assert ext_d(a.wedge(b)) == ext_d(a).wedge(b) - a.wedge(ext_d(b))


def test_euler_contraction_scaling():
    """Cartan oracle: for a constant k-form, d(iota_E form) = k * form."""
    from g2kit.g2 import associative_three_form

    phi = PolyCoefForm.from_constant_form(associative_three_form())
    e_field = position_field(7)
    assert ext_d(phi.interior_field(e_field)) == phi.scale(3)

    rng = random.Random(7)
    for degree, dim in ((2, 5), (4, 6)):
        pool = list(combinations(range(1, dim + 1), degree))
        rng.shuffle(pool)
        const = PolyCoefForm(
            dim,
            degree,
            {idx: Poly.const(dim, Fraction(rng.randint(-4, 4))) for idx in pool[:3]},
        )
        assert ext_d(const.interior_field(position_field(dim))) == const.scale(degree)


def test_at_point_evaluation():
    f = PolyCoefForm(3, 1, {(2,): Poly.var(3, 1)})
    at = f.at_point([Fraction(5), 0, 0])
    from g2kit.forms import ExteriorForm

    assert at == ExteriorForm(3, 1, {(2,): Fraction(5)})
