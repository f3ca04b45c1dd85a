from fractions import Fraction

import pytest

from g2kit.scalars import (
    ComplexRational,
    I_EXACT,
    MixedModeError,
    join_modes,
    mode_of,
    normalize_scalar,
    sconj,
    sqrt_fraction,
    vector_mode,
)


def test_arithmetic():
    a = ComplexRational(Fraction(1, 2), Fraction(3))
    b = ComplexRational(2, -1)
    assert a + b == ComplexRational(Fraction(5, 2), 2)
    assert a * b == ComplexRational(4, Fraction(11, 2))
    assert (a / b) * b == a
    assert -a + a == ComplexRational(0)
    assert I_EXACT * I_EXACT == -1


def test_conjugation_and_equality():
    a = ComplexRational(2, 5)
    assert a.conjugate() == ComplexRational(2, -5)
    assert sconj(Fraction(3, 4)) == Fraction(3, 4)
    assert ComplexRational(7, 0) == Fraction(7)
    assert ComplexRational(7, 0) == 7
    assert ComplexRational(7, 1) != 7


def test_denominators_canonical():
    a = ComplexRational(Fraction(2, -4), Fraction(6, 4))
    assert a.re.denominator == 2 and a.re.numerator == -1
    assert a.im == Fraction(3, 2)


def test_mixed_mode_rejected():
    a = ComplexRational(1, 1)
    with pytest.raises(MixedModeError):
        a * 0.5
    with pytest.raises(MixedModeError):
        a + 1.0j
    with pytest.raises(MixedModeError):
        join_modes("exact", "float")
    with pytest.raises(MixedModeError):
        vector_mode([Fraction(1), 0.5])


def test_mode_of_int_is_neutral():
    assert mode_of(3) == "any"
    assert join_modes("any", "float") == "float"
    assert join_modes("exact", "any") == "exact"


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(0)) == 0
    assert sqrt_fraction(Fraction(2)) is None
    with pytest.raises(ValueError):
        sqrt_fraction(Fraction(-1))


def test_normalize_scalar_types():
    """Stored coefficients: floats and Fractions as given, a vanishing imaginary part dropped."""
    half, x = Fraction(1, 2), 0.1
    assert normalize_scalar(half) is half and normalize_scalar(x) is x
    cases = [
        (3, Fraction(3)),
        (True, Fraction(1)),
        (ComplexRational(half, 0), half),
        (ComplexRational(0, 1), I_EXACT),
        (complex(2.5, 0.0), 2.5),
        (complex(-0.0, -0.0), -0.0),
        (complex(0.0, 1.0), 1j),
    ]
    for c, want in cases:
        got = normalize_scalar(c)
        assert type(got) is type(want) and repr(got) == repr(want), c
    with pytest.raises(TypeError):
        normalize_scalar("1")
