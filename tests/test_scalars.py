import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

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


def _immutable_values():
    import random

    from conftest import e_vec
    from g2kit.almost_symplectic import elliptic_definite_check
    from g2kit.chern import CandidateJ, canonical_eta_basis, compute_rs
    from g2kit.dga import CoframeDGA
    from g2kit.forms import ExteriorForm
    from g2kit.g2 import associative_three_form, standard_frame
    from g2kit.polyforms import Poly, PolyCoefForm
    from g2kit.sampling import random_rational_frame
    from g2kit.sphere import SpherePoint, basis_point, omega_at
    from g2kit.threeforms import classify_3form, elliptic_normal_form, split_normal_form

    z = ComplexRational(Fraction(-1, 2), Fraction(3, 4))
    frame, u = standard_frame(), basis_point(1)
    basis = [e_vec(7, k) for k in range(2, 8)]  # the tangent space at e1
    report = elliptic_definite_check(
        omega_at(u).restrict(basis), (3 * associative_three_form()).restrict(basis)
    )
    elliptic = classify_3form(elliptic_normal_form())
    elliptic.upsilon  # built on first read; the clone carries it
    x = Poly.var(3, 1)
    return {
        "gaussian": z,
        "int": ComplexRational(7),
        "exact-form": ExteriorForm(4, 2, {(1, 2): z, (3, 4): Fraction(1, 3)}),
        "float-form": ExteriorForm(3, 1, {(1,): 0.5}, mode="float"),
        "dga-element": CoframeDGA()._d_table[0],
        "frame": frame,
        "random-frame": random_rational_frame(random.Random(0)),
        "candidate-j": CandidateJ.standard(u),
        "float-candidate-j": CandidateJ.standard(SpherePoint([1.0] + [0.0] * 6)),
        "chern-data": compute_rs(CandidateJ.standard(u), frame, canonical_eta_basis(frame)),
        "elliptic-class": elliptic,
        "split-class": classify_3form(split_normal_form()),
        "sphere-point": u,
        "float-sphere-point": SpherePoint([0.6, 0.8] + [0.0] * 5),
        "poly": x * x + Poly.const(3, Fraction(1, 2)),
        "poly-form": PolyCoefForm(3, 2, {(1, 2): x, (2, 3): Fraction(-1, 3)}),
        "constant-poly-form": PolyCoefForm.from_constant_form(ExteriorForm(3, 1, {(1,): 2})),
        "decomposition": report.decomposition,
        "elliptic-report": report,
    }


def _state(v):
    """The value of ``v`` down to scalars: slots of immutable classes, items of containers."""
    if isinstance(v, (list, tuple)):
        return [type(v).__name__, *map(_state, v)]
    if isinstance(v, dict):
        return sorted((repr(k), _state(x)) for k, x in v.items())
    slots = getattr(type(v), "__slots__", None)
    if slots is not None and not isinstance(v, (ComplexRational, Fraction)):
        return [type(v).__name__, *(_state(getattr(v, k)) for k in slots)]
    return [type(v).__name__, repr(v)]


_IMMUTABLE = _immutable_values()


@pytest.mark.parametrize("value", _IMMUTABLE.values(), ids=_IMMUTABLE.keys())
def test_immutable_values_copy_and_pickle(value):
    """copy, deepcopy and a pickle round trip rebuild the same value of the same type.

    Every slot is compared, nested values included; ``==`` and ``repr`` too
    where the class defines them.
    """
    import copy
    import pickle

    for clone in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert type(clone) is type(value)
        assert _state(clone) == _state(value)
        if type(value).__eq__ is not object.__eq__:
            assert clone == value
        if type(value).__repr__ is not object.__repr__:
            assert repr(clone) == repr(value)
    if isinstance(value, ComplexRational):
        assert hash(pickle.loads(pickle.dumps(value))) == hash(value)


class ReferenceComplexRational:
    """The earlier ComplexRational, with two reduced ``Fraction`` parts: the oracle."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @staticmethod
    def _coerce(x):
        if isinstance(x, ReferenceComplexRational):
            return x
        if isinstance(x, (int, Fraction)):
            return ReferenceComplexRational(x)
        if isinstance(x, (float, complex)):
            raise MixedModeError("float operand")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return ReferenceComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return ReferenceComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        return ReferenceComplexRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        return ReferenceComplexRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ReferenceComplexRational(
            (self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n
        )

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return ReferenceComplexRational(-self.re, -self.im)

    def conjugate(self):
        return ReferenceComplexRational(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, ReferenceComplexRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


_parts = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)) | st.integers(-3, 3)
# (operand of ComplexRational arithmetic, the same value for the reference)
_operands = st.one_of(
    st.integers(-5, 5).map(lambda n: (n, n)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 10)).map(lambda q: (q, q)),
    st.tuples(_parts, _parts).map(
        lambda p: (ComplexRational(*p), ReferenceComplexRational(*p))
    ),
)


def _assert_same(got, want):
    if isinstance(want, ReferenceComplexRational):
        assert type(got) is ComplexRational
        assert type(got.re) is Fraction and type(got.im) is Fraction
        assert (got.re, got.im) == (want.re, want.im)
        assert repr(got) == repr(want) and hash(got) == hash(want)
        assert bool(got) is bool(want)
        a, b, d = got._a, got._b, got._d
        assert all(type(x) is int for x in (a, b, d))
        assert d > 0 and gcd(a, b, d) == 1
    else:
        assert type(got) is type(want) and got == want


def _outcome(op, *args):
    try:
        return op(*args)
    except ZeroDivisionError as exc:
        return type(exc)


@settings(max_examples=600, deadline=None)
@given(_operands, _operands)
def test_complex_rational_matches_the_two_fraction_reference(x, y):
    """Every operation on the cleared triple agrees with the Fraction pair, by value and type."""
    (xn, xr), (yn, yr) = x, y
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        got, want = _outcome(op, xn, yn), _outcome(op, xr, yr)
        if want is ZeroDivisionError:
            assert got is ZeroDivisionError
        else:
            _assert_same(got, want)
    assert (xn == yn) is (xr == yr) and (xn != yn) is (xr != yr)
    for zn, zr in (x, y):
        if isinstance(zn, ComplexRational):
            _assert_same(zn, zr)
            _assert_same(-zn, -zr)
            _assert_same(zn.conjugate(), zr.conjugate())
            assert +zn is zn
            for bad in (0.5, 1.0j):
                for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                    with pytest.raises(MixedModeError):
                        op(zn, bad)
                    with pytest.raises(MixedModeError):
                        op(bad, zn)


@settings(max_examples=200, deadline=None)
@given(_operands)
def test_complex_rational_equality_with_rationals(x):
    zn, zr = x
    own = zr.re if isinstance(zr, ReferenceComplexRational) else zr
    for q in (0, 1, -2, Fraction(1, 2), Fraction(-7, 3), own):
        assert (zn == q) is (zr == q) and (q == zn) is (q == zr)
    if isinstance(zn, ComplexRational):
        with pytest.raises(ZeroDivisionError):
            zn / 0
        with pytest.raises(ZeroDivisionError):
            zn / ComplexRational(0)
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 3) / ComplexRational(Fraction(0), 0)
        with pytest.raises(AttributeError):
            zn.re = 1
