import math
import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from g2kit import scalars
from g2kit.scalars import (
    ComplexRational,
    I_EXACT,
    MixedModeError,
    join_modes,
    matrix_mode,
    mode_of,
    normalize_scalar,
    sqrt_fraction,
    sqrt_rounded,
    vector_mode,
)

from conftest import sabs, sconj, seeded_float, sim, sre


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
    assert Fraction(3, 4).conjugate() == Fraction(3, 4)
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


def _fold_mode(v, part=mode_of):
    """The per-entry fold that ``vector_mode`` runs on a type set it has not seen;
    ``matrix_mode``'s folds the rows' modes."""
    mode = "any"
    for x in v:
        mode = join_modes(mode, part(x))
    return mode


def _mode_outcome(f, arg):
    try:
        return f(arg)
    except (MixedModeError, TypeError) as exc:
        return type(exc), str(exc)


def _mode_pool():
    """Entries of every builtin scalar type, ints' subclass bool, a non-scalar, and
    numpy scalars (float and complex subclasses, and an int64 that is no int) if installed."""
    pool = [0, 3, True, False, Fraction(1, 2), ComplexRational(1, 2), 0.5, -0.0, 1j, "x"]
    try:
        import numpy as np
    except ImportError:
        return pool
    return pool + [np.float64(0.25), np.complex128(2j), np.int64(2)]


_MODE_POOL = _mode_pool()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_MODE_POOL), max_size=4), max_size=4))
def test_type_set_modes_match_the_per_entry_fold(m):
    """vector_mode and matrix_mode give the fold's mode, or raise its error with its message,
    on a type set's first sight and on later, cached, ones."""
    for _ in range(2):
        for row in m:
            assert _mode_outcome(vector_mode, row) == _mode_outcome(_fold_mode, row)
        want = _mode_outcome(lambda rows: _fold_mode(rows, _fold_mode), m)
        assert _mode_outcome(matrix_mode, m) == want
    # the cache keeps only sets of builtin scalar types, so it stays bounded
    assert all(types <= scalars._MODE_BY_TYPE.keys() for types in scalars._MODE_OF_TYPES)


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


@settings(max_examples=200, deadline=None)
@given(st.floats(0, allow_infinity=False), st.integers(1, 2**80))
def test_sqrt_rounded_is_the_correctly_rounded_root(x, d):
    """On a float, math.sqrt's correctly rounded root; on x / d, the nearest float."""
    assert sqrt_rounded(Fraction(x)) == math.sqrt(x)
    q = Fraction(x) / d
    y, half = sqrt_rounded(q), Fraction(math.ulp(sqrt_rounded(q))) / 2
    assert max(Fraction(y) - half, 0) ** 2 <= q <= (Fraction(y) + half) ** 2


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


# The values are built by a fixture, not at import, so that a fault in the
# modules that build them (g2, linalg, ...) fails these tests and not the
# collection of every test of this file.
_IMMUTABLE_NAMES = (
    "gaussian", "int", "exact-form", "float-form", "dga-element", "frame", "random-frame",
    "candidate-j", "float-candidate-j", "chern-data", "elliptic-class", "split-class",
    "sphere-point", "float-sphere-point", "poly", "poly-form", "constant-poly-form",
    "decomposition", "elliptic-report",
)


@pytest.fixture(scope="module")
def immutable_values():
    values = _immutable_values()
    assert tuple(values) == _IMMUTABLE_NAMES
    return values


@pytest.mark.parametrize("name", _IMMUTABLE_NAMES)
def test_immutable_values_copy_and_pickle(name, immutable_values):
    """copy, deepcopy and a pickle round trip rebuild the same value of the same type.

    Every slot is compared, nested values included; ``==`` and ``repr`` too
    where the class defines them.
    """
    import copy
    import pickle

    value = immutable_values[name]
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


@pytest.mark.parametrize("name", _IMMUTABLE_NAMES)
def test_immutable_values_refuse_setattr_and_del(name, immutable_values):
    """Every slot, and any other name, refuses both assignment and deletion."""
    import copy

    value = copy.deepcopy(immutable_values[name])  # a failure must not spoil the shared value
    before = _state(value)
    for name in (*type(value).__slots__, "extra"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
    assert _state(value) == before


def test_every_slotted_class_uses_the_immutable_base():
    """One base owns the guard and the pickle support; no value class repeats them."""
    import importlib
    import inspect
    import pkgutil

    import g2kit
    from g2kit.scalars import Immutable

    slotted = []
    for info in pkgutil.iter_modules(g2kit.__path__):
        module = importlib.import_module(f"g2kit.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                if "__slots__" in vars(cls) and cls is not Immutable:
                    slotted.append(cls.__name__)
                    assert issubclass(cls, Immutable), cls
                for method in ("__setattr__", "__delattr__", "__reduce__", "__reduce_ex__"):
                    assert cls is Immutable or method not in vars(cls), (cls, method)
    assert len(slotted) == 12, slotted


def test_immutable_init_fills_the_slots_in_order_and_checks_their_count():
    """The base constructor sets each slot once, in ``__slots__`` order; a wrong count raises."""
    from g2kit.almost_symplectic import PrimitiveDecomposition
    from g2kit.scalars import Immutable, _restore

    d = PrimitiveDecomposition("lam", "pi")
    assert (d.lam, d.pi) == ("lam", "pi") and tuple(d) == ("lam", "pi")
    for values in ((), ("lam",), ("lam", "pi", "extra")):
        with pytest.raises(TypeError, match="PrimitiveDecomposition takes 2 fields"):
            PrimitiveDecomposition(*values)
    with pytest.raises(TypeError, match="ComplexRational takes 3 fields, got 2"):
        Immutable.__init__(object.__new__(ComplexRational), 1, 2)
    with pytest.raises(TypeError, match="ComplexRational takes 3 fields, got 4"):
        _restore(ComplexRational, 1, 2, 3, 4)
    assert _restore(ComplexRational, 1, 2, 3) == ComplexRational(Fraction(1, 3), Fraction(2, 3))


# Pickles of three values written before the immutable base existed (Python
# 3.11, protocol 4); they name the class itself and rerun its constructor.
_OLD_PICKLES = {
    "exact-form": (
        "gASVoQAAAAAAAACMC2cya2l0LmZvcm1zlIwMRXh0ZXJpb3JGb3JtlJOUKEsESwJ9lChLAUsChpSMDWcy"
        "a2l0LnNjYWxhcnOUjA9Db21wbGV4UmF0aW9uYWyUk5SMCWZyYWN0aW9uc5SMCEZyYWN0aW9ulJOUSv//"
        "//9LAoaUUpRoCksDSwSGlFKUhpRSlEsDSwSGlGgKSwFLA4aUUpR1jAVleGFjdJR0lFKULg=="
    ),
    "float-form": (
        "gASVcwAAAAAAAACMC2cya2l0LmZvcm1zlIwMRXh0ZXJpb3JGb3JtlJOUKEsDSwF9lChLAYWURz/gAAAA"
        "AAAASwOFlIwIYnVpbHRpbnOUjAdjb21wbGV4lJOURz+5mZmZmZmaR8AEAAAAAAAAhpRSlHWMBWZsb2F0"
        "lHSUUpQu"
    ),
    "candidate-j": (
        "gASVdgEAAAAAAACMC2cya2l0LmNoZXJulIwKQ2FuZGlkYXRlSpSTlCiMCWZyYWN0aW9uc5SMCEZyYWN0"
        "aW9ulJOUSwFLAYaUUpRoBUsASwGGlFKUaAVLAEsBhpRSlGgFSwBLAYaUUpRoBUsASwGGlFKUaAVLAEsB"
        "hpRSlGgFSwBLAYaUUpR0lCgoaAVLAEsBhpRSlGgFSwBLAYaUUpRoBUsASwGGlFKUaAVLAEsBhpRSlGgF"
        "SwBLAYaUUpRoBUsASwGGlFKUaAVLAEsBhpRSlHSUKGgWaBhoBUr/////SwGGlFKUaBxoHmggaCJ0lCho"
        "FmgFSwFLAYaUUpRoGmgcaB5oIGgidJQoaBZoGGgaaBxoBUr/////SwGGlFKUaCBoInSUKGgWaBhoGmgF"
        "SwFLAYaUUpRoHmggaCJ0lChoFmgYaBpoHGgeaCBoBUr/////SwGGlFKUdJQoaBZoGGgaaBxoHmgFSwFL"
        "AYaUUpRoInSUdJRHf/AAAAAAAACHlFKULg=="
    ),
}


@pytest.mark.parametrize("name", _OLD_PICKLES)
def test_pickles_written_before_the_immutable_base_still_load(name):
    import base64
    import pickle

    from g2kit.chern import CandidateJ
    from g2kit.forms import ExteriorForm
    from g2kit.sphere import basis_point

    want = {
        "exact-form": lambda: ExteriorForm(
            4, 2, {(1, 2): ComplexRational(Fraction(-1, 2), Fraction(3, 4)), (3, 4): Fraction(1, 3)}
        ),
        "float-form": lambda: ExteriorForm(3, 1, {(1,): 0.5, (3,): 0.1 - 2.5j}, mode="float"),
        "candidate-j": lambda: CandidateJ.standard(basis_point(1)),
    }[name]()
    got = pickle.loads(base64.b64decode(_OLD_PICKLES[name]))
    assert type(got) is type(want) and _state(got) == _state(want)
    with pytest.raises(AttributeError):
        delattr(got, type(got).__slots__[0])


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


def _part(rng):
    if rng.random() < 0.5:
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    return rng.randint(-3, 3)


def _operand(rng):
    """(operand of ComplexRational arithmetic, the same value for the reference).

    Built by random.Random from one drawn seed, which gives up shrinking but is
    several times faster than drawing every part through hypothesis.  A part is
    zero about one time in five, so zero divisors stay common.
    """
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(-5, 5)
        return n, n
    if kind == 1:
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
        return q, q
    p = [0 if rng.random() < 0.1 else _part(rng) for _ in range(2)]
    return ComplexRational(*p), ReferenceComplexRational(*p)


_operands = st.integers(0, 2**32 - 1).map(lambda seed: _operand(random.Random(seed)))


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
@given(st.integers(0, 2**32 - 1))
def test_complex_rational_matches_the_two_fraction_reference(seed):
    """Every operation on the cleared triple agrees with the Fraction pair, by value and type."""
    rng = random.Random(seed)
    x, y = _operand(rng), _operand(rng)
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


_EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308)


def _protocol_float(rng):
    return rng.choice(_EDGE_FLOATS) if rng.random() < 0.4 else seeded_float(rng, -1e300, 1e300)


def _protocol_exact_part(rng):
    """A rational part: zero often, small, or huge (10^400 overflows float)."""
    r = rng.random()
    if r < 0.25:
        return 0
    if r < 0.4:
        return Fraction(rng.choice((-1, 1)) * 10**400 + rng.randint(-9, 9), rng.randint(1, 9))
    return _part(rng)


def _protocol_scalar(rng):
    """An int, Fraction, float, complex or ComplexRational, with edge floats and huge parts."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice((0, rng.randint(-9, 9), rng.randint(-(10**400), 10**400)))
    if kind == 1:
        return Fraction(_protocol_exact_part(rng))
    if kind == 2:
        return _protocol_float(rng)
    if kind == 3:
        return complex(_protocol_float(rng), rng.choice((0.0, -0.0, _protocol_float(rng))))
    return ComplexRational(_protocol_exact_part(rng), _protocol_exact_part(rng))


def _scalar_key(v):
    """Type and value of a scalar, floats by float.hex so that -0.0 and NaN compare."""
    if isinstance(v, complex):
        return complex, float.hex(v.real), float.hex(v.imag)
    if isinstance(v, float):
        return float, float.hex(v)
    if isinstance(v, ComplexRational):
        return ComplexRational, v._a, v._b, v._d
    return type(v), v


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_complex_protocol_matches_the_dispatch_helpers(seed):
    """real, imag, conjugate() and abs() of every scalar type give the sre, sim, sconj
    and sabs they replaced: the same type and value (floats by bits), or the same
    exception.  The one documented difference: an int's or a Fraction's imag is the
    int 0, where sim gave Fraction(0)."""
    rng = random.Random(seed)
    for _ in range(8):
        x = _protocol_scalar(rng)
        for ref, protocol in (
            (sre, lambda x: x.real),
            (sim, lambda x: x.imag),
            (sconj, lambda x: x.conjugate()),
            (sabs, abs),
        ):
            try:
                want = ref(x)
            except Exception as exc:
                with pytest.raises(type(exc)) as raised:
                    protocol(x)
                assert raised.type is type(exc)
                continue
            got = protocol(x)
            if ref is sim and type(x) in (int, Fraction):
                assert type(got) is int and got == want == 0
            else:
                assert _scalar_key(got) == _scalar_key(want), (x, ref.__name__)
