"""Scalar layer: exact rationals, Gaussian rationals, and the float escape hatch.

Two arithmetic modes run through the whole package.  In *exact* mode every
scalar is an ``int``/``Fraction`` or a :class:`ComplexRational`; in *float*
mode scalars are ``float``/``complex``.  The modes never mix silently: any
operation that would combine them raises :class:`MixedModeError`.  Converting
exact data to floats is always explicit (``to_float``); the reverse direction
is never done implicitly.  ``vector_mode`` and ``matrix_mode`` read the joint
mode off the set of entry types, once per set of builtin scalar types; other
types (bool, numpy scalars) and mixes that raise fold ``mode_of`` per entry.

Every scalar answers Python's complex protocol, ``real``, ``imag``,
``conjugate()`` and ``abs``, without a type dispatch: an int's parts are ints,
a ``Fraction``'s a ``Fraction`` and the int 0, a float's or complex's floats,
and a :class:`ComplexRational`'s ``Fraction``s, with a float ``abs``.

A :class:`ComplexRational` is stored as one Gaussian integer over one
denominator, the cleared triple (a, b, d) with gcd(a, b, d) = 1, so its
arithmetic runs on Python ints and reduces once per result; ``linalg``
reads the triple directly when it clears a whole row.

:class:`Immutable` is the base of every value class in the package: a value
is checked once, by its constructor, set by one ``Immutable.__init__`` call,
and never changes after.  copy, deepcopy, pickle (:func:`_restore`) and the
unchecked ``_trusted`` builders of forms and DGA elements make that call too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm

EXACT = "exact"
FLOAT = "float"
ANY = "any"  # plain ints: compatible with either mode


class MixedModeError(TypeError):
    """Exact and float scalars were combined in one operation."""


class Immutable:
    """Fields in ``__slots__``, set once and in slot order by ``__init__``; a subclass
    with checks runs them in its own constructor, then passes every field to it."""

    __slots__ = ()

    def __init__(self, *values):
        slots = self.__slots__
        if len(values) != len(slots):
            raise TypeError(f"{type(self).__name__} takes {len(slots)} fields, got {len(values)}")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _restore, (type(self), *(getattr(self, k) for k in self.__slots__))


def _restore(cls, *values):
    """A ``cls`` with ``values`` in its slots, in ``__slots__`` order; only their count is checked."""
    obj = object.__new__(cls)
    Immutable.__init__(obj, *values)
    return obj


class ComplexRational(Immutable):
    """A Gaussian rational (a + b*i)/d, stored as its cleared triple.

    a and b are ints, d > 0 and gcd(a, b, d) == 1, so the triple is unique and
    equality is a comparison of triples.  ``+``, ``-`` and ``*`` run on ints and
    take one gcd, only when the denominator is not 1.  ``real`` and ``imag``
    are read-only ``Fraction`` views, the same properties as ``re`` and ``im``;
    ``conjugate()`` and ``abs()`` complete the complex protocol, ``abs`` as
    the float ``hypot`` of the two parts.  Arithmetic with ``int``/``Fraction`` is
    allowed and stays exact; arithmetic with ``float``/``complex`` raises
    :class:`MixedModeError`.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            # both parts are reduced, so the triple over their lcm is too
            d = lcm(re.denominator, im.denominator)
            a, b = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
        # the slot setters, not Immutable.__init__: this constructor is on exact hot paths
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    @staticmethod
    def _from_cleared(a, b, d):
        """(a + b*i)/d for ints a, b and d > 0, reduced by one gcd when d != 1."""
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        z = _new(ComplexRational)
        _set_a(z, a)
        _set_b(z, b)
        _set_d(z, d)
        return z

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    real, imag = re, im

    def __abs__(self):
        return math.hypot(float(self.re), float(self.im))

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        if d == self._d:
            return _from_cleared(self._a + a, self._b + b, d)
        return _from_cleared(self._a * d + a * self._d, self._b * d + b * self._d, self._d * d)

    __radd__ = __add__

    def __sub__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        if d == self._d:
            return _from_cleared(self._a - a, self._b - b, d)
        return _from_cleared(self._a * d - a * self._d, self._b * d - b * self._d, self._d * d)

    def __rsub__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _from_cleared(*o) - self

    def __mul__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        x, y = self._a, self._b
        return _from_cleared(x * a - y * b, x * b + y * a, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        x, y = self._a * d, self._b * d
        return _from_cleared(x * a + y * b, y * a - x * b, self._d * n)

    def __rtruediv__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _from_cleared(*o) / self

    def __neg__(self):
        return _from_cleared(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def conjugate(self):
        return _from_cleared(self._a, -self._b, self._d)

    def __eq__(self, other):
        if isinstance(other, ComplexRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return f"{re}"
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}*i)"


_new = object.__new__
_set_a, _set_b, _set_d = (ComplexRational.__dict__[k].__set__ for k in ComplexRational.__slots__)
_from_cleared = ComplexRational._from_cleared


def _triple(x):
    """The cleared triple of an exact scalar; None for a type arithmetic declines."""
    if type(x) is ComplexRational:
        return x._a, x._b, x._d
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    if isinstance(x, (float, complex)):
        raise MixedModeError("cannot mix float scalars with exact ComplexRational arithmetic")
    return None


I_EXACT = ComplexRational(0, 1)


# ---------------------------------------------------------------------------
# generic scalar helpers (work across both modes)
# ---------------------------------------------------------------------------

_MODE_BY_TYPE = {
    int: ANY,
    Fraction: EXACT,
    ComplexRational: EXACT,
    float: FLOAT,
    complex: FLOAT,
}


def mode_of(x) -> str:
    mode = _MODE_BY_TYPE.get(type(x))
    if mode is not None:
        return mode
    # subclasses (bool, numpy scalars) take the isinstance route
    if isinstance(x, int):
        return ANY
    if isinstance(x, (Fraction, ComplexRational)):
        return EXACT
    if isinstance(x, (float, complex)):
        return FLOAT
    raise TypeError(f"not a scalar: {x!r}")


def join_modes(a: str, b: str) -> str:
    if a == ANY:
        return b
    if b == ANY:
        return a
    if a != b:
        raise MixedModeError(f"cannot mix {a} and {b} scalars")
    return a


# frozenset of entry types -> their joint mode; only sets of _MODE_BY_TYPE types that
# join are kept (at most 2^5), so any other set takes the per-entry fold every time
_MODE_OF_TYPES = {}


def _joint_mode(types, modes):
    mode = _MODE_OF_TYPES.get(types)
    if mode is None:
        mode = reduce(join_modes, modes, ANY)
        if types <= _MODE_BY_TYPE.keys():
            _MODE_OF_TYPES[types] = mode
    return mode


def vector_mode(v) -> str:
    return _joint_mode(frozenset(map(type, v)), map(mode_of, v))


def matrix_mode(m) -> str:
    return _joint_mode(frozenset(map(type, chain.from_iterable(m))), map(vector_mode, m))


def normalize_scalar(c):
    """Canonical storage form: drop a vanishing imaginary part."""
    if type(c) in (float, Fraction):
        return c
    if isinstance(c, ComplexRational):
        return c if c._b else c.re
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, complex):
        return c.real if c.imag == 0.0 else c
    if isinstance(c, (Fraction, float)):
        return c
    raise TypeError(f"not a scalar: {c!r}")


def to_float(x):
    """Explicit exact -> float cast (real stays real)."""
    if isinstance(x, ComplexRational):
        return float(x.re) if x.im == 0 else complex(x)
    if isinstance(x, (int, Fraction)):
        return float(x)
    return x


def sqrt_fraction(x: Fraction):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    if x < 0:
        raise ValueError("sqrt of negative rational requested")
    if x == 0:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def sqrt_rounded(x: Fraction) -> float:
    """sqrt of a Fraction x >= 0, rounded once: an isqrt of 57+ bits, rounded to odd, / 2^e."""
    n, d = x.numerator, x.denominator
    e = max(0, 116 - n.bit_length() + d.bit_length()) // 2
    r = math.isqrt((n << 2 * e) // d)
    return (r | (r * r * d != n << 2 * e)) / (1 << e)
