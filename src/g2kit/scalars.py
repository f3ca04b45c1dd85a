"""Scalar layer: exact rationals, Gaussian rationals, and the float escape hatch.

Two arithmetic modes run through the whole package.  In *exact* mode every
scalar is an ``int``/``Fraction`` or a :class:`ComplexRational`; in *float*
mode scalars are ``float``/``complex``.  The modes never mix silently: any
operation that would combine them raises :class:`MixedModeError`.  Converting
exact data to floats is always explicit (``to_float``); the reverse direction
is never done implicitly.
"""

from __future__ import annotations

import math
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"
ANY = "any"  # plain ints: compatible with either mode


class MixedModeError(TypeError):
    """Exact and float scalars were combined in one operation."""


class ComplexRational:
    """A Gaussian rational a + b*i with ``Fraction`` parts.

    Arithmetic with ``int``/``Fraction`` is allowed and stays exact;
    arithmetic with ``float``/``complex`` raises :class:`MixedModeError`.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("ComplexRational is immutable")

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, ComplexRational):
            return x
        if isinstance(x, (int, Fraction)):
            return ComplexRational(x)
        if isinstance(x, (float, complex)):
            raise MixedModeError(
                "cannot mix float scalars with exact ComplexRational arithmetic"
            )
        return None

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return ComplexRational(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, ComplexRational):
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

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


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


def vector_mode(v) -> str:
    mode = ANY
    for x in v:
        mode = join_modes(mode, mode_of(x))
    return mode


def matrix_mode(m) -> str:
    mode = ANY
    for row in m:
        mode = join_modes(mode, vector_mode(row))
    return mode


def normalize_scalar(c):
    """Canonical storage form: drop a vanishing imaginary part."""
    if isinstance(c, ComplexRational):
        return c.re if c.im == 0 else c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, complex):
        return c.real if c.imag == 0.0 else c
    if isinstance(c, (Fraction, float)):
        return c
    raise TypeError(f"not a scalar: {c!r}")


def sconj(x):
    if isinstance(x, ComplexRational):
        return x.conjugate()
    if isinstance(x, complex):
        return x.conjugate()
    return x


def sre(x):
    if isinstance(x, ComplexRational):
        return x.re
    if isinstance(x, complex):
        return x.real
    return x


def sim(x):
    if isinstance(x, ComplexRational):
        return x.im
    if isinstance(x, complex):
        return x.imag
    if isinstance(x, (int, Fraction)):
        return Fraction(0)
    return 0.0


def sabs(x) -> float:
    if isinstance(x, ComplexRational):
        return math.hypot(float(x.re), float(x.im))
    return abs(x)


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
