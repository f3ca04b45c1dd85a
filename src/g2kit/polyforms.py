"""Differential forms on R^n whose coefficients are rational polynomials.

Used for the ambient extension of the invariant 2-form (contraction of the
calibration 3-form with the position field) and for exercising the exterior
derivative: d is exact here, so d(d(a)) = 0 is a hard equality, not a
numerical statement.

Polynomials are sparse exponent-vector maps with Fraction coefficients.
Total degree is capped (default 8) to keep accidental blowup loud.
:class:`PolyCoefForm` is a thin wrapper over the sparse alternating-algebra
kernel of :mod:`g2kit.forms` (``canonical_terms``, ``add_terms``,
``wedge_terms``, ``interior_terms``) with ``Poly`` as the coefficient ring.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import (
    ExteriorForm,
    add_terms,
    canonical_terms,
    interior_terms,
    wedge_terms,
)

DEGREE_CAP = 8


class DegreeCapError(ValueError):
    """Polynomial total degree exceeded the configured cap."""


class Poly:
    """Sparse polynomial in nvars variables over the rationals."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        clean = {}
        for expo, c in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo} for {nvars} variables")
            if sum(expo) > DEGREE_CAP:
                raise DegreeCapError(f"total degree {sum(expo)} exceeds cap {DEGREE_CAP}")
            c = Fraction(c)
            if c:
                clean[expo] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly, (self.nvars, self.terms)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {tuple([0] * nvars): Fraction(c)})

    @classmethod
    def var(cls, nvars, i):
        """The coordinate polynomial x_i (1-based)."""
        expo = [0] * nvars
        expo[i - 1] = 1
        return cls(nvars, {tuple(expo): 1})

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return Poly(self.nvars, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        # e2 |-> e1 + e2 is injective, so each row is a term dict of its own.
        # The top-degree part of a product never cancels, so the constructor's
        # cap check sees every product that exceeds the cap.
        terms = {}
        for e1, c1 in self.terms.items():
            row = {tuple(a + b for a, b in zip(e1, e2)): c1 * c2 for e2, c2 in other.terms.items()}
            terms = add_terms(terms, row)
        return Poly(self.nvars, terms)

    __rmul__ = __mul__

    def diff(self, i):
        """Partial derivative with respect to x_i (1-based)."""
        terms = {}
        for e, c in self.terms.items():
            k = e[i - 1]
            if k == 0:
                continue
            ne = list(e)
            ne[i - 1] = k - 1
            terms[tuple(ne)] = c * k
        return Poly(self.nvars, terms)

    def eval(self, point):
        point = list(point)
        total = Fraction(0) if all(isinstance(x, (int, Fraction)) for x in point) else 0.0
        for e, c in self.terms.items():
            v = c if isinstance(total, Fraction) else float(c)
            for x, k in zip(point, e):
                for _ in range(k):
                    v = v * x
            total = total + v
        return total

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i+1}^{k}" for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


class PolyCoefForm:
    """Differential form with Poly coefficients on increasing index tuples."""

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim, degree, terms=None):
        if degree < 0:
            raise ValueError("negative degree")
        terms = terms or {}
        for idx in terms:
            # a repeated index drops the term before its range is checked
            if len(set(idx)) == len(idx) and (
                len(idx) != degree or any(not 1 <= i <= dim for i in idx)
            ):
                raise ValueError(f"bad index tuple {idx}")

        def coerce(p):
            return p if isinstance(p, Poly) else Poly.const(dim, p)

        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", canonical_terms(terms, coerce))

    def __setattr__(self, name, value):
        raise AttributeError("PolyCoefForm is immutable")

    def __reduce__(self):
        return PolyCoefForm, (self.dim, self.degree, self.terms)

    @classmethod
    def from_constant_form(cls, form: ExteriorForm):
        if form.mode != "exact":
            raise ValueError("polynomial forms require exact coefficients")
        return cls(form.dim, form.degree, {i: Poly.const(form.dim, c) for i, c in form.terms.items()})

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PolyCoefForm):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __add__(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("can only add forms of equal dimension and degree")
        return PolyCoefForm(self.dim, self.degree, add_terms(self.terms, other.terms))

    def __neg__(self):
        return PolyCoefForm(self.dim, self.degree, {i: -p for i, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return PolyCoefForm(self.dim, self.degree, {i: p * c for i, p in self.terms.items()})

    def wedge(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return PolyCoefForm(
            self.dim, self.degree + other.degree, wedge_terms(self.terms, other.terms)
        )

    def d(self):
        """Exterior derivative (exact): d(p dx^I) = sum_j dp/dx_j dx^j ^ dx^I."""
        # the constructor sorts each (j,) + I by sign and sums repeated keys
        raw = {
            (j,) + idx: dp
            for idx, p in self.terms.items()
            for j in range(1, self.dim + 1)
            if (dp := p.diff(j))
        }
        return PolyCoefForm(self.dim, self.degree + 1, raw)

    def interior_field(self, field):
        """Interior product with a polynomial vector field (list of Poly)."""
        if self.degree == 0:
            raise ValueError("interior product undefined on 0-forms")
        return PolyCoefForm(self.dim, self.degree - 1, interior_terms(self.terms, field))

    def at_point(self, point):
        """Evaluate all coefficients, returning an ExteriorForm."""
        return ExteriorForm(
            self.dim,
            self.degree,
            {i: p.eval(point) for i, p in self.terms.items()},
        )

    def __repr__(self):
        if not self.terms:
            return f"PolyCoefForm({self.dim}, {self.degree}, 0)"
        parts = " + ".join(
            f"[{p!r}] dx^{''.join(map(str, i))}" for i, p in sorted(self.terms.items())
        )
        return f"PolyCoefForm({parts})"


def ext_d(a: PolyCoefForm) -> PolyCoefForm:
    return a.d()


def position_field(n):
    """The Euler field x_1 d/dx_1 + ... + x_n d/dx_n."""
    return [Poly.var(n, i) for i in range(1, n + 1)]
