"""Alternating multilinear forms with sparse exact coefficients.

An :class:`ExteriorForm` of degree k on R^n stores a map from strictly
increasing 1-based index tuples (i1 < ... < ik) to scalar coefficients.
Input tuples in any order are sign-normalized on construction; zero
coefficients are never stored, so equality of exact forms is dict equality.

Coefficients are Fraction / ComplexRational in exact mode, float / complex in
float mode.  The two modes never mix inside one operation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import linalg
from .scalars import (
    EXACT,
    FLOAT,
    MixedModeError,
    join_modes,
    matrix_mode,
    mode_of,
    normalize_scalar,
    sabs,
    sconj,
    sim,
    sre,
    to_float,
    vector_mode,
)


class DimensionMismatchError(ValueError):
    """Operands live on spaces of different dimensions."""


class DegreeError(ValueError):
    """Operation undefined for this form degree."""


class InvalidIndexError(ValueError):
    """Index tuple out of range or with repeats that cannot be normalized."""


class DependentBasisError(ValueError):
    """Restriction was asked for along linearly dependent vectors."""


def sort_sign(idx):
    """Sort an index tuple, returning (sorted tuple, permutation sign).

    Sign 0 means a repeated index (the term vanishes).
    """
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return idx, 0
    inversions = sum(a > b for pos, a in enumerate(idx) for b in idx[pos + 1 :])
    return tuple(sorted(idx)), -1 if inversions % 2 else 1


# (ia, ib) -> (sign, key) of sort_sign(ia + ib) for increasing ia, ib.  Keys
# are the pairs some product has met: at most 4^7 pairs of index sets on R^7,
# plus about 600 coframe-DGA word pairs once verify-structure has run.
_MERGED = {}


def _merged(ia, ib):
    hit = _MERGED.get((ia, ib))
    if hit is None:
        key, sign = sort_sign(ia + ib)
        hit = _MERGED[(ia, ib)] = (sign, key)
    return hit


# ---------------------------------------------------------------------------
# the sparse alternating-algebra kernel
#
# Term dicts map strictly increasing index tuples to coefficients of any ring
# whose zero is falsy (scalars, Poly, ComplexRational).  Zero coefficients are
# never stored.  ExteriorForm, polyforms.PolyCoefForm and dga.DgaElement are
# thin wrappers over these functions.
# ---------------------------------------------------------------------------

def canonical_terms(terms, coerce):
    """Sort each key by sign, coerce its coefficient, sum repeated keys, drop zeros."""
    out = {}
    for idx, c in terms.items():
        key, sign = sort_sign(idx)
        if sign == 0:
            continue
        c = coerce(c) if sign == 1 else -coerce(c)
        acc = out.get(key)
        c = c if acc is None else acc + c
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def add_terms(ta, tb):
    out = dict(ta)
    for key, c in tb.items():
        acc = out.get(key)
        c = c if acc is None else acc + c
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def wedge_terms(ta, tb):
    out = {}
    for ia, ca in ta.items():
        for ib, cb in tb.items():
            sign, key = _merged(ia, ib)
            if sign == 0:
                continue
            c = ca * cb if sign == 1 else -(ca * cb)
            acc = out.get(key)
            c = c if acc is None else acc + c
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def interior_terms(terms, comps):
    """Contraction with the vector whose i-th component is ``comps[i - 1]``."""
    out = {}
    for idx, c in terms.items():
        for pos, i in enumerate(idx):
            comp = comps[i - 1]
            if not comp:
                continue
            key = idx[:pos] + idx[pos + 1 :]
            c2 = comp * c if pos % 2 == 0 else -(comp * c)
            acc = out.get(key)
            c2 = c2 if acc is None else acc + c2
            if c2:
                out[key] = c2
            else:
                out.pop(key, None)
    return out


class ExteriorForm:
    __slots__ = ("dim", "degree", "terms", "mode")

    def __init__(self, dim, degree, terms=None, mode=None):
        # degree > dim is allowed but forces the zero form (no valid tuples)
        if degree < 0:
            raise DegreeError(f"negative degree {degree}")
        clean = {}
        inferred = None
        for idx, coeff in (terms or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise InvalidIndexError(f"tuple {idx} has length != degree {degree}")
            if any(not 1 <= i <= dim for i in idx):
                raise InvalidIndexError(f"index in {idx} outside 1..{dim}")
            key, sign = sort_sign(idx)
            if sign == 0:
                continue
            coeff = normalize_scalar(coeff) if sign == 1 else normalize_scalar(-1 * coeff)
            m = mode_of(coeff)
            inferred = m if inferred is None else join_modes(inferred, m)
            acc = clean.get(key)
            coeff = coeff if acc is None else acc + coeff
            if coeff:
                clean[key] = normalize_scalar(coeff)
            elif key in clean:
                del clean[key]
        if mode is None:
            mode = inferred or EXACT
        elif inferred is not None and mode != inferred:
            raise MixedModeError(f"coefficients are {inferred} but mode={mode} requested")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("ExteriorForm is immutable")

    # -- constructors --------------------------------------------------
    @classmethod
    def _trusted(cls, dim, degree, terms, mode):
        """Build from kernel output: increasing in-range keys, coefficients of ``mode``.

        Coefficients are normalized and zeros dropped; sign sorting, index
        validation and mode inference are skipped.  Only operations of this
        module call it, on forms that already passed the public constructor.
        """
        form = object.__new__(cls)
        object.__setattr__(form, "dim", dim)
        object.__setattr__(form, "degree", degree)
        object.__setattr__(
            form, "terms", {k: normalize_scalar(c) for k, c in terms.items() if c}
        )
        object.__setattr__(form, "mode", mode)
        return form

    @classmethod
    def zero(cls, dim, degree, mode=EXACT):
        return cls(dim, degree, {}, mode=mode)

    @classmethod
    def basis(cls, dim, idx, coeff=1):
        return cls(dim, len(tuple(idx)), {tuple(idx): coeff})

    @classmethod
    def from_covector(cls, components):
        """The 1-form v |-> sum components[i] * v[i]."""
        comps = list(components)
        return cls(len(comps), 1, {(i + 1,): c for i, c in enumerate(comps) if c})

    # -- basic queries --------------------------------------------------
    @property
    def is_zero(self):
        return not self.terms

    def coeff(self, idx):
        key, sign = sort_sign(tuple(idx))
        if sign == 0:
            raise InvalidIndexError(f"repeated index in {idx}")
        c = self.terms.get(key)
        if c is None:
            return Fraction(0) if self.mode == EXACT else 0.0
        return c if sign == 1 else -c

    def __eq__(self, other):
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return f"ExteriorForm({self.dim}, {self.degree}, 0)"
        parts = " + ".join(
            f"({c})*e^{''.join(map(str, idx))}" for idx, c in sorted(self.terms.items())
        )
        return f"ExteriorForm({self.dim}, {self.degree}, {parts})"

    # -- linear structure ------------------------------------------------
    def _check_same_space(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"forms on R^{self.dim} and R^{other.dim} cannot be combined"
            )
        join_modes(self.mode, other.mode)

    def __add__(self, other):
        self._check_same_space(other)
        if self.degree != other.degree:
            raise DegreeError("can only add forms of equal degree")
        return ExteriorForm._trusted(
            self.dim, self.degree, add_terms(self.terms, other.terms), self.mode
        )

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        if isinstance(scalar, ExteriorForm):
            return NotImplemented
        m = mode_of(scalar)
        if self.terms:
            join_modes(self.mode, m)
        if not scalar:
            return ExteriorForm.zero(self.dim, self.degree, self.mode)
        return ExteriorForm._trusted(
            self.dim, self.degree, {idx: scalar * c for idx, c in self.terms.items()}, self.mode
        )

    __mul__ = __rmul__

    # -- conjugation / parts ----------------------------------------------
    def conj(self):
        return ExteriorForm._trusted(
            self.dim, self.degree, {i: sconj(c) for i, c in self.terms.items()}, self.mode
        )

    def real(self):
        return ExteriorForm._trusted(
            self.dim, self.degree, {i: sre(c) for i, c in self.terms.items()}, self.mode
        )

    def imag(self):
        return ExteriorForm._trusted(
            self.dim, self.degree, {i: sim(c) for i, c in self.terms.items()}, self.mode
        )

    def as_float(self):
        """Explicit exact -> float conversion (the only allowed direction)."""
        return ExteriorForm(
            self.dim,
            self.degree,
            {i: to_float(c) for i, c in self.terms.items()},
            mode=FLOAT,
        )

    def norm_inf(self):
        return max((sabs(c) for c in self.terms.values()), default=0.0)

    # -- multilinear operations --------------------------------------------
    def wedge(self, other):
        self._check_same_space(other)
        deg = self.degree + other.degree
        if deg > self.dim:
            return ExteriorForm.zero(self.dim, deg, self.mode)
        return ExteriorForm._trusted(self.dim, deg, wedge_terms(self.terms, other.terms), self.mode)

    def interior(self, v):
        if self.degree == 0:
            raise DegreeError("interior product undefined on 0-forms")
        v = list(v)
        if len(v) != self.dim:
            raise DimensionMismatchError("vector dimension != form dimension")
        if self.terms:
            join_modes(self.mode, vector_mode(v))
        return ExteriorForm._trusted(
            self.dim, self.degree - 1, interior_terms(self.terms, v), self.mode
        )

    def evaluate(self, vectors):
        """Value on exactly ``degree`` vectors (determinant expansion)."""
        vectors = [list(v) for v in vectors]
        if len(vectors) != self.degree:
            raise DegreeError(
                f"degree-{self.degree} form needs {self.degree} vectors, got {len(vectors)}"
            )
        for v in vectors:
            if len(v) != self.dim:
                raise DimensionMismatchError("vector dimension != form dimension")
        mode = self.mode
        for v in vectors:
            mode = join_modes(mode, vector_mode(v))
        return self._evaluate(vectors, [_support(v) for v in vectors])

    def _evaluate(self, vectors, supports):
        """Determinant expansion on checked vectors; ``supports`` are their nonzero indices.

        A term is skipped when some vector vanishes on all of its indices:
        that minor has a zero row, so ``linalg.det`` would return (signed)
        zero for it, and skipping it can change only the sign of a zero total.
        """
        if self.degree == 0:
            return self.terms.get((), Fraction(0) if self.mode == EXACT else 0.0)
        total = None
        for idx, c in self.terms.items():
            if any(s.isdisjoint(idx) for s in supports):
                continue
            minor = [[v[i - 1] for i in idx] for v in vectors]
            d = linalg.det(minor)
            total = c * d if total is None else total + c * d
        if total is None:
            return Fraction(0) if self.mode == EXACT else 0.0
        return normalize_scalar(total)

    def pullback(self, matrix):
        """Pullback along the linear map R^m -> R^dim with the given n x m matrix.

        Columns of ``matrix`` are the images of the source basis vectors.
        """
        rows = [list(r) for r in matrix]
        if len(rows) != self.dim:
            raise DimensionMismatchError(
                f"matrix has {len(rows)} rows, form lives on R^{self.dim}"
            )
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise DimensionMismatchError("ragged matrix")
        # a zero form is still checked whenever some column gets evaluated
        if self.terms or 0 < self.degree <= m:
            join_modes(self.mode, matrix_mode(rows))
        if self.degree > m:
            return ExteriorForm.zero(m, self.degree, self.mode)
        cols = [[rows[i][j] for i in range(self.dim)] for j in range(m)]
        supports = [_support(c) for c in cols]
        terms = {}
        for sub in combinations(range(m), self.degree):
            val = self._evaluate([cols[j] for j in sub], [supports[j] for j in sub])
            if val:
                terms[tuple(j + 1 for j in sub)] = val
        return ExteriorForm._trusted(m, self.degree, terms, self.mode)

    def restrict(self, basis, tol=0.0):
        """Restriction to the span of ``basis`` (coefficients = evaluations)."""
        basis = [list(b) for b in basis]
        cols_as_rows = basis  # rank works row-wise
        if linalg.rank(cols_as_rows, tol) != len(basis):
            raise DependentBasisError("restriction basis is linearly dependent")
        matrix = [[basis[j][i] for j in range(len(basis))] for i in range(self.dim)]
        return self.pullback(matrix)


def _support(v):
    """1-based indices of the nonzero components of v."""
    return frozenset(i for i, x in enumerate(v, 1) if x)


# ---------------------------------------------------------------------------
# spec-level operation names
# ---------------------------------------------------------------------------

def wedge(a, b):
    return a.wedge(b)


def interior(v, a):
    return a.interior(v)


def evaluate(a, vectors):
    return a.evaluate(vectors)


def pullback(a, matrix):
    return a.pullback(matrix)


def restrict_to_subspace(a, basis, tol=0.0):
    return a.restrict(basis, tol)


def form_defect(a, b):
    """Max-norm of a - b, usable across modes (for float comparisons)."""
    if a.dim != b.dim or a.degree != b.degree:
        raise DimensionMismatchError("defect of incomparable forms")
    keys = set(a.terms) | set(b.terms)
    d = 0.0
    for k in keys:
        ca = to_float(a.terms.get(k, 0))
        cb = to_float(b.terms.get(k, 0))
        d = max(d, abs(ca - cb))
    return d
