"""Alternating multilinear forms with sparse exact coefficients.

An :class:`ExteriorForm` of degree k on R^n stores a map from strictly
increasing 1-based index tuples (i1 < ... < ik) to scalar coefficients.
Input tuples in any order are sign-normalized on construction; zero
coefficients are never stored, so equality of exact forms is dict equality.

Coefficients are Fraction / ComplexRational in exact mode, float / complex in
float mode.  The two modes never mix inside one operation.  ``wedge_terms``
skips pairs of index tuples that share an index on their bitmasks.

``evaluate`` and ``pullback`` pick their minor kernel once per call, from the
mode and the entry types: int/Fraction vectors under an exact form give
integer minors of the once-cleared vectors (``linalg._det_z``) and one exact
sum per value; float vectors pass the entries of each 2x2 or 3x3 minor
straight to ``linalg._det2``/``_det3``, the unrolled elimination behind
``linalg.det``, so float values are bit-identical to a per-minor ``det``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, compress, count, islice
from math import prod
from operator import lt

from . import linalg
from .linalg import _det2, _det3
from .scalars import (
    ANY,
    EXACT,
    FLOAT,
    ComplexRational,
    Immutable,
    MixedModeError,
    _restore,
    join_modes,
    matrix_mode,
    mode_of,
    normalize_scalar,
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
    key = tuple(sorted(idx))
    if key == idx:
        return key, 1
    inversions = sum(a > b for pos, a in enumerate(idx) for b in idx[pos + 1 :])
    return key, -1 if inversions % 2 else 1


# (ia, ib) -> (sign, key) of sort_sign(ia + ib) for disjoint increasing ia, ib:
# at most 3^7 pairs on R^7, plus about 420 coframe-DGA word pairs.
_MERGED = {}
# increasing index tuple -> bitmask of its indices: at most 2^n on R^n, plus the DGA words
_MASKS = {}


def _merged(ia, ib):
    key, sign = sort_sign(ia + ib)
    _MERGED[ia, ib] = (sign, key)
    return sign, key


def _mask(key):
    m = _MASKS[key] = sum(1 << i for i in key)
    return m


# ---------------------------------------------------------------------------
# the sparse alternating-algebra kernel
#
# Term dicts map strictly increasing index tuples to coefficients of any ring
# whose zero is falsy (scalars, Poly, ComplexRational).  Zero coefficients are
# never stored.  ExteriorForm, polyforms.PolyCoefForm and dga.DgaElement are
# thin wrappers over these functions, and all three build their terms from
# user input with ``canonical_terms`` (ExteriorForm unless every index is a key).
# ---------------------------------------------------------------------------

def canonical_terms(terms, coerce, signs=None):
    """Sort each key by sign, coerce its coefficient, sum repeated keys, drop zeros.

    An odd permutation negates its coefficient as ``-1 * c`` before ``coerce``
    (so a float complex keeps a real part of +0.0), and the sum on a repeated
    key is coerced again.  ``signs``, when given, holds ``sort_sign`` of each
    index of ``terms`` in order, so that a caller who has it sorts no index twice.
    """
    out = {}
    for (idx, c), (key, sign) in zip(terms.items(), signs or map(sort_sign, terms)):
        if sign == 0:
            continue
        c = coerce(c if sign == 1 else -1 * c)
        acc = out.get(key)
        if acc is not None:
            c = coerce(acc + c)
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
    """Product of two term dicts; pairs that share an index are skipped on their bitmasks."""
    out = {}
    masks, merged = _MASKS, _MERGED
    tb = [(masks.get(ib) or _mask(ib), ib, cb) for ib, cb in tb.items()]
    for ia, ca in ta.items():
        ma = masks.get(ia) or _mask(ia)
        for mb, ib, cb in tb:
            if ma & mb:
                continue
            sign, key = merged.get((ia, ib)) or _merged(ia, ib)
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


def _are_keys(terms, dim, degree):
    """Whether every index of ``terms`` is a key as stored: an increasing tuple of
    ``degree`` entries in 1..dim."""
    try:
        for idx in terms:
            if not (type(idx) is tuple and len(idx) == degree and all(map(lt, idx, idx[1:]))
                    and (not idx or 1 <= idx[0] and idx[-1] <= dim)):
                return False
    except TypeError:  # entries that do not compare: the general path names them
        return False
    return True


def _with_mode(inferred, coeff):
    """``inferred`` joined with the mode of ``coeff``, an int read as exact."""
    m = mode_of(coeff)
    m = EXACT if m == ANY else m
    return m if inferred is None else join_modes(inferred, m)


def _normalized(terms):
    """The nonzero coefficients of ``terms`` as ``normalize_scalar`` stores them."""
    types = {*map(type, terms.values())}
    if types <= {float, Fraction}:
        return {k: c for k, c in terms.items() if c}
    if types <= {float, complex}:  # the complex branch of normalize_scalar, inline
        return {k: c.real if c.imag == 0.0 else c for k, c in terms.items() if c}
    return {k: normalize_scalar(c) for k, c in terms.items() if c}


class ExteriorForm(Immutable):
    __slots__ = ("dim", "degree", "terms", "mode")

    def __init__(self, dim, degree, terms=None, mode=None):
        # degree > dim is allowed but forces the zero form (no valid tuples)
        if degree < 0:
            raise DegreeError(f"negative degree {degree}")
        terms = terms or {}
        # cancelled terms set the mode too; a repeated index drops its term and its mode
        if _are_keys(terms, dim, degree):  # no index to sort, none repeats, no two sum
            coeffs = terms.values()
            one_type = len({*map(type, coeffs)}) == 1  # mode_of reads the type alone
            inferred = reduce(_with_mode, islice(coeffs, 1) if one_type else coeffs, None)
            signs = None
        else:
            inferred, signs = None, []
            for idx, coeff in terms.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise InvalidIndexError(f"tuple {idx} has length != degree {degree}")
                if any(not 1 <= i <= dim for i in idx):
                    raise InvalidIndexError(f"index in {idx} outside 1..{dim}")
                signs.append(sort_sign(idx))
                if signs[-1][1]:
                    inferred = _with_mode(inferred, coeff)
        if mode is None:
            mode = inferred or EXACT
        elif inferred is not None and mode != inferred:
            raise MixedModeError(f"coefficients are {inferred} but mode={mode} requested")
        terms = _normalized(terms) if signs is None else canonical_terms(terms, normalize_scalar, signs)
        super().__init__(dim, degree, terms, mode)

    # -- constructors --------------------------------------------------
    @classmethod
    def _trusted(cls, dim, degree, terms, mode):
        """Build from kernel output: increasing in-range keys, coefficients of ``mode``.

        Coefficients are normalized (a float or Fraction already is) and zeros
        dropped; sign sorting, index validation and mode inference are skipped.
        It is called only on what operations make of forms that already
        passed the public constructor.
        """
        return _restore(cls, dim, degree, _normalized(terms), mode)

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
            self.dim, self.degree, {i: c.conjugate() for i, c in self.terms.items()}, self.mode
        )

    def real(self):
        return ExteriorForm._trusted(
            self.dim, self.degree, {i: c.real for i, c in self.terms.items()}, self.mode
        )

    def imag(self):
        return ExteriorForm._trusted(
            self.dim, self.degree, {i: c.imag for i, c in self.terms.items()}, self.mode
        )

    def as_float(self):
        """Explicit exact -> float conversion, the only allowed direction; a float form is itself."""
        if self.mode == FLOAT:
            return self
        return ExteriorForm._trusted(
            self.dim, self.degree, {i: to_float(c) for i, c in self.terms.items()}, FLOAT
        )

    def norm_inf(self):
        return max(map(abs, self.terms.values()), default=0.0)

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
        return self._checked_evaluator(vectors)(range(self.degree))

    def _checked_evaluator(self, vectors):
        """``_evaluator`` after ``evaluate``'s length and mode checks of the vectors."""
        for v in vectors:
            if len(v) != self.dim:
                raise DimensionMismatchError("vector dimension != form dimension")
        join_modes(self.mode, matrix_mode(vectors))
        return self._evaluator(vectors)

    def _evaluator(self, vectors):
        """The map ``sub -> self(vectors[j] for j in sub)``, its minor kernel picked once.

        Float and complex minors of degree 2 and 3 run ``_det2``/``_det3`` on entries
        read from the vectors, other inexact ones ``linalg.det``, summed in term order.
        A term is skipped when some vector vanishes on all of its indices (a
        zero-row minor): that changes at most the sign of a zero.
        """
        zero = Fraction(0) if self.mode == EXACT else 0.0
        if self.degree == 0 or not self.terms:
            value = self.terms.get((), zero)
            return lambda sub: value
        # alive[j]: positions of the terms on whose indices vectors[j] is nonzero
        alive = [
            frozenset(t for t, idx in enumerate(self.terms) if not s.isdisjoint(idx))
            for s in (frozenset(compress(count(1), v)) for v in vectors)
        ]
        idx0 = [[i - 1 for i in idx] for idx in self.terms]
        coeffs = list(self.terms.values())
        types = {type(x) for v in vectors for x in v}
        if self.mode == EXACT and types <= {int, Fraction}:
            return _exact_values(coeffs, vectors, alive, idx0)
        n = len(idx0[0]) if types <= {float, complex} else 0  # 0: linalg.det on every minor
        terms = [(c, *idx) for c, idx in zip(coeffs, idx0)]
        everywhere = all(len(a) == len(terms) for a in alive)

        def value(sub):
            live = terms
            if not everywhere:
                live = [terms[t] for t in sorted(frozenset.intersection(*(alive[j] for j in sub)))]
            total = None
            if n == 2:
                x, y = map(vectors.__getitem__, sub)
                for c, i, k in live:
                    d = _det2(x[i], x[k], y[i], y[k])
                    total = c * d if total is None else total + c * d
            elif n == 3:
                x, y, z = map(vectors.__getitem__, sub)
                for c, i, k, l in live:
                    d = _det3(x[i], x[k], x[l], y[i], y[k], y[l], z[i], z[k], z[l])
                    total = c * d if total is None else total + c * d
            else:
                for c, *idx in live:
                    d = linalg.det([[vectors[j][i] for i in idx] for j in sub])
                    total = c * d if total is None else total + c * d
            return zero if total is None else normalize_scalar(total)

        return value

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
        value = self._evaluator(list(zip(*rows)))
        terms = {}
        for sub in combinations(range(m), self.degree):
            val = value(sub)
            if val:
                terms[tuple(j + 1 for j in sub)] = val
        return ExteriorForm._trusted(m, self.degree, terms, self.mode)

    def restrict(self, basis):
        """Restriction to the span of ``basis`` (coefficients = evaluations)."""
        basis = [list(b) for b in basis]
        if linalg.rank(basis) != len(basis):
            raise DependentBasisError("restriction basis is linearly dependent")
        return self.pullback([[b[i] for b in basis] for i in range(self.dim)])


def _exact_values(coeffs, vectors, alive, idx0):
    """The exact map of ``ExteriorForm._evaluator``: a Fraction, or a ComplexRational
    with a nonzero imaginary part, as the per-minor sum normalizes to."""
    if any(type(c) is ComplexRational for c in coeffs):
        re_c, im_c, dc = linalg._cleared(
            [c if type(c) is ComplexRational else ComplexRational(c) for c in coeffs]
        )
    else:
        (re_c, dc), im_c = linalg._cleared(coeffs), [0] * len(coeffs)
    cols = [linalg._cleared(v) for v in vectors]

    def value(sub):
        re = im = 0
        for t in frozenset.intersection(*(alive[j] for j in sub)):
            d = linalg._det_z([[cols[j][0][i] for i in idx0[t]] for j in sub])
            re, im = re + re_c[t] * d, im + im_c[t] * d
        den = prod(cols[j][1] or 1 for j in sub) * (dc or 1)
        return ComplexRational._from_cleared(re, im, den) if im else Fraction(re, den)

    return value


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


def form_defect(a, b):
    """Max-norm of a - b, usable across modes (for float comparisons)."""
    if a.dim != b.dim or a.degree != b.degree:
        raise DimensionMismatchError("defect of incomparable forms")
    ta, tb = a.as_float().terms, b.as_float().terms
    # 0.0 goes first, as the start of the fold max(d, |a_k - b_k|): a NaN never replaces it
    return max((0.0, *(abs(ta.get(k, 0.0) - tb.get(k, 0.0)) for k in set(ta) | set(tb))))
