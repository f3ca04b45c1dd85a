"""Orbit classification of 3-forms on a six-dimensional real vector space.

GL(6) has two open orbits on 3-forms: the *split* type (normal form
e^123 + e^456) and the *elliptic* type (normal form Im((e^1+ie^2)^(e^3+ie^4)
^(e^5+ie^6))); everything else is lumped as *degenerate*.  The invariant is
computed from the operator K_rho(v) = (iota_v rho) ^ rho read as an
endomorphism through a fixed volume form: K^2 is a multiple lambda * Id of
the identity on the open orbits, with lambda > 0 split and lambda < 0
elliptic.  In the elliptic case J = -K / sqrt(-lambda) is a complex structure
and rho = 3 Im(Upsilon) for a decomposable (3,0)-form Upsilon, both of which
are recovered here.

lambda naturally carries the square of a volume weight; the reported scalar
depends on the chosen volume form, but its sign (the tag) does not.

Lemma: for elliptic rho, J = -K / sqrt(-lambda) induces the orientation of
vol, i.e. vol(v1, Jv1, v2, Jv2, v3, Jv3) > 0 on any J-complex basis (GL(3, C)
is connected).  Proof: iota_{Kv} vol = (iota_v rho) ^ rho defines K.  (a)
rho -> t rho scales K by t^2 and lambda by t^4, so J is unchanged.  (b) vol
-> c vol sends K to K / c and lambda to lambda / c^2, so J to sign(c) J, and
-J negates the three Jv_i: the induced orientation flips with vol's.  (c) For
g in GL(6), (g*rho, g*vol) has K' = g^-1 K g and the same lambda, so J' =
g^-1 J g, and g*vol on the J'-complex basis g^-1 v_i is vol on the v_i.  (d)
The elliptic forms are one GL(6)-orbit (Hitchin, J. Differential Geom. 55,
2000), so by (a)-(c) the normal form rho0 below with vol0 = e^123456 decides:
there K e1 = -2 e2, K e3 = -2 e4, K e5 = -2 e6 and lambda = -4, so J e1 = e2,
J e3 = e4, J e5 = e6, and vol0(e1, ..., e6) = 1 > 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import mul

from . import linalg
from .compat import check_complex_structure
from .forms import ExteriorForm
from .scalars import (
    EXACT, FLOAT, I_EXACT, Immutable, matrix_mode, normalize_scalar, sqrt_fraction
)


class FloatRangeError(ValueError):
    """A float form with a coefficient that is not finite, or whose lambda leaves the float range."""


class ComplexFormError(ValueError):
    """A form with a coefficient that is not real: the orbits classified are those of real 3-forms."""


class ThreeFormClass(Immutable):
    """Classification result: tag, discriminant, mode, and elliptic extras.

    ``mode`` is that of the result and of ``j_matrix``: EXACT for exact input,
    unless -lambda of an elliptic form is not a rational square.  ``upsilon``
    is built by :func:`recover_upsilon` on first access, and cached.
    """

    # mode comes last, so that the slots of earlier pickles keep their order
    __slots__ = ("tag", "discriminant", "j_matrix", "sqrt_is_exact", "_rho", "_upsilon", "mode")

    def __init__(self, tag, discriminant, mode, j_matrix=None, sqrt_is_exact=True, rho=None):
        super().__init__(tag, discriminant, j_matrix, sqrt_is_exact, rho, None, mode)

    @property
    def upsilon(self):
        if self._upsilon is None and self._rho is not None:
            object.__setattr__(self, "_upsilon", recover_upsilon(self._rho, self.j_matrix))
        return self._upsilon

    def __repr__(self):
        return f"ThreeFormClass({self.tag}, discriminant={self.discriminant})"


def split_normal_form() -> ExteriorForm:
    return ExteriorForm(6, 3, {(1, 2, 3): Fraction(1), (4, 5, 6): Fraction(1)})


def elliptic_normal_form() -> ExteriorForm:
    return ExteriorForm(
        6,
        3,
        {
            (1, 3, 6): Fraction(1),
            (1, 4, 5): Fraction(1),
            (2, 3, 5): Fraction(1),
            (2, 4, 6): Fraction(-1),
        },
    )


@cache
def standard_volume_form() -> ExteriorForm:
    return ExteriorForm(6, 6, {(1, 2, 3, 4, 5, 6): Fraction(1)})


def _k_table():
    """3-subset I -> one ``(sign, ((k, J, s), ...))`` per a in I, as described in k_operator."""
    full = range(1, 7)
    table = {}
    for idx in combinations(full, 3):
        per_a = []
        for pos, a in enumerate(idx):
            r1, r2 = idx[:pos] + idx[pos + 1 :]
            entries = []
            for b in full:
                if b != r1 and b != r2:
                    j = tuple(i for i in full if i != b and i != r1 and i != r2)
                    # e_r1 ^ e_r2 ^ e_J takes one transposition per i in J below r1 or r2
                    moves = r1 + r2 - 3 - (b < r1) - (b < r2)
                    entries.append((6 * b + a - 7, j, -1 if moves % 2 else 1))
            per_a.append((-1 if pos % 2 else 1, tuple(entries)))
        table[idx] = tuple(per_a)
    return table


_K_TABLE = _k_table()
_SUBSETS = {idx: pos for pos, idx in enumerate(_K_TABLE)}


def _k_pairs():
    """``_K_TABLE`` merged over unordered pairs: one ``(k, i, j, c)`` per entry k and pair of
    3-subsets I, J, at positions i < j in ``_SUBSETS``, that reaches it; c is the sum of the
    signs with which rho_I rho_J and rho_J rho_I reach entry k."""
    merged = {}
    for idx, per_a in _K_TABLE.items():
        for sign, entries in per_a:
            for k, j, s in entries:
                key = (k, *sorted((_SUBSETS[idx], _SUBSETS[j])))
                merged[key] = merged.get(key, 0) + sign * s
    return tuple((k, i, j, c) for (k, i, j), c in merged.items() if c)


_K_PAIRS = _k_pairs()


def _check_shapes(rho: ExteriorForm, vol: ExteriorForm):
    if rho.dim != 6 or rho.degree != 3:
        raise ValueError("classification needs a 3-form on R^6")
    if vol.dim != 6 or vol.degree != 6 or vol.is_zero:
        raise ValueError("volume form must be a nonzero 6-form")


def _k_integers(rho: ExteriorForm, vol: ExteriorForm):
    """k_operator's input checks and, on real rho and vol, its kernel: ints ``(acc, num, den)``
    with K[b][a] = (-1)^b acc[6b + a] num / den.  Each coefficient, Fraction or float, is read
    as the rational it is (``as_integer_ratio``), and rho's denominators are cleared by one lcm.
    Complex and Gaussian coefficients give None, a float that is not finite FloatRangeError.
    acc takes the 150 products of ``_K_PAIRS`` (60 with coefficient +-1, 90 with +-2) where
    ``_K_TABLE`` takes 240: the order of an int sum does not change it."""
    _check_shapes(rho, vol)
    c = vol.terms[(1, 2, 3, 4, 5, 6)]
    try:
        (cn, cd), *ratios = [x.as_integer_ratio() for x in (c, *rho.terms.values())]
    except AttributeError:
        return None
    except (OverflowError, ValueError):
        raise FloatRangeError("a coefficient of the float form is not finite") from None
    d = math.lcm(*(q for _, q in ratios))
    x = [0] * 20
    for idx, (p, q) in zip(rho.terms, ratios):
        x[_SUBSETS[idx]] = p * (d // q)
    acc = [0] * 36
    for k, i, j, coeff in _K_PAIRS:
        acc[k] += coeff * x[i] * x[j]
    return acc, cd, d * d * cn


def _k_fractions(acc, num, den):
    return [[Fraction((-1) ** b * acc[6 * b + a] * num, den) for a in range(6)] for b in range(6)]


def k_operator(rho: ExteriorForm, vol: ExteriorForm):
    """Matrix of v |-> (iota_v rho) ^ rho under iota_w vol = that 5-form.

    K[b][a] = (-1)^b c_b(a) / vol_123456 (0-based a, b), where c_b(a) is the
    coefficient of e_(all but b) in (iota_{e_a} rho) ^ rho.  Only the pairs
    with iota_{e_a} e_I ^ e_J = +-e_(all but b) reach that coefficient, and
    ``_K_TABLE`` lists them once: for each 3-subset I and each a in I it
    holds the sign (-1)^pos of iota_{e_a} e_I = +-e_(I - a), and the four
    triples (k, J, s) with k = 6b + a, J = (all but b) - (I - a) and s the
    sign of e_(I - a) ^ e_J.  The 5-forms are never built.

    Exact rational input sums int products in ``_k_integers``, over the pair
    table ``_K_PAIRS`` that merges rho_I rho_J and rho_J rho_I of each entry
    into one product, and divides once per entry.  Any other input (floats,
    complex or Gaussian-rational coefficients) runs ``_K_TABLE`` itself on its
    scalars with the arithmetic of ``rho.interior(e_a).wedge(rho)``, so its float bits
    equal that construction's: each entry adds its signed products
    rho_I * rho_J in ``rho.terms`` order (the order ``wedge_terms`` visits
    them, as a fixed (a, b) meets at most one J per I), drops a zero sum as a
    missing key, and applies the column sign and the division after the sum.
    A float sum depends on its order, so this loop does not take the merged
    table, whose one product per pair would land at another place of the sum.
    """
    float_mode = rho.mode == FLOAT or vol.mode == FLOAT
    if float_mode:
        _check_shapes(rho, vol)
        rho, vol = rho.as_float(), vol.as_float()
    elif ints := _k_integers(rho, vol):
        return _k_fractions(*ints)
    c = vol.terms[(1, 2, 3, 4, 5, 6)]
    terms = rho.terms
    unit, zero = (1.0, 0.0) if float_mode else (Fraction(1), Fraction(0))
    acc = [None] * 36
    for idx, x in terms.items():
        for sign, entries in _K_TABLE[idx]:
            xa = normalize_scalar(unit * x if sign == 1 else -(unit * x))
            for k, j, s in entries:
                y = terms.get(j)
                if y is None:
                    continue
                t = xa * y if s == 1 else -(xa * y)
                v = acc[k]
                v = t if v is None else v + t
                acc[k] = v if v else None
    acc = [zero if v is None else normalize_scalar(v) for v in acc]
    return [[(-1) ** b * acc[6 * b + a] / c for a in range(6)] for b in range(6)]


def recover_upsilon(rho: ExteriorForm, j) -> ExteriorForm:
    """The (3,0)-form Upsilon with 3 Im(Upsilon) = rho, given its J.

    Re(Upsilon)(v, w, z) = Im(Upsilon)(Jv, w, z) for a (3,0)-form, so the real
    part is recovered by feeding J into the first slot.  The input must be
    elliptic with j its recovered structure; a j that is not a complex
    structure is rejected outright.
    """
    check_complex_structure(j)
    float_mode = rho.mode == FLOAT or matrix_mode(j) == FLOAT
    if float_mode:
        rho = rho.as_float()
    third, one = (1.0 / 3.0, 1.0) if float_mode else (Fraction(1, 3), Fraction(1))
    im_part = third * rho
    basis = [[one if i == a else 0 * one for i in range(6)] for a in range(6)]
    j_cols = [linalg.mat_vec(j, e) for e in basis]
    re_terms = {
        (a, b, c): im_part.evaluate([j_cols[a - 1], basis[b - 1], basis[c - 1]])
        for a, b, c in combinations(range(1, 7), 3)
    }
    re_part = ExteriorForm(6, 3, re_terms, mode=rho.mode)
    i_unit = 1j if float_mode else I_EXACT
    return re_part + i_unit * im_part


def classify_3form(rho: ExteriorForm, vol: ExteriorForm = None, tol=1e-12) -> ThreeFormClass:
    """Split / elliptic / degenerate tag, with (J, Upsilon) in the elliptic case.

    J = -K / sqrt(-lambda) induces the orientation of ``vol`` (default: the
    standard volume form) by the lemma of the module docstring.  Exact and
    float input alike, a float being the dyadic rational it stores, take the
    ints of ``_k_integers``: lambda = trace(K^2) / 6 is one exact Fraction, and
    the tag is its sign.  J is exact where -lambda is a rational square on exact
    input; otherwise it is read off the ints in floats, each entry within 1 ulp.
    ``tol`` is read only on float input: the tag is degenerate when |lambda| <=
    tol |rho|^4 / |vol|^2 (max-norm of rho, coefficient of vol), decided exactly.
    Float input reports lambda rounded once, and raises :class:`FloatRangeError`
    where that overflows or gives 0 for a nonzero lambda.  A coefficient that
    is not real raises :class:`ComplexFormError`.
    """
    if vol is None:
        vol = standard_volume_form()
    ints = _k_integers(rho, vol)
    if ints is None:
        raise ComplexFormError("classification needs a real 3-form and a real volume form")
    # trace(K^2) = (num / den)^2 t, with t the sum of (-1)^(a+b) acc[6a + b] acc[6b + a]:
    acc, num, den = ints  # the squares at a = b and twice each pair a < b, signs written out
    t = sum(map(mul, acc[::7], acc[::7])) + 2 * (
        acc[2] * acc[12] + acc[4] * acc[24] + acc[9] * acc[19] + acc[11] * acc[31]
        + acc[16] * acc[26] + acc[23] * acc[33] - acc[1] * acc[6] - acc[3] * acc[18]
        - acc[5] * acc[30] - acc[8] * acc[13] - acc[10] * acc[25] - acc[15] * acc[20]
        - acc[17] * acc[32] - acc[22] * acc[27] - acc[29] * acc[34]
    )
    lam = Fraction(num * num * t, 6 * den * den)
    exact, degenerate = rho.mode == EXACT and vol.mode == EXACT, not t
    if not exact:
        rho = rho.as_float()
        # |lambda| <= tol |rho|^4 / |vol|^2 in ints, each side times the other's denominators
        c = vol.terms[(1, 2, 3, 4, 5, 6)]
        (p, q), (a, b), (m, n) = (x.as_integer_ratio() for x in (tol, rho.norm_inf(), c))
        degenerate = abs(lam.numerator) * q * b**4 * m * m <= p * a**4 * n * n * lam.denominator
        try:
            lam = float(lam)
        except OverflowError:
            raise FloatRangeError("lambda of the float form overflows") from None
        if t and not lam:
            raise FloatRangeError("lambda of the float form underflows to 0")
    if degenerate:
        return ThreeFormClass("degenerate", lam, rho.mode)
    if t > 0:
        return ThreeFormClass("split", lam, rho.mode)

    root = sqrt_fraction(-lam) if exact else None
    if root is None:
        # J[b][a] = -(-1)^b sign(den) acc[6b + a] sqrt(6 / -t), each entry one rounding of
        # acc f / e with f = floor(e sqrt(6 / -t)) of 70 bits or more: within 1 ulp, and finite
        # wherever J fits the float range
        e = 1 << (t.bit_length() + 141) // 2
        f = math.isqrt(6 * e * e // -t) * (-1 if den > 0 else 1)
        j = [[x * g / e for x in acc[6 * b : 6 * b + 6]] for b, g in enumerate((f, -f) * 3)]
        rho = rho.as_float()
    else:
        j = [[-x / root for x in row] for row in _k_fractions(*ints)]
    check_complex_structure(j)
    return ThreeFormClass("elliptic", lam, rho.mode, j, not exact or root is not None, rho)
