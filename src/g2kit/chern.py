"""Zeroth-order invariants of an almost-complex structure J against the
reference structure on the six-sphere.

Fix a point u with an adapted frame, giving the reference coframe
theta = (theta_1, theta_2, theta_3), and let eta be any J-linear coframe.
The transition matrices (r, s) are defined by

    theta = r eta + s conj(eta),

and carry the first-order obstruction theory: the invariant 2-form and
complex volume decompose by J-type with matrices built from (r, s), the
*residual* det(conj(s)) - det(r) must vanish for an integrable
omega-compatible J, and in that case the hermitian matrix
H = t(r) conj(r) - t(conj(s)) s is nondegenerate and never definite, pinning
the omega-index to (2,1) or (1,2).

Frame gauge: rotating the adapted frame by g in SU(3) and the J-coframe by
h in GL(3, C) maps (r, s) to (g^-1 r h, g^-1 s conj(h)); the vanishing of the
residual is gauge-invariant.

The four type formulas used here are proved in ``tests/test_chern.py`` as
polynomial identities in r, s, conj(r) and conj(s), by substituting
theta = r eta + s conj(eta):

1. omega = 2i sum theta_j ^ conj(theta_j) has J-type matrices
   (M20, M11 = 2i H, M02) (:func:`omega_type_components`);
2. the metric on u-perp is 4 sym(gamma eta eta + (P + Q) eta conj(eta)
   + conj(gamma) conj(eta) conj(eta)) (``gamma_matrix``, ``p_matrix``,
   ``q_matrix``);
3. Upsilon = 8 theta_1 theta_2 theta_3 has (3,0) and (0,3) coefficients
   8 det r and 8 det s (:func:`upsilon_type_extremes`);
4. the (3,0)-coefficient of 3 Im Upsilon = d(omega)|tan is
   12i (det conj(s) - det r), 12i times ``residual``.

The same tests evaluate each polynomial at computed data and compare it
with the functions named above.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import itemgetter, ne

from . import linalg
from .compat import NotComplexStructureError, complex_basis, defect_vanishes
from .g2 import AdaptedFrame, cross, frame_rotate, theta_value
from .scalars import (
    EXACT,
    FLOAT,
    ComplexRational,
    I_EXACT,
    Immutable,
    join_modes,
    matrix_mode,
    sqrt_rounded,
    vector_mode,
)
from .sphere import check_tangent, point_vector
from .threeforms import FloatRangeError


class TheoremContradictionError(AssertionError):
    """A residual-zero datum produced a definite H; this must never happen."""


class ChernCheckError(ArithmeticError):
    """An exact identity that the construction guarantees failed to hold."""


def _require(ok, message):
    # an explicit raise, so that the check survives python -O
    if not ok:
        raise ChernCheckError(message)


class CandidateJ(Immutable):
    """An almost-complex structure on the tangent space at one sphere point.

    Stored as the ambient 7x7 matrix that kills u and squares to minus the
    projection onto u-perp.  Point and matrix share one mode, or MixedModeError.
    Its defects are judged by ``compat.defect_vanishes``, the one zero test
    of a complex structure.  Pickles written before the immutable base call
    the constructor with their own bound as a third value, ``pickled_tol``,
    so that they still load; it is ignored.
    """

    __slots__ = ("point", "matrix", "mode")

    def __init__(self, point, matrix, *pickled_tol):
        u = point_vector(point)
        rows = tuple(tuple(r) for r in matrix)
        mode = FLOAT if join_modes(vector_mode(u), matrix_mode(rows)) == FLOAT else EXACT
        self._validate(u, rows)
        super().__init__(u, rows, mode)

    @staticmethod
    def _validate(u, rows):
        if len(rows) != 7 or any(len(r) != 7 for r in rows):
            raise NotComplexStructureError("ambient matrix must be 7x7")
        au = linalg.mat_vec(rows, u)
        atu = linalg.mat_vec(linalg.transpose(rows), u)
        sq = linalg.mat_mul(rows, rows)
        proj = [[(1 if a == b else 0) - u[a] * u[b] for b in range(7)] for a in range(7)]
        defects = [au, atu, *linalg.mat_add(sq, proj)]
        if not defect_vanishes(defects, rows):
            raise NotComplexStructureError(
                "matrix is not a complex structure on the tangent space at u"
            )

    def apply(self, v):
        return tuple(linalg.mat_vec(self.matrix, v))

    # -- constructors -------------------------------------------------------
    @classmethod
    def standard(cls, point):
        """The reference structure v |-> u x v."""
        u = point_vector(point)
        cols = [cross(u, tuple(1 if i == a else 0 for i in range(7))) for a in range(7)]
        return cls(u, linalg.transpose(cols))

    @classmethod
    def minus_standard(cls, point):
        u = point_vector(point)
        base = cls.standard(u)
        return cls(u, [[-x for x in row] for row in base.matrix])

    @classmethod
    def flipped(cls, frame: AdaptedFrame, planes=(2, 3)):
        """Reference structure with the rotation reversed on the given f-planes.

        planes=() gives the reference structure, planes=(1,2,3) its negative,
        and planes=(2,3) the member of the residual-zero family sitting over
        this frame (omega-index (1,2)).
        """
        u = frame.x
        n = 7
        rows = [[Fraction(0) if frame.mode == EXACT else 0.0] * n for _ in range(n)]
        for k in (1, 2, 3):
            sgn = -1 if k in planes else 1
            a, b = frame.col(2 * k), frame.col(2 * k + 1)
            live = [i for i in range(n) if a[i] or b[i]]  # elsewhere the update adds a zero
            for i in live:
                for j in live:
                    rows[i][j] += sgn * (b[i] * a[j] - a[i] * b[j])
        return cls(u, rows)

    @classmethod
    def from_tangent_matrix(cls, frame: AdaptedFrame, m6):
        """Lift a 6x6 matrix M in the orthonormal frame basis ambiently, as T M t(T), T = (g2..g7)."""
        t = [row[1:] for row in frame.matrix]
        return cls(frame.x, linalg.mat_mul(t, linalg.mat_mul(m6, linalg.transpose(t))))

    def tangent_matrix(self, frame: AdaptedFrame):
        """The 6x6 action t(T) J T in the orthonormal frame basis, T = (g2..g7).

        A frame at another point raises ValueError, and one of the other mode MixedModeError.
        """
        if self.point != frame.x:
            raise ValueError("J and frame are based at different points")
        join_modes(self.mode, frame.mode)
        t = [row[1:] for row in frame.matrix]
        return linalg.mat_mul(linalg.transpose(t), linalg.mat_mul(self.matrix, t))


class ChernData(Immutable):
    """Transition matrices (r, s) and every invariant derived from them.

    ``mode`` is FLOAT when r or s holds a float entry and EXACT otherwise;
    it is decided here, once, and every invariant reads it.
    """

    __slots__ = ("r", "s", "context", "mode", "_residual", "_block_det", "_exact")

    def __init__(self, r, s, context=None):
        r, s = tuple(tuple(x) for x in r), tuple(tuple(x) for x in s)
        mode = join_modes(matrix_mode(r), matrix_mode(s))
        super().__init__(r, s, context, FLOAT if mode == FLOAT else EXACT, None, None, None)

    def _lazy(self, slot, compute):
        """``slot``, filled by ``compute()`` on its first read: the immutable datum computes each once."""
        if getattr(self, slot) is None:
            object.__setattr__(self, slot, compute())
        return getattr(self, slot)

    def _r_t_conj_s(self):
        """t(r) conj(s); its transpose is t(conj(s)) r."""
        return linalg.mat_mul(linalg.transpose(self.r), linalg.mat_conj(self.s))

    @property
    def p_matrix(self):
        """t(r) conj(r): positive semi-definite hermitian."""
        return linalg.mat_mul(linalg.transpose(self.r), linalg.mat_conj(self.r))

    @property
    def q_matrix(self):
        """t(conj(s)) s: positive semi-definite hermitian."""
        return linalg.mat_mul(linalg.transpose(linalg.mat_conj(self.s)), self.s)

    @property
    def gamma_matrix(self):
        """(t(r) conj(s) + t(conj(s)) r) / 2: complex symmetric."""
        a = self._r_t_conj_s()
        half = Fraction(1, 2) if self.mode == EXACT else 0.5
        return linalg.mat_scale(half, linalg.mat_add(a, linalg.transpose(a)))

    @property
    def h_matrix(self):
        """t(r) conj(r) - t(conj(s)) s: the (1,1) matrix of the invariant 2-form."""
        return linalg.mat_sub(self.p_matrix, self.q_matrix)

    @property
    def det_r(self):
        return linalg.det(self.r)

    @property
    def det_s(self):
        return linalg.det(self.s)

    @property
    def residual(self):
        """det(conj(s)) - det(r); zero is necessary for integrability."""
        return self._lazy("_residual", lambda: self.det_s.conjugate() - self.det_r)

    def _dyadic(self):
        """Exact data as they are; float data with each entry the dyadic rational it stores.
        A nan or infinite entry raises ``threeforms.FloatRangeError``."""
        return self if self.mode == EXACT else self._lazy("_exact", self._dyadic_data)

    def _dyadic_data(self):
        exact = lambda x: ComplexRational(x.real, x.imag) if isinstance(x, complex) else Fraction(x)
        try:
            return ChernData(*([[exact(x) for x in row] for row in m] for m in (self.r, self.s)))
        except (OverflowError, ValueError):  # Fraction and ComplexRational of nan and of +-inf
            raise FloatRangeError("an entry of the float transition matrices is not finite") from None

    @property
    def block_det(self):
        """det [[r, s], [conj(s), conj(r)]] of ``_dyadic``, real for every r and s (conjugation swaps
        the block rows and columns): the exact realness check guards ``linalg.det``'s Gaussian path."""
        return self._lazy("_block_det", self._block_det_value)

    def _block_det_value(self):
        e = self._dyadic()
        cr, cs = linalg.mat_conj(e.r), linalg.mat_conj(e.s)
        d = linalg.det([[*e.r[i], *e.s[i]] for i in range(3)] + [[*cs[i], *cr[i]] for i in range(3)])
        _require(d.imag == 0, "block determinant must be real")
        if not d:
            raise NotComplexStructureError("degenerate transition block")
        return d.real

    @property
    def orientation(self):
        """+1 when J induces the same orientation as the reference structure."""
        return 1 if self.block_det > 0 else -1

    @property
    def residual_normalized_abs(self):
        """|residual| / sqrt(|block det|): magnitude independent of the eta gauge.

        The raw residual scales by det(h) under eta |-> h^-1 eta while the
        block determinant scales by |det h|^2, so this quotient only sees the
        structure itself; zero versus nonzero is the exported verdict.  It is the root
        of one exact quotient of the ``_dyadic`` values, rounded once: scale-free, finite where it fits.
        """
        res = self._dyadic().residual
        return sqrt_rounded((res.real ** 2 + res.imag ** 2) / abs(self.block_det))

    @property
    def residual_is_zero(self):
        """The residual-zero verdict, the one place it is decided; a degenerate block raises.

        Exact mode tests equality.  Float mode tests the gauge-free
        ``residual_normalized_abs`` against 1e-9: the raw float residual
        scales by det(h) with the eta basis, and so would a verdict on it.
        """
        if self.mode == FLOAT:
            return self.residual_normalized_abs < 1e-9
        return self.block_det != 0 and self.residual == 0


def upsilon_type_extremes(data: ChernData):
    """Coefficients (8 det r, 8 det s) of the (3,0) and (0,3) volume parts."""
    eight = Fraction(8) if data.mode == EXACT else 8.0
    return (eight * data.det_r, eight * data.det_s)


def omega_type_components(data: ChernData):
    """Matrices (M20, M11, M02) of the J-type components of the 2-form.

    omega = t(eta)^M20 eta + t(eta)^M11 conj(eta) + t(conj(eta))^M02 conj(eta),
    with M20 = i(t(r) conj(s) - t(conj(s)) r), M11 = 2i H, M02 = conj(M20).
    """
    float_mode = data.mode == FLOAT
    i_unit = 1j if float_mode else I_EXACT
    a = data._r_t_conj_s()
    m20 = linalg.mat_scale(i_unit, linalg.mat_sub(a, linalg.transpose(a)))
    m11 = linalg.mat_scale(2 * i_unit if float_mode else i_unit + i_unit, data.h_matrix)
    m02 = linalg.mat_conj(m20)
    return m20, m11, m02


def index_from_h(data: ChernData):
    """Signature (p, q) of H; raises if H is degenerate.

    When the residual vanishes a definite H contradicts the determinant
    monotonicity argument, so that combination raises
    :class:`TheoremContradictionError` (and is exercised by randomized search
    in the test suite, which confirms it is never constructible).
    """
    sig = linalg.signature(data.h_matrix)
    return _indefinite(sig) if data.residual_is_zero else sig


def _indefinite(sig):
    """``sig`` of a residual-zero datum's H; a definite H raises :class:`TheoremContradictionError`."""
    if 0 in sig:
        raise TheoremContradictionError(f"residual-zero datum with definite H (signature {sig})")
    return sig


def is_omega_compatible_data(data: ChernData):
    """omega^(2,0) = 0, i.e. t(r) conj(s) is symmetric, exactly."""
    a = data._r_t_conj_s()
    return all(a[i][j] == a[j][i] for i in range(3) for j in range(i + 1, 3))


# ---------------------------------------------------------------------------
# computing (r, s) from an actual J at a frame
# ---------------------------------------------------------------------------

def canonical_eta_basis(frame: AdaptedFrame):
    """(2 g3, 2 g5, 2 g7): the basis whose coframe is the reference coframe.

    For the plane-flip families this basis is J-complex for every choice of
    flipped planes, and it reproduces the textbook transition matrices
    (identity/zero blocks) exactly.
    """
    two = Fraction(2) if frame.mode == EXACT else 2.0
    return [
        tuple(two * x for x in frame.col(3)),
        tuple(two * x for x in frame.col(5)),
        tuple(two * x for x in frame.col(7)),
    ]


def default_eta_basis(j: CandidateJ):
    """Greedy J-complex basis of u-perp from projected coordinate seeds.

    Seeds e_a - (u.e_a) u are taken in index order; a seed is kept when it
    grows the real span together with its J-image (:func:`compat.complex_basis`).
    """
    u = j.point
    seeds = (tuple((1 if i == a else 0) - u[a] * u[i] for i in range(7)) for a in range(7))
    pairs = complex_basis(seeds, j.apply, 3)
    return [v for v, _ in pairs]


def compute_rs(j: CandidateJ, frame: AdaptedFrame, eta_basis=None) -> ChernData:
    """Transition matrices of J against the frame's reference coframe.

    eta_basis, when given, is a triple of tangent vectors forming a J-complex
    basis (the coframe eta is its complex dual), and is checked to be one;
    otherwise :func:`default_eta_basis` builds one.  The defining relation
    theta = r eta + s conj(eta) is solved exactly on the real basis
    w = (v_1, J v_1, v_2, J v_2, v_3, J v_3): one ``linalg.mat_mul`` pairs the
    tangent columns g2..g7 with w, :func:`g2.theta_value` turns the pairings
    into theta_j(w_m), and then r = (theta(v_l) - i theta(J v_l))/2 and
    s = (theta(v_l) + i theta(J v_l))/2.  J and frame share point and mode.
    """
    u = frame.x
    if j.point != u:
        raise ValueError("J and frame are based at different points")
    exact = join_modes(j.mode, frame.mode) == EXACT
    if eta_basis is None:
        basis = default_eta_basis(j)
    else:
        basis = list(eta_basis)
        if len(basis) != 3:
            raise ValueError("eta basis must consist of three tangent vectors")
        for v in basis:
            check_tangent(u, v, 1e-8)
    real_basis = [w for v in basis for w in (tuple(v), j.apply(v))]
    if eta_basis is not None:  # default_eta_basis proved its basis independent
        if linalg.rank(real_basis) != 6:
            raise NotComplexStructureError("eta basis is not J-complexly independent")

    pairings = linalg.mat_mul(frame.tangent_columns(), linalg.transpose(real_basis))
    rows = zip(pairings[0::2], pairings[1::2])  # (g_2j . w, g_2j+1 . w) for j = 1, 2, 3
    theta = [[theta_value(x, y, frame.mode == EXACT) for x, y in zip(a, b)] for a, b in rows]
    half = Fraction(1, 2) if exact else 0.5
    i_unit = I_EXACT if exact else 1j
    r = [[half * (t[2 * l] - i_unit * t[2 * l + 1]) for l in range(3)] for t in theta]
    s = [[half * (t[2 * l] + i_unit * t[2 * l + 1]) for l in range(3)] for t in theta]
    return ChernData(r, s, context={"frame": frame, "j": j, "eta_basis": [tuple(v) for v in basis]})


# ---------------------------------------------------------------------------
# gauge equivariance
# ---------------------------------------------------------------------------

def equivariance_check(j: CandidateJ, frame: AdaptedFrame, g_su3, h_gl3, eta_basis=None):
    """Verify (r, s) |-> (g^-1 r h, g^-1 s conj(h)) under the frame/coframe gauge.

    The adapted frame is rotated by g (an SU(3) matrix in the complex frame),
    the J-basis is mixed by h, and (r, s) are recomputed from scratch; the
    report also confirms that vanishing of the residual is gauge-invariant.
    """
    base = compute_rs(j, frame, eta_basis)
    rot_frame = frame_rotate(frame, g_su3)
    real_basis = [w for v in base.context["eta_basis"] for w in (v, j.apply(v))]
    # new basis vector k is sum_l Re(h_lk) v_l + Im(h_lk) J v_l
    mixing = [[x for c in col for x in (c.real, c.imag)] for col in zip(*h_gl3)]
    new_basis = linalg.mat_mul(mixing, real_basis)
    transformed = compute_rs(j, rot_frame, new_basis)

    g_inv = linalg.inverse(g_su3)
    expect_r = linalg.mat_mul(g_inv, linalg.mat_mul(base.r, h_gl3))
    expect_s = linalg.mat_mul(g_inv, linalg.mat_mul(base.s, linalg.mat_conj(h_gl3)))
    exact = j.mode == EXACT and frame.mode == EXACT
    det_h = linalg.det(h_gl3)
    res_expected = det_h * base.residual
    if not exact:
        # relative tolerances: r and s scale with h, and the residual with
        # det(h), as sqrt|block det| does (see residual_normalized_abs)
        rs_tol = 1e-8 * linalg.max_abs(expect_r + expect_s)
        res_tol = 1e-8 * abs(det_h) * sqrt_rounded(abs(base.block_det))

    def close(m1, m2):
        if exact:
            return all(m1[a][b] == m2[a][b] for a in range(3) for b in range(3))
        return all(abs(m1[a][b] - m2[a][b]) < rs_tol for a in range(3) for b in range(3))

    res_ok = (
        transformed.residual == res_expected
        if exact
        else abs(transformed.residual - res_expected) < res_tol
    )
    report = {
        "r_transforms": close(transformed.r, expect_r),
        "s_transforms": close(transformed.s, expect_s),
        "residual_scales_by_det_h": res_ok,
        "residual_vanishing_invariant": base.residual_is_zero == transformed.residual_is_zero,
    }
    report["pass"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# residual-zero sampling (the signature dichotomy sweep)
# ---------------------------------------------------------------------------

# Gaussian integers are (re, im) int pairs here, and a 3x3 Z[i] matrix is linalg's flat
# pair (re, im) of row-major 9-tuples, multiplied by its _zi3_* kernels.

_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))
CROSSCHECK_EVERY = 200  # the sweep recomputes every CROSSCHECK_EVERY-th trial by congruence


# random.shuffle of a 3-list swaps x[2] with x[a], a = _randbelow(3), then x[1] with x[b],
# b = _randbelow(2).  By 2a + b: getters of the order it leaves, on a 3-sequence and on the rows
# and the columns of a flat 3x3 matrix.
_SHUFFLES = tuple((itemgetter(*x), itemgetter(*[3 * p + q for p in x for q in x])) for x in (
    (1, 2, 0), (2, 1, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2)))


def _below(gb, n, count):
    """``count`` successive rng.randrange(n), n > 0, from gb = rng.getrandbits."""
    k = n.bit_length()
    out = [x for x in map(gb, repeat(k, count)) if x < n]
    while len(out) < count:
        x = gb(k)
        if x < n:
            out.append(x)
    return out


def _shuffle3(gb):
    """2a + b of the swap draws of rng.shuffle on a 3-list (see ``_SHUFFLES``)."""
    a = b = 3
    while a > 2:
        a = gb(2)
    while b > 1:
        b = gb(2)
    return 2 * a + b


def _random_rz_pairs(rng):
    """(r, scale, s_bar) over the Gaussian integers: the datum (scale r, s_bar) is
    omega-compatible with residual zero.

    M := t(r) conj(s) is drawn complex symmetric (symmetry is exactly
    omega-compatibility) with det(M) = det(r)^2 pinned by construction
    (P L D t(L) t(P) with diagonal a unit split of (det r, det r, 1)), which
    forces det(conj(s)) = det(r).  The datum is scaled by scale = |det r|^2 to
    clear the one matrix inverse; a positive real scale changes neither the
    residual's vanishing nor any signature.  s_bar = adj(t(r)) P L conj(det r) D t(L) t(P).

    The draws are those of randint(-3, 3) for r's 18 parts (re before im), randrange(4) for two
    units, shuffle(D), randrange(5) - 2 for L's entries (1, 0), (2, 0), (2, 1) and shuffle(P),
    taken from rng.getrandbits by random's _randbelow rule (Python 3.10 to 3.13) without the
    calls' argument checks: n.bit_length() bits a word, redrawn while the word is >= n.  So
    randrange(7), (4) and (5) take 3 bits a word, and each swap of a 3-list's shuffle 2 bits.
    P L D t(L) t(P) is complex symmetric: six entries written out on ints, then reordered.
    """
    gb = rng.getrandbits
    while True:
        parts = [x - 3 for x in _below(gb, 7, 18)]
        r = (tuple(parts[0::2]), tuple(parts[1::2]))
        dr, di = linalg._zi3_det(r)
        if not (dr or di):
            continue
        scale = dr * dr + di * di
        (p1, q1), (p2, q2) = map(_UNITS.__getitem__, _below(gb, 4, 2))
        # conj(det r) D = diag(u1 scale, u2 scale, conj(u1 u2 det r)), shuffled
        pu, qu = p1 * p2 - q1 * q2, p1 * q2 + q1 * p2
        diag = (p1 * scale, q1 * scale), (p2 * scale, q2 * scale), (pu * dr - qu * di, -pu * di - qu * dr)
        (d0, e0), (d1, e1), (d2, e2) = _SHUFFLES[_shuffle3(gb)][0](diag)
        a0, a1, b0, b1, c0, c1 = [x - 2 for x in _below(gb, 5, 6)]  # L10, L20, L21
        reorder = _SHUFFLES[_shuffle3(gb)][1]  # entry (i, j) of P m t(P) is m[perm[i]][perm[j]]
        # L D t(L) has rows (d0, x, y), (x, p, q), (y, q, t): x = d0 L10, y = d0 L20, z = d1 L21,
        # p = x L10 + d1, q = x L20 + z and t = y L20 + z L21 + d2
        xr, xi = d0 * a0 - e0 * a1, d0 * a1 + e0 * a0
        yr, yi = d0 * b0 - e0 * b1, d0 * b1 + e0 * b0
        zr, zi = d1 * c0 - e1 * c1, d1 * c1 + e1 * c0
        pr, pi = xr * a0 - xi * a1 + d1, xr * a1 + xi * a0 + e1
        qr, qi = xr * b0 - xi * b1 + zr, xr * b1 + xi * b0 + zi
        tr, ti = yr * b0 - yi * b1 + zr * c0 - zi * c1 + d2, yr * b1 + yi * b0 + zr * c1 + zi * c0 + e2
        m2 = reorder((d0, xr, yr, xr, pr, qr, yr, qr, tr)), reorder((e0, xi, yi, xi, pi, qi, yi, qi, ti))
        # adj(t(r)) is the cofactor matrix of r
        return r, scale, linalg._zi3_mul(linalg._zi3_cofactors(r), m2)


def _datum(r, scale, s_bar):
    """ChernData of the datum (scale r, conj(s_bar)) that ``_random_rz_pairs`` draws."""
    cr = ComplexRational._from_cleared
    (a, b), (c, d) = r, linalg._zi3_conj(s_bar)
    return ChernData(
        [[cr(scale * a[k], scale * b[k], 1) for k in (i, i + 1, i + 2)] for i in (0, 3, 6)],
        [[cr(c[k], d[k], 1) for k in (i, i + 1, i + 2)] for i in (0, 3, 6)],
    )


def random_residual_zero_data(rng) -> ChernData:
    """Random exact omega-compatible datum with residual forced to zero."""
    data = _datum(*_random_rz_pairs(rng))
    _require(data.residual == 0, "residual is not zero")
    _require(is_omega_compatible_data(data), "t(r) conj(s) is not symmetric")
    return data


def _inertia3(c1, c2, c3):
    """Inertia of a hermitian 3x3 H with det(x - H) = x^3 - c1 x^2 + c2 x - c3, c3 != 0.

    H has real eigenvalues, so Descartes' rule counts the positive ones
    exactly: the sign changes of (1, -c1, c2, -c3), zeros dropped.
    """
    signs = [c > 0 for c in (1, -c1, c2, -c3) if c]
    pos = sum(map(ne, signs, signs[1:]))
    return (pos, 3 - pos)


def signature_dichotomy_sweep(trials, seed):
    """Residual-zero omega-compatible data never have definite H.

    Runs over the Gaussian integers with the signature read off det(x - H)
    by Descartes' rule (:func:`_inertia3`); every ``CROSSCHECK_EVERY``-th
    trial is recomputed through the exact congruence of :func:`index_from_h`
    and must agree, and c3 must equal ``linalg._zi3_det`` of H.  Each trial
    re-verifies det(conj(s)) = det(r), the symmetry of t(r)conj(s), that
    det(x - H) has real coefficients, det(P) = |det r|^2, and that H is
    nondegenerate (a degenerate H is skipped and counted); a definite H
    raises :class:`TheoremContradictionError`.
    The datum is (scale r, s_bar) of :func:`_random_rz_pairs`, and the checks
    read the small r and scale = |det r|^2 > 0: each is its equation on the
    datum divided by a power of scale.  det(s_bar) = scale^3 det(r), t(r) s_bar
    is symmetric, det(t(r) conj(r)) = |det r|^2 since P = scale^2 t(r) conj(r),
    and H = scale^2 t(r) conj(r) - t(s_bar) conj(s_bar), built once; one pass
    of ``linalg._zi3_charpoly`` gives c1, c2, c3 of det(x - H).
    Returns a report dict.
    Raises ``TypeError`` unless ``trials`` is an int (``bool`` is not), and
    ``ValueError`` for ``trials < 0``.
    """
    import random

    if type(trials) is not int:
        raise TypeError(f"trials must be an int: {trials!r}")
    if trials < 0:
        raise ValueError(f"need trials >= 0: {trials}")
    rng = random.Random(seed)
    mul, det, transpose, conj = linalg._zi3_mul, linalg._zi3_det, linalg._zi3_transpose, linalg._zi3_conj
    counts = {}
    done = skipped = 0
    while done < trials:
        r, scale, s_bar = _random_rz_pairs(rng)
        # residual zero and compatibility of (scale r, s_bar), re-verified on r and scale
        dr, di = det(r)
        cube = scale * scale * scale
        _require(det(s_bar) == (cube * dr, cube * di), "residual is not zero")
        r_t = transpose(r)
        m = mul(r_t, s_bar)
        _require(m == transpose(m), "t(r) conj(s) is not symmetric")
        # H = scale^2 P - t(s_bar) conj(s_bar) with P = t(r) conj(r), and the coefficients of
        # det(x - H), real as H is hermitian
        p = mul(r_t, conj(r))
        q = mul(transpose(s_bar), conj(s_bar))
        sq = scale * scale
        h = [sq * x - y for x, y in zip(p[0], q[0])], [sq * x - y for x, y in zip(p[1], q[1])]
        c1, c2, c3 = linalg._zi3_charpoly(h)
        _require(c1[1] == c2[1] == c3[1] == 0, "hermitian minors must be real")
        _require(det(p) == (dr * dr + di * di, 0), "det(P) != |det r|^2")
        if c3[0] == 0:
            skipped += 1  # degenerate H: datum does not define a structure
            continue
        sig = _inertia3(c1[0], c2[0], c3[0])
        if done % CROSSCHECK_EVERY == 0:
            _require(index_from_h(_datum(r, scale, s_bar)) == sig, "minor/congruence signature mismatch")
            _require(det(h) == c3, "c3 != det(H)")
        sig = _indefinite(sig)
        counts[sig] = counts.get(sig, 0) + 1
        done += 1
    return {
        "check": "signature_dichotomy",
        "trials": trials,
        "seed": seed,
        "signature_counts": {str(k): v for k, v in sorted(counts.items())},
        "skipped_degenerate": skipped,
        "definite_seen": False,
        "pass": True,
    }
