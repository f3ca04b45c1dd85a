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
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from . import linalg
from .compat import NotComplexStructureError
from .g2 import AdaptedFrame, cross, dot, frame_rotate
from .scalars import (
    EXACT,
    FLOAT,
    ComplexRational,
    I_EXACT,
    sabs,
    sconj,
    sim,
    sre,
    to_float,
    vector_mode,
)
from .sphere import check_tangent, point_vector


class TheoremContradictionError(AssertionError):
    """A residual-zero datum produced a definite H; this must never happen."""


class ChernCheckError(ArithmeticError):
    """An exact identity that the construction guarantees failed to hold."""


def _require(ok, message):
    # an explicit raise, so that the check survives python -O
    if not ok:
        raise ChernCheckError(message)


class CandidateJ:
    """An almost-complex structure on the tangent space at one sphere point.

    Stored as the ambient 7x7 matrix that kills u and squares to minus the
    projection onto u-perp.
    """

    __slots__ = ("point", "matrix", "mode")

    def __init__(self, point, matrix, tol=1e-10):
        u = point_vector(point)
        rows = tuple(tuple(r) for r in matrix)
        mode = FLOAT if (vector_mode(u) == FLOAT or any(
            isinstance(x, (float, complex)) for row in rows for x in row
        )) else EXACT
        self._validate(u, rows, mode, tol)
        object.__setattr__(self, "point", u)
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("CandidateJ is immutable")

    def __reduce__(self):  # checked when first built, at its own tolerance
        return CandidateJ, (self.point, self.matrix, inf)

    @staticmethod
    def _validate(u, rows, mode, tol):
        if len(rows) != 7 or any(len(r) != 7 for r in rows):
            raise NotComplexStructureError("ambient matrix must be 7x7")
        au = linalg.mat_vec([list(r) for r in rows], list(u))
        atu = linalg.mat_vec(linalg.transpose([list(r) for r in rows]), list(u))
        sq = linalg.mat_mul([list(r) for r in rows], [list(r) for r in rows])
        proj = [
            [(1 if a == b else 0) - u[a] * u[b] for b in range(7)] for a in range(7)
        ]
        defects = (
            [x for x in au]
            + [x for x in atu]
            + [sq[a][b] + proj[a][b] for a in range(7) for b in range(7)]
        )
        if mode == EXACT:
            bad = any(x != 0 for x in defects)
        else:
            bad = any(abs(to_float(x)) > tol for x in defects)
        if bad:
            raise NotComplexStructureError(
                "matrix is not a complex structure on the tangent space at u"
            )

    def apply(self, v):
        return tuple(linalg.mat_vec([list(r) for r in self.matrix], list(v)))

    # -- constructors -------------------------------------------------------
    @classmethod
    def standard(cls, point):
        """The reference structure v |-> u x v."""
        u = point_vector(point)
        cols = [cross(u, tuple(1 if i == a else 0 for i in range(7))) for a in range(7)]
        rows = [[cols[b][a] for b in range(7)] for a in range(7)]
        return cls(u, rows)

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
            for i in range(n):
                for j in range(n):
                    rows[i][j] += sgn * (b[i] * a[j] - a[i] * b[j])
        return cls(u, rows)

    @classmethod
    def from_tangent_matrix(cls, frame: AdaptedFrame, m6):
        """Lift a 6x6 matrix in the orthonormal frame basis (g2..g7) ambiently."""
        cols = frame.tangent_columns()
        n = 7
        rows = [[Fraction(0) if frame.mode == EXACT else 0.0] * n for _ in range(n)]
        for t in range(6):
            image = [
                sum(m6[p][t] * cols[p][i] for p in range(6)) for i in range(n)
            ]
            for i in range(n):
                for j in range(n):
                    rows[i][j] += image[i] * cols[t][j]
        return cls(frame.x, rows)

    def tangent_matrix(self, frame: AdaptedFrame):
        """The 6x6 action in the orthonormal frame basis (g2..g7)."""
        cols = frame.tangent_columns()
        return [
            [dot(cols[p], self.apply(cols[t])) for t in range(6)]
            for p in range(6)
        ]


class ChernData:
    """Transition matrices (r, s) and every invariant derived from them."""

    __slots__ = ("r", "s", "context")

    def __init__(self, r, s, context=None):
        object.__setattr__(self, "r", tuple(tuple(x) for x in r))
        object.__setattr__(self, "s", tuple(tuple(x) for x in s))
        object.__setattr__(self, "context", context)

    def __setattr__(self, name, value):
        raise AttributeError("ChernData is immutable")

    def __reduce__(self):
        return ChernData, (self.r, self.s, self.context)

    def _m(self, m):
        return [list(row) for row in m]

    def _r_t_conj_s(self):
        """t(r) conj(s); its transpose is t(conj(s)) r."""
        return linalg.mat_mul(linalg.transpose(self._m(self.r)), linalg.mat_conj(self._m(self.s)))

    @property
    def p_matrix(self):
        """t(r) conj(r): positive semi-definite hermitian."""
        return linalg.mat_mul(linalg.transpose(self._m(self.r)), linalg.mat_conj(self._m(self.r)))

    @property
    def q_matrix(self):
        """t(conj(s)) s: positive semi-definite hermitian."""
        return linalg.mat_mul(linalg.transpose(linalg.mat_conj(self._m(self.s))), self._m(self.s))

    @property
    def gamma_matrix(self):
        """(t(r) conj(s) + t(conj(s)) r) / 2: complex symmetric."""
        a = self._r_t_conj_s()
        half = Fraction(1, 2) if not isinstance(a[0][0], (float, complex)) else 0.5
        return linalg.mat_scale(half, linalg.mat_add(a, linalg.transpose(a)))

    @property
    def h_matrix(self):
        """t(r) conj(r) - t(conj(s)) s: the (1,1) matrix of the invariant 2-form."""
        return linalg.mat_sub(self.p_matrix, self.q_matrix)

    @property
    def det_r(self):
        return linalg.det(self._m(self.r))

    @property
    def det_s(self):
        return linalg.det(self._m(self.s))

    @property
    def residual(self):
        """det(conj(s)) - det(r); zero is necessary for integrability."""
        return sconj(self.det_s) - self.det_r

    @property
    def block_matrix(self):
        r, s = self._m(self.r), self._m(self.s)
        top = [r[i] + s[i] for i in range(3)]
        bot = [
            [sconj(x) for x in s[i]] + [sconj(x) for x in r[i]] for i in range(3)
        ]
        return top + bot

    @property
    def block_det(self):
        d = linalg.det(self.block_matrix)
        im = sim(d)
        if isinstance(im, Fraction):
            _require(im == 0, "block determinant must be real")
        else:
            _require(abs(im) <= 1e-9 * max(1.0, abs(sre(d))), "block determinant must be real")
        return sre(d)

    @property
    def orientation(self):
        """+1 when J induces the same orientation as the reference structure."""
        d = self.block_det
        if not d:
            raise NotComplexStructureError("degenerate transition block")
        return 1 if to_float(d) > 0 else -1

    @property
    def residual_normalized_abs(self):
        """|residual| / sqrt(|block det|): magnitude independent of the eta gauge.

        The raw residual scales by det(h) under eta |-> h^-1 eta while the
        block determinant scales by |det h|^2, so this quotient only sees the
        structure itself; zero versus nonzero is the exported verdict.
        """
        return sabs(self.residual) / abs(to_float(self.block_det)) ** 0.5

    @property
    def residual_is_zero(self):
        """The residual-zero verdict, the one place it is decided.

        Exact mode tests equality.  Float mode tests the gauge-free
        ``residual_normalized_abs`` against 1e-9: the raw float residual
        scales by det(h) with the eta basis, and so would a verdict on it.
        """
        if isinstance(self.r[0][0], (float, complex)):
            return self.residual_normalized_abs < 1e-9
        return self.residual == 0


def chern_residual(data: ChernData):
    return data.residual


def upsilon_type_extremes(data: ChernData):
    """Coefficients (8 det r, 8 det s) of the (3,0) and (0,3) volume parts."""
    eight = Fraction(8) if not isinstance(data.r[0][0], (float, complex)) else 8.0
    return (eight * data.det_r, eight * data.det_s)


def omega_type_components(data: ChernData):
    """Matrices (M20, M11, M02) of the J-type components of the 2-form.

    omega = t(eta)^M20 eta + t(eta)^M11 conj(eta) + t(conj(eta))^M02 conj(eta),
    with M20 = i(t(r) conj(s) - t(conj(s)) r), M11 = 2i H, M02 = conj(M20).
    """
    float_mode = isinstance(data.r[0][0], (float, complex))
    i_unit = 1j if float_mode else I_EXACT
    a = data._r_t_conj_s()
    m20 = linalg.mat_scale(i_unit, linalg.mat_sub(a, linalg.transpose(a)))
    m11 = linalg.mat_scale(2 * i_unit if float_mode else i_unit + i_unit, data.h_matrix)
    m02 = linalg.mat_conj(m20)
    return m20, m11, m02


def index_from_h(data: ChernData, tol=None):
    """Signature (p, q) of H; raises if H is degenerate.

    When the residual vanishes a definite H contradicts the determinant
    monotonicity argument, so that combination raises
    :class:`TheoremContradictionError` (and is exercised by randomized search
    in the test suite, which confirms it is never constructible).
    """
    h = data.h_matrix
    if tol is None:
        tol = 1e-10 if isinstance(h[0][0], (float, complex)) else 0.0
    pos, neg = linalg.signature(h, tol)
    if data.residual_is_zero and (neg == 0 or pos == 0):
        raise TheoremContradictionError(
            f"residual-zero datum with definite H (signature ({pos},{neg}))"
        )
    return (pos, neg)


def is_omega_compatible_data(data: ChernData, tol=0.0):
    """omega^(2,0) = 0, i.e. t(r) conj(s) is symmetric."""
    a = data._r_t_conj_s()
    pairs = [(a[i][j], a[j][i]) for i in range(3) for j in range(i + 1, 3)]
    return all(x == y if tol == 0.0 else sabs(x - y) <= tol for x, y in pairs)


# ---------------------------------------------------------------------------
# computing (r, s) from an actual J at a frame
# ---------------------------------------------------------------------------

def _theta_values(frame: AdaptedFrame, v):
    """(theta_1(v), theta_2(v), theta_3(v)) for a real ambient vector v."""
    exact = frame.mode == EXACT
    out = []
    for j in (1, 2, 3):
        a, b = frame.col(2 * j), frame.col(2 * j + 1)
        da, db = dot(a, v), dot(b, v)
        if exact and vector_mode(v) != FLOAT:
            out.append(ComplexRational(Fraction(db) / 2, -Fraction(da) / 2))
        else:
            out.append((to_float(db) - 1j * to_float(da)) / 2.0)
    return out


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


def default_eta_basis(j: CandidateJ, tol=1e-8):
    """Greedy J-complex basis of u-perp from projected coordinate seeds.

    Seeds e_a - (u.e_a) u are taken in index order; a seed is kept when it
    grows the real span together with its J-image.
    """
    u = j.point
    exact = j.mode == EXACT
    chosen = []
    span_rows = []
    for a in range(7):
        ua = u[a]
        seed = tuple(
            ((1 if i == a else 0) - ua * u[i]) for i in range(7)
        )
        jseed = j.apply(seed)
        candidate = span_rows + [list(seed), list(jseed)]
        if linalg.rank(candidate, 0.0 if exact else tol) == len(candidate):
            span_rows = candidate
            chosen.append(seed)
        if len(chosen) == 3:
            return chosen
    raise NotComplexStructureError("could not find a J-complex basis of u-perp")


def compute_rs(j: CandidateJ, frame: AdaptedFrame, eta_basis=None) -> ChernData:
    """Transition matrices of J against the frame's reference coframe.

    eta_basis, when given, is a triple of tangent vectors forming a J-complex
    basis (the coframe eta is its complex dual); otherwise a deterministic
    basis is built from projected coordinate seeds.  The defining relation
    theta = r eta + s conj(eta) is solved exactly on the real basis
    (v_l, J v_l).
    """
    u = frame.x
    if j.point != u:
        raise ValueError("J and frame are based at different points")
    basis = list(eta_basis) if eta_basis is not None else default_eta_basis(j)
    if len(basis) != 3:
        raise ValueError("eta basis must consist of three tangent vectors")
    exact = j.mode == EXACT and frame.mode == EXACT
    for v in basis:
        check_tangent(u, v, 1e-8)
    real_basis = []
    for v in basis:
        real_basis.append(tuple(v))
        real_basis.append(j.apply(v))
    if linalg.rank([list(v) for v in real_basis], 0.0 if exact else 1e-8) != 6:
        raise NotComplexStructureError("eta basis is not J-complexly independent")

    half = Fraction(1, 2) if exact else 0.5
    i_unit = I_EXACT if exact else 1j
    r = [[None] * 3 for _ in range(3)]
    s = [[None] * 3 for _ in range(3)]
    for l in range(3):
        tv = _theta_values(frame, real_basis[2 * l])
        tjv = _theta_values(frame, real_basis[2 * l + 1])
        for jrow in range(3):
            r[jrow][l] = half * (tv[jrow] - i_unit * tjv[jrow])
            s[jrow][l] = half * (tv[jrow] + i_unit * tjv[jrow])
    return ChernData(r, s, context={"frame": frame, "j": j, "eta_basis": [tuple(v) for v in basis]})


def eta_values(j: CandidateJ, basis, v):
    """(eta_1(v), eta_2(v), eta_3(v)) for the coframe dual to a J-basis."""
    exact = j.mode == EXACT and vector_mode(v) != FLOAT
    real_basis = []
    for b in basis:
        real_basis.append(list(b))
        real_basis.append(list(j.apply(b)))
    m = [[real_basis[k][i] for k in range(6)] for i in range(7)]
    # least-squares-free exact solve: restrict to 6 independent coordinates
    rows_idx = _independent_rows(m, 0.0 if exact else 1e-9)
    sq = [m[i] for i in rows_idx]
    rhs = [v[i] for i in rows_idx]
    coords = linalg.solve(sq, rhs, 0.0 if exact else 1e-12)
    i_unit = I_EXACT if exact else 1j
    return [coords[2 * k] + i_unit * coords[2 * k + 1] for k in range(3)]


def _independent_rows(m, tol):
    chosen = []
    rows = []
    for i, row in enumerate(m):
        candidate = rows + [list(row)]
        if linalg.rank(candidate, tol) == len(candidate):
            rows = candidate
            chosen.append(i)
        if len(chosen) == len(m[0]):
            return chosen
    raise linalg.DegenerateFormError("rows do not span")


def reconstruction_defects(data: ChernData):
    """Exactness checks of the type decompositions against the frame data.

    Returns (omega_defect, metric_defect): max deviation, over all real basis
    pairs, of the reconstructed 2-form from iota_u phi and of the
    reconstructed symmetric form from the ambient dot product.
    """
    ctx = data.context
    if not ctx:
        raise ValueError("data has no frame context")
    frame, j, basis = ctx["frame"], ctx["j"], ctx["eta_basis"]
    u = frame.x
    from .sphere import omega_at

    omega = omega_at(u)
    m20, m11, m02 = omega_type_components(data)
    gamma = data.gamma_matrix
    pq = linalg.mat_add(data.p_matrix, data.q_matrix)

    real_basis = []
    for v in basis:
        real_basis.append(tuple(v))
        real_basis.append(j.apply(v))
    evals = [eta_values(j, basis, v) for v in real_basis]

    def pairing(mat, ev, fw, conj_left, conj_right):
        left = [sconj(x) for x in ev] if conj_left else ev
        right = [sconj(x) for x in fw] if conj_right else fw
        return sum(
            (mat[a][b] * left[a] * right[b] for a in range(3) for b in range(3)),
            start=mat[0][0] * 0,
        )

    om_defect = 0.0
    g_defect = 0.0
    n = len(real_basis)
    for aa in range(n):
        for bb in range(n):
            ev, fw = evals[aa], evals[bb]
            rec = (
                (pairing(m20, ev, fw, False, False) - pairing(m20, fw, ev, False, False))
                + (pairing(m11, ev, fw, False, True) - pairing(m11, fw, ev, False, True))
                + (pairing(m02, ev, fw, True, True) - pairing(m02, fw, ev, True, True))
            )
            target = omega.evaluate([real_basis[aa], real_basis[bb]])
            om_defect = max(om_defect, sabs(rec - target))
            four = 4
            rec_g = four * (
                pairing(gamma, ev, fw, False, False)
                + pairing(pq, ev, fw, False, True)
                + pairing(linalg.mat_conj(gamma), ev, fw, True, True)
            )
            # symmetric forms pair by the symmetrized product
            rec_g = (rec_g + four * (
                pairing(gamma, fw, ev, False, False)
                + pairing(pq, fw, ev, False, True)
                + pairing(linalg.mat_conj(gamma), fw, ev, True, True)
            )) / 2
            target_g = dot(real_basis[aa], real_basis[bb])
            g_defect = max(g_defect, sabs(rec_g - target_g))
    return om_defect, g_defect


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
    basis = base.context["eta_basis"]
    j_basis = [j.apply(v) for v in basis]
    rot_frame = frame_rotate(frame, g_su3)
    new_basis = []
    for k in range(3):
        vec = None
        for jj in range(3):
            c = h_gl3[jj][k]
            a, b = sre(c), sim(c)
            term = [a * basis[jj][i] + b * j_basis[jj][i] for i in range(7)]
            vec = term if vec is None else [x + y for x, y in zip(vec, term)]
        new_basis.append(tuple(vec))
    transformed = compute_rs(j, rot_frame, new_basis)

    g_inv = linalg.inverse([list(row) for row in g_su3])
    expect_r = linalg.mat_mul(g_inv, linalg.mat_mul([list(r) for r in base.r], [list(r) for r in h_gl3]))
    expect_s = linalg.mat_mul(
        g_inv, linalg.mat_mul([list(r) for r in base.s], linalg.mat_conj([list(r) for r in h_gl3]))
    )
    exact = j.mode == EXACT and frame.mode == EXACT
    det_h = linalg.det([list(r) for r in h_gl3])
    res_expected = det_h * base.residual
    if not exact:
        # relative tolerances: r and s scale with h, and the residual with
        # det(h), as sqrt|block det| does (see residual_normalized_abs)
        rs_tol = 1e-8 * max(sabs(x) for m in (expect_r, expect_s) for row in m for x in row)
        res_tol = 1e-8 * sabs(det_h) * abs(to_float(base.block_det)) ** 0.5

    def close(m1, m2):
        if exact:
            return all(m1[a][b] == m2[a][b] for a in range(3) for b in range(3))
        return all(sabs(m1[a][b] - m2[a][b]) < rs_tol for a in range(3) for b in range(3))

    res_ok = (
        transformed.residual == res_expected
        if exact
        else sabs(transformed.residual - res_expected) < res_tol
    )
    report = {
        "r_transforms": close([list(r) for r in transformed.r], expect_r),
        "s_transforms": close([list(r) for r in transformed.s], expect_s),
        "residual_scales_by_det_h": res_ok,
        "residual_vanishing_invariant": base.residual_is_zero == transformed.residual_is_zero,
    }
    report["pass"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# residual-zero sampling (the signature dichotomy sweep)
# ---------------------------------------------------------------------------

# Gaussian integers are (re, im) int pairs here, multiplied by linalg's _zi_* helpers.

_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _random_rz_pairs(rng):
    """(r, s_bar) over the Gaussian integers: omega-compatible, residual zero.

    M := t(r) conj(s) is drawn complex symmetric (symmetry is exactly
    omega-compatibility) with det(M) = det(r)^2 pinned by construction
    (P L D t(L) t(P) with diagonal a unit split of (det r, det r, 1)), which
    forces det(conj(s)) = det(r).  The datum is scaled by |det r|^2 to clear
    the one matrix inverse; a positive real scale changes neither the
    residual's vanishing nor any signature.
    """
    while True:
        r = [
            [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
            for _ in range(3)
        ]
        det_r = linalg._zi_det3(r)
        if det_r == (0, 0):
            continue
        u1, u2 = _UNITS[rng.randrange(4)], _UNITS[rng.randrange(4)]
        u12 = linalg._zi_mul(u1, u2)  # a unit, so its inverse is its conjugate
        diag = [linalg._zi_mul(u1, det_r), linalg._zi_mul(u2, det_r), (u12[0], -u12[1])]
        rng.shuffle(diag)
        low = [[(1 if i == j else 0, 0) for j in range(3)] for i in range(3)]
        for i in range(3):
            for j in range(i):
                low[i][j] = (rng.randint(-2, 2), rng.randint(-2, 2))
        low_d = [[linalg._zi_mul(x, diag[j]) for j, x in enumerate(row)] for row in low]
        m2 = linalg._zi_mat_mul(low_d, linalg.transpose(low))
        perm = [0, 1, 2]
        rng.shuffle(perm)
        m2 = [[m2[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        # adj(t(r)) is the cofactor matrix of r
        cd = (det_r[0], -det_r[1])
        s_bar = [
            [linalg._zi_mul(cd, x) for x in row]
            for row in linalg._zi_mat_mul(linalg._zi_cofactors(r), m2)
        ]
        scale = det_r[0] * det_r[0] + det_r[1] * det_r[1]
        r_scaled = [[(x[0] * scale, x[1] * scale) for x in row] for row in r]
        return r_scaled, s_bar


def _pairs_to_cr(m):
    return [[ComplexRational._from_cleared(x[0], x[1], 1) for x in row] for row in m]


def random_residual_zero_data(rng) -> ChernData:
    """Random exact omega-compatible datum with residual forced to zero."""
    r, s_bar = _random_rz_pairs(rng)
    data = ChernData(_pairs_to_cr(r), _pairs_to_cr(linalg._zi_conj(s_bar)))
    _require(data.residual == 0, "residual is not zero")
    _require(is_omega_compatible_data(data), "t(r) conj(s) is not symmetric")
    return data


def _signature_from_minors(minors):
    """Jacobi: with all leading minors nonzero, negatives = sign changes."""
    seq = [1, *minors]
    changes = sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))
    return (3 - changes, changes)


def signature_dichotomy_sweep(trials, seed, crosscheck_every=200):
    """Residual-zero omega-compatible data never have definite H.

    Runs over the Gaussian integers with the signature read off the leading
    principal minors (Jacobi); every ``crosscheck_every``-th trial is
    recomputed through the generic exact congruence path and must agree.
    Each trial re-verifies det(conj(s)) = det(r), the symmetry of t(r)conj(s),
    det(P) = |det r|^2, and that H is nondegenerate (which certifies the
    datum corresponds to an actual structure).  Returns a report dict.
    Raises ``ValueError`` for ``trials < 0`` or ``crosscheck_every < 1``.
    """
    import random

    if trials < 0 or crosscheck_every < 1:
        raise ValueError(f"need trials >= 0 and crosscheck_every >= 1: {trials}, {crosscheck_every}")
    rng = random.Random(seed)
    counts = {}
    done = skipped = 0
    while done < trials:
        r, s_bar = _random_rz_pairs(rng)
        # residual zero and compatibility, re-verified on the raw pairs
        det_r = linalg._zi_det3(r)
        _require(linalg._zi_det3(s_bar) == det_r, "residual is not zero")
        r_t = linalg.transpose(r)
        m = linalg._zi_mat_mul(r_t, s_bar)
        _require(
            all(m[i][j] == m[j][i] for i in range(3) for j in range(3)),
            "t(r) conj(s) is not symmetric",
        )
        # H = P - t(s_bar) conj(s_bar) with P = t(r) conj(r), and its
        # leading principal minors, which are real because H is hermitian
        p = linalg._zi_mat_mul(r_t, linalg._zi_conj(r))
        q = linalg._zi_mat_mul(linalg.transpose(s_bar), linalg._zi_conj(s_bar))
        h = [[(x[0] - y[0], x[1] - y[1]) for x, y in zip(pr, qr)] for pr, qr in zip(p, q)]
        a, b = linalg._zi_mul(h[0][0], h[1][1]), linalg._zi_mul(h[0][1], h[1][0])
        d1, d2, d3 = h[0][0], (a[0] - b[0], a[1] - b[1]), linalg._zi_det3(h)
        for v in (d1, d2, d3):
            _require(v[1] == 0, "hermitian minors must be real")
        minors = (d1[0], d2[0], d3[0])
        _require(linalg._zi_det3(p) == (det_r[0] ** 2 + det_r[1] ** 2, 0), "det(P) != |det r|^2")
        if minors[2] == 0:
            skipped += 1  # degenerate H: datum does not define a structure
            continue
        if minors[0] == 0 or minors[1] == 0:
            sig = linalg.signature(_pairs_to_cr(h))
        else:
            sig = _signature_from_minors(minors)
        if done % crosscheck_every == 0:
            data = ChernData(_pairs_to_cr(r), _pairs_to_cr(linalg._zi_conj(s_bar)))
            _require(index_from_h(data) == sig, "minor/congruence signature mismatch")
        if 0 in sig:
            raise TheoremContradictionError(
                f"residual-zero datum with definite H (signature {sig})"
            )
        counts[sig] = counts.get(sig, 0) + 1
        done += 1
    bad = [sig for sig in counts if 0 in sig]
    return {
        "check": "signature_dichotomy",
        "trials": trials,
        "seed": seed,
        "signature_counts": {str(k): v for k, v in sorted(counts.items())},
        "skipped_degenerate": skipped,
        "definite_seen": bool(bad),
        "pass": not bad,
    }
