import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from g2kit import linalg
from g2kit.chern import (
    CandidateJ,
    ChernData,
    canonical_eta_basis,
    compute_rs,
    default_eta_basis,
    equivariance_check,
    index_from_h,
    is_omega_compatible_data,
    omega_type_components,
    random_residual_zero_data,
    signature_dichotomy_sweep,
    upsilon_type_extremes,
)
from g2kit.compat import NotComplexStructureError, is_compatible_omega
from g2kit.forms import add_terms, canonical_terms, wedge_terms
from g2kit.g2 import AdaptedFrame, dot, frame_rotate, standard_frame
from g2kit.sampling import (
    random_gl3_complex,
    random_invertible_rational,
    random_rational_frame,
    random_su3,
    random_symplectic,
)
from g2kit.polyforms import Poly
from g2kit.scalars import EXACT, ComplexRational, I_EXACT, MixedModeError, to_float
from g2kit.sphere import (
    basis_point,
    frame_at_float_point,
    omega_at,
    phi_tangential,
    standard_j,
    upsilon_at,
)
from g2kit.threeforms import (
    classify_3form,
    elliptic_normal_form,
)

from conftest import (
    _random_rz_pairs as random_rz_pairs_reference,
    _zi_det3 as zi_det3_reference,
    _zi_mul as zi_mul_reference,
    bits,
    flat3,
    flipped_rows_reference,
    rand_form,
    rank as rank_loop,
    unflat3,
)

E1 = basis_point(1)
FRAME = standard_frame()


def tangent_matrix_of_standard(frame):
    cols = frame.tangent_columns()
    u = frame.x
    return [
        [dot(cols[p], standard_j(u, cols[t])) for t in range(6)] for p in range(6)
    ]


def omega_matrix(frame):
    cols = frame.tangent_columns()
    om = omega_at(frame.x)
    return [[om.evaluate([a, b]) for b in cols] for a in cols]


def random_compatible_j(rng, frame):
    """Exact omega-compatible structure: symplectic conjugate of the standard one."""
    om = omega_matrix(frame)
    j6 = tangent_matrix_of_standard(frame)
    s = random_symplectic(rng, om)
    j6c = linalg.mat_mul(linalg.inverse(s), linalg.mat_mul(j6, s))
    return CandidateJ.from_tangent_matrix(frame, j6c)


def test_candidate_validation():
    from g2kit.compat import NotComplexStructureError

    ident = [[Fraction(1 if i == j else 0) for j in range(7)] for i in range(7)]
    with pytest.raises(NotComplexStructureError):
        CandidateJ(E1, ident)


def test_candidate_rejects_a_float_matrix_at_an_exact_point():
    """The point and the matrix share one mode, as in every other value class."""
    j = [[float(x) for x in row] for row in CandidateJ.standard(FRAME.x).matrix]
    with pytest.raises(MixedModeError):
        CandidateJ(FRAME.x, j)


def test_standard_structure_matrices():
    j = CandidateJ.standard(E1)
    data = compute_rs(j, FRAME, canonical_eta_basis(FRAME))
    assert data.r == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert all(not x for row in data.s for x in row)
    assert data.residual == -1
    assert data.orientation == 1
    assert upsilon_type_extremes(data) == (8, 0)
    assert index_from_h(data) == (3, 0)
    m20, m11, m02 = omega_type_components(data)
    assert all(not x for row in m20 for x in row)
    two_i = I_EXACT + I_EXACT
    assert m11 == [[two_i if a == b else ComplexRational(0) for b in range(3)] for a in range(3)]


def test_minus_standard_structure():
    j = CandidateJ.minus_standard(E1)
    data = compute_rs(j, FRAME, canonical_eta_basis(FRAME))
    assert all(not x for row in data.r for x in row)
    assert data.s == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert data.residual == 1
    assert data.orientation == -1
    assert index_from_h(data) == (0, 3)


def test_flipped_family_matrices():
    j = CandidateJ.flipped(FRAME, (2, 3))
    data = compute_rs(j, FRAME, canonical_eta_basis(FRAME))
    assert data.r == ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    assert data.s == ((0, 0, 0), (0, 1, 0), (0, 0, 1))
    assert data.residual == 0
    assert index_from_h(data) == (1, 2)
    assert data.orientation == 1
    assert upsilon_type_extremes(data) == (0, 0)
    m20, m11, _ = omega_type_components(data)
    assert all(not x for row in m20 for x in row)
    h = data.h_matrix
    assert h == [
        [1, 0, 0],
        [0, -1, 0],
        [0, 0, -1],
    ]


def test_flipped_family_at_random_frames(rng):
    frame = random_rational_frame(rng)
    j = CandidateJ.flipped(frame, (2, 3))
    data = compute_rs(j, frame, canonical_eta_basis(frame))
    assert data.residual == 0
    assert index_from_h(data) == (1, 2)
    assert is_omega_compatible_data(data)
    # rotating within the stabilizer keeps the family's invariants
    rotated = frame_rotate(frame, random_su3(rng))
    j2 = CandidateJ.flipped(rotated, (2, 3))
    d2 = compute_rs(j2, rotated, canonical_eta_basis(rotated))
    assert d2.residual == 0
    assert index_from_h(d2) == (1, 2)


def test_flipped_matches_the_dense_reference():
    """flipped updates only the rows and columns where a plane's two columns are nonzero: its
    entries have the values, types and float.hex of the dense 49-entry loop, over all 8 plane
    subsets, on the standard frame exact and as floats (two nonzero entries a plane), random
    rational frames and float frames from frame_at_float_point."""
    from itertools import chain, combinations

    float_frame = AdaptedFrame([[float(x) for x in row] for row in FRAME.matrix])
    frames = [FRAME, float_frame, *(random_rational_frame(random.Random(k)) for k in range(3))]
    frames += [frame_at_float_point(random.Random(k), None) for k in range(3)]
    assert sum(map(bool, FRAME.col(4))) == sum(map(bool, FRAME.col(5))) == 1
    for frame in frames:
        for planes in chain.from_iterable(combinations((1, 2, 3), k) for k in range(4)):
            got = [list(row) for row in CandidateJ.flipped(frame, planes).matrix]
            assert bits(got) == bits(flipped_rows_reference(frame, planes)), (frame.matrix, planes)


def _invariants(data):
    return (data.residual, data.block_det, data.orientation, data.residual_normalized_abs,
            data.residual_is_zero, index_from_h(data))


@pytest.mark.parametrize("filled", [False, True])
def test_chern_data_keeps_its_invariants_through_copy_and_pickle(filled):
    """The residual, the block determinant and the dyadic datum are kept on the datum once read:
    copy, deepcopy and a pickle round trip give the same invariants, kept or not.  The exact
    ones are those of the three families at the standard frame, not of another datum's kept
    values; the float ones those of a fresh datum of the same (r, s)."""
    import copy
    import pickle

    basis = canonical_eta_basis(FRAME)
    want = {(): (-1, 1, 1, 1.0, False, (3, 0)), (1, 2, 3): (1, -1, -1, 1.0, False, (0, 3)),
            (2, 3): (0, 1, 1, 0.0, True, (1, 2))}
    cases = [(compute_rs(CandidateJ.flipped(FRAME, p), FRAME, basis), w) for p, w in want.items()]
    frame = frame_at_float_point(random.Random(3), None)
    for planes in ((), (2, 3)):
        data = compute_rs(CandidateJ.flipped(frame, planes), frame, canonical_eta_basis(frame))
        cases.append((data, _invariants(ChernData(data.r, data.s))))
    for data, w in cases:
        if filled:
            assert _invariants(data) == w
        for clone in (copy.copy(data), copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
            assert (clone._residual is None, clone._block_det is None) == (not filled, not filled)
            assert _invariants(clone) == w
        assert _invariants(data) == w


def test_det_scaling_example():
    r = [[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(2)]]
    s = [[Fraction(0)] * 3 for _ in range(3)]
    data = ChernData(r, s)
    assert upsilon_type_extremes(data) == (16, 0)


def test_constructed_equal_determinants_give_zero_residual():
    # det r = det(conj(s)) = 5 by construction
    r = [[Fraction(5), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]]
    s = [[Fraction(5), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]]
    assert ChernData(r, s).residual == 0


def test_default_eta_basis_gauge_free_verdicts(rng):
    """The default eta gauge changes (r, s) but not the exported verdicts."""
    j = CandidateJ.standard(E1)
    data = compute_rs(j, FRAME)  # default greedy basis
    assert data.residual != 0
    assert index_from_h(data) == (3, 0)
    assert data.orientation == 1
    assert_defining_relation(data)
    assert_formulas_hold_at(data)


@pytest.mark.parametrize("exact", [True, False])
def test_eta_basis_must_be_j_complexly_independent(exact):
    """A triple whose pairs (v, Jv) do not span u-perp is rejected, exact or float."""
    frame = FRAME if exact else _float_frame(FRAME)
    j = CandidateJ.flipped(frame, (2,))
    v, w = canonical_eta_basis(frame)[:2]
    for basis in ([v, j.apply(v), w], [v, w, tuple(2 * x - y for x, y in zip(v, w))]):
        with pytest.raises(NotComplexStructureError):
            compute_rs(j, frame, basis)
    assert compute_rs(j, frame, [v, w, canonical_eta_basis(frame)[2]]).orientation == -1


def test_reconstruction_random_compatible(rng):
    j = random_compatible_j(rng, FRAME)
    data = compute_rs(j, FRAME)
    assert_defining_relation(data)
    assert_formulas_hold_at(data)
    assert is_omega_compatible_data(data)


def test_compatibility_bridge(rng):
    """omega^(2,0) = 0 in the transition data iff the matrix check agrees."""
    om = omega_matrix(FRAME)
    j = random_compatible_j(rng, FRAME)
    j6 = j.tangent_matrix(FRAME)
    data = compute_rs(j, FRAME)
    assert is_compatible_omega(om, j6)
    assert is_omega_compatible_data(data)
    # shear across symplectic pairs: conjugation breaks compatibility
    shear = linalg.identity(6)
    shear[0][2] = Fraction(1)
    j6_bad = linalg.mat_mul(
        linalg.inverse(shear),
        linalg.mat_mul(tangent_matrix_of_standard(FRAME), shear),
    )
    j_bad = CandidateJ.from_tangent_matrix(FRAME, j6_bad)
    data_bad = compute_rs(j_bad, FRAME)
    assert not is_compatible_omega(om, j6_bad)
    assert not is_omega_compatible_data(data_bad)
    # the type decompositions hold for any structure, and here M20 is nonzero
    assert_defining_relation(data_bad)
    assert_formulas_hold_at(data_bad)
    assert any(x for row in omega_type_components(data_bad)[0] for x in row)


# ---------------------------------------------------------------------------
# Chern's type formulas as polynomial identities
#
# Substitute theta_j = sum_a r_ja eta_a + s_ja conj(eta_a) with 36 formal
# variables: r, s, conj(r) and conj(s), the conjugates independent of r and s.
# Forms are term dicts over the six generators eta_1..3 (indices 1..3) and
# conj(eta)_1..3 (indices 4..6), with Poly coefficients.  Each formula of
# chern.py is then an equality of polynomials, proved once for every (r, s);
# assert_formulas_hold_at ties the code's matrices to these polynomials.
# ---------------------------------------------------------------------------

NV = 36
R, S, RB, SB = (
    [[Poly.var(NV, 9 * block + 3 * j + a + 1) for a in range(3)] for j in range(3)]
    for block in range(4)
)
ZERO = Poly(NV)
PERMUTATIONS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


def conj_poly(p):
    """r <-> conj(r), s <-> conj(s), and each coefficient conjugated."""
    return Poly(NV, {e[18:] + e[:18]: c.conjugate() for e, c in p.terms.items()})


def conj_terms(terms):
    """The conjugate form: eta <-> conj(eta) on the indices, conj_poly on the coefficients."""
    flip = {i: i + 3 if i <= 3 else i - 3 for i in range(1, 7)}
    return canonical_terms(
        {tuple(flip[i] for i in idx): conj_poly(p) for idx, p in terms.items()}, lambda p: p
    )


def scale_terms(c, terms):
    return {idx: p * c for idx, p in terms.items()}


def product(m1, m2):
    """(t(m1) m2)_ab = sum_j m1_ja m2_jb."""
    return [[sum((m1[j][a] * m2[j][b] for j in range(3)), ZERO) for b in range(3)]
            for a in range(3)]


def det3(m):
    return sum((sign * m[0][p[0]] * m[1][p[1]] * m[2][p[2]] for p, sign in PERMUTATIONS), ZERO)


def tensor_terms(alpha, beta):
    """alpha (x) beta for 1-forms, keyed by ordered generator pairs."""
    return {(i, k): a * b for (i,), a in alpha.items() for (k,), b in beta.items()}


def symmetrize(t):
    half = Fraction(1, 2)
    keys = {(i, k) for i, k in t} | {(k, i) for i, k in t}
    out = {key: (t.get(key, ZERO) + t.get(key[::-1], ZERO)) * half for key in keys}
    return {key: p for key, p in out.items() if p}


def sum_terms(dicts):
    out = {}
    for d in dicts:
        out = add_terms(out, d)
    return out


THETA = [{**{(a + 1,): R[j][a] for a in range(3)}, **{(a + 4,): S[j][a] for a in range(3)}}
         for j in range(3)]
THETA_BAR = [conj_terms(t) for t in THETA]

# the matrices of chern.py, spelled as polynomials
A = product(R, SB)  # t(r) conj(s)
A_T = [[A[b][a] for b in range(3)] for a in range(3)]
P, Q = product(R, RB), product(SB, S)
M20 = [[I_EXACT * (A[a][b] - A_T[a][b]) for b in range(3)] for a in range(3)]
M11 = [[2 * I_EXACT * (P[a][b] - Q[a][b]) for b in range(3)] for a in range(3)]
M02 = [[conj_poly(x) for x in row] for row in M20]
GAMMA = [[(A[a][b] + A_T[a][b]) * Fraction(1, 2) for b in range(3)] for a in range(3)]

# omega = 2i sum_j theta_j ^ conj(theta_j) and Upsilon = 8 theta_1 ^ theta_2 ^ theta_3
OMEGA = scale_terms(2 * I_EXACT, sum_terms(wedge_terms(t, tb) for t, tb in zip(THETA, THETA_BAR)))
UPSILON = scale_terms(8, wedge_terms(wedge_terms(THETA[0], THETA[1]), THETA[2]))
THREE_IM_UPSILON = scale_terms(  # 3 (Upsilon - conj(Upsilon)) / 2i
    Fraction(3, 2) * -I_EXACT, add_terms(UPSILON, scale_terms(-1, conj_terms(UPSILON)))
)


def test_omega_type_decomposition_is_an_identity():
    """omega = sum M20_ab eta_a^eta_b + M11_ab eta_a^conj(eta_b) + M02_ab conj(eta_a)^conj(eta_b)."""
    by_type = {}
    for a in range(3):
        for b in range(3):
            by_type[a + 1, b + 1] = M20[a][b]
            by_type[a + 1, b + 4] = M11[a][b]
            by_type[a + 4, b + 4] = M02[a][b]
    assert OMEGA == canonical_terms(by_type, lambda p: p)
    assert max(p.total_degree() for p in OMEGA.values()) == 2


def test_metric_from_gamma_and_p_plus_q_is_an_identity():
    """g = 2 sum_j (theta_j conj(theta_j) + conj(theta_j) theta_j), by J-type.

    sym 4 (gamma_ab eta_a eta_b + (P + Q)_ab eta_a conj(eta_b)
    + conj(gamma)_ab conj(eta_a) conj(eta_b)).
    """
    metric = symmetrize(scale_terms(4, sum_terms(
        tensor_terms(t, tb) for t, tb in zip(THETA, THETA_BAR))))
    by_type = {}
    for a in range(3):
        for b in range(3):
            by_type[a + 1, b + 1] = GAMMA[a][b]
            by_type[a + 1, b + 4] = P[a][b] + Q[a][b]
            by_type[a + 4, b + 4] = conj_poly(GAMMA[a][b])
    assert metric == symmetrize(scale_terms(4, by_type))


def test_upsilon_type_extremes_are_an_identity():
    """The (3,0) and (0,3) coefficients of Upsilon are 8 det r and 8 det s."""
    assert UPSILON[1, 2, 3] == 8 * det3(R)
    assert UPSILON[4, 5, 6] == 8 * det3(S)
    assert len(UPSILON) == 20 and max(p.total_degree() for p in UPSILON.values()) == 3


def test_volume_residual_is_an_identity():
    """The (3,0)-coefficient of 3 Im Upsilon = d(omega)|tan is 12i (det conj(s) - det r)."""
    assert THREE_IM_UPSILON[1, 2, 3] == 12 * I_EXACT * (det3(SB) - det3(R))
    assert det3(SB) == conj_poly(det3(S))


def test_theta_coframe_normalisation(rng):
    """The coframe of frame.theta carries omega, the metric and Upsilon as substituted above."""
    for frame in (FRAME, random_rational_frame(rng)):
        u, cols = frame.x, frame.tangent_columns()
        thetas = [frame.theta(j) for j in (1, 2, 3)]
        wedges = [t.wedge(t.conj()) for t in thetas]
        assert 2 * I_EXACT * (wedges[0] + wedges[1] + wedges[2]) == omega_at(u)
        upsilon = upsilon_at(u, frame)
        assert upsilon == 8 * thetas[0].wedge(thetas[1]).wedge(thetas[2])
        assert upsilon.imag() == phi_tangential(u)
        for v in cols:
            for w in cols:
                values = [(t.evaluate([v]), t.evaluate([w])) for t in thetas]
                assert dot(v, w) == 2 * sum(
                    (x * y.conjugate() + x.conjugate() * y for x, y in values), ComplexRational(0)
                )


def assert_formulas_hold_at(data):
    """The code's matrices are the proved polynomials at the data's (r, s, conj r, conj s)."""
    point = [x for m in (data.r, data.s) for row in m for x in row]
    point += [x.conjugate() for x in point]

    def at(m):
        return [[p.eval(point) for p in row] for row in m]

    assert omega_type_components(data) == (at(M20), at(M11), at(M02))
    assert data.gamma_matrix == at(GAMMA)
    assert (data.p_matrix, data.q_matrix) == (at(P), at(Q))
    assert upsilon_type_extremes(data) == (UPSILON[1, 2, 3].eval(point), UPSILON[4, 5, 6].eval(point))
    assert 12 * I_EXACT * data.residual == THREE_IM_UPSILON[1, 2, 3].eval(point)


def assert_defining_relation(data):
    """theta_j(v_l) = r_jl + s_jl and theta_j(J v_l) = i (r_jl - s_jl), through frame.theta."""
    frame, j = data.context["frame"], data.context["j"]
    for l, v in enumerate(data.context["eta_basis"]):
        jv = j.apply(v)
        for row in range(3):
            theta = frame.theta(row + 1)
            r, s = data.r[row][l], data.s[row][l]
            assert theta.evaluate([v]) == r + s
            assert theta.evaluate([jv]) == I_EXACT * (r - s)


def test_index_routes_agree():
    """The compat-module omega-index equals the H-signature route."""
    from g2kit.compat import omega_index

    om = omega_matrix(FRAME)
    for planes, expected in (((), (3, 0)), ((2, 3), (1, 2)), ((1, 2, 3), (0, 3))):
        j = CandidateJ.flipped(FRAME, planes)
        via_compat = omega_index(om, j.tangent_matrix(FRAME))
        data = compute_rs(j, FRAME, canonical_eta_basis(FRAME))
        assert via_compat == index_from_h(data) == expected


def test_orientation_tracks_flip_parity():
    for planes, sign in (((), 1), ((1,), -1), ((1, 2), 1), ((1, 2, 3), -1)):
        j = CandidateJ.flipped(FRAME, planes)
        data = compute_rs(j, FRAME, canonical_eta_basis(FRAME))
        assert data.orientation == sign


def test_orientation_of_a_block_determinant_beyond_the_float_range():
    """r = 10^200 I, s = 0: the block determinant is 10^1200, and its sign is read exactly
    (it was converted to a float first, which raised OverflowError).  r = 0, s = 10^200 I
    gives -10^1200."""
    big = [[Fraction(10**200) if a == b else Fraction(0) for b in range(3)] for a in range(3)]
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    assert ChernData(big, zero).block_det == 10**1200
    assert ChernData(big, zero).orientation == 1
    assert ChernData(zero, big).block_det == -(10**1200)
    assert ChernData(zero, big).orientation == -1


def test_residual_normalized_abs_of_exact_data_beyond_the_float_range():
    """r = 10^+-200 I, s = 0: |residual| / sqrt|block det| is 1, read as one exact quotient
    (the block determinant 10^+-1200 was converted to a float first, which raised
    OverflowError at 10^1200 and ZeroDivisionError at 10^-1200)."""
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    for scale in (Fraction(10**200), Fraction(1, 10**200)):
        big = [[scale if a == b else Fraction(0) for b in range(3)] for a in range(3)]
        assert ChernData(big, zero).residual_normalized_abs == 1.0
        assert ChernData(zero, big).residual_normalized_abs == 1.0


def _scaled(m, k):
    """m times 2^k, exactly: each real and imaginary part is ldexp'd."""
    return [[complex(math.ldexp(x.real, k), math.ldexp(x.imag, k)) if isinstance(x, complex)
             else math.ldexp(x, k) for x in row] for row in m]


def _verdicts(data):
    return data.residual_normalized_abs, data.residual_is_zero, data.orientation


def test_float_verdicts_do_not_move_under_rescaling():
    """The quotient, the residual-zero verdict and the orientation of float (r, s) read
    their dyadic values, so (2^k r, 2^k s) gives the values at k = 0.  In floats the block
    determinant under- or overflowed past |k| ~ 170: ZeroDivisionError or a nan quotient."""
    ident, zero = ([[float(a == b) * c for b in range(3)] for a in range(3)] for c in (1, 0))
    want = _verdicts(ChernData(ident, zero))
    assert want == (1.0, False, 1)
    for k in range(-1000, 1001, 10):
        assert _verdicts(ChernData(_scaled(ident, k), zero)) == want, k
    rng = random.Random(36)
    part = lambda: rng.choice((-1, 1)) * 2.0 ** rng.uniform(-20, 20)
    for _ in range(20):
        r, s = ([[complex(part(), part()) for _ in range(3)] for _ in range(3)] for _ in range(2))
        want = _verdicts(ChernData(r, s))
        for k in (-1000, -640, -300, -110, 110, 300, 640, 1000):
            assert _verdicts(ChernData(_scaled(r, k), _scaled(s, k))) == want, k


@pytest.mark.parametrize("entry", [Fraction(1), 1e50])
def test_a_degenerate_block_raises_not_a_complex_structure(entry):
    """r = s makes [[r, s], [conj(s), conj(r)]] singular.  Every property that reads the
    block raises NotComplexStructureError, as orientation did; the quotient raised
    ZeroDivisionError, and exact residual_is_zero answered True by equality."""
    r = [[entry if a == b else 0 * entry for b in range(3)] for a in range(3)]
    data = ChernData(r, r)
    for prop in ("block_det", "orientation", "residual_normalized_abs", "residual_is_zero"):
        with pytest.raises(NotComplexStructureError, match="degenerate transition block"):
            getattr(data, prop)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["r", "s"])
def test_a_non_finite_float_entry_raises_float_range_error(value, where):
    """A nan or infinite entry has no dyadic value: every property that reads ``_dyadic`` raises
    the FloatRangeError of classify_3form, where Fraction's ValueError/OverflowError escaped."""
    from g2kit.threeforms import FloatRangeError

    eye = [[float(a == b) for b in range(3)] for a in range(3)]
    bad = [row[:] for row in eye]
    bad[2][2] = value
    data = ChernData(bad, [[0.0] * 3] * 3) if where == "r" else ChernData(eye, bad)
    for prop in ("block_det", "orientation", "residual_normalized_abs", "residual_is_zero"):
        with pytest.raises(FloatRangeError, match="not finite"):
            getattr(data, prop)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exact_residual_normalized_abs_is_rounded_once(seed):
    """On exact data the float is the nearest to sqrt(|residual|^2 / |block det|)."""
    rng = random.Random(seed)
    entry = lambda: ComplexRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    data = ChernData(*([[entry() for _ in range(3)] for _ in range(3)] for _ in range(2)))
    if not data.block_det:
        return
    x, res = data.residual_normalized_abs, data.residual
    q = (res.real**2 + res.imag**2) / abs(data.block_det)
    half = Fraction(math.ulp(x)) / 2
    assert max(Fraction(x) - half, 0) ** 2 <= q <= (Fraction(x) + half) ** 2


def test_equivariance_exact(rng):
    j = CandidateJ.flipped(FRAME, (2, 3))
    for _ in range(5):
        g = random_su3(rng)
        h = random_gl3_complex(rng)
        rep = equivariance_check(j, FRAME, g, h, canonical_eta_basis(FRAME))
        assert rep["r_transforms"] and rep["s_transforms"]
        assert rep["residual_scales_by_det_h"]
        assert rep["residual_vanishing_invariant"]


def test_equivariance_on_noncompatible(rng):
    j = CandidateJ.standard(E1)
    g = random_su3(rng)
    h = random_gl3_complex(rng)
    rep = equivariance_check(j, FRAME, g, h)
    assert rep["r_transforms"] and rep["s_transforms"]
    assert rep["residual_scales_by_det_h"]


def test_residual_zero_data_properties(rng):
    data = random_residual_zero_data(rng)
    assert data.residual == 0
    assert is_omega_compatible_data(data)
    det_p = linalg.det(data.p_matrix)
    assert det_p == data.det_r * data.det_r.conjugate()
    det_q = linalg.det(data.q_matrix)
    assert det_q == data.det_s * data.det_s.conjugate()
    sig = index_from_h(data)
    assert sig in ((2, 1), (1, 2))


def test_pq_sum_positive_definite(rng):
    data = random_residual_zero_data(rng)
    pq = linalg.mat_add(data.p_matrix, data.q_matrix)
    assert linalg.signature(pq) == (3, 0)


def test_definite_with_nonzero_residual_is_fine():
    # the reference structure itself: H = I definite but residual -1 != 0
    data = compute_rs(CandidateJ.standard(E1), FRAME, canonical_eta_basis(FRAME))
    assert index_from_h(data) == (3, 0)


def test_degenerate_h_raises():
    r = [[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]]
    s = [[Fraction(1), 0, 0], [0, 0, 0], [0, 0, 0]]
    data = ChernData(r, s)
    from g2kit.linalg import DegenerateFormError

    with pytest.raises(DegenerateFormError):
        index_from_h(data)


def test_contradiction_error_guard():
    from g2kit.chern import TheoremContradictionError, index_from_h as idx

    # residual zero with definite H cannot be realized by genuine matrices
    # (the determinant monotonicity argument), so the guard is exercised on
    # a stub carrying the impossible combination
    class Impossible:
        h_matrix = [[Fraction(1 if a == b else 0) for b in range(3)] for a in range(3)]
        residual = Fraction(0)
        residual_is_zero = True
        mode = EXACT

    with pytest.raises(TheoremContradictionError):
        idx(Impossible())
    # genuine data with definite H has nonzero residual: no flag
    data = compute_rs(CandidateJ.standard(E1), FRAME, canonical_eta_basis(FRAME))
    assert data.residual != 0
    assert index_from_h(data) == (3, 0)


def test_sweep_small():
    rep = signature_dichotomy_sweep(300, seed=11)
    assert rep["pass"]
    assert sum(rep["signature_counts"].values()) == 300
    assert set(rep["signature_counts"]) <= {"(1, 2)", "(2, 1)"}


@pytest.mark.parametrize(
    "seed, counts", [(0, (391, 209)), (1, (420, 180)), (11, (397, 203)), (2024, (417, 183))]
)
def test_sweep_counts_are_pinned(seed, counts):
    """The sweep's rng draws and its per-trial verdicts do not drift."""
    rep = signature_dichotomy_sweep(600, seed=seed)
    assert rep["signature_counts"] == {"(1, 2)": counts[0], "(2, 1)": counts[1]}


@pytest.mark.parametrize("seed", [*range(20), 4850])
def test_random_rz_pairs_matches_the_pair_reference(seed):
    """The flat generator gives the pair generator's datum (scale r, s_bar) from the same
    stream, 200 draws per seed.  The first r of seed 4850 is singular, so it is redrawn."""
    from g2kit import chern

    if seed == 4850:
        rng = random.Random(seed)
        first = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        assert zi_det3_reference(first) == (0, 0)
    new, ref = random.Random(seed), random.Random(seed)
    for _ in range(200):
        r, scale, s_bar = chern._random_rz_pairs(new)
        dr, di = linalg._zi3_det(r)
        assert scale == dr * dr + di * di > 0
        want_r, want_s = random_rz_pairs_reference(ref)
        assert flat3(want_r) == tuple(tuple(scale * x for x in part) for part in r)
        assert flat3(want_s) == s_bar
    assert new.getstate() == ref.getstate()


@pytest.mark.parametrize("trials, seed", [(-3, 200), (-1, 1), (2.5, 1), (True, 1)])
def test_sweep_rejects_bad_arguments(trials, seed):
    with pytest.raises(ValueError if type(trials) is int else TypeError):
        signature_dichotomy_sweep(trials, seed)


def test_sweep_of_zero_trials_is_an_empty_pass():
    rep = signature_dichotomy_sweep(0, seed=1)
    assert rep["trials"] == 0 and rep["signature_counts"] == {} and rep["pass"]
    assert rep["skipped_degenerate"] == 0


def jacobi_signature_reference(h):
    """The replaced sweep rule: sign changes of the leading minors (Jacobi), congruence when one is 0."""
    a, b = zi_mul_reference(h[0][0], h[1][1]), zi_mul_reference(h[0][1], h[1][0])
    minors = (h[0][0][0], a[0] - b[0], zi_det3_reference(h)[0])
    if minors[0] == 0 or minors[1] == 0:
        return linalg.signature([[ComplexRational(*x) for x in row] for row in h])
    seq = [1, *minors]
    changes = sum(1 for x, y in zip(seq, seq[1:]) if (x > 0) != (y > 0))
    return (3 - changes, changes)


def charpoly_coefficients(h):
    """(trace, sum of the principal 2x2 minors, det) of a 3x3 pair matrix, each as (re, im)."""
    c2 = (0, 0)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a, b = zi_mul_reference(h[i][i], h[j][j]), zi_mul_reference(h[i][j], h[j][i])
        c2 = (c2[0] + a[0] - b[0], c2[1] + a[1] - b[1])
    c1 = tuple(sum(h[i][i][part] for i in range(3)) for part in (0, 1))
    return c1, c2, zi_det3_reference(h)


_small = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -3])


@st.composite
def hermitian_pairs(draw):
    """3x3 hermitian Gaussian-integer matrices, often with zero diagonal entries and minors."""
    h = [[(0, 0)] * 3 for _ in range(3)]
    for i in range(3):
        h[i][i] = (draw(_small), 0)
        for j in range(i + 1, 3):
            h[i][j] = (draw(_small), draw(_small))
            h[j][i] = (h[i][j][0], -h[i][j][1])
    return h


@settings(max_examples=300, deadline=None)
@example([[(0, 0), (1, 0), (0, 0)], [(1, 0), (0, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)]])
@example([[(1, 0), (1, 0), (0, 0)], [(1, 0), (1, 0), (1, 0)], [(0, 0), (1, 0), (0, 0)]])
@example([[(0, 0), (0, 1), (0, 0)], [(0, -1), (0, 0), (0, 0)], [(0, 0), (0, 0), (-2, 0)]])
@example([[(-1, 0), (1, 0), (0, 0)], [(1, 0), (-2, 0), (0, 0)], [(0, 0), (0, 0), (-1, 0)]])
@given(hermitian_pairs())
def test_charpoly_inertia_matches_the_congruence(h):
    """Descartes on det(x - H) against linalg.signature and the replaced Jacobi rule.

    The examples have a zero leading entry or a zero leading 2x2 minor, the
    case the Jacobi rule handed to the congruence.
    """
    from g2kit.chern import _inertia3

    (c1, _), (c2, _), (c3, _) = charpoly_coefficients(h)
    if c3 == 0:
        return
    want = linalg.signature([[ComplexRational(*x) for x in row] for row in h])
    assert _inertia3(c1, c2, c3) == want == jacobi_signature_reference(h)


@st.composite
def general_pairs(draw):
    """3x3 Gaussian-integer matrices, hermitian or not, with small entries or entries near 2^80."""
    part = st.one_of(_small, st.integers(-(2**80), 2**80))
    return [[(draw(part), draw(part)) for _ in range(3)] for _ in range(3)]


_SINGULAR = [
    [[(0, 0)] * 3] * 3,
    [[(2**80, 0), (3, 2**80), (0, 0)], [(3, -(2**80)), (2**80, 0), (0, 0)], [(0, 0), (0, 0), (0, 0)]],
    [[(1, 1), (2, 0), (3, -1)], [(2, 2), (4, 0), (6, -2)], [(0, 1), (5, 5), (-2**80, 7)]],
    [[(x * y[0], x * y[1]) for y in ((1, 2), (2**80, -1), (0, 3))] for x in (1, -2, 2**79)],
]


@settings(max_examples=150, deadline=None)
@example(_SINGULAR[0], 1)
@example(_SINGULAR[1], 1)
@example(_SINGULAR[2], -3)
@example(_SINGULAR[3], 2**80 + 1)
@given(st.one_of(hermitian_pairs(), general_pairs()), st.sampled_from([1, -1, 2**80 + 1]))
def test_zi3_charpoly_matches_the_coefficient_reference(h, k):
    """The fused kernel's (c1, c2, c3) of det(x - kH) against trace, principal minors and
    ``_zi_det3``, on hermitian and general matrices, small, scaled by 2^80 + 1 or with entries
    near 2^80, and on singular matrices, where c3 is 0."""
    singular = h in _SINGULAR
    h = [[(k * x, k * y) for x, y in row] for row in h]
    got = linalg._zi3_charpoly(flat3(h))
    assert got == charpoly_coefficients(h)
    if singular:
        assert got[2] == (0, 0)


def test_sweep_runs_the_congruence_only_on_crosscheck_trials(monkeypatch):
    calls = []
    orig = linalg.signature
    monkeypatch.setattr(linalg, "signature", lambda *a: calls.append(None) or orig(*a))
    signature_dichotomy_sweep(401, seed=3)
    assert len(calls) == 3  # trials 0, 200 and 400


def test_sweep_raises_on_a_definite_h(monkeypatch):
    """The sweep and index_from_h share one guard; a definite verdict reaches it."""
    from g2kit import chern

    monkeypatch.setattr(chern, "_inertia3", lambda c1, c2, c3: (3, 0))
    monkeypatch.setattr(chern, "index_from_h", lambda data: (3, 0))
    with pytest.raises(chern.TheoremContradictionError, match=r"signature \(3, 0\)"):
        signature_dichotomy_sweep(5, seed=1)


def test_volume_projection_identity(rng):
    """The (3,0)-projection of d(omega) equals 12i (det conj(s) - det r).

    Independent route: d(omega) restricted to the tangent space is three
    times the tangential calibration form; its (3,0)-coefficient against the
    eta coframe is its exact evaluation on the complexified basis vectors
    Z_k = (v_k - i J v_k)/2, which satisfy eta_j(Z_k) = delta_jk.  This is
    the mechanism forcing the residual to vanish for integrable compatible
    structures, checked here on live data for several J.
    """
    from g2kit.sphere import phi_tangential

    half = Fraction(1, 2)
    rho = 3 * phi_tangential(E1)  # = d(omega) restricted, ambient form

    far_frame = random_rational_frame(rng)
    cases = [
        (rho, compute_rs(CandidateJ.standard(E1), FRAME, canonical_eta_basis(FRAME))),
        (rho, compute_rs(CandidateJ.flipped(FRAME, (2, 3)), FRAME, canonical_eta_basis(FRAME))),
        (rho, compute_rs(random_compatible_j(rng, FRAME), FRAME)),
        (rho, compute_rs(CandidateJ.minus_standard(E1), FRAME, canonical_eta_basis(FRAME))),
        (
            3 * phi_tangential(far_frame.x),
            compute_rs(random_compatible_j(rng, far_frame), far_frame),
        ),
    ]
    for three_form, data in cases:
        j = data.context["j"]
        z_vectors = []
        for v in data.context["eta_basis"]:
            jv = j.apply(v)
            z_vectors.append(
                tuple(half * a - half * I_EXACT * b for a, b in zip(v, jv))
            )
        coefficient = three_form.evaluate(z_vectors)
        expected = 12 * I_EXACT * (data.det_s.conjugate() - data.det_r)
        assert coefficient == expected
        # residual-zero data have no (3,0)-part: the integrability mechanism
        if data.residual == 0:
            assert coefficient == 0


def test_sweep_checks_survive_optimize_flag():
    """Under python -O each corrupted sweep step is still caught, by its own check."""
    import subprocess
    import sys

    script = """
import random, sys
from g2kit import chern, linalg
from g2kit.scalars import ComplexRational
if not sys.flags.optimize:
    sys.exit(3)
orig_pairs, orig_det, orig_charpoly = chern._random_rz_pairs, linalg._zi3_det, linalg._zi3_charpoly

def bumped(rng):
    r, scale, (re, im) = orig_pairs(rng)
    return r, scale, ((re[0] + 1, *re[1:]), im)

def transposed(rng):
    r, scale, s_bar = orig_pairs(rng)
    return r, scale, linalg._zi3_transpose(s_bar)

def rescaled(rng):
    r, scale, s_bar = orig_pairs(rng)
    return r, scale + 1, s_bar

def hermitian_det_off_by_one(m):
    d = orig_det(m)
    (re, im), (re_t, im_t) = m, linalg._zi3_transpose(m)
    if re == re_t and all(x == -y for x, y in zip(im, im_t)):
        return (d[0] + 1, d[1])
    return d

def c3_off_by_one(m):
    c1, c2, (re, im) = orig_charpoly(m)
    return c1, c2, (re + 1, im)

def c2_imaginary(m):
    c1, (re, im), c3 = orig_charpoly(m)
    return c1, (re, im + 1), c3

def raised(call):
    try:
        call()
    except chern.ChernCheckError as exc:
        return str(exc)
    return None

sweep = lambda: chern.signature_dichotomy_sweep(5, 1)
seen = []
# chern reaches the flat Gaussian-integer kernels as linalg attributes
for module, attr, fake in (
    (chern, "_random_rz_pairs", bumped),
    (chern, "_random_rz_pairs", rescaled),
    (chern, "_random_rz_pairs", transposed),
    (linalg, "_zi3_conj", lambda m: m),
    (linalg, "_zi3_det", hermitian_det_off_by_one),
    (chern, "index_from_h", lambda data: (3, 0)),
):
    orig = getattr(module, attr)
    setattr(module, attr, fake)
    seen.append(raised(sweep))
    if attr == "_random_rz_pairs":
        seen.append(raised(lambda: chern.random_residual_zero_data(random.Random(0))))
    setattr(module, attr, orig)
data = chern.random_residual_zero_data(random.Random(0))
orig_linalg_det = linalg.det
for fake_det in (ComplexRational(1, 1), 1.0 + 1.0j):
    linalg.det = lambda m, tol=0.0: fake_det
    seen.append(raised(lambda: data.block_det))
linalg.det = orig_linalg_det
for fake in (c3_off_by_one, c2_imaginary):
    linalg._zi3_charpoly = fake
    seen.append(raised(sweep))
print(seen)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([
        "residual is not zero",
        "residual is not zero",
        "residual is not zero",
        "residual is not zero",
        "t(r) conj(s) is not symmetric",
        "t(r) conj(s) is not symmetric",
        "hermitian minors must be real",
        "det(P) != |det r|^2",
        "minor/congruence signature mismatch",
        "block determinant must be real",
        "block determinant must be real",
        "c3 != det(H)",
        "hermitian minors must be real",
    ])


@pytest.mark.parametrize("k", [3, -3, -5])
def test_float_residual_verdict_is_gauge_invariant(k):
    """Rescaling the eta basis scales the raw residual by 10^(3k), not the verdict.

    equivariance_check with h = 10^k I must pass as a whole: its float
    tolerances scale with h.
    """
    import random

    from g2kit.sphere import frame_at_float_point

    frame = frame_at_float_point(random.Random(3), None)
    basis = [tuple(10.0**k * x for x in v) for v in canonical_eta_basis(frame)]
    h = [[10.0**k if a == b else 0.0 for b in range(3)] for a in range(3)]
    identity = [[1.0 if a == b else 0.0 for b in range(3)] for a in range(3)]
    for planes, sig, zero in (((), (3, 0), False), ((2, 3), (1, 2), True)):
        j = CandidateJ.flipped(frame, planes)
        data = compute_rs(j, frame, basis)
        assert data.residual_is_zero is zero
        assert index_from_h(data) == sig
        rep = equivariance_check(j, frame, identity, h, canonical_eta_basis(frame))
        assert rep["residual_vanishing_invariant"]
        assert rep["pass"], rep


def test_float_index_does_not_change_with_the_scale_of_the_eta_basis():
    """rank and signature read their float tolerance relative to the input's largest entry.

    With an absolute pivot bound, the basis times 10^k raised DegenerateFormError
    for k = -6..-8 and NotComplexStructureError for k <= -9.
    """
    import random

    from g2kit.sphere import frame_at_float_point

    frame = frame_at_float_point(random.Random(1), None)
    j = CandidateJ.flipped(frame, (2, 3))
    for k in range(-12, 13):
        basis = [tuple(10.0**k * x for x in v) for v in canonical_eta_basis(frame)]
        assert index_from_h(compute_rs(j, frame, basis)) == (1, 2), k


@pytest.mark.parametrize("k", [3, -3, -5])
def test_equivariance_r_tolerance_is_relative(k, monkeypatch):
    """A relative error of 1e-6 in the recomputed r is caught at every scale of h."""
    import random

    from g2kit import chern
    from g2kit.sphere import frame_at_float_point

    frame = frame_at_float_point(random.Random(3), None)
    seen = []

    def skewed(j, frame, eta_basis=None):
        data = compute_rs(j, frame, eta_basis)
        seen.append(data)
        if len(seen) == 2:  # the datum recomputed in the new gauge
            return ChernData([[x * (1 + 1e-6) for x in row] for row in data.r], data.s)
        return data

    monkeypatch.setattr(chern, "compute_rs", skewed)
    h = [[10.0**k if a == b else 0.0 for b in range(3)] for a in range(3)]
    identity = [[1.0 if a == b else 0.0 for b in range(3)] for a in range(3)]
    rep = equivariance_check(CandidateJ.flipped(frame, (2, 3)), frame, identity, h,
                             canonical_eta_basis(frame))
    assert not rep["r_transforms"] and rep["s_transforms"]


def test_equivariance_check_reports_at_large_eta_scale():
    """An eta basis scaled by 10^8 is still tangent: the tangency test scales with |v|.

    u.v carries rounding of order 1e-16 |v|, so an absolute 1e-8 rejected
    these vectors and equivariance_check raised instead of reporting.
    """
    import random

    from g2kit.sphere import frame_at_float_point

    frame = frame_at_float_point(random.Random(3), None)
    h = [[1e8 if a == b else 0.0 for b in range(3)] for a in range(3)]
    identity = [[1.0 if a == b else 0.0 for b in range(3)] for a in range(3)]
    for planes in ((), (2, 3)):
        j = CandidateJ.flipped(frame, planes)
        rep = equivariance_check(j, frame, identity, h, canonical_eta_basis(frame))
        assert rep["pass"], rep


def test_each_chern_product_is_formed_once(monkeypatch):
    """t(conj(s)) r is the transpose of t(r) conj(s): one mat_mul decides compatibility."""
    import random

    data = random_residual_zero_data(random.Random(0))
    calls = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    assert is_omega_compatible_data(data)
    assert len(calls) == 1
    m20, m11, m02 = omega_type_components(data)
    gamma = data.gamma_matrix
    assert len(calls) == 1 + 3 + 1  # t(r)conj(s), P and Q for H, t(r)conj(s)
    a = mat_mul(linalg.transpose([list(r) for r in data.r]), linalg.mat_conj([list(r) for r in data.s]))
    b = mat_mul(linalg.transpose(linalg.mat_conj([list(r) for r in data.s])), [list(r) for r in data.r])
    assert m20 == linalg.mat_scale(I_EXACT, linalg.mat_sub(a, b))
    assert gamma == linalg.mat_scale(Fraction(1, 2), linalg.mat_add(a, b))


def test_sweep_reports_skipped_degenerate_trials(monkeypatch):
    """A datum with degenerate H is skipped, counted, and replaced by a fresh trial."""
    from g2kit import chern

    orig, calls = chern._random_rz_pairs, []

    def degenerate_once(rng):
        calls.append(None)
        if len(calls) == 1:
            zero = (0,) * 9, (0,) * 9
            return zero, 1, zero
        return orig(rng)

    monkeypatch.setattr(chern, "_random_rz_pairs", degenerate_once)
    rep = signature_dichotomy_sweep(5, seed=1)
    assert rep["skipped_degenerate"] == 1
    assert sum(rep["signature_counts"].values()) == 5 and len(calls) == 6
    assert rep["pass"]
    monkeypatch.undo()
    assert signature_dichotomy_sweep(5, seed=1)["skipped_degenerate"] == 0


# ---------------------------------------------------------------------------
# the shared greedy J-basis against the loop it replaced
# ---------------------------------------------------------------------------

def default_eta_basis_reference(j, tol=1e-8):
    """The greedy loop that ``default_eta_basis`` ran before ``compat.complex_basis``, on the
    rank loop of ``conftest`` at the pivot tolerance it read then."""
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
        if rank_loop(candidate, 0.0 if exact else tol) == len(candidate):
            span_rows = candidate
            chosen.append(seed)
        if len(chosen) == 3:
            return chosen
    raise NotComplexStructureError("could not find a J-complex basis of u-perp")


def _typed_bits(vectors):
    return [
        (type(v), [(type(x), x.hex() if isinstance(x, float) else x) for x in v])
        for v in vectors
    ]


def _float_frame(frame):
    return AdaptedFrame([[float(x) for x in row] for row in frame.matrix], check=False)


def _structure_case(source, exact, seed):
    """A structure J at a frame, as (CandidateJ, its 6x6 matrix in the frame basis, frame).

    ``compatible``: a symplectic conjugate of the standard structure;
    ``flipped``: the plane-flip family over a random subset of planes;
    ``elliptic``: K / sqrt(-lambda) of a random elliptic 3-form, lifted
    ambiently; exact input gives a float J when -lambda is not a rational
    square, and a pulled-back normal form always gives an exact one.
    """
    rng = random.Random(seed)
    if source == "compatible":
        j = random_compatible_j(rng, FRAME)
        if exact:
            return j, j.tangent_matrix(FRAME), FRAME
        j6 = [[float(x) for x in row] for row in j.tangent_matrix(FRAME)]
        frame = _float_frame(FRAME)
        return CandidateJ.from_tangent_matrix(frame, j6), j6, frame
    frame = random_rational_frame(rng) if exact else frame_at_float_point(rng, None)
    if source == "flipped":
        planes = tuple(k for k in (1, 2, 3) if rng.random() < 0.5)
        j = CandidateJ.flipped(frame, planes)
        return j, j.tangent_matrix(frame), frame
    cls = None
    if rng.random() < 0.5:
        rho = elliptic_normal_form().pullback(random_invertible_rational(rng, 6))
        cls = classify_3form(rho if exact else rho.as_float())
    while cls is None or cls.tag != "elliptic":
        rho = rand_form(rng, 6, 3, nterms=rng.randint(4, 20))
        cls = classify_3form(rho if exact else rho.as_float())
    j6 = cls.j_matrix
    if isinstance(j6[0][0], float) and frame.mode == EXACT:
        frame = _float_frame(frame)
    return CandidateJ.from_tangent_matrix(frame, j6), j6, frame


# seed 199 gives a float symplectic conjugate with max|J| near 1.4e4, and seed
# 13118 one with a J^2 defect of 4.66e-10; an absolute 1e-10 bound rejected both.
# Elliptic seeds 870 and 13259540 pull back a normal form whose float J has
# large entries (max|J| 3835 at 870, where max|J^2 + I| is 1.75e-10), which
# compat.check_complex_structure rejected under the same absolute bound
@settings(max_examples=40, deadline=None)
@given(
    source=st.sampled_from(["compatible", "flipped", "elliptic"]),
    exact=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(source="compatible", exact=False, seed=199)
@example(source="compatible", exact=False, seed=13118)
@example(source="elliptic", exact=False, seed=870)
@example(source="elliptic", exact=False, seed=13259540)
def test_complex_basis_matches_the_replaced_loops(source, exact, seed):
    """``default_eta_basis`` gives the old vectors, bit for bit."""
    j = _structure_case(source, exact, seed)[0]
    assert _typed_bits(default_eta_basis(j)) == _typed_bits(default_eta_basis_reference(j))


@pytest.mark.parametrize("seed", [199, 13118])
def test_float_candidate_bound_scales_with_the_entries(seed):
    """A float J with large entries is accepted; one entry moved by 1e-6 max|J| is not.

    The rounding error of J^2 grows with |J|^2, and so does the defect bound.
    """
    j, _, _ = _structure_case("compatible", False, seed)
    rows = [list(r) for r in j.matrix]
    big = max(abs(x) for row in rows for x in row)
    a, b = next((a, b) for a in range(7) for b in range(7) if abs(rows[a][b]) == big)
    rows[a][b] += 1e-6 * big
    with pytest.raises(NotComplexStructureError):
        CandidateJ(j.point, rows)


# ---------------------------------------------------------------------------
# the frame products against the loops that linalg.mat_mul replaced
# ---------------------------------------------------------------------------

def theta_values_reference(frame, v):
    """(theta_1(v), theta_2(v), theta_3(v)), one pair of dot products per theta_j."""
    exact = frame.mode == EXACT
    out = []
    for j in (1, 2, 3):
        a, b = frame.col(2 * j), frame.col(2 * j + 1)
        da, db = dot(a, v), dot(b, v)
        if exact:
            out.append(ComplexRational(Fraction(db) / 2, -Fraction(da) / 2))
        else:
            out.append((to_float(db) - 1j * to_float(da)) / 2.0)
    return out


def rs_reference(j, frame, basis):
    """(r, s) from the theta values of each v_l and J v_l, the loop ``compute_rs`` ran."""
    exact = j.mode == EXACT and frame.mode == EXACT
    half = Fraction(1, 2) if exact else 0.5
    i_unit = I_EXACT if exact else 1j
    r = [[None] * 3 for _ in range(3)]
    s = [[None] * 3 for _ in range(3)]
    for l, v in enumerate(basis):
        tv = theta_values_reference(frame, v)
        tjv = theta_values_reference(frame, j.apply(v))
        for jrow in range(3):
            r[jrow][l] = half * (tv[jrow] - i_unit * tjv[jrow])
            s[jrow][l] = half * (tv[jrow] + i_unit * tjv[jrow])
    return r, s


def tangent_matrix_reference(j, frame):
    """g_p . J g_t for the tangent columns, one dot product per entry."""
    cols = frame.tangent_columns()
    return [[dot(cols[p], j.apply(cols[t])) for t in range(6)] for p in range(6)]


def from_tangent_matrix_reference(frame, m6):
    """The ambient rows sum_t (sum_p m6[p][t] g_p) outer g_t, entry by entry."""
    cols = frame.tangent_columns()
    rows = [[Fraction(0) if frame.mode == EXACT else 0.0] * 7 for _ in range(7)]
    for t in range(6):
        image = [sum(m6[p][t] * cols[p][i] for p in range(6)) for i in range(7)]
        for i in range(7):
            for k in range(7):
                rows[i][k] += image[i] * cols[t][k]
    return rows


def mixed_basis_reference(j, basis, h):
    """sum_l Re(h_lk) v_l + Im(h_lk) J v_l for k = 1, 2, 3, vector by vector."""
    out = []
    for k in range(3):
        vec = None
        for l in range(3):
            a, b = h[l][k].real, h[l][k].imag
            jv = j.apply(basis[l])
            term = [a * basis[l][i] + b * jv[i] for i in range(7)]
            vec = term if vec is None else [x + y for x, y in zip(vec, term)]
        out.append(tuple(vec))
    return out


def _typed_reprs(m):
    return [[(type(x), repr(x)) for x in row] for row in m]


def _assert_close(got, want):
    """Exact entries equal in value; float entries within 1e-12 of the largest entry."""
    scale = max([1.0] + [abs(to_float(x)) for row in want for x in row])
    for g_row, w_row in zip(got, want, strict=True):
        for g, w in zip(g_row, w_row, strict=True):
            if isinstance(w, float) or isinstance(g, float):
                assert abs(g - w) <= 1e-12 * scale, (g, w)
            else:
                assert g == w


@settings(max_examples=40, deadline=None)
@given(
    source=st.sampled_from(["compatible", "flipped", "elliptic"]),
    exact=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(source="elliptic", exact=False, seed=870)
@example(source="elliptic", exact=False, seed=13259540)
def test_frame_products_match_the_replaced_loops(source, exact, seed):
    """(r, s) and the tangent matrix keep their types and reprs; the lift and the gauge basis their values."""
    from g2kit import chern

    j, j6, frame = _structure_case(source, exact, seed)
    assert _typed_reprs(j.tangent_matrix(frame)) == _typed_reprs(tangent_matrix_reference(j, frame))
    bases = [default_eta_basis(j)] + ([canonical_eta_basis(frame)] if source == "flipped" else [])
    for basis in bases:
        data = compute_rs(j, frame, basis)
        r, s = rs_reference(j, frame, basis)
        assert _typed_reprs(data.r + data.s) == _typed_reprs(r + s)
    lifted = CandidateJ.from_tangent_matrix(frame, j6)
    _assert_close(lifted.matrix, from_tangent_matrix_reference(frame, j6))

    h = random_gl3_complex(random.Random(seed))
    if frame.mode != EXACT:
        h = [[complex(x) for x in row] for row in h]
    identity = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
    seen = []
    compute = chern.compute_rs
    with pytest.MonkeyPatch.context() as mp:  # records each eta basis that compute_rs gets
        mp.setattr(chern, "compute_rs", lambda *args: seen.append(args[2]) or compute(*args))
        equivariance_check(j, frame, identity, h, bases[0])
    _assert_close(seen[1], mixed_basis_reference(j, bases[0], h))


def test_tangent_matrix_checks_the_base_point_and_the_mode():
    """A frame at another point raises ValueError, and one of the other mode MixedModeError."""
    j = CandidateJ.standard(E1)
    frame = random_rational_frame(random.Random(0))
    for call in (j.tangent_matrix, lambda f: compute_rs(j, f)):
        with pytest.raises(ValueError, match="different points"):
            call(frame)
        with pytest.raises(MixedModeError):
            call(_float_frame(FRAME))
