from fractions import Fraction

import pytest

from g2kit import linalg
from g2kit.chern import (
    CandidateJ,
    ChernData,
    canonical_eta_basis,
    chern_residual,
    compute_rs,
    equivariance_check,
    index_from_h,
    is_omega_compatible_data,
    omega_type_components,
    random_residual_zero_data,
    reconstruction_defects,
    signature_dichotomy_sweep,
    upsilon_type_extremes,
)
from g2kit.compat import is_compatible_omega
from g2kit.g2 import dot, frame_rotate, standard_frame
from g2kit.sampling import (
    random_gl3_complex,
    random_rational_frame,
    random_su3,
    random_symplectic,
)
from g2kit.scalars import ComplexRational, I_EXACT
from g2kit.sphere import basis_point, omega_at, standard_j

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


def minus(m):
    return [[-x for x in row] for row in m]


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


def test_standard_structure_matrices():
    j = CandidateJ.standard(E1)
    data = compute_rs(j, FRAME, canonical_eta_basis(FRAME))
    assert data.r == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert all(not x for row in data.s for x in row)
    assert chern_residual(data) == -1
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
    assert chern_residual(data) == 1
    assert data.orientation == -1
    assert index_from_h(data) == (0, 3)


def test_flipped_family_matrices():
    j = CandidateJ.flipped(FRAME, (2, 3))
    data = compute_rs(j, FRAME, canonical_eta_basis(FRAME))
    assert data.r == ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    assert data.s == ((0, 0, 0), (0, 1, 0), (0, 0, 1))
    assert chern_residual(data) == 0
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
    assert chern_residual(data) == 0
    assert index_from_h(data) == (1, 2)
    assert is_omega_compatible_data(data)
    # rotating within the stabilizer keeps the family's invariants
    rotated = frame_rotate(frame, random_su3(rng))
    j2 = CandidateJ.flipped(rotated, (2, 3))
    d2 = compute_rs(j2, rotated, canonical_eta_basis(rotated))
    assert chern_residual(d2) == 0
    assert index_from_h(d2) == (1, 2)


def test_det_scaling_example():
    r = [[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(2)]]
    s = [[Fraction(0)] * 3 for _ in range(3)]
    data = ChernData(r, s)
    assert upsilon_type_extremes(data) == (16, 0)


def test_constructed_equal_determinants_give_zero_residual():
    # det r = det(conj(s)) = 5 by construction
    r = [[Fraction(5), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]]
    s = [[Fraction(5), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]]
    assert chern_residual(ChernData(r, s)) == 0


def test_default_eta_basis_gauge_free_verdicts(rng):
    """The default eta gauge changes (r, s) but not the exported verdicts."""
    j = CandidateJ.standard(E1)
    data = compute_rs(j, FRAME)  # default greedy basis
    assert chern_residual(data) != 0
    assert index_from_h(data) == (3, 0)
    assert data.orientation == 1
    om_defect, g_defect = reconstruction_defects(data)
    assert om_defect == 0 and g_defect == 0


def test_reconstruction_random_compatible(rng):
    j = random_compatible_j(rng, FRAME)
    data = compute_rs(j, FRAME)
    om_defect, g_defect = reconstruction_defects(data)
    assert om_defect == 0 and g_defect == 0
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
    # the type-decomposition reconstructions hold for any structure
    om_defect, g_defect = reconstruction_defects(data_bad)
    assert om_defect == 0 and g_defect == 0


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
    from g2kit.scalars import sconj

    data = random_residual_zero_data(rng)
    assert data.residual == 0
    assert is_omega_compatible_data(data)
    det_p = linalg.det(data.p_matrix)
    assert det_p == data.det_r * sconj(data.det_r)
    det_q = linalg.det(data.q_matrix)
    assert det_q == data.det_s * sconj(data.det_s)
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


def test_volume_projection_identity(rng):
    """The (3,0)-projection of d(omega) equals 12i (det conj(s) - det r).

    Independent route: d(omega) restricted to the tangent space is three
    times the tangential calibration form; its (3,0)-coefficient against the
    eta coframe is its exact evaluation on the complexified basis vectors
    Z_k = (v_k - i J v_k)/2, which satisfy eta_j(Z_k) = delta_jk.  This is
    the mechanism forcing the residual to vanish for integrable compatible
    structures, checked here on live data for several J.
    """
    from g2kit.scalars import sconj
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
        expected = 12 * I_EXACT * (sconj(data.det_s) - data.det_r)
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
orig_pairs, orig_det = chern._random_rz_pairs, chern._gdet3

def bumped(rng):
    r, s_bar = orig_pairs(rng)
    s_bar[0][0] = (s_bar[0][0][0] + 1, s_bar[0][0][1])
    return r, s_bar

def transposed(rng):
    r, s_bar = orig_pairs(rng)
    return r, chern._gtranspose(s_bar)

def hermitian_det_off_by_one(m):
    d = orig_det(m)
    if all(m[i][j] == chern._gconj(m[j][i]) for i in range(3) for j in range(3)):
        return (d[0] + 1, d[1])
    return d

def raised(call):
    try:
        call()
    except chern.ChernCheckError as exc:
        return str(exc)
    return None

sweep = lambda: chern.signature_dichotomy_sweep(5, 1)
seen = []
for attr, fake in (
    ("_random_rz_pairs", bumped),
    ("_random_rz_pairs", transposed),
    ("_gmat_conj", lambda m: m),
    ("_gdet3", hermitian_det_off_by_one),
    ("index_from_h", lambda data: (3, 0)),
):
    orig = getattr(chern, attr)
    setattr(chern, attr, fake)
    seen.append(raised(sweep))
    if attr == "_random_rz_pairs":
        seen.append(raised(lambda: chern.random_residual_zero_data(random.Random(0))))
    setattr(chern, attr, orig)
data = chern.random_residual_zero_data(random.Random(0))
for fake_det in (ComplexRational(1, 1), 1.0 + 1.0j):
    linalg.det = lambda m, tol=0.0: fake_det
    seen.append(raised(lambda: data.block_det))
print(seen)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([
        "residual is not zero",
        "residual is not zero",
        "t(r) conj(s) is not symmetric",
        "t(r) conj(s) is not symmetric",
        "hermitian minors must be real",
        "det(P) != |det r|^2",
        "minor/congruence signature mismatch",
        "block determinant must be real",
        "block determinant must be real",
    ])


@pytest.mark.parametrize("k", [3, -3, -5])
def test_float_residual_verdict_is_gauge_invariant(k):
    """Rescaling the eta basis scales the raw residual by 10^(3k), not the verdict."""
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
