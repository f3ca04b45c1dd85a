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


@pytest.mark.parametrize(
    "seed, counts", [(0, (391, 209)), (1, (420, 180)), (11, (397, 203)), (2024, (417, 183))]
)
def test_sweep_counts_are_pinned(seed, counts):
    """The sweep's rng draws and its per-trial verdicts do not drift."""
    rep = signature_dichotomy_sweep(600, seed=seed)
    assert rep["signature_counts"] == {"(1, 2)": counts[0], "(2, 1)": counts[1]}


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "be31cb4fe31dff80e05eba876fc893fd2ca82b36bf434afd4bec27e106d462a7"),
        (1, "aa57524e65a4b411a9773fa676c0488ab75b1ba35269098d606a880f91c4cc76"),
        (2, "29764a31faec485934d3bc7fd5e91ea234aa24696bae300fff7ef3232d80a1bc"),
        (3, "71d85c711da96fa08cc2dc189978de6d50eafa2870fa829612ab8eb5247816b1"),
    ],
)
def test_sweep_report_is_pinned(seed, digest):
    """The whole report, skipped_degenerate included, by sha256 of its sorted JSON."""
    import hashlib
    import json

    rep = signature_dichotomy_sweep(200, seed=seed)
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "trials, crosscheck_every", [(-3, 200), (-1, 1), (5, 0), (5, -2), (0, 0)]
)
def test_sweep_rejects_bad_arguments(trials, crosscheck_every):
    with pytest.raises(ValueError):
        signature_dichotomy_sweep(trials, seed=1, crosscheck_every=crosscheck_every)


def test_sweep_of_zero_trials_is_an_empty_pass():
    rep = signature_dichotomy_sweep(0, seed=1)
    assert rep["trials"] == 0 and rep["signature_counts"] == {} and rep["pass"]
    assert rep["skipped_degenerate"] == 0


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
orig_pairs, orig_det = chern._random_rz_pairs, linalg._zi_det3

def bumped(rng):
    r, s_bar = orig_pairs(rng)
    s_bar[0][0] = (s_bar[0][0][0] + 1, s_bar[0][0][1])
    return r, s_bar

def transposed(rng):
    r, s_bar = orig_pairs(rng)
    return r, linalg.transpose(s_bar)

def hermitian_det_off_by_one(m):
    d = orig_det(m)
    if all(m[i][j] == (m[j][i][0], -m[j][i][1]) for i in range(3) for j in range(3)):
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
# chern reaches the Gaussian-integer pair helpers as linalg attributes
for module, attr, fake in (
    (chern, "_random_rz_pairs", bumped),
    (chern, "_random_rz_pairs", transposed),
    (linalg, "_zi_conj", lambda m: m),
    (linalg, "_zi_det3", hermitian_det_off_by_one),
    (chern, "index_from_h", lambda data: (3, 0)),
):
    orig = getattr(module, attr)
    setattr(module, attr, fake)
    seen.append(raised(sweep))
    if attr == "_random_rz_pairs":
        seen.append(raised(lambda: chern.random_residual_zero_data(random.Random(0))))
    setattr(module, attr, orig)
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


def test_gaussian_rational_outputs_are_pinned():
    """r, s and the index of H at random exact frames, by repr: values and types."""
    import hashlib
    import random

    digests = []
    for seed in range(4):
        frame = random_rational_frame(random.Random(seed))
        for j in (CandidateJ.standard(frame.x), CandidateJ.flipped(frame, (2, 3))):
            data = compute_rs(j, frame)
            text = repr((data.r, data.s, index_from_h(data)))
            digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert digests == [
        "573755c7e4e2599bede34fbc389b7d9be714a153c94ab664a71a1d40c593a27c",
        "4490ea145b8fbc68183d81a298870b06fd953d21a4dfb3ecd2ead1c5741fa765",
        "d744e84b5ae319b1af64367b8be825b3617db733777307bafc3aa6dc0ebe6af0",
        "81b51d103230919d8f271e88f8b5a46d48c5ac17289b95250243ff933273c1e8",
        "4bbf43b01e875744d8c02cff302b77a6f194c23fe3c0422b431442ecab06f41a",
        "e9eee7a2e9cb8ea8e115f086a9929c6367d8c36b54856bee5beb2bed0bedc5fa",
        "14f4e258bf817635ede107491ab7804c9936ca1011f6426276219d4531032c1c",
        "604f4720f46371720a80922a857f7ac4fd046953fc806b3a61f7e19e18a00f9e",
    ]


def test_sweep_reports_skipped_degenerate_trials(monkeypatch):
    """A datum with degenerate H is skipped, counted, and replaced by a fresh trial."""
    from g2kit import chern

    orig, calls = chern._random_rz_pairs, []

    def degenerate_once(rng):
        calls.append(None)
        if len(calls) == 1:
            zero = [[(0, 0)] * 3 for _ in range(3)]
            return zero, [row[:] for row in zero]
        return orig(rng)

    monkeypatch.setattr(chern, "_random_rz_pairs", degenerate_once)
    rep = signature_dichotomy_sweep(5, seed=1)
    assert rep["skipped_degenerate"] == 1
    assert sum(rep["signature_counts"].values()) == 5 and len(calls) == 6
    assert rep["pass"]
    monkeypatch.undo()
    assert signature_dichotomy_sweep(5, seed=1)["skipped_degenerate"] == 0
