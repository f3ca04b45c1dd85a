"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance and runtime bound is pinned here; nothing is deferred.
"""

import random
import time
from fractions import Fraction

import numpy as np

from g2kit import linalg
from g2kit.chern import (
    CandidateJ,
    canonical_eta_basis,
    compute_rs,
    equivariance_check,
    index_from_h,
    signature_dichotomy_sweep,
)
from g2kit.compat import compatibility_space_dims
from g2kit.dga import CoframeDGA
from g2kit.forms import ExteriorForm, pullback
from g2kit.g2 import cross, dot, standard_frame
from g2kit.sampling import (
    random_gl3_complex,
    random_invertible_rational,
    random_rational_frame,
    random_su3,
)
from g2kit.sphere import (
    basis_point,
    frame_at_float_point,
    nijenhuis_sphere,
    phi_tangential,
    random_float_point,
    upsilon_at,
    verify_domega_pointwise,
)
from g2kit.threeforms import (
    classify_3form,
    elliptic_normal_form,
    split_normal_form,
)

from conftest import e7, rand_vector


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_cross_product_algebra():
    t0 = time.monotonic()
    assert cross(e7(1), e7(2)) == e7(3)
    assert cross(e7(1), cross(e7(1), e7(2))) == tuple(-x for x in e7(2))
    rng = random.Random(101)
    for _ in range(1000):
        u, v = rand_vector(rng, 7), rand_vector(rng, 7)
        lhs = cross(u, cross(u, v))
        uv, uu = dot(u, v), dot(u, u)
        assert lhs == tuple(uv * a - uu * b for a, b in zip(u, v))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(1, f"cross-product algebra, 1000 exact trials with zero residual ({elapsed:.2f}s < 5s)")


def test_criterion_2_structure_equation_consistency():
    t0 = time.monotonic()
    dga = CoframeDGA()
    rep = dga.verify_d_squared()
    assert len(rep) == 14
    assert all(r["pass"] for r in rep)
    detected = []
    for mutation in CoframeDGA.MUTATIONS:
        bad = CoframeDGA(mutation=mutation)
        detected.append(not all(r["pass"] for r in bad.verify_d_squared()))
    assert all(detected)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(
        2,
        f"d^2 = 0 exactly for all 14 generators; "
        f"{len(detected)}/{len(detected)} coefficient mutations detected ({elapsed:.2f}s < 10s)",
    )


def test_criterion_3_invariant_form_identities():
    dga = CoframeDGA()
    rep = {r["check"]: r["pass"] for r in dga.verify_invariant_form_identities()}
    assert rep["d_omega_is_3_im_upsilon"]
    assert rep["d_upsilon_is_2_omega_sq"]

    # pointwise: exact at rational points (the base point and random exact frames)
    e1 = basis_point(1)
    assert upsilon_at(e1, standard_frame()).imag() == phi_tangential(e1)
    rng = random.Random(55)
    for _ in range(3):
        frame = random_rational_frame(rng)
        assert upsilon_at(frame.x, frame).imag() == phi_tangential(frame.x)

    sampled = verify_domega_pointwise(samples=100, seed=17, tol=1e-10)
    assert sampled["pass"] and sampled["max_defect"] < 1e-10
    report(
        3,
        "symbolic residuals of d(omega) - 3 Im(Upsilon) and d(Upsilon) - 2 omega^2 are zero; "
        f"pointwise identity exact at rational points, max defect {sampled['max_defect']:.2e} < 1e-10 "
        "over 100 float samples",
    )


def test_criterion_4_frobenius_system():
    dga = CoframeDGA()
    rep = dga.verify_frobenius_system()
    assert [r["generator"] for r in rep] == ["t1", "t2b", "t3b", "k12", "k13"]
    assert all(r["pass"] for r in rep)
    control = dga.verify_frobenius_system(("t1",))
    assert not all(r["pass"] for r in control)
    report(4, "all five system generators pass ideal membership exactly; control {t1} fails")


def test_criterion_5_dimension_counts():
    d3 = compatibility_space_dims(3)
    assert (d3["total"], d3["omega_compatible"], d3["g_compatible"]) == (18, 12, 6)
    frozen = {1: (2, 2, 0), 2: (8, 6, 2)}
    for n, expected in frozen.items():
        d = compatibility_space_dims(n)
        assert (d["total"], d["omega_compatible"], d["g_compatible"]) == expected
        # rank evidence: kernel dims come from the achieved ranks
        ev = d["evidence"]
        assert ev["matrix_space_dim"] - ev["rank_anticommutator"] == d["total"]
    report(5, "dimension counts (18, 12, 6) at n=3; n=1,2 match the rank oracles")


def test_criterion_6_threeform_classification():
    split = classify_3form(split_normal_form())
    assert split.tag == "split" and split.discriminant > 0

    ell = classify_3form(elliptic_normal_form())
    assert ell.tag == "elliptic" and ell.discriminant < 0
    j2 = linalg.mat_mul(ell.j_matrix, ell.j_matrix)
    assert all(j2[a][b] == (-1 if a == b else 0) for a in range(6) for b in range(6))

    # recovered Upsilon: with the normalization 3 Im(Upsilon) = input, the
    # 3-scaled normal form recovers the product (e1+ie2)^(e3+ie4)^(e5+ie6)
    from g2kit.scalars import I_EXACT

    def cov(a):
        return ExteriorForm.from_covector([Fraction(1 if i == a - 1 else 0) for i in range(6)])

    product = (cov(1) + I_EXACT * cov(2)).wedge(cov(3) + I_EXACT * cov(4)).wedge(
        cov(5) + I_EXACT * cov(6)
    )
    scaled = classify_3form(3 * elliptic_normal_form())
    assert scaled.upsilon == product

    rng = random.Random(606)
    for rho, tag in ((split_normal_form(), "split"), (elliptic_normal_form(), "elliptic")):
        for _ in range(200):
            a = random_invertible_rational(rng, 6, bound=3)
            assert classify_3form(pullback(rho, a)).tag == tag
    report(
        6,
        "split/elliptic normal forms classified with exact J^2 = -I and the product "
        "complex volume recovered; tags invariant under 200 random rational pullbacks each",
    )


def test_criterion_7_elliptic_definiteness_of_the_sphere():
    from g2kit.almost_symplectic import elliptic_definite_check, primitive_decompose
    from g2kit.g2 import associative_three_form
    from g2kit.sphere import omega_at

    rng = random.Random(77)
    worst = 0.0
    for _ in range(100):
        frame = frame_at_float_point(rng, None)
        u = frame.x
        basis = [list(b) for b in frame.tangent_columns()]
        om6 = omega_at(u).restrict(basis)
        dom6 = (3.0 * associative_three_form().as_float()).restrict(basis)
        lam, pi = primitive_decompose(om6, dom6)
        worst = max(worst, lam.norm_inf())
        rep = elliptic_definite_check(om6, dom6, tol=1e-12)
        assert rep.tag == "elliptic"
        assert rep.signature == (3, 0)
        assert rep.elliptic_definite
    assert worst < 1e-10
    report(
        7,
        f"100 sampled points: primitive part elliptic, conformal 1-form defect "
        f"{worst:.2e} < 1e-10, hermitian signature (3,0) everywhere",
    )


def test_criterion_8_chern_identity_mechanics():
    t0 = time.monotonic()
    frame = standard_frame()
    e1 = basis_point(1)

    data_std = compute_rs(CandidateJ.standard(e1), frame, canonical_eta_basis(frame))
    assert data_std.residual == -1

    rng = random.Random(808)
    checked = 0
    while checked < 20:
        u = random_float_point(rng)
        uv = np.asarray(u)
        x = np.asarray([rng.gauss(0, 1) for _ in range(7)])
        y = np.asarray([rng.gauss(0, 1) for _ in range(7)])
        x -= (x @ uv) * uv
        y -= (y @ uv) * uv
        gram = (x @ x) * (y @ y) - (x @ y) ** 2
        if gram < 1e-6:  # skip nearly dependent pairs (N vanishes by antisymmetry)
            continue
        n1 = np.linalg.norm(nijenhuis_sphere(u, x, y, h=1e-4))
        n2 = np.linalg.norm(nijenhuis_sphere(u, x, y, h=5e-5))
        assert n1 > 1e-6
        assert abs(n1 - n2) <= 0.05 * max(n2, 1e-12)
        checked += 1

    data_flip = compute_rs(CandidateJ.flipped(frame, (2, 3)), frame, canonical_eta_basis(frame))
    assert data_flip.residual == 0
    assert index_from_h(data_flip) == (1, 2)

    sweep = signature_dichotomy_sweep(10_000, seed=2024)
    assert sweep["pass"] and not sweep["definite_seen"]
    assert set(sweep["signature_counts"]) <= {"(1, 2)", "(2, 1)"}
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(
        8,
        "reference structure: residual -1 and nonvanishing torsion stable under step halving "
        "at 20 triples; plane-flipped family: residual exactly 0, index (1,2); 10^4 residual-zero "
        f"samples never definite {sweep['signature_counts']} ({elapsed:.1f}s < 120s)",
    )


def test_criterion_9_equivariance():
    frame = standard_frame()
    e1 = basis_point(1)
    structures = [
        (CandidateJ.standard(e1), False),
        (CandidateJ.flipped(frame, (2, 3)), True),
    ]
    rng = random.Random(909)
    trials = 0
    for j, residual_zero in structures:
        for _ in range(50):
            g = random_su3(rng)
            h = random_gl3_complex(rng)
            rep = equivariance_check(j, frame, g, h, canonical_eta_basis(frame))
            assert rep["r_transforms"] and rep["s_transforms"]
            assert rep["residual_scales_by_det_h"]
            assert rep["residual_vanishing_invariant"]
            trials += 1
    assert trials == 100
    report(9, "transformation law exact for 100 random gauge pairs; residual vanishing is gauge-invariant")
