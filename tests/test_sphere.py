import random
from fractions import Fraction

import numpy as np
import pytest

from g2kit import linalg
from g2kit.forms import form_defect
from g2kit.g2 import cross, dot, frame_rotate, standard_frame
from g2kit.sampling import random_rational_frame, random_rational_tangent, random_su3
from g2kit.sphere import (
    NotTangentError,
    SpherePoint,
    basis_point,
    nijenhuis_chart,
    nijenhuis_closed_form,
    nijenhuis_sphere,
    omega_at,
    phi_tangential,
    random_admissible_triple,
    random_float_point,
    standard_j,
    upsilon_at,
    verify_domega_pointwise,
)

from conftest import complex_frame_vector, e7


def test_point_validation():
    SpherePoint(e7(1))
    with pytest.raises(ValueError):
        SpherePoint(tuple(Fraction(1) for _ in range(7)))
    SpherePoint(tuple(float(x) for x in e7(2)))
    with pytest.raises(ValueError):
        SpherePoint((1.0 + 1e-9,) + (0.0,) * 6)


def test_standard_j_examples():
    e1 = basis_point(1)
    assert standard_j(e1, e7(2)) == e7(3)
    assert standard_j(e1, e7(3)) == tuple(-x for x in e7(2))
    with pytest.raises(NotTangentError):
        standard_j(e1, e7(1))


def test_standard_j_squares_to_minus_one(rng):
    for _ in range(40):
        u = random_rational_frame(rng).x
        v = random_rational_tangent(rng, u)
        jv = standard_j(u, v)
        assert dot(u, jv) == 0
        assert standard_j(u, jv) == tuple(-x for x in v)


def test_standard_j_squares_bulk():
    """10^4 random exact tangent vectors across a handful of points."""
    rng = random.Random(404)
    points = [basis_point(1).u] + [random_rational_frame(rng).x for _ in range(3)]
    count = 0
    while count < 10_000:
        u = points[count % len(points)]
        v = random_rational_tangent(rng, u)
        assert standard_j(u, standard_j(u, v)) == tuple(-x for x in v)
        count += 1


def test_omega_examples():
    e1 = basis_point(1)
    om = omega_at(e1)
    assert om.evaluate([e7(2), e7(3)]) == 1
    assert om.evaluate([e7(2), e7(4)]) == 0
    v = random_rational_tangent(random.Random(1), e1.u)
    assert om.evaluate([v, v]) == 0


def test_omega_rank_and_invariance(rng):
    frame = random_rational_frame(rng)
    u = frame.x
    om = omega_at(u)
    basis = frame.tangent_columns()
    mat = [[om.evaluate([a, b]) for b in basis] for a in basis]
    assert linalg.det(mat) != 0  # rank 6
    for _ in range(10):
        v = random_rational_tangent(rng, u)
        w = random_rational_tangent(rng, u)
        jv, jw = standard_j(u, v), standard_j(u, w)
        assert om.evaluate([jv, jw]) == om.evaluate([v, w])
        assert dot(jv, jw) == dot(v, w)  # metric invariance


def test_upsilon_standard_point():
    e1 = basis_point(1)
    frame = standard_frame()
    ups = upsilon_at(e1, frame)
    # coefficient 8 on the coframe product: evaluating on the complex frame
    # vectors (f_1, f_2, f_3) gives 8 * (-i/2)^3 = i
    from g2kit.scalars import ComplexRational

    val = ups.evaluate([complex_frame_vector(frame, k) for k in (1, 2, 3)])
    assert val == ComplexRational(0, 1)
    assert ups == 8 * frame.theta(1).wedge(frame.theta(2)).wedge(frame.theta(3))
    # the imaginary part is the tangential calibration form
    assert ups.imag() == phi_tangential(e1)


def test_upsilon_frame_independent_exact(rng):
    frame = random_rational_frame(rng)
    u = frame.x
    ups1 = upsilon_at(u, frame)
    rotated = frame_rotate(frame, random_su3(rng))
    ups2 = upsilon_at(u, rotated)
    assert ups1 == ups2
    assert ups1.imag() == phi_tangential(u)


def test_upsilon_rejects_wrong_base():
    e1, e2 = basis_point(1), basis_point(2)
    with pytest.raises(ValueError):
        upsilon_at(e2, standard_frame())


def test_upsilon_frame_independent_float():
    from g2kit.sphere import frame_at_float_point

    pyrng = random.Random(606)
    f1 = frame_at_float_point(pyrng, None)
    f2 = frame_at_float_point(pyrng, f1.x)
    defect = form_defect(upsilon_at(f1.x, f1), upsilon_at(f1.x, f2))
    assert defect < 1e-12


def test_upsilon_primitive(rng):
    frame = random_rational_frame(rng)
    u = frame.x
    om = omega_at(u)
    ups = upsilon_at(u, frame)
    assert om.wedge(ups.imag()).is_zero
    assert om.wedge(ups.real()).is_zero


def test_domega_pointwise_report():
    rep = verify_domega_pointwise(samples=100, seed=7)
    assert rep["pass"]
    assert rep["max_defect"] < 1e-10
    assert rep["exact_point_defect_zero"]
    assert rep["symbolic_d_omega_ambient"]


def test_domega_mutation_detected():
    rep = verify_domega_pointwise(samples=10, seed=7, upsilon_scale=7)
    assert not rep["pass"]
    assert rep["max_defect"] > 0.05  # defect ~ |1/8| of the form scale


def test_admissible_triples(rng):
    pyrng = random.Random(11)
    for _ in range(10):
        u, v, w = random_admissible_triple(pyrng)
        phi_uvw = dot(cross(u, v), w)
        assert abs(phi_uvw) < 1e-12
        assert abs(dot(u, v)) < 1e-12 and abs(dot(u, w)) < 1e-12


def test_nijenhuis_flat_structure_vanishes():
    j0 = np.block(
        [[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]]
    )
    n = nijenhuis_chart(lambda y: j0, np.zeros(6), np.eye(6)[0], np.eye(6)[1])
    assert np.linalg.norm(n) == 0.0


def test_nijenhuis_antisymmetric_and_nonzero():
    u = tuple(float(x) for x in e7(1))
    x = np.array([0, 1.0, 0, 0, 0, 0, 0])
    y = np.array([0, 0, 0, 1.0, 0, 0, 0])
    n_xy = nijenhuis_sphere(u, x, y)
    n_yx = nijenhuis_sphere(u, y, x)
    n_xx = nijenhuis_sphere(u, x, x)
    assert np.linalg.norm(n_xy) > 1.0
    assert np.linalg.norm(n_xy + n_yx) < 1e-6
    assert np.linalg.norm(n_xx) < 1e-9


def test_nijenhuis_stable_under_step_halving():
    rng = random.Random(23)
    from g2kit.sphere import random_float_point

    for _ in range(5):
        u = random_float_point(rng)
        uv = np.asarray(u)
        x = np.asarray([rng.gauss(0, 1) for _ in range(7)])
        y = np.asarray([rng.gauss(0, 1) for _ in range(7)])
        x -= (x @ uv) * uv
        y -= (y @ uv) * uv
        n1 = np.linalg.norm(nijenhuis_sphere(u, x, y, h=1e-4))
        n2 = np.linalg.norm(nijenhuis_sphere(u, x, y, h=5e-5))
        assert abs(n1 - n2) <= 0.05 * max(n2, 1e-12)


def test_nijenhuis_closed_form_matches_finite_differences():
    from g2kit.sphere import random_float_point

    rng = random.Random(31)
    for _ in range(20):
        u = random_float_point(rng)
        uv = np.asarray(u)
        x = np.asarray([rng.gauss(0, 1) for _ in range(7)])
        y = np.asarray([rng.gauss(0, 1) for _ in range(7)])
        x -= (x @ uv) * uv
        y -= (y @ uv) * uv
        closed = np.asarray(nijenhuis_closed_form(u, x.tolist(), y.tolist()))
        oracle = nijenhuis_sphere(u, x, y)
        assert np.linalg.norm(closed - oracle) <= 1e-6 * np.linalg.norm(oracle)


def test_nijenhuis_closed_form_exact_identities(rng):
    """At rational points: antisymmetric, tangent, J-antilinear, nonzero off complex lines.

    |N(X, Y)|^2 = 16 (|X|^2 |Y|^2 - <X,Y>^2 - <JX,Y>^2), so N vanishes exactly
    when Y lies on the complex line of X.
    """
    for _ in range(3):
        u = random_rational_frame(rng).x
        x = random_rational_tangent(rng, u)
        y = random_rational_tangent(rng, u)
        n = nijenhuis_closed_form(u, x, y)
        assert all(isinstance(c, Fraction) for c in n)
        assert nijenhuis_closed_form(u, y, x) == tuple(-c for c in n)
        assert dot(u, n) == 0
        assert nijenhuis_closed_form(u, standard_j(u, x), y) == tuple(
            -c for c in standard_j(u, n)
        )
        jx = standard_j(u, x)
        gap = dot(x, x) * dot(y, y) - dot(x, y) ** 2 - dot(jx, y) ** 2
        assert gap != 0 and dot(n, n) == 16 * gap
        assert all(c == 0 for c in nijenhuis_closed_form(u, x, jx))


def test_nijenhuis_closed_form_rejects_normal_vectors():
    e1 = basis_point(1)
    with pytest.raises(NotTangentError):
        nijenhuis_closed_form(e1, e7(1), e7(2))


@pytest.mark.parametrize("k", range(-6, 9))
def test_float_tangency_is_relative_to_the_vector(k):
    """A float tangent vector stays tangent when rescaled by 10^k: u.v is
    compared with the tolerance times max|v_i|, so J_u and N accept it."""
    rng = random.Random(3)
    u = random_float_point(rng)
    x, y = ([a - dot(v, u) * b for a, b in zip(v, u)]
            for v in ([rng.gauss(0, 1) for _ in range(7)] for _ in range(2)))
    scale = 10.0 ** k
    big = [scale * a for a in x]
    jx = standard_j(u, x)
    assert max(abs(a - scale * b) for a, b in zip(standard_j(u, big), jx)) <= 1e-12 * scale
    n = nijenhuis_closed_form(u, x, y)
    n_big = nijenhuis_closed_form(u, big, y)
    assert max(abs(a - scale * b) for a, b in zip(n_big, n)) <= 1e-12 * scale * max(map(abs, n))


def test_import_does_not_load_numpy():
    """numpy is imported only by the finite-difference chart oracle, when it runs."""
    import subprocess
    import sys

    script = "import sys, g2kit, g2kit.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.strip() == "False", proc.stderr
