from fractions import Fraction

import pytest

from g2kit.almost_symplectic import elliptic_definite_check, primitive_decompose
from g2kit.forms import ExteriorForm
from g2kit.linalg import DegenerateFormError
from g2kit.threeforms import elliptic_normal_form, split_normal_form

from conftest import e_vec, rand_form

OM_SPHERE_BASIS = None


def sphere_data_at_e1():
    from g2kit.g2 import associative_three_form
    from g2kit.sphere import basis_point, omega_at

    u = basis_point(1)
    basis = [e_vec(7, k) for k in range(2, 8)]
    om6 = omega_at(u).restrict(basis)
    dom6 = (3 * associative_three_form()).restrict(basis)
    return om6, dom6, basis, u


def test_sphere_instance_decomposition():
    from g2kit.sphere import phi_tangential

    om6, dom6, basis, u = sphere_data_at_e1()
    lam, pi = primitive_decompose(om6, dom6)
    assert lam.is_zero
    assert pi == (3 * phi_tangential(u)).restrict(basis)
    assert om6.wedge(pi).is_zero


def test_pure_multiple_case(rng):
    om6, _, _, _ = sphere_data_at_e1()
    alpha = rand_form(rng, 6, 1, nterms=3)
    lam, pi = primitive_decompose(om6, alpha.wedge(om6))
    assert lam == alpha
    assert pi.is_zero


def test_zero_case():
    om6, _, _, _ = sphere_data_at_e1()
    lam, pi = primitive_decompose(om6, ExteriorForm.zero(6, 3))
    assert lam.is_zero and pi.is_zero


def test_decomposition_unique_and_idempotent(rng):
    om6, dom6, _, _ = sphere_data_at_e1()
    mixed = dom6 + rand_form(rng, 6, 1, nterms=2).wedge(om6)
    lam, pi = primitive_decompose(om6, mixed)
    assert om6.wedge(pi).is_zero
    assert lam.wedge(om6) + pi == mixed
    lam2, pi2 = primitive_decompose(om6, lam.wedge(om6) + pi)
    assert lam2 == lam and pi2 == pi


def test_degenerate_omega_raises():
    degenerate = ExteriorForm(6, 2, {(1, 2): Fraction(1)})
    with pytest.raises(DegenerateFormError):
        primitive_decompose(degenerate, ExteriorForm.zero(6, 3))


def test_sphere_is_elliptic_definite():
    om6, dom6, _, _ = sphere_data_at_e1()
    rep = elliptic_definite_check(om6, dom6)
    assert rep.tag == "elliptic"
    assert rep.signature == (3, 0)
    assert rep.elliptic_definite
    assert rep.as_dict() == {
        "tag": "elliptic",
        "signature": [3, 0],
        "elliptic_definite": True,
    }


def test_other_signature_occurs():
    """Indefinite toy instance: same primitive form, sign-flipped 2-form."""
    om = ExteriorForm(
        6, 2, {(1, 2): Fraction(1), (3, 4): Fraction(-1), (5, 6): Fraction(-1)}
    )
    pi = 3 * elliptic_normal_form()
    rep = elliptic_definite_check(om, pi)
    assert rep.tag == "elliptic"
    assert rep.signature == (1, 2)
    assert not rep.elliptic_definite


def test_split_verdict():
    om = ExteriorForm(
        6, 2, {(1, 4): Fraction(1), (2, 5): Fraction(1), (3, 6): Fraction(1)}
    )
    lam_form = ExteriorForm(6, 1, {(2,): Fraction(5)})
    dom = split_normal_form() + lam_form.wedge(om)
    lam, pi = primitive_decompose(om, dom)
    assert lam == lam_form and pi == split_normal_form()
    rep = elliptic_definite_check(om, dom)
    assert rep.tag == "split"
    assert not rep.elliptic_definite
    assert rep.j_matrix is None and rep.signature is None


def test_conformal_rescaling_invariance():
    om6, dom6, _, _ = sphere_data_at_e1()
    for c in (Fraction(2), Fraction(1, 3)):
        rep = elliptic_definite_check(c * om6, c * dom6)
        assert rep.tag == "elliptic"
        assert rep.signature == (3, 0)
        assert rep.elliptic_definite


def test_float_instance():
    om6, dom6, _, _ = sphere_data_at_e1()
    rep = elliptic_definite_check(om6.as_float(), dom6.as_float())
    assert rep.tag == "elliptic"
    assert rep.signature == (3, 0)
    assert rep.elliptic_definite


def test_primitivity_check_survives_optimize_flag():
    """Under python -O a wrong solve is still caught, exact and float alike."""
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from g2kit import linalg\n"
        "from g2kit.almost_symplectic import PrimitivityError, primitive_decompose\n"
        "from g2kit.g2 import associative_three_form\n"
        "from g2kit.sphere import basis_point, omega_at\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(3)\n"
        "basis = [[int(i == k) for i in range(7)] for k in range(1, 7)]\n"
        "om6 = omega_at(basis_point(1)).restrict(basis)\n"
        "dom6 = (3 * associative_three_form()).restrict(basis)\n"
        "linalg.solve = lambda m, rhs, tol=0.0: [1] + [0] * 5\n"
        "for om, dom in ((om6, dom6), (om6.as_float(), dom6.as_float())):\n"
        "    try:\n"
        "        primitive_decompose(om, dom)\n"
        "    except PrimitivityError:\n"
        "        continue\n"
        "    sys.exit(1)\n"
        "try:\n"
        "    linalg.mat_mul([[1, 2]], [[1, 2]])\n"
        "except ValueError:\n"
        "    sys.exit(0)\n"
        "sys.exit(2)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
