import random
import struct
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from g2kit.almost_symplectic import (
    _five_form_coords,
    _om2_matrix,
    elliptic_definite_check,
    primitive_decompose,
)
from g2kit.forms import ExteriorForm
from g2kit.linalg import DegenerateFormError
from g2kit.scalars import FLOAT, ComplexRational
from g2kit.threeforms import elliptic_normal_form, split_normal_form

from conftest import e_vec, rand_form, seeded_float

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
    """Under python -O a wrong solve is still caught, exact and float alike, at any scale.

    The true lambda is 0 here, so the patched solve adds 1 to lambda_1.  omega ^ pi is
    bilinear, so its float bound scales with |omega| |domega|: a bound floored at 1
    accepted the wrong lambda once omega and domega were scaled by 1e-6.
    """
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from fractions import Fraction\n"
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
        "for k in (0, 3, 6):\n"
        "    exact, c = Fraction(1, 10**k), 10.0**-k\n"
        "    for om, dom in ((exact * om6, exact * dom6), (c * om6.as_float(), c * dom6.as_float())):\n"
        "        try:\n"
        "            primitive_decompose(om, dom)\n"
        "        except PrimitivityError:\n"
        "            continue\n"
        "        sys.exit(f'wrong lambda accepted at scale 1e-{k}')\n"
        "try:\n"
        "    linalg.mat_mul([[1, 2]], [[1, 2]])\n"
        "except ValueError:\n"
        "    sys.exit(0)\n"
        "sys.exit(2)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_exact_decomposition_reads_no_tolerance():
    """Exact forms scaled by 1e-5, so |omega^2| is 1e-10, far below ``linalg.PIVOT_TOL``,
    decompose exactly: lambda is unchanged and pi scales."""
    om6, dom6, _, _ = sphere_data_at_e1()
    t = Fraction(1, 10**5)
    lam, pi = primitive_decompose(om6, dom6)
    assert tuple(primitive_decompose(t * om6, t * dom6)) == (lam, t * pi)


@pytest.mark.parametrize("k", range(-12, 9))
def test_float_elliptic_verdict_does_not_change_with_scale(k):
    """omega and domega at a float sphere point, scaled by 10^k: still elliptic (3, 0)."""
    import random

    from g2kit.g2 import associative_three_form
    from g2kit.sphere import frame_at_float_point, omega_at

    frame = frame_at_float_point(random.Random(3), None)
    tangent = [row[1:] for row in frame.matrix]
    om6 = omega_at(frame.x).pullback(tangent)
    dom6 = (3.0 * associative_three_form().as_float()).pullback(tangent)
    c = 10.0**k
    rep = elliptic_definite_check(c * om6, c * dom6, tol=1e-9)
    assert (rep.tag, rep.signature, rep.elliptic_definite) == ("elliptic", (3, 0), True)


def _om2_matrix_by_wedges(om2):
    """The reference: column a holds the coordinates of e^a ^ omega^2, one wedge each."""
    one = 1.0 if om2.mode == FLOAT else 1
    cols = [_five_form_coords(ExteriorForm.basis(6, (a,), one).wedge(om2)) for a in range(1, 7)]
    return [[cols[a][b] for a in range(6)] for b in range(6)]


def _omega_coeff(rng, kind):
    """omega is real in float mode; tiny values make products that underflow to +-0.0."""
    if kind == "exact":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if kind == "gaussian":
        return ComplexRational(_omega_coeff(rng, "exact"), _omega_coeff(rng, "exact"))
    pick = rng.randrange(3)
    if pick == 0:
        return float(rng.randint(-3, 3))
    return seeded_float(rng, -1e3, 1e3) if pick == 1 else seeded_float(rng, -1e-160, 1e-160)


def _omega(rng):
    kind = rng.choice(("exact", "float", "gaussian"))
    keys = rng.sample(list(combinations(range(1, 7), 2)), rng.randint(0, 15))
    mode = FLOAT if kind == "float" else None
    return ExteriorForm(6, 2, {idx: _omega_coeff(rng, kind) for idx in keys}, mode=mode)


def _bits(x):
    """The value and its type, with floats as their bytes, so that -0.0 != 0.0."""
    if isinstance(x, float):
        return float, struct.pack("<d", x)
    return type(x), x


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_om2_matrix_matches_the_wedge_construction(seed):
    """Equal exact values of equal types; float bits equal, signed zeros included."""
    omega = _omega(random.Random(seed))
    om2 = omega.wedge(omega)
    got, want = _om2_matrix(om2), _om2_matrix_by_wedges(om2)
    assert [[_bits(x) for x in row] for row in got] == [[_bits(x) for x in row] for row in want]


def _report_bits(omega, domega):
    """lambda and pi bits, tag, J and signature of the check, or the name of what it raised."""
    try:
        rep = elliptic_definite_check(omega, domega)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__
    lam, pi = rep.decomposition
    form_bits = [sorted((k, _bits(c)) for k, c in f.terms.items()) for f in (lam, pi)]
    j = rep.j_matrix and [[_bits(x) for x in row] for row in rep.j_matrix]
    return form_bits, rep.tag, j, rep.signature


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_exact_omega_with_float_domega_runs_in_float_mode(seed):
    """An exact omega with a float domega gives the bits of its float copy.

    Both forms are solved in their joint mode, float here, at the float pivot
    tolerance; an exact omega once sent float rows to a pivot tolerance of 0.
    """
    import random

    rng = random.Random(seed)
    omega = ExteriorForm(6, 2, {
        idx: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        for idx in combinations(range(1, 7), 2) if rng.random() < 0.6
    })
    domega = ExteriorForm(6, 3, {idx: rng.uniform(-2, 2) for idx in combinations(range(1, 7), 3)})
    assert _report_bits(omega, domega) == _report_bits(omega.as_float(), domega)
