import random
from fractions import Fraction

import numpy as np
import pytest

from g2kit import linalg
from g2kit.compat import (
    IncompatiblePairError,
    NotComplexStructureError,
    compatibility_space_dims,
    complex_basis,
    induced_metric,
    is_compatible_omega,
    omega_index,
    standard_complex_structure,
    standard_symplectic_matrix,
)
from g2kit.linalg import DegenerateFormError
from g2kit.sampling import random_invertible_rational, random_symplectic
from g2kit.scalars import MixedModeError

J0 = standard_complex_structure(3)
OM0 = standard_symplectic_matrix(3)
IDENT = linalg.identity(6)


def neg(m):
    return [[-x for x in row] for row in m]


def conj_by(a, j):
    return linalg.mat_mul(linalg.inverse(a), linalg.mat_mul(j, a))


def test_induced_metric_standard():
    g = induced_metric(OM0, J0)
    assert g == [[Fraction(1 if i == j else 0) for j in range(6)] for i in range(6)]
    g_neg = induced_metric(OM0, neg(J0))
    assert g_neg == [[Fraction(-1 if i == j else 0) for j in range(6)] for i in range(6)]


def test_incompatible_metric_is_asymmetric(rng):
    # a q-q shear is not symplectic, so conjugation breaks compatibility
    shear = linalg.identity(6)
    shear[0][1] = Fraction(1)
    j = conj_by(shear, J0)
    assert not is_compatible_omega(OM0, j)
    g = induced_metric(OM0, j)
    assert g != linalg.transpose(g)


def test_compatibility_checks():
    assert is_compatible_omega(OM0, J0)
    assert is_compatible_omega(IDENT, J0)  # t(J) M J = M, here with the metric M = I
    shear = linalg.identity(6)
    shear[1][4] = Fraction(2)
    j = conj_by(shear, J0)
    assert not is_compatible_omega(IDENT, j)


def test_sphere_structures_compatible():
    # omega and the metric at a sphere point are invariant under the standard J
    from g2kit.g2 import dot, standard_frame
    from g2kit.sphere import omega_at, standard_j

    frame = standard_frame()
    u = frame.x
    basis = frame.tangent_columns()
    om = omega_at(u)
    omat = [[om.evaluate([a, b]) for b in basis] for a in basis]
    jmat = [
        [dot(basis[p], standard_j(u, basis[t])) for t in range(6)] for p in range(6)
    ]
    # basis is orthonormal at e1 so the coordinate matrix is the metric one
    assert is_compatible_omega(omat, jmat)
    gmat = [[dot(a, b) for b in basis] for a in basis]
    assert is_compatible_omega(gmat, jmat)
    assert omega_index(omat, jmat) == (3, 0)


def test_omega_index_examples():
    assert omega_index(OM0, J0) == (3, 0)
    assert omega_index(OM0, neg(J0)) == (0, 3)
    with pytest.raises(IncompatiblePairError):
        shear = linalg.identity(6)
        shear[0][1] = Fraction(1)
        omega_index(OM0, conj_by(shear, J0))


def test_not_complex_structure_rejected():
    with pytest.raises(NotComplexStructureError):
        is_compatible_omega(OM0, linalg.identity(6))


def test_inertial_index_diag_cases():
    assert linalg.signature(IDENT) == (6, 0)
    diag = [[Fraction(0)] * 6 for _ in range(6)]
    for i, d in enumerate((1, 1, -1, -1, 1, 1)):
        diag[i][i] = Fraction(d)
    assert linalg.signature(diag) == (4, 2)


def test_inertial_index_congruence_invariant(rng):
    """Sylvester: congruence by random invertible rational matrices."""
    for _ in range(20):
        signs = [Fraction(rng.choice((1, -1))) for _ in range(5)]
        diag = [[signs[i] if i == j else Fraction(0) for j in range(5)] for i in range(5)]
        a = random_invertible_rational(rng, 5)
        m = linalg.mat_mul(linalg.transpose(a), linalg.mat_mul(diag, a))
        expected = (sum(1 for s in signs if s > 0), sum(1 for s in signs if s < 0))
        assert linalg.signature(m) == expected


def test_inertial_index_against_eigenvalue_oracle(rng):
    """Dual route: exact congruence versus numpy eigenvalues on floats."""
    for _ in range(15):
        n = rng.randint(2, 6)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(-5, 5))
        mf = np.array([[float(x) for x in row] for row in m])
        eigs = np.linalg.eigvalsh(mf)
        if min(abs(eigs)) < 1e-8:
            continue
        expected = (int((eigs > 0).sum()), int((eigs < 0).sum()))
        assert linalg.signature(m) == expected


def test_degenerate_raises():
    zero = [[Fraction(0)] * 4 for _ in range(4)]
    with pytest.raises(DegenerateFormError):
        linalg.signature(zero)
    rank1 = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    with pytest.raises(DegenerateFormError):
        linalg.signature(rank1)


def test_compatible_metric_has_even_inertia(rng):
    from g2kit.sampling import random_symplectic

    for _ in range(5):
        s = random_symplectic(rng, OM0)
        j = conj_by(s, J0)
        assert is_compatible_omega(OM0, j)
        pos, neg_count = linalg.signature(induced_metric(OM0, j))
        assert pos % 2 == 0 and neg_count % 2 == 0


def test_compatibility_equivalence(rng):
    """omega-compatibility iff the induced bilinear form is symmetric."""
    from g2kit.sampling import random_symplectic

    s = random_symplectic(rng, OM0)
    j = conj_by(s, J0)
    g = induced_metric(OM0, j)
    assert g == linalg.transpose(g)
    shear = linalg.identity(6)
    shear[2][5] = Fraction(3)
    j_bad = conj_by(shear, J0)
    g_bad = induced_metric(OM0, j_bad)
    assert (g_bad == linalg.transpose(g_bad)) == is_compatible_omega(OM0, j_bad)


def _floats(m):
    return [[float(x) for x in row] for row in m]


def _symplectic_conjugate():
    """omega = standard_symplectic_matrix(3) and J = C^-1 J0 C for a symplectic C."""
    c = random_symplectic(random.Random(0), OM0)
    return OM0, conj_by(c, J0)


def test_complex_basis_reads_no_tolerance_on_exact_seeds():
    """Exact seeds independent only through a 1e-12 entry span a J-complex basis."""
    j = standard_complex_structure(2)
    seeds = [[1, 0, 0, 0], [1, Fraction(1, 10**12), 0, 0]]
    pairs = complex_basis(seeds, lambda v: linalg.mat_vec(j, v), 2)
    assert [v for v, _ in pairs] == seeds


@pytest.mark.parametrize("k", [-12, -6, 0, 6])
def test_float_compatibility_verdicts_do_not_change_with_scale(k):
    """A shear-conjugated J is incompatible with c omega0 and J0 is compatible, at any c.

    t(J) omega J - omega is linear in omega, so an absolute bound called every
    J compatible with a small enough omega.
    """
    c = 10.0**k
    shear = linalg.identity(6)
    shear[0][1] = Fraction(1)
    omega = [[c * x for x in row] for row in _floats(OM0)]
    assert not is_compatible_omega(omega, _floats(conj_by(shear, J0)))
    assert is_compatible_omega(omega, _floats(J0))
    assert omega_index(omega, _floats(J0)) == (3, 0)
    assert omega_index(omega, _floats(neg(J0))) == (0, 3)


def test_is_compatible_omega_takes_its_mode_from_omega_and_j():
    omega, j = _symplectic_conjugate()
    assert is_compatible_omega(omega, j)
    assert is_compatible_omega(_floats(omega), _floats(j))
    with pytest.raises(MixedModeError):
        is_compatible_omega(omega, _floats(j))
    with pytest.raises(MixedModeError):
        is_compatible_omega(_floats(omega), j)


def test_induced_metric_takes_its_mode_from_omega_and_j():
    omega, j = _symplectic_conjugate()
    g = induced_metric(omega, j)
    assert g == linalg.transpose(g)
    assert induced_metric(_floats(omega), _floats(j)) == linalg.mat_mul(_floats(omega), _floats(j))
    with pytest.raises(MixedModeError):
        induced_metric(omega, _floats(j))
    with pytest.raises(MixedModeError):
        induced_metric(_floats(omega), j)


def test_dimension_counts_frozen():
    d3 = compatibility_space_dims(3)
    assert (d3["total"], d3["omega_compatible"], d3["g_compatible"]) == (18, 12, 6)
    assert d3["evidence"] == {
        "rank_anticommutator": 18,
        "rank_with_omega_condition": 24,
        "rank_with_metric_condition": 30,
        "matrix_space_dim": 36,
    }
    d1 = compatibility_space_dims(1)
    assert (d1["total"], d1["omega_compatible"], d1["g_compatible"]) == (2, 2, 0)
    d2 = compatibility_space_dims(2)
    assert (d2["total"], d2["omega_compatible"], d2["g_compatible"]) == (8, 6, 2)


def test_dimension_counts_split_additively():
    for n in range(1, 5):
        d = compatibility_space_dims(n)
        assert d["total"] == 2 * n * n
        assert d["omega_compatible"] == n * n + n
        assert d["g_compatible"] == n * n - n
        assert d["total"] == d["omega_compatible"] + d["g_compatible"]
