import math
import random
import struct
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from g2kit import linalg
from g2kit.forms import ExteriorForm, pullback
from g2kit.sampling import random_invertible_rational
from g2kit.scalars import FLOAT, I_EXACT, ComplexRational, sqrt_fraction
from g2kit.threeforms import (
    ComplexFormError,
    FloatRangeError,
    classify_3form,
    elliptic_normal_form,
    k_operator,
    recover_upsilon,
    split_normal_form,
    standard_volume_form,
)

from conftest import (
    _K_TABLE,
    bits,
    e_vec,
    k_integers_reference,
    orientation_sign_reference,
    rand_form,
    seeded_float,
    tiny_pivot_elliptic_form,
    upsilon_real_terms_reference,
)


def complex_line(a, b):
    return ExteriorForm.from_covector(
        [Fraction(1 if i == a - 1 else 0) for i in range(6)]
    ) + I_EXACT * ExteriorForm.from_covector(
        [Fraction(1 if i == b - 1 else 0) for i in range(6)]
    )


NORMAL_UPSILON = complex_line(1, 2).wedge(complex_line(3, 4)).wedge(complex_line(5, 6))
_GL6 = random_invertible_rational(random.Random(5), 6)


def test_split_normal_form():
    cls = classify_3form(split_normal_form())
    assert cls.tag == "split"
    assert cls.discriminant > 0


def test_elliptic_normal_form():
    cls = classify_3form(elliptic_normal_form())
    assert cls.tag == "elliptic"
    assert cls.discriminant < 0
    assert cls.sqrt_is_exact
    j2 = linalg.mat_mul(cls.j_matrix, cls.j_matrix)
    assert all(j2[a][b] == (-1 if a == b else 0) for a in range(6) for b in range(6))
    # Upsilon has type (3,0): Upsilon(Jv, w, z) = i Upsilon(v, w, z) on basis triples
    for idx in combinations(range(1, 7), 3):
        vecs = [e_vec(6, a) for a in idx]
        jv = linalg.mat_vec(cls.j_matrix, vecs[0])
        assert cls.upsilon.evaluate([jv, *vecs[1:]]) == I_EXACT * cls.upsilon.evaluate(vecs)


def test_elliptic_normal_form_is_imaginary_part():
    # the normal form is Im((e1+ie2)^(e3+ie4)^(e5+ie6)) by direct expansion
    assert NORMAL_UPSILON.imag() == elliptic_normal_form()


def test_upsilon_recovery_normalization():
    cls = classify_3form(3 * elliptic_normal_form())
    assert cls.upsilon == NORMAL_UPSILON
    assert 3 * cls.upsilon.imag() == 3 * elliptic_normal_form()


def test_degenerate_cases():
    single = ExteriorForm(6, 3, {(1, 2, 3): Fraction(1)})
    assert classify_3form(single).tag == "degenerate"
    assert classify_3form(single).discriminant == 0
    assert classify_3form(ExteriorForm.zero(6, 3)).tag == "degenerate"


def test_scaling_homogeneity():
    base = classify_3form(3 * elliptic_normal_form())
    t = Fraction(3, 2)
    scaled = classify_3form(t**3 * (3 * elliptic_normal_form()))
    assert scaled.j_matrix == base.j_matrix
    assert scaled.upsilon == t**3 * base.upsilon


def test_orientation_normalization():
    """J always induces the orientation of the supplied volume form."""
    rho = elliptic_normal_form()
    plus = classify_3form(rho, standard_volume_form())
    minus = classify_3form(rho, (-1) * standard_volume_form())
    assert plus.j_matrix == [[-x for x in row] for row in minus.j_matrix]


def _exact_elliptic_cases(count):
    """``count`` exact elliptic (rho, vol, class) with a square mu = -lambda, and ``count`` without.

    GL(6) pullbacks of the normal form (either sign) have a square mu, and
    random sparse forms mostly do not; the coefficient of vol takes both signs.
    """
    cases = {True: [], False: []}
    rng = random.Random(23)
    while min(map(len, cases.values())) < count:
        if rng.random() < 0.3:
            rho = rng.choice((1, -1)) * elliptic_normal_form().pullback(
                random_invertible_rational(rng, 6)
            )
        else:
            rho = rand_form(rng, 6, 3, nterms=rng.randint(6, 20))
        c = Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 3))
        vol = ExteriorForm(6, 6, {(1, 2, 3, 4, 5, 6): c})
        cls = classify_3form(rho, vol)
        if cls.tag == "elliptic" and len(cases[cls.sqrt_is_exact]) < count:
            cases[cls.sqrt_is_exact].append((rho, vol, cls))
    return cases[True] + cases[False]


def _dyadic(form):
    """The exact form of the rationals that a float form stores."""
    return ExteriorForm(form.dim, form.degree, {i: Fraction(c) for i, c in form.terms.items()})


def _within_an_ulp_of_minus_k_over_root(x, k, mu):
    """Whether the float x lies within math.ulp(x) of -k / sqrt(mu), for exact k and mu > 0,
    decided in exact arithmetic on the squares: sqrt(mu) is irrational in general."""
    if not k:
        return x == 0
    ulp, size = Fraction(math.ulp(x)), abs(Fraction(x))
    return (x > 0) == (k < 0) and max(size - ulp, 0) ** 2 <= k * k / mu <= (size + ulp) ** 2


def test_elliptic_j_is_minus_k_over_the_root_of_mu():
    """The lemma of ``threeforms``: J = -K / sqrt(mu), and K reverses the orientation of vol.

    J is compared exactly for a square mu.  A float J, that of a non-square mu or of the
    float copy of each form, lies within 1 ulp of -K / sqrt(mu) entry by entry, with K and
    mu those of the exact (dyadic) input; the orientation of K is evaluated exactly.
    """
    signs = set()
    for rho, vol, cls in _exact_elliptic_cases(100):
        k = k_operator(rho, vol)
        mu = -cls.discriminant
        if cls.sqrt_is_exact:
            root = sqrt_fraction(mu)
            assert cls.j_matrix == [[-x / root for x in row] for row in k]
        else:
            assert all(map(_within_an_ulp_of_minus_k_over_root, sum(cls.j_matrix, []), sum(k, []),
                           [mu] * 36))
        assert orientation_sign_reference(k, vol, 0)[0] == -1
        signs.add((cls.sqrt_is_exact, vol.terms[(1, 2, 3, 4, 5, 6)] > 0))
        rho_f, vol_f = rho.as_float(), vol.as_float()
        float_cls = classify_3form(rho_f, vol_f)
        k = k_operator(_dyadic(rho_f), _dyadic(vol_f))
        mu = -classify_3form(_dyadic(rho_f), _dyadic(vol_f)).discriminant
        assert (float_cls.tag, float_cls.discriminant) == ("elliptic", float(-mu))
        assert all(map(_within_an_ulp_of_minus_k_over_root, sum(float_cls.j_matrix, []),
                       sum(k, []), [mu] * 36))
    assert len(signs) == 4


def test_j_of_a_form_with_a_tiny_float_pivot_induces_the_orientation_of_vol():
    """The J of this non-square-mu form induces vol's orientation, evaluated exactly."""
    rho, vol = tiny_pivot_elliptic_form()
    cls = classify_3form(rho, vol)
    assert (cls.tag, cls.discriminant, cls.sqrt_is_exact) == ("elliptic", Fraction(-2989, 648), False)
    j = [[Fraction(x) for x in row] for row in cls.j_matrix]
    assert orientation_sign_reference(j, vol, 0)[0] == 1


def test_tag_invariant_under_pullback(rng):
    for rho, tag in ((split_normal_form(), "split"), (elliptic_normal_form(), "elliptic")):
        for _ in range(30):
            a = random_invertible_rational(rng, 6, bound=3)
            assert classify_3form(pullback(rho, a)).tag == tag


def test_recover_upsilon_requires_elliptic():
    cls = classify_3form(3 * elliptic_normal_form())
    ups = recover_upsilon(3 * elliptic_normal_form(), cls.j_matrix)
    assert ups == NORMAL_UPSILON


def test_sphere_primitive_form_is_elliptic_with_standard_structure():
    """Cross-module oracle: the sphere's primitive 3-form recovers its J."""
    from g2kit.g2 import dot
    from g2kit.sphere import basis_point, phi_tangential, standard_j, upsilon_at
    from g2kit.g2 import standard_frame

    u = basis_point(1)
    basis = [e_vec(7, k) for k in range(2, 8)]
    pi6 = (3 * phi_tangential(u)).restrict(basis)
    om6 = None
    from g2kit.sphere import omega_at

    om = omega_at(u)
    vol = om.restrict(basis)
    vol = vol.wedge(vol).wedge(vol)
    cls = classify_3form(pi6, vol)
    assert cls.tag == "elliptic"
    assert cls.sqrt_is_exact
    jmat = [
        [dot(basis[p], standard_j(u, basis[t])) for t in range(6)] for p in range(6)
    ]
    assert cls.j_matrix == jmat
    ups_expected = upsilon_at(u, standard_frame()).restrict(basis)
    assert cls.upsilon == ups_expected


def test_sphere_primitive_form_elliptic_at_float_points():
    import random as _r

    from g2kit.sphere import frame_at_float_point, phi_tangential

    rng = _r.Random(31)
    for _ in range(10):
        frame = frame_at_float_point(rng, None)
        u = frame.x
        basis = frame.tangent_columns()
        pi6 = (3.0 * phi_tangential(u)).restrict([list(b) for b in basis])
        cls = classify_3form(pi6)
        assert cls.tag == "elliptic"
        assert cls.discriminant < 0


@pytest.mark.parametrize("k", range(-6, 7))
def test_float_tag_does_not_depend_on_scale(k):
    """lambda has degree 4 in rho and -2 in the volume form; the tag has degree 0."""
    vol = standard_volume_form().as_float()
    for normal, tag in ((split_normal_form(), "split"), (elliptic_normal_form(), "elliptic")):
        rho = 10.0**k * normal.as_float()
        assert classify_3form(rho).tag == tag
        assert classify_3form(normal.as_float(), 10.0**k * vol).tag == tag


def _scaled(form, k):
    """2^k form, a float form with every coefficient scaled exactly by ``math.ldexp``."""
    return ExteriorForm(6, 3, {i: math.ldexp(c, k) for i, c in form.terms.items()}, FLOAT)


def _hexes(m):
    return m and [[x.hex() for x in row] for row in m]


@pytest.mark.parametrize("normal", [split_normal_form, elliptic_normal_form])
def test_power_of_two_scales_keep_the_tag_and_the_j_bits(normal):
    """2^k rho is never tagged degenerate.  Where its lambda, 2^4k lambda_1 rounded once,
    fits the float range, it has the tag and J bits of k = 0 and reports that lambda, and
    Upsilon is that of 2^k rho; elsewhere it raises FloatRangeError.  Every third k of
    -1074..1023 is tried, and every k from 12 below to 12 above the k that fit."""
    unit = classify_3form(normal().as_float())
    lam = Fraction(unit.discriminant)
    for k in sorted({*range(-1074, 1024, 3), *range(-280, 268)}):
        rho = _scaled(normal(), k)
        try:
            want = float(lam * Fraction(2) ** (4 * k))
        except OverflowError:
            want = 0.0
        if not want:
            with pytest.raises(FloatRangeError):
                classify_3form(rho)
            continue
        cls = classify_3form(rho)
        assert (cls.tag, cls.discriminant) == (unit.tag, want)
        assert _hexes(cls.j_matrix) == _hexes(unit.j_matrix)
        if k in (-200, 0, 200) and cls.tag == "elliptic":
            assert cls.upsilon == recover_upsilon(rho, cls.j_matrix)


def test_power_of_two_scales_of_float_pullbacks_keep_the_tag_and_the_j_bits():
    """Float Gaussian GL(6) pullbacks of both normal forms, 10 each: every scale 2^k,
    k = -1074..1023, at which the exact lambda 2^4k lambda_1 of 2^k rho rounds to a finite
    nonzero float gives the tag and J bits of k = 0 and that lambda.  At every 31st other k
    where 2^k rho stores the coefficients of rho scaled exactly, FloatRangeError is raised."""
    rng = random.Random(41)
    j_bits = lambda m: struct.pack("<36d", *(x for row in m for x in row))
    fits = 0
    for normal, tag in ((split_normal_form(), "split"), (elliptic_normal_form(), "elliptic")) * 10:
        g = [[rng.gauss(0.0, 1.0) for _ in range(6)] for _ in range(6)]
        rho = normal.as_float().pullback(g)
        unit, lam = classify_3form(rho), classify_3form(_dyadic(rho)).discriminant
        assert (unit.tag, unit.discriminant) == (tag, float(lam))
        want_j = unit.j_matrix and j_bits(unit.j_matrix)
        top = max(math.frexp(x)[1] for x in rho.terms.values())
        for k in range(-1074, 1024):
            try:
                want = float(lam * 2 ** (4 * k) if k >= 0 else lam / 2 ** (-4 * k))
            except OverflowError:
                want = 0.0
            if want:
                fits += 1
                cls = classify_3form(_scaled(rho, k))
                assert (cls.tag, cls.discriminant) == (tag, want)
                assert (cls.j_matrix and j_bits(cls.j_matrix)) == want_j
            elif k % 31 == 0 and -1000 < k + top < 1024:
                with pytest.raises(FloatRangeError):
                    classify_3form(_scaled(rho, k))
    assert fits > 20 * 500


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(-6, 6),
    vk=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
    tag=st.sampled_from(["split", "elliptic"]),
)
def test_float_tag_invariant_under_scaled_pullback(k, vk, seed, tag):
    """Well-conditioned float GL(6) pullbacks, rescaled, keep the tag."""
    normal = split_normal_form() if tag == "split" else elliptic_normal_form()
    rng = random.Random(seed)
    # I + E with |E|_F <= 0.6: condition number at most 4
    g = [[(1.0 if a == b else 0.0) + rng.uniform(-0.1, 0.1) for b in range(6)] for a in range(6)]
    rho = 10.0**k * normal.as_float().pullback(g)
    vol = 10.0**vk * standard_volume_form().as_float()
    assert classify_3form(rho, vol).tag == tag


def test_upsilon_is_recovered_on_first_access():
    for rho in (3 * elliptic_normal_form(), pullback(elliptic_normal_form(), _GL6)):
        for form in (rho, rho.as_float()):
            cls = classify_3form(form)
            assert cls.upsilon == recover_upsilon(form, cls.j_matrix)
            assert cls.upsilon is cls.upsilon


def test_upsilon_real_part_matches_the_per_triple_reference(monkeypatch):
    """recover_upsilon reads Re(Upsilon) from one evaluator over J's columns and the basis:
    each of the 20 values it passes to ExteriorForm, zeros included, has the value, type and
    float.hex of one ``evaluate`` per triple, on exact and float elliptic pullbacks (rational
    and Gaussian GL(6)), on the tiny-pivot form, whose exact rho has a float J, and on the
    normal form, 16 of whose float values are zeros of both signs."""
    from g2kit import threeforms

    seen, form = [], threeforms.ExteriorForm
    spy = lambda *a, **k: seen.append(dict(a[2])) or form(*a, **k)  # a[2]: the terms
    monkeypatch.setattr(threeforms, "ExteriorForm", spy)
    rng, normal = random.Random(38), elliptic_normal_form()
    cases = [tiny_pivot_elliptic_form(), (normal, None), (normal.as_float(), None)]
    for _ in range(4):
        rho = normal.pullback(random_invertible_rational(rng, 6))
        g = [[rng.gauss(0.0, 1.0) for _ in range(6)] for _ in range(6)]
        cases += [(rho, None), (rho.as_float(), None), (normal.as_float().pullback(g), None)]
    kinds = set()
    for rho, vol in cases:
        cls = classify_3form(rho, vol)
        seen.clear()
        assert cls.upsilon is not None and len(seen) == 1
        want = upsilon_real_terms_reference(cls._rho, cls.j_matrix)
        assert list(seen[0]) == list(want) and bits([*seen[0].values()]) == bits([*want.values()])
        kinds.add((rho.mode, cls.mode))
    assert kinds == {("exact", "exact"), ("exact", "float"), ("float", "float")}


def test_elliptic_definite_check_never_recovers_upsilon(monkeypatch):
    """The verdict reads only J; Upsilon is built only when someone reads it."""
    from g2kit import threeforms
    from g2kit.almost_symplectic import elliptic_definite_check
    from g2kit.sphere import basis_point, omega_at
    from g2kit.g2 import associative_three_form

    calls = []
    monkeypatch.setattr(threeforms, "recover_upsilon", lambda *a: calls.append(a))
    basis = [e_vec(7, k) for k in range(2, 8)]
    om6 = omega_at(basis_point(1)).restrict(basis)
    dom6 = (3 * associative_three_form()).restrict(basis)
    for om, dom in ((om6, dom6), (om6.as_float(), dom6.as_float())):
        assert elliptic_definite_check(om, dom).elliptic_definite
    assert calls == []
    classify_3form(elliptic_normal_form()).upsilon
    assert len(calls) == 1


def test_non_complex_j_raises_from_classify(monkeypatch):
    """A K whose J is not a complex structure is rejected by classify_3form itself."""
    from g2kit import threeforms
    from g2kit.compat import NotComplexStructureError

    # rotation blocks of speeds 1, 1, 5: trace(K^2)/6 = -9, but K^2 != -9 I.  Both forms
    # read these ints; the exact one builds J = -K / 3 with _k_fractions, the float one
    # takes J off the same ints.
    acc = [0] * 36
    for b, w in enumerate((1, 1, 5)):
        acc[14 * b + 1], acc[14 * b + 6] = -w, -w  # K[2b][2b+1] = -w, K[2b+1][2b] = w
    monkeypatch.setattr(threeforms, "_k_integers", lambda rho, vol: (acc, 1, 1))
    for rho in (elliptic_normal_form(), elliptic_normal_form().as_float()):
        with pytest.raises(NotComplexStructureError):
            classify_3form(rho)


def k_operator_reference(rho, vol):
    """K from the whole 5-forms (iota_{e_a} rho) ^ rho, for exact rho and vol: the
    construction k_operator replaced."""
    c = vol.terms[(1, 2, 3, 4, 5, 6)]
    cols = []
    for a in range(6):
        xi = rho.interior(e_vec(6, a + 1)).wedge(rho)
        rests = [tuple(i for i in range(1, 7) if i != b) for b in range(1, 7)]
        cols.append([(-1) ** b * xi.terms.get(rest, Fraction(0)) / c for b, rest in enumerate(rests)])
    return [[cols[a][b] for a in range(6)] for b in range(6)]


def _k_coeff(rng, kind):
    """A coefficient of ``kind``.  Small integers make exact cancellations; tiny
    floats make dyadic rationals with large denominators."""
    if kind == "exact":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if kind == "gaussian":
        return ComplexRational(_k_coeff(rng, "exact"), _k_coeff(rng, "exact"))
    if kind == "complex":
        return complex(_k_coeff(rng, "float"), _k_coeff(rng, "float"))
    pick = rng.randrange(3)
    if pick == 0:
        return float(rng.randint(-3, 3))
    return seeded_float(rng, -1e3, 1e3) if pick == 1 else seeded_float(rng, -1e-160, 1e-160)


_KINDS = ("complex", "exact", "float", "gaussian")


def _k_case(rng):
    rho_kind = rng.choice(_KINDS)
    vol_kind = rng.choice([rho_kind, "exact", "float"])
    # any subset of the 20 basis 3-forms, in any insertion order: sparse to dense
    keys = rng.sample(list(combinations(range(1, 7), 3)), rng.randint(0, 20))
    terms = {idx: _k_coeff(rng, rho_kind) for idx in keys}
    c = _k_coeff(rng, vol_kind)
    while not c:
        c = _k_coeff(rng, vol_kind)
    return ExteriorForm(6, 3, terms), ExteriorForm(6, 6, {(1, 2, 3, 4, 5, 6): c})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_k_operator_matches_the_wedge_construction(seed):
    """On real input, the Fractions of the wedge construction on the dyadic rationals that
    the form stores; a form with a coefficient that is not real raises ComplexFormError."""
    rho, vol = _k_case(random.Random(seed))
    if any(isinstance(x, (complex, ComplexRational)) for f in (rho, vol) for x in f.terms.values()):
        with pytest.raises(ComplexFormError):
            k_operator(rho, vol)
        return
    got, want = k_operator(rho, vol), k_operator_reference(_dyadic(rho), _dyadic(vol))
    assert got == want
    assert all(type(x) is Fraction for row in got + want for x in row)


def _exact_3form(kind, rng):
    """An exact 3-form of ``kind``; "decomposable" (alpha ^ beta) and most "sparse" ones are degenerate."""
    if kind in ("split", "elliptic"):
        normal = split_normal_form() if kind == "split" else elliptic_normal_form()
        return normal.pullback(random_invertible_rational(rng, 6, bound=3))
    if kind == "decomposable":
        return rand_form(rng, 6, 1, nterms=rng.randint(1, 6)).wedge(rand_form(rng, 6, 2, nterms=15))
    return rand_form(rng, 6, 3, nterms=rng.randint(0, 4) if kind == "sparse" else rng.randint(5, 20))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(("split", "elliptic", "decomposable", "sparse", "dense")),
    st.integers(0, 2**32 - 1),
    st.integers(-9, 8),
    st.integers(1, 5),
)
def test_integer_lambda_is_trace_k_squared_over_6(kind, seed, c_num, c_den):
    """K^2 = lambda * Id exactly for every 3-form, and the lambda that classify_3form
    reads off the ints of k_operator's kernel is trace(K^2) / 6, a Fraction, under a
    vol coefficient (2 c_num + 1) / (2 c_den) of either sign that is never an integer."""
    rho = _exact_3form(kind, random.Random(seed))
    vol = ExteriorForm(6, 6, {(1, 2, 3, 4, 5, 6): Fraction(2 * c_num + 1, 2 * c_den)})
    k = k_operator(rho, vol)
    k2 = linalg.mat_mul(k, k)
    cls = classify_3form(rho, vol)
    lam = cls.discriminant
    assert k2 == [[lam if a == b else 0 for b in range(6)] for a in range(6)]
    trace = sum((k2[i][i] for i in range(6)), start=k2[0][0] * 0)
    assert (type(lam), lam) == (type(trace / 6), trace / 6) == (Fraction, trace / 6)
    assert (cls.tag == "degenerate") == (lam == 0)
    if kind in ("split", "elliptic"):
        assert cls.tag == kind
    elif kind == "decomposable":
        assert cls.tag == "degenerate"


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(("split", "elliptic", "decomposable", "sparse", "dense")),
    st.integers(0, 2**32 - 1),
    st.integers(-9, 8),
    st.integers(1, 5),
)
def test_pair_table_gives_the_ints_of_the_entry_loop(kind, seed, c_num, c_den):
    """``_k_integers`` on the merged pair table returns the (acc, num, den) of the loop
    over the 240 entries of the reference ``_K_TABLE``, under a vol coefficient (2 c_num + 1) / (2 c_den)."""
    from g2kit import threeforms

    rho = _exact_3form(kind, random.Random(seed))
    vol = ExteriorForm(6, 6, {(1, 2, 3, 4, 5, 6): Fraction(2 * c_num + 1, 2 * c_den)})
    assert threeforms._k_integers(rho, vol) == k_integers_reference(rho, vol)


def test_pair_table_merges_the_240_entries_into_150_products():
    """Each unordered pair {I, J} reaches an entry k at most once, with the sum of the signs
    of rho_I rho_J and rho_J rho_I there; no pair cancels."""
    from collections import Counter

    from g2kit.threeforms import _K_PAIRS

    entries = sum(len(e) for per_a in _K_TABLE.values() for _, e in per_a)
    assert entries == 240 == sum(abs(c) for *_, c in _K_PAIRS)
    assert len(_K_PAIRS) == 150 == len({(k, i, j) for k, i, j, _ in _K_PAIRS})
    assert Counter(c for *_, c in _K_PAIRS) == {1: 36, -1: 24, 2: 60, -2: 30}
    assert all(i < j for _, i, j, _ in _K_PAIRS)


def test_a_form_that_is_not_real_raises_a_value_error_of_its_own():
    """A Gaussian or complex form or volume form has no real GL(6) orbit: classify_3form
    raised TypeError on some and tagged others, and raises ComplexFormError on all."""
    from g2kit import threeforms

    split, vol = split_normal_form(), standard_volume_form()
    cases = [
        ((1 + I_EXACT) * split, vol),
        (I_EXACT * split, vol),
        ((1 + I_EXACT) * elliptic_normal_form(), vol),
        ((1 + 1j) * split.as_float(), vol),
        (1j * split.as_float(), vol.as_float()),
        (split, I_EXACT * vol),
        (split.as_float(), I_EXACT * vol),
        (split.as_float(), 1j * vol.as_float()),
    ]
    for rho, v in cases:
        with pytest.raises(ValueError, match="needs a real 3-form") as info:
            classify_3form(rho, v)
        assert type(info.value) is threeforms.ComplexFormError


def test_exact_classification_builds_k_only_for_an_elliptic_j(monkeypatch):
    """Split and degenerate exact forms never build K or multiply matrices; an elliptic
    form builds its J from one integer accumulation, without k_operator."""
    from g2kit import threeforms

    def refuse(*args):
        raise AssertionError("K was built")

    forms = {
        "split": pullback(split_normal_form(), _GL6),
        "degenerate": pullback(ExteriorForm(6, 3, {(1, 2, 3): Fraction(2, 7)}), _GL6),
        "elliptic": pullback(elliptic_normal_form(), _GL6),
    }
    vols = (None, ExteriorForm(6, 6, {(1, 2, 3, 4, 5, 6): Fraction(-5, 3)}))
    monkeypatch.setattr(threeforms, "k_operator", refuse)
    with monkeypatch.context() as m:
        m.setattr(linalg, "mat_mul", refuse)
        m.setattr(threeforms, "_k_fractions", refuse)
        for tag in ("split", "degenerate"):
            assert [classify_3form(forms[tag], vol).tag for vol in vols] == [tag, tag]
    calls = []
    kernel = threeforms._k_integers
    monkeypatch.setattr(threeforms, "_k_integers", lambda rho, vol: calls.append(1) or kernel(rho, vol))
    for vol in vols:
        cls = classify_3form(forms["elliptic"], vol)
        assert (cls.tag, cls.sqrt_is_exact) == ("elliptic", True)
    assert calls == [1, 1]


def test_no_classification_reaches_k_operator(monkeypatch):
    """Exact, float and mixed input are all classified on the ints of ``_k_integers``: the
    float K of k_operator is never built, for any tag, with a square mu or without."""
    from g2kit import threeforms

    def refuse(*args):
        raise AssertionError("k_operator was called")

    rho_np, vol_np = tiny_pivot_elliptic_form()
    forms = [
        (pullback(split_normal_form(), _GL6), None, "split"),
        (pullback(ExteriorForm(6, 3, {(1, 2, 3): Fraction(2, 7)}), _GL6), None, "degenerate"),
        (ExteriorForm.zero(6, 3), None, "degenerate"),
        (pullback(elliptic_normal_form(), _GL6), None, "elliptic"),
        (rho_np, vol_np, "elliptic"),
    ]
    monkeypatch.setattr(threeforms, "k_operator", refuse)
    for rho, vol, tag in forms:
        vol = standard_volume_form() if vol is None else vol
        for pair in ((rho, vol), (rho.as_float(), vol.as_float()), (rho, vol.as_float()),
                     (rho.as_float(), vol)):
            assert classify_3form(*pair).tag == tag


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_a_coefficient_that_is_not_finite_raises_float_range_error(bad):
    """In rho or in vol, next to finite coefficients of either kind."""
    for rho, vol in (
        (ExteriorForm(6, 3, {(1, 2, 3): bad, (4, 5, 6): 1.0}, FLOAT), standard_volume_form()),
        (split_normal_form(), ExteriorForm(6, 6, {(1, 2, 3, 4, 5, 6): bad}, FLOAT)),
        (split_normal_form().as_float(), ExteriorForm(6, 6, {(1, 2, 3, 4, 5, 6): bad}, FLOAT)),
    ):
        with pytest.raises(FloatRangeError, match="not finite"):
            classify_3form(rho, vol)


def test_an_exact_split_form_beyond_the_float_range_is_split():
    """10^200 (e^123 + e^456) has lambda = 10^800: its tag is read off the sign of the exact
    lambda, which no float holds (the tag was once read off a float of it: OverflowError)."""
    cls = classify_3form(10**200 * split_normal_form())
    assert (cls.tag, cls.discriminant, cls.mode) == ("split", Fraction(10**800), "exact")


def test_a_float_form_whose_scaled_k_underflows_keeps_its_exact_tag():
    """2^400 e^136 + 2^-400 e^145 + 2^400 e^235 - 2^-400 e^246 is a diagonal pullback of the
    elliptic normal form, lambda = -4 exactly.  At tol 0 it is elliptic with a finite J that
    squares to -I (it was tagged degenerate: the products of a scaled copy underflowed); at
    the default tol its |rho|^4 = 2^1600 makes it degenerate."""
    big, small = 2.0**400, 2.0**-400
    rho = ExteriorForm(6, 3, {(1, 3, 6): big, (1, 4, 5): small, (2, 3, 5): big, (2, 4, 6): -small})
    cls = classify_3form(rho, tol=0)
    assert (cls.tag, cls.discriminant) == ("elliptic", -4.0)
    assert all(math.isfinite(x) for row in cls.j_matrix for x in row)
    j = [[Fraction(x) for x in row] for row in cls.j_matrix]
    assert linalg.mat_mul(j, j) == [[-1 if a == b else 0 for b in range(6)] for a in range(6)]
    assert classify_3form(rho).tag == "degenerate"


_NOT_A_3FORM = "classification needs a 3-form on R^6"
_NOT_A_VOLUME = "volume form must be a nonzero 6-form"


@pytest.mark.parametrize(
    "rho, vol, message",
    [
        (ExteriorForm(7, 3, {(1, 2, 3): 1}), None, _NOT_A_3FORM),
        (ExteriorForm(6, 2, {(1, 2): 1}), None, _NOT_A_3FORM),
        (split_normal_form(), ExteriorForm(6, 6, {}), _NOT_A_VOLUME),
        (split_normal_form(), ExteriorForm(6, 5, {(1, 2, 3, 4, 5): 1}), _NOT_A_VOLUME),
        (split_normal_form(), ExteriorForm(7, 6, {(1, 2, 3, 4, 5, 7): 1}), _NOT_A_VOLUME),
    ],
    ids=["dim-7", "degree-2", "zero-vol", "vol-degree-5", "vol-dim-7"],
)
def test_classify_keeps_the_input_contract_of_k_operator(rho, vol, message):
    """The integer path raises the ValueError of k_operator, type and message alike."""
    k_vol = standard_volume_form() if vol is None else vol
    for call in (lambda: k_operator(rho, k_vol), lambda: classify_3form(rho, vol)):
        with pytest.raises(ValueError) as info:
            call()
        assert (type(info.value), str(info.value)) == (ValueError, message)


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf, "1e-12", 1j, None])
def test_classify_rejects_a_tol_that_is_not_a_finite_real_number_at_least_0(tol):
    """Before any other work: -1.0 divided by zero on this degenerate float form, nan and
    inf failed inside as_integer_ratio, with ZeroDivisionError, ValueError, OverflowError."""
    rho = ExteriorForm(6, 3, {(1, 2, 3): 1.0})
    for form in (rho, _dyadic(rho), ExteriorForm(7, 3, {})):
        with pytest.raises(ValueError, match="tol must be a finite real number >= 0") as info:
            classify_3form(form, tol=tol)
        assert type(info.value) is ValueError
    for ok in (0, 0.0, Fraction(1, 10), 1e300):
        assert classify_3form(rho, tol=ok).tag == "degenerate"
