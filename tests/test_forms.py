import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from g2kit import linalg
from g2kit.dga import DgaElement
from g2kit.forms import (
    DegreeError,
    DependentBasisError,
    DimensionMismatchError,
    ExteriorForm,
    InvalidIndexError,
    form_defect,
    interior,
    pullback,
    sort_sign,
)
from g2kit.polyforms import Poly, PolyCoefForm
from g2kit.scalars import EXACT, ComplexRational, MixedModeError, join_modes, mode_of, normalize_scalar

from conftest import e_vec, rand_form, rand_vector, seeded_float


def perm_sign(p):
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def evaluate_oracle(form, vectors):
    """Independent permutation-sum evaluation: no determinants."""
    total = Fraction(0)
    for idx, c in form.terms.items():
        for p in permutations(range(len(idx))):
            prod = c * perm_sign(p)
            for slot, pos in enumerate(p):
                prod = prod * vectors[slot][idx[pos] - 1]
            total = total + prod
    return total


def test_wedge_basis_cases():
    e1 = ExteriorForm.basis(7, (1,))
    e2 = ExteriorForm.basis(7, (2,))
    assert e1.wedge(e2) == ExteriorForm.basis(7, (1, 2))
    e12 = ExteriorForm.basis(7, (1, 2))
    assert e12.wedge(e12).is_zero


def test_wedge_bilinearity_hand_case():
    # (e1 + e2) ^ (e1 - e2) = -2 e12, expanded by hand
    e1 = ExteriorForm.basis(7, (1,))
    e2 = ExteriorForm.basis(7, (2,))
    lhs = (e1 + e2).wedge(e1 - e2)
    assert lhs == (-2) * ExteriorForm.basis(7, (1, 2))


def test_sign_normalization_on_input():
    f = ExteriorForm(5, 2, {(2, 1): Fraction(1)})
    assert f == (-1) * ExteriorForm.basis(5, (1, 2))
    assert ExteriorForm(5, 2, {(1, 1): Fraction(5)}).is_zero
    with pytest.raises(Exception):
        ExteriorForm(5, 2, {(1, 6): Fraction(1)})


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6), st.integers(0, 3), st.integers(0, 3))
def test_graded_commutativity(seed, dim, p, q):
    rng = random.Random(seed)
    a = rand_form(rng, dim, min(p, dim), nterms=2)
    b = rand_form(rng, dim, min(q, dim), nterms=2)
    ab = a.wedge(b)
    ba = b.wedge(a)
    sign = (-1) ** (a.degree * b.degree)
    assert ab == sign * ba


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_wedge_associative(seed):
    rng = random.Random(seed)
    a = rand_form(rng, 6, 1, nterms=2)
    b = rand_form(rng, 6, 1, nterms=2)
    c = rand_form(rng, 6, 2, nterms=2)
    assert a.wedge(b.wedge(c)) == (a.wedge(b)).wedge(c)


def test_wedge_shuffle_sum_oracle(rng):
    """evaluate(a^b) against the brute-force shuffle formula."""
    for _ in range(25):
        dim = rng.randint(3, 7)
        p = rng.randint(1, 2)
        q = rng.randint(1, min(2, dim - p))
        a = rand_form(rng, dim, p, nterms=2)
        b = rand_form(rng, dim, q, nterms=2)
        vectors = [rand_vector(rng, dim, bound=3, denom=2) for _ in range(p + q)]
        lhs = a.wedge(b).evaluate(vectors)
        total = Fraction(0)
        for subset in combinations(range(p + q), p):
            rest = tuple(i for i in range(p + q) if i not in subset)
            sign = perm_sign(subset + rest)
            total += sign * a.evaluate([vectors[i] for i in subset]) * b.evaluate(
                [vectors[i] for i in rest]
            )
        assert lhs == total


def test_evaluate_matches_permutation_oracle(rng):
    for _ in range(20):
        dim = rng.randint(2, 7)
        k = rng.randint(1, min(3, dim))
        a = rand_form(rng, dim, k, nterms=3)
        vectors = [rand_vector(rng, dim, bound=3, denom=2) for _ in range(k)]
        assert a.evaluate(vectors) == evaluate_oracle(a, vectors)


def test_evaluate_alternating(rng):
    a = rand_form(rng, 6, 3, nterms=4)
    v = [rand_vector(rng, 6) for _ in range(3)]
    assert a.evaluate([v[0], v[1], v[2]]) == -a.evaluate([v[1], v[0], v[2]])
    assert a.evaluate([v[0], v[0], v[2]]) == 0


def test_evaluate_errors():
    a = ExteriorForm.basis(5, (1, 2))
    with pytest.raises(DegreeError):
        a.evaluate([e_vec(5, 1)])
    with pytest.raises(DimensionMismatchError):
        a.evaluate([e_vec(4, 1), e_vec(4, 2)])


def test_interior_basis_cases():
    e123 = ExteriorForm.basis(7, (1, 2, 3))
    assert interior(e_vec(7, 1), e123) == ExteriorForm.basis(7, (2, 3))
    assert interior(e_vec(7, 4), e123).is_zero
    # frozen: iota_{e2} e^123 = -e^13; cross-checked against evaluation
    assert interior(e_vec(7, 2), e123) == (-1) * ExteriorForm.basis(7, (1, 3))


def test_interior_against_evaluation_oracle(rng):
    for _ in range(15):
        a = rand_form(rng, 6, 3, nterms=3)
        v = rand_vector(rng, 6)
        w1, w2 = rand_vector(rng, 6), rand_vector(rng, 6)
        assert interior(v, a).evaluate([w1, w2]) == a.evaluate([v, w1, w2])


def test_interior_squares_to_zero(rng):
    a = rand_form(rng, 7, 3, nterms=4)
    v = rand_vector(rng, 7)
    assert interior(v, interior(v, a)).is_zero


def test_interior_leibniz(rng):
    for _ in range(10):
        a = rand_form(rng, 6, 2, nterms=2)
        b = rand_form(rng, 6, 2, nterms=2)
        v = rand_vector(rng, 6)
        lhs = interior(v, a.wedge(b))
        rhs = interior(v, a).wedge(b) + a.wedge(interior(v, b))
        assert lhs == rhs


def test_interior_degree_zero_errors():
    with pytest.raises(DegreeError):
        interior(e_vec(3, 1), ExteriorForm(3, 0, {(): Fraction(2)}))


def test_pullback_identity_and_scaling():
    from g2kit.g2 import associative_three_form

    phi = associative_three_form()
    ident = [[Fraction(1 if i == j else 0) for j in range(7)] for i in range(7)]
    assert pullback(phi, ident) == phi
    diag = [[Fraction(0)] * 7 for _ in range(7)]
    for i, d in enumerate((2, 3, 1, 1, 1, 1, 1)):
        diag[i][i] = Fraction(d)
    e12 = ExteriorForm.basis(7, (1, 2))
    assert pullback(e12, diag) == 6 * e12


def test_pullback_functorial(rng):
    a = rand_form(rng, 5, 2, nterms=3)
    L = [[rand_vector(rng, 4)[j] for j in range(4)] for _ in range(5)]
    M = [[rand_vector(rng, 3)[j] for j in range(3)] for _ in range(4)]
    from g2kit import linalg

    composed = pullback(a, linalg.mat_mul(L, M))
    stepwise = pullback(pullback(a, L), M)
    assert composed == stepwise


def test_pullback_commutes_with_wedge_and_evaluate(rng):
    a = rand_form(rng, 5, 1, nterms=2)
    b = rand_form(rng, 5, 2, nterms=2)
    L = [[rand_vector(rng, 4)[j] for j in range(4)] for _ in range(5)]
    assert pullback(a.wedge(b), L) == pullback(a, L).wedge(pullback(b, L))
    vs = [rand_vector(rng, 4) for _ in range(3)]
    from g2kit import linalg

    images = [tuple(linalg.mat_vec(L, list(v))) for v in vs]
    assert pullback(a.wedge(b), L).evaluate(vs) == a.wedge(b).evaluate(images)


def test_restrict_matches_contraction(rng):
    # restriction of the calibration form to span(e2..e7): coefficients are
    # evaluations on basis triples; contracting with e1 is the oracle for
    # the pairs completed by the dropped direction
    from g2kit.g2 import associative_three_form

    phi = associative_three_form()
    basis = [e_vec(7, k) for k in range(2, 8)]
    restricted = phi.restrict(basis)
    for idx in combinations(range(6), 3):
        lhs = restricted.evaluate([e_vec(6, i + 1) for i in idx])
        rhs = phi.evaluate([basis[i] for i in idx])
        assert lhs == rhs
    iota = interior(e_vec(7, 1), phi)
    for a in range(6):
        for b in range(6):
            assert iota.evaluate([basis[a], basis[b]]) == phi.evaluate(
                [e_vec(7, 1), basis[a], basis[b]]
            )


def test_restrict_to_missing_span_is_zero():
    e12 = ExteriorForm.basis(7, (1, 2))
    basis = [e_vec(7, k) for k in range(3, 8)]
    assert e12.restrict(basis).is_zero


def test_restrict_dependent_basis_errors():
    e12 = ExteriorForm.basis(7, (1, 2))
    basis = [e_vec(7, 1), e_vec(7, 1)]
    with pytest.raises(DependentBasisError):
        e12.restrict(basis)


def test_restrict_reads_no_tolerance_on_an_exact_basis():
    """An exact basis independent only through a 1e-12 entry is independent; the same
    float basis is dependent at ``linalg.PIVOT_TOL``."""
    e12 = ExteriorForm.basis(3, (1, 2))
    basis = [[1, 0, 0], [1, Fraction(1, 10**12), 0]]
    assert e12.restrict(basis).coeff((1, 2)) == Fraction(1, 10**12)
    with pytest.raises(DependentBasisError):
        e12.as_float().restrict([[1.0, 0.0, 0.0], [1.0, 1e-12, 0.0]])


def test_mixed_mode_rejected(rng):
    a = rand_form(rng, 5, 2, nterms=2)
    with pytest.raises(MixedModeError):
        a.evaluate([(1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0)])
    with pytest.raises(MixedModeError):
        a + a.as_float()
    with pytest.raises(MixedModeError):
        0.5 * a
    assert 0.5 * a.as_float() == 0.5 * a.as_float()  # float mode fine


def test_conj_real_imag(rng):
    a = rand_form(rng, 5, 2, nterms=3, complex_coeffs=True)
    assert a.real() + ComplexRational(0, 1) * a.imag() == a
    assert a.conj().conj() == a


def test_zero_coefficients_never_stored(rng):
    a = rand_form(rng, 5, 2, nterms=3)
    b = a - a
    assert b.is_zero and not b.terms
    c = a + (-1) * a
    assert not c.terms


def test_form_defect():
    a = ExteriorForm.basis(6, (1, 2)).as_float()
    b = 1.25 * ExteriorForm.basis(6, (1, 2)).as_float()
    assert form_defect(a, b) == pytest.approx(0.25)


def _bits(x):
    """Type and value, with the float parts of a float or complex as hex (so -0.0 != 0.0)."""
    if isinstance(x, complex):
        return complex, x.real.hex(), x.imag.hex()
    return (float, x.hex()) if isinstance(x, float) else (type(x), x)


def _form_bits(form):
    return form.mode, [(k, _bits(c)) for k, c in form.terms.items()]


_DEFECT_FLOATS = (0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e300, -1e300, float("inf"), float("nan"))


def _defect_coeff(rng, kind):
    """A coefficient of a form of ``kind``: small dyadics cancel, edge values do not."""
    if kind == "complex":
        return complex(_defect_coeff(rng, "float"), _defect_coeff(rng, "float"))
    if kind == "gaussian":
        return ComplexRational(_defect_coeff(rng, "exact"), _defect_coeff(rng, "exact"))
    if kind == "exact":
        return Fraction(rng.randint(-8, 8), rng.randint(1, 4))
    return rng.choice((rng.choice(_DEFECT_FLOATS), rng.randint(-8, 8) / 4, rng.gauss(0, 1)))


def _defect_forms(rng):
    dim, degree = rng.randint(1, 6), rng.randint(0, 3)
    pool = list(combinations(range(1, dim + 1), degree))
    forms = []
    floats = ("float", "complex")
    for kind in (rng.choice(floats + ("exact", "gaussian")), rng.choice(floats)):
        keys = rng.sample(pool, rng.randint(0, len(pool)))
        terms = {k: _defect_coeff(rng, kind) for k in keys}
        forms.append(ExteriorForm(dim, degree, terms, mode="float" if kind in floats else None))
    rng.shuffle(forms)
    return forms


def reference_form_defect(a, b):
    """form_defect as it ran with to_float on every coefficient."""
    from g2kit.scalars import to_float

    d = 0.0
    for k in set(a.terms) | set(b.terms):
        d = max(d, abs(to_float(a.terms.get(k, 0)) - to_float(b.terms.get(k, 0))))
    return d


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_float_fast_paths_match_to_float_and_sabs(seed):
    """as_float, form_defect and norm_inf by float bits against the per-coefficient
    to_float/sabs code: real and complex float forms with -0.0, NaN and infinities,
    and exact forms."""
    from conftest import sabs
    from g2kit.scalars import to_float

    a, b = _defect_forms(random.Random(seed))
    for f in (a, b):
        floats = {k: to_float(c) for k, c in f.terms.items()}
        ref = ExteriorForm._trusted(f.dim, f.degree, floats, "float")
        assert _form_bits(f.as_float()) == _form_bits(ref)
        assert (f.as_float() is f) is (f.mode == "float")
        assert _bits(f.norm_inf()) == _bits(max((sabs(c) for c in f.terms.values()), default=0.0))
    assert _bits(form_defect(a, b)) == _bits(reference_form_defect(a, b))


def _float_form(rng, dim, degree, nterms=4):
    pool = list(combinations(range(1, dim + 1), degree))
    rng.shuffle(pool)
    return ExteriorForm(dim, degree, {idx: rng.uniform(-2, 2) for idx in pool[:nterms]})


def _sparse_vector(rng, dim, float_mode):
    """Random vector with about half its components zero."""
    if float_mode:
        return tuple(rng.uniform(-2, 2) if rng.random() < 0.5 else 0.0 for _ in range(dim))
    return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.5
                 else Fraction(0) for _ in range(dim))


def _random_forms(rng):
    """Exact (real and complex) and float forms of degree 1-3 on R^6 and R^7."""
    for dim in (6, 7):
        for degree in (1, 2, 3):
            yield rand_form(rng, dim, degree, nterms=4)
            yield rand_form(rng, dim, degree, nterms=3, complex_coeffs=True)
            yield _float_form(rng, dim, degree)


def _assert_canonical(result):
    """Kernel output is exactly what the validating constructor makes of its terms."""
    rebuilt = ExteriorForm(result.dim, result.degree, dict(result.terms))
    assert list(result.terms.items()) == list(rebuilt.terms.items())
    assert [type(c) for c in result.terms.values()] == [
        type(c) for c in rebuilt.terms.values()
    ]
    if result.terms:
        assert result.mode == rebuilt.mode


def test_kernel_results_equal_validated_construction():
    # products whose imaginary parts cancel must come out real
    for i in (ComplexRational(0, 1), 1j):
        a = ExteriorForm(6, 1, {(1,): 1 + i})
        b = ExteriorForm(6, 1, {(2,): 1 - i})
        _assert_canonical(a.wedge(b))
        _assert_canonical(a.wedge(b).interior(e_vec(6, 1, i == 1j)))
        _assert_canonical((1 - i) * a)
    rng = random.Random(61)
    for a in _random_forms(rng):
        fm = a.mode == "float"
        b = _float_form(rng, a.dim, 2) if fm else rand_form(rng, a.dim, 2, nterms=4)
        _assert_canonical(a.wedge(b))
        _assert_canonical(a + a)
        _assert_canonical(a - a)
        _assert_canonical((0.5 if fm else Fraction(3, 2)) * a)
        for part in (a.conj(), a.real(), a.imag()):
            _assert_canonical(part)
        _assert_canonical(a.interior(_sparse_vector(rng, a.dim, fm)))
        m = rng.randint(a.degree, a.dim)
        cols = [_sparse_vector(rng, a.dim, fm) for _ in range(m)]
        _assert_canonical(a.pullback([[c[i] for c in cols] for i in range(a.dim)]))
        basis = [e_vec(a.dim, k, fm) for k in rng.sample(range(1, a.dim + 1), m)]
        basis[0] = tuple(x + y for x, y in zip(basis[0], cols[0]))
        if linalg.rank(basis) == m:
            _assert_canonical(a.restrict(basis))


def _evaluate_every_term(form, vectors):
    """The determinant expansion with no term skipped."""
    total = None
    for idx, c in form.terms.items():
        d = linalg.det([[v[i - 1] for i in idx] for v in vectors])
        total = c * d if total is None else total + c * d
    if total is None:
        return Fraction(0) if form.mode == "exact" else 0.0
    return normalize_scalar(total)


def test_evaluate_skipping_zero_minors_matches_full_expansion():
    rng = random.Random(62)
    for a in _random_forms(rng):
        fm = a.mode == "float"
        basis = [e_vec(a.dim, k, fm) for k in range(1, a.dim + 1)]
        samples = [[_sparse_vector(rng, a.dim, fm) for _ in range(a.degree)] for _ in range(20)]
        samples += [list(s) for s in combinations(basis, a.degree)]
        for vectors in samples:
            got, full = a.evaluate(vectors), _evaluate_every_term(a, vectors)
            assert got == full
            if not fm:
                assert type(got) is type(full)


def test_mixed_modes_rejected_by_every_kernel_operation(rng):
    exact = rand_form(rng, 6, 2, nterms=3)
    flt = _float_form(rng, 6, 2)
    for form, other in ((exact, flt), (flt, exact)):
        foreign = other.mode == "float"
        vectors = [e_vec(6, 1, foreign), e_vec(6, 2, foreign)]
        matrix = [[(1.0 if foreign else Fraction(1)) * (i == j) for j in range(4)]
                  for i in range(6)]
        with pytest.raises(MixedModeError):
            form.evaluate(vectors)
        with pytest.raises(MixedModeError):
            form.interior(vectors[0])
        with pytest.raises(MixedModeError):
            form.pullback(matrix)
        with pytest.raises(MixedModeError):
            form.wedge(other)


# ---------------------------------------------------------------------------
# the shared kernel: ExteriorForm, PolyCoefForm and DgaElement
# ---------------------------------------------------------------------------

def _oracle_terms(pairs):
    """Canonical terms by bubble sort with a transposition count, summed per key."""
    out = {}
    for key, c in pairs:
        key = list(key)
        if len(set(key)) != len(key):
            continue
        for end in range(len(key) - 1, 0, -1):
            for i in range(end):
                if key[i] > key[i + 1]:
                    key[i], key[i + 1] = key[i + 1], key[i]
                    c = -c
        out[tuple(key)] = out.get(tuple(key), 0) + c
    return {k: c for k, c in out.items() if c}


class _Exterior:
    def __init__(self, dim):
        self.dim = dim

    def make(self, degree, terms):
        return ExteriorForm(self.dim, degree, terms)

    def view(self, f):
        return dict(f.terms)

    def wedge(self, a, b):
        return a.wedge(b)

    def interior(self, v, a):
        return a.interior(v)


class _PolyConst(_Exterior):
    def make(self, degree, terms):
        return PolyCoefForm(self.dim, degree, {k: Poly.const(self.dim, c) for k, c in terms.items()})

    def view(self, f):
        zero = (0,) * self.dim
        assert all(set(p.terms) == {zero} for p in f.terms.values())
        return {k: p.terms[zero] for k, p in f.terms.items()}

    def interior(self, v, a):
        return a.interior_field([Poly.const(self.dim, x) for x in v])


class _Dga(_Exterior):
    """Form index i is generator i - 1."""

    def make(self, degree, terms):
        return DgaElement({tuple(i - 1 for i in k): c for k, c in terms.items()})

    def view(self, f):
        assert all(c.im == 0 for c in f.terms.values())
        return {tuple(g + 1 for g in w): c.re for w, c in f.terms.items()}

    def wedge(self, a, b):
        return a * b

    interior = None  # the coframe algebra has no interior product


_COEFFS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _kernel_case(draw):
    dim = draw(st.integers(1, 6))

    def terms(degree):
        key = st.tuples(*[st.integers(1, dim)] * degree)
        return draw(st.dictionaries(key, _COEFFS, max_size=4))

    p, q, r = (draw(st.integers(0, 3)) for _ in range(3))
    vector = draw(st.lists(_COEFFS, min_size=dim, max_size=dim))
    return dim, (p, terms(p)), (p, terms(p)), (q, terms(q)), (r, terms(r)), vector


@settings(max_examples=60, deadline=None)
@given(_kernel_case())
def test_wrappers_agree_on_the_shared_kernel(case):
    """Sums, wedges and contractions agree across the three wrappers and the oracle."""
    dim, (p, ta), (_, ta2), (q, tb), (r, tc), v = case
    expect = {
        "a": _oracle_terms(ta.items()),
        "a+a2": _oracle_terms(list(ta.items()) + list(ta2.items())),
        "a^b": _oracle_terms(
            (ka + kb, ca * cb) for ka, ca in ta.items() for kb, cb in tb.items()
        ),
    }
    results = []
    for w in (_Exterior(dim), _PolyConst(dim), _Dga(dim)):
        a, a2, b, c = w.make(p, ta), w.make(p, ta2), w.make(q, tb), w.make(r, tc)
        assert w.view(a) == expect["a"]
        assert w.view(a + a2) == expect["a+a2"]
        assert w.view(w.wedge(a, b)) == expect["a^b"]
        assert w.view(w.wedge(a, b)) == {
            k: (-1) ** (p * q) * x for k, x in w.view(w.wedge(b, a)).items()
        }
        assert w.view(w.wedge(w.wedge(a, b), c)) == w.view(w.wedge(a, w.wedge(b, c)))
        got = {"a+a2": w.view(a + a2), "a^b^c": w.view(w.wedge(w.wedge(a, b), c))}
        if w.interior is not None and p > 0:
            got["i_v a"] = w.view(w.interior(v, a))
        results.append(got)
    assert results[0] == results[1]
    assert {k: x for k, x in results[0].items() if k != "i_v a"} == results[2]
    if p > 0:
        # i_v(e^{k1..kp}) = sum_s (-1)^s v_{ks} e^{k without ks}
        assert results[0]["i_v a"] == _oracle_terms(
            (k[:s] + k[s + 1 :], (-1) ** s * v[k[s] - 1] * x)
            for k, x in expect["a"].items()
            for s in range(p)
        )


_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 1)] * 3), _COEFFS, max_size=3
).map(lambda terms: Poly(3, terms))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2),
    st.integers(0, 2),
    st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 3)), _POLYS, max_size=3),
    st.dictionaries(st.tuples(st.integers(1, 3)), _POLYS, max_size=3),
)
def test_polycoef_d_obeys_leibniz(p, q, ta, tb):
    """d(a ^ b) = da ^ b + (-1)^p a ^ db on R^3 with polynomial coefficients."""
    a = PolyCoefForm(3, p, {k[:p]: c for k, c in ta.items() if len(set(k[:p])) == p})
    b = PolyCoefForm(3, q, {(k * 2)[:q]: c for k, c in tb.items()})
    lhs = a.wedge(b).d()
    rhs = a.d().wedge(b)
    rhs = rhs + a.wedge(b.d()) if p % 2 == 0 else rhs - a.wedge(b.d())
    assert lhs == rhs


def test_wrapper_constructors_keep_their_index_checks():
    """Repeated indices drop a term; bad keys raise the type each wrapper always raised."""
    for key in ((1, 1), (2, 2), (1, 1, 2)):
        assert DgaElement({key: 1}).is_zero
    assert ExteriorForm(5, 2, {(1, 1): 1}).is_zero
    assert PolyCoefForm(5, 2, {(1, 1): 1}).is_zero
    # PolyCoefForm drops a repeated-index key before it checks range and length
    assert PolyCoefForm(5, 2, {(9, 9): 1}).is_zero
    assert PolyCoefForm(5, 2, {(1, 1, 2): 1}).is_zero
    for key in ((9, 9), (1, 1, 2), (1, 9), (0, 1), (1, 2, 3), (1,)):
        with pytest.raises(InvalidIndexError):
            ExteriorForm(5, 2, {key: 1})
    for key in ((1, 9), (0, 1), (1, 2, 3), (1,)):
        with pytest.raises(ValueError) as exc:
            PolyCoefForm(5, 2, {key: 1})
        assert exc.type is ValueError
        # the coframe algebra validates no words: generators are whatever the caller names
        assert DgaElement({key: 1}).terms == {key: 1}
    assert DgaElement({(20, -1): 1}).terms == {(-1, 20): -1}
    assert DgaElement({(1,): 1}).smul(0).terms == {}
    for cls in (ExteriorForm, PolyCoefForm):
        with pytest.raises(ValueError) as exc:
            cls(5, -1, {})
        assert exc.type is (DegreeError if cls is ExteriorForm else ValueError)


def reference_exterior_form(dim, degree, terms):
    """``(terms, mode)`` by the ExteriorForm constructor's own loop, before it called canonical_terms."""
    clean, inferred = {}, None
    for idx, coeff in terms.items():
        idx = tuple(idx)
        if len(idx) != degree:
            raise InvalidIndexError(f"tuple {idx} has length != degree {degree}")
        if any(not 1 <= i <= dim for i in idx):
            raise InvalidIndexError(f"index in {idx} outside 1..{dim}")
        key, sign = sort_sign(idx)
        if sign == 0:
            continue
        coeff = normalize_scalar(coeff) if sign == 1 else normalize_scalar(-1 * coeff)
        m = mode_of(coeff)
        inferred = m if inferred is None else join_modes(inferred, m)
        acc = clean.get(key)
        coeff = coeff if acc is None else acc + coeff
        if coeff:
            clean[key] = normalize_scalar(coeff)
        elif key in clean:
            del clean[key]
    return clean, inferred or EXACT


def _typed_terms(terms):
    """Keys in order, with the type and repr of each coefficient (repr pins float zero signs)."""
    return [(key, type(c), repr(c)) for key, c in terms.items()]


def _outcome(build):
    try:
        return build()
    except (InvalidIndexError, MixedModeError) as exc:
        return type(exc), str(exc)


# few values, so that sums cancel, in whole or in their imaginary part only;
# complex(0.0, -1.0) is where -1 * c and -c differ in the sign of a zero
_CTOR_FLOATS = (0.0, -0.0, 1.0, -1.0, 0.5)
_CTOR_FRACTIONS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))
_CTOR_COEFFS = {
    "exact": lambda rng: rng.choice((
        rng.randint(-1, 1),
        rng.choice(_CTOR_FRACTIONS),
        ComplexRational(rng.choice(_CTOR_FRACTIONS), rng.choice((1, -1))),
        ComplexRational(rng.choice(_CTOR_FRACTIONS), rng.choice((1, -1))),
    )),
    "float": lambda rng: rng.choice((
        rng.choice(_CTOR_FLOATS),
        complex(rng.choice(_CTOR_FLOATS), rng.choice(_CTOR_FLOATS)),
        complex(rng.choice(_CTOR_FLOATS), rng.choice((1.0, -1.0))),
        complex(0.0, -1.0),
    )),
}
_CTOR_COEFFS["mixed"] = lambda rng: _CTOR_COEFFS[rng.choice(("exact", "float"))](rng)


def _constructor_case(rng):
    """Mostly permutations of one index set, so that keys collide, flip signs and cancel.

    A quarter of the keys are drawn freely instead: repeated indices, and an
    index of dim + 1 that the constructor must reject.
    """
    dim = rng.randint(1, 4)
    degree = min(dim, rng.choice((0, 1, 2, 2, 3, 3, 3)))
    coeff = _CTOR_COEFFS[rng.choice(sorted(_CTOR_COEFFS))]
    pool = [coeff(rng) for _ in range(rng.randint(1, 3))]
    base = rng.sample(range(1, dim + 1), degree)
    top = dim + (rng.random() < 0.25)
    terms = {}
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.25:
            key = tuple(rng.randint(1, top) for _ in range(degree))
        else:
            key = tuple(rng.sample(base, degree))
        terms[key] = rng.choice(pool)
    return dim, degree, terms


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32))
def test_exterior_form_constructor_matches_its_old_loop(seed):
    """Terms, key order, coefficient types and float bits, mode, and the error raised."""
    dim, degree, terms = _constructor_case(random.Random(seed))
    want = _outcome(lambda: reference_exterior_form(dim, degree, terms))
    got = _outcome(lambda: ExteriorForm(dim, degree, terms))
    if isinstance(want[0], type):
        assert got == want
    else:
        assert (_typed_terms(got.terms), got.mode) == (_typed_terms(want[0]), want[1])


def test_exterior_form_constructor_edge_cases():
    """-1 * c keeps +0.0 where -c would store -0.0, and cancelled float terms keep float mode."""
    form = ExteriorForm(6, 3, {(2, 1, 3): complex(0.0, -1.0)})
    assert _typed_terms(form.terms) == [((1, 2, 3), complex, "1j")]  # -c gives "(-0+1j)"
    # a sum whose imaginary part cancels is stored real, as normalize_scalar leaves it
    i = ComplexRational(0, 1)
    summed = ExteriorForm(3, 2, {(1, 2): 1 + i, (2, 1): i})
    assert _typed_terms(summed.terms) == [((1, 2), Fraction, "Fraction(1, 1)")]
    summed = ExteriorForm(3, 2, {(1, 3): 1j, (3, 1): 0.5 + 1j})
    assert _typed_terms(summed.terms) == [((1, 3), float, "-0.5")]
    cancelled = ExteriorForm(3, 2, {(1, 2): 1.5, (2, 1): 1.5, (1, 3): 0.0})
    assert cancelled.is_zero and cancelled.mode == "float"
    assert ExteriorForm(3, 2, {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}).mode == "exact"
    with pytest.raises(MixedModeError):
        ExteriorForm(3, 2, {(1, 2): 1.5, (2, 1): 1.5}, mode="exact")


def test_increasing_keys_raise_what_the_general_path_raises():
    """Keys that are stored as given skip sorting; their coefficients are checked as before."""
    with pytest.raises(MixedModeError, match="cannot mix exact and float scalars"):
        ExteriorForm(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1.5})
    with pytest.raises(MixedModeError, match="cannot mix float and exact scalars"):
        ExteriorForm(6, 3, {(1, 2, 3): 1.5, (4, 5, 6): Fraction(1), (1, 2, 4): 2.5})
    with pytest.raises(MixedModeError, match="coefficients are float but mode=exact"):
        ExteriorForm(6, 3, {(1, 2, 3): 1.5}, mode="exact")
    with pytest.raises(TypeError, match="not a scalar: 'x'"):
        ExteriorForm(6, 2, {(1, 2): Fraction(1), (1, 3): "x"})
    with pytest.raises(TypeError, match="'<=' not supported between instances of 'int' and 'str'"):
        ExteriorForm(6, 2, {(1, "a"): 1})
    assert ExteriorForm(6, 0, {(): 2}).terms == {(): Fraction(2)}
    assert ExteriorForm(6, 2, {(1, 2): 0.0, (2, 3): -0.0}).mode == "float"


# ---------------------------------------------------------------------------
# the evaluation kernel against a per-minor linalg.det reference
# ---------------------------------------------------------------------------

def _evaluate_per_minor(form, vectors):
    """The expansion with one ``linalg.det`` per minor, skipping zero-row minors."""
    if form.degree == 0:
        return form.terms.get((), Fraction(0) if form.mode == "exact" else 0.0)
    total = None
    for idx, c in form.terms.items():
        if any(not any(v[i - 1] for i in idx) for v in vectors):
            continue
        d = linalg.det([[v[i - 1] for i in idx] for v in vectors])
        total = c * d if total is None else total + c * d
    if total is None:
        return Fraction(0) if form.mode == "exact" else 0.0
    return normalize_scalar(total)


def _pullback_per_minor(form, cols):
    terms = {}
    for sub in combinations(range(len(cols)), form.degree):
        val = _evaluate_per_minor(form, [cols[j] for j in sub])
        if val:
            terms[tuple(j + 1 for j in sub)] = val
    return terms


def _assert_same_scalar(got, want):
    """Equal value and type; floats and complex parts equal by ``float.hex``, bit for bit."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, (float, complex)):
        bits = lambda x: (x.real.hex(), x.imag.hex())
        assert bits(got) == bits(want)
    else:
        assert got == want


_EVAL_KINDS = ("rational", "gaussian", "float", "complex", "int_float")


def _eval_entry(rng, kind):
    """A vector entry: the exact kernel takes rational entries, the float kernel
    float ones, and Gaussian rationals, complex floats and ints among floats
    take the per-minor fallback.  Random floats are rarely exact in binary,
    so a change in rounding shows; dyadic ones let minors cancel to exact zeros."""
    if rng.random() < 0.3:
        return rng.choice([0.0, -0.0]) if kind in ("float", "complex") else 0
    q = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    x = rng.choice([rng.uniform(-2, 2), rng.randint(-8, 8) / 4])
    return {
        "rational": rng.choice([q.numerator, q]),
        "gaussian": ComplexRational(q, Fraction(rng.randint(-4, 4), rng.randint(1, 4))),
        "float": x,
        "complex": complex(x, rng.uniform(-2, 2)),
        "int_float": rng.choice([rng.randint(-2, 2), x]),
    }[kind]


def _eval_coeff(rng, exact):
    q = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    if exact:
        return rng.choice([q.numerator, q, ComplexRational(q, rng.randint(-2, 2))])
    x = rng.choice([-1, 1]) * rng.uniform(0.1, 2)
    return rng.choice([x, complex(x, rng.uniform(-2, 2))])


def _form_and_vectors(rng, dim, degree, kind, count):
    exact = kind in ("rational", "gaussian")
    pool = list(combinations(range(1, dim + 1), degree))
    keys = rng.sample(pool, min(len(pool), rng.randint(0, 8)))
    form = ExteriorForm(dim, degree, {k: _eval_coeff(rng, exact) for k in keys},
                        mode="exact" if exact else "float")
    vectors = []
    for _ in range(count):
        shape = rng.choices(["sparse", "zero", "repeat"], [8, 1, 1])[0]
        if shape == "repeat" and vectors:
            vectors.append(list(rng.choice(vectors)))
        elif shape == "zero":
            vectors.append([0 if exact else 0.0] * dim)
        else:
            vectors.append([_eval_entry(rng, kind) for _ in range(dim)])
    return form, vectors


# each example checks a batch of cases drawn from a seeded generator, so
# that every (kind, dim, degree) cell sees many random floats
_EVAL_CELLS = dict(
    kind=st.sampled_from(_EVAL_KINDS),
    dim=st.integers(3, 7),
    degree=st.integers(1, 4),
    rng=st.randoms(use_true_random=True),
)


@settings(max_examples=100, deadline=None)
@given(**_EVAL_CELLS)
def test_evaluate_matches_per_minor_det(kind, dim, degree, rng):
    degree = min(degree, dim)
    for _ in range(10):
        form, vectors = _form_and_vectors(rng, dim, degree, kind, degree)
        _assert_same_scalar(form.evaluate(vectors), _evaluate_per_minor(form, vectors))


@settings(max_examples=60, deadline=None)
@given(**_EVAL_CELLS)
def test_pullback_and_restrict_match_per_minor_det(kind, dim, degree, rng):
    degree = min(degree, dim)
    for _ in range(3):
        form, cols = _form_and_vectors(rng, dim, degree, kind, rng.randint(degree, dim))
        want = _pullback_per_minor(form, cols)
        got = form.pullback([[c[i] for c in cols] for i in range(form.dim)])
        assert list(got.terms) == list(want)
        for key, val in want.items():
            _assert_same_scalar(got.terms[key], val)
        if linalg.rank(cols) == len(cols):
            assert form.restrict(cols).terms == got.terms


def reference_wedge_terms(ta, tb):
    """The product as a loop over all pairs, each merged by ``sort_sign``."""
    from g2kit.forms import sort_sign

    out = {}
    for ia, ca in ta.items():
        for ib, cb in tb.items():
            key, sign = sort_sign(ia + ib)
            if sign == 0:
                continue
            c = ca * cb if sign == 1 else -(ca * cb)
            acc = out.get(key)
            c = c if acc is None else acc + c
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def _float_wedge_case(rng):
    """Two float forms on R^dim; keys may repeat or be unsorted.  Small values
    cancel exactly (so keys leave and re-enter the product), others round."""
    dim = rng.randint(1, 7)
    forms = []
    for _ in range(2):
        degree = rng.randint(0, min(dim, 4))
        terms = {}
        for _ in range(rng.randint(0, 12)):
            key = tuple(rng.randint(1, dim) for _ in range(degree))
            small = rng.choice((1.0, -1.0, 2.0, -0.5))
            terms[key] = small if rng.random() < 0.5 else seeded_float(rng, -1e3, 1e3)
        forms.append(ExteriorForm(dim, degree, terms, mode="float"))
    return forms


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_float_wedge_matches_the_pair_loop(seed):
    """Float ``wedge`` equals the all-pairs loop in value (by repr) and in key order."""
    a, b = _float_wedge_case(random.Random(seed))
    got = a.wedge(b)
    want = ExteriorForm._trusted(a.dim, got.degree, reference_wedge_terms(a.terms, b.terms), "float")
    assert repr(list(got.terms.items())) == repr(list(want.terms.items()))

