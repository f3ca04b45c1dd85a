"""The fraction-free paths of linalg against the generic sum-of-products and
elimination, entry by entry, in value and in type."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2kit import linalg
from g2kit.linalg import DegenerateFormError, _bareiss
from g2kit.scalars import ComplexRational, MixedModeError


def reference_mat_mul(a, b):
    return [
        [sum((a[i][t] * b[t][j] for t in range(len(b))), start=a[i][0] * 0) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def reference_mat_vec(a, v):
    return [sum((a[i][j] * v[j] for j in range(len(v))), start=a[i][0] * 0) for i in range(len(a))]


def reference_det(m):
    """Gaussian elimination with division, as linalg.det runs on floats."""
    a = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in m]
    n, sign, result = len(a), 1, None
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return a[0][0] * 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        result = a[c][c] if result is None else result * a[c][c]
    return result if sign > 0 else -result


def same(x, y):
    """Equal in value and in type (repr also pins float signs of zero)."""
    if isinstance(x, list):
        return len(x) == len(y) and all(same(a, b) for a, b in zip(x, y))
    return type(x) is type(y) and repr(x) == repr(y)


_ints = st.integers(-4, 4)
# denominators 1 and cancelling numerators (6/3) are included on purpose
_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
_gaussian = st.builds(ComplexRational, _fractions, _fractions)
_floats = st.integers(-40, 40).map(lambda k: k / 8)
KINDS = {
    "int": _ints,
    "fraction": _fractions,
    "int+fraction": st.one_of(_ints, _fractions),
    "gaussian": _gaussian,
    "gaussian+fraction": st.one_of(_gaussian, _fractions),
    "float": _floats,
}


def matrices(kind, rows, cols):
    return st.lists(st.lists(KINDS[kind], min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def products(draw):
    kind_a, kind_b = draw(st.sampled_from(sorted(KINDS))), draw(st.sampled_from(sorted(KINDS)))
    if "float" in (kind_a, kind_b) and kind_a != kind_b:
        kind_b = kind_a
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(matrices(kind_a, n, k)), draw(matrices(kind_b, k, m)), draw(st.lists(KINDS[kind_b], min_size=k, max_size=k))


@settings(max_examples=300, deadline=None)
@given(products())
def test_mat_mul_and_mat_vec_match_generic(case):
    a, b, v = case
    assert same(linalg.mat_mul(a, b), reference_mat_mul(a, b))
    assert same(linalg.mat_vec(a, v), reference_mat_vec(a, v))


@st.composite
def square(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    n = draw(st.integers(1, 5))
    m = draw(matrices(kind, n, n))
    # rank-deficient: repeat a row times a scalar, or zero one out
    if n > 1 and draw(st.booleans()):
        i, j, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.sampled_from([0, 2]))
        m[i] = [c * x for x in m[j]] if i != j else [x * 0 for x in m[i]]
    return m


@settings(max_examples=300, deadline=None)
@given(square())
def test_det_matches_generic_elimination(m):
    assert same(linalg.det(m), reference_det(m))


def test_det_edge_cases():
    f = Fraction
    cases = [
        [[0, 1], [1, 0]],  # a zero pivot forces a row swap
        [[f(0), f(2), f(1)], [f(0), f(1), f(3)], [f(1, 2), f(1), f(1)]],  # two swaps
        [[f(1), f(2), f(3)], [f(2), f(4), f(7)], [f(1), f(5), f(2)]],  # swap at step 2
        [[f(1), f(2)], [f(0), f(0)]],  # zero row
        [[f(1, 3), f(2, 3)], [f(1, 2), f(1)]],  # rank one
        [[f(7, 3)]],
        [[5]],
        [[f(6, 3), f(1, 2)], [f(4, 2), f(3)]],  # denominators cancel to integers
    ]
    expected = [f(-1), f(5, 2), f(-3), f(0), f(0), f(7, 3), f(5), f(5)]
    for m, d in zip(cases, expected):
        assert same(linalg.det(m), d)
        assert same(linalg.det(m), reference_det(m))


def test_bareiss_row_swap_sign():
    assert _bareiss([[0, 1], [1, 0]]) == -1
    assert _bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert _bareiss([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


def test_product_types_per_entry():
    """An int row times an int column stays int beside Fraction entries."""
    a = [[1, 2], [Fraction(1, 2), 3]]
    b = [[1, Fraction(2)], [0, 1]]
    out = linalg.mat_mul(a, b)
    assert [[type(x) for x in row] for row in out] == [[int, Fraction], [Fraction, Fraction]]
    assert out == [[1, 4], [Fraction(1, 2), 4]]
    assert [type(x) for x in linalg.mat_vec(a, [1, 1])] == [int, Fraction]


def test_inverse_takes_its_mode_from_every_entry():
    """An exact leading entry does not hide a float elsewhere; each mode keeps its types."""
    with pytest.raises(MixedModeError):
        linalg.inverse([[Fraction(1), 0.5], [0.0, 1.0]])
    with pytest.raises(MixedModeError):
        linalg.inverse([[1, 0.5], [Fraction(0), 1]])
    assert same(linalg.inverse([[2.0, 1.0], [1.0, 1.0]]), [[1.0, -1.0], [-1.0, 2.0]])
    assert same(linalg.inverse([[1, 0.5], [0.0, 1.0]]), [[1.0, -0.5], [0.0, 1.0]])
    q = [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    assert same(linalg.inverse([[2, 1], [1, 1]]), q)
    i, zero, one = ComplexRational(0, 1), ComplexRational(0), ComplexRational(1)
    assert same(linalg.inverse([[i, 0], [0, 1]]), [[-i, zero], [zero, one]])


def test_rank_solve_and_signature_take_their_mode_from_every_entry():
    """A Fraction beside a float raises wherever the two sit, as in ``inverse``."""
    half = Fraction(1, 2)
    with pytest.raises(MixedModeError):
        linalg.rank([[half, 0.5], [0.0, 1.0]], 1e-9)
    with pytest.raises(MixedModeError):
        linalg.rank([[1, 0.5], [Fraction(2), 1]])
    with pytest.raises(MixedModeError):
        linalg.solve([[half, 0], [0, 1]], [0.5, 1.0])
    with pytest.raises(MixedModeError):
        linalg.solve([[1, 0.5], [Fraction(0), 1]], [1, 1], 1e-9)
    with pytest.raises(MixedModeError):
        linalg.signature([[half, 0.5], [0.5, 1.0]], 1e-9)
    assert linalg.rank([[1, 0.5], [2, 1.0]]) == 1  # ints join either mode
    assert linalg.signature([[1.0, 0], [0, -1]], 1e-9) == (1, 1)


def test_float_solve_returns_floats_beside_int_entries():
    """A float system gives float unknowns, also where its int entries meet only each other."""
    for m, rhs in (([[2, 0], [0, 1]], [1.0, 1]), ([[2.0, 0], [0, 1]], [1, 1])):
        x = linalg.solve(m, rhs)
        assert x == [0.5, 1.0] and all(type(c) is float for c in x)
    assert linalg.solve([[2, 0], [0, 1]], [1, 1]) == [Fraction(1, 2), Fraction(1)]


_zi = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


def _as_cr(m):
    return [[ComplexRational(re, im) for re, im in row] for row in m]


def _as_pairs(m):
    return [[(x.re, x.im) for x in row] for row in m]


@st.composite
def zi_products(draw):
    """An n x 3 and a 3 x m pair matrix: ``_zi_mat_mul`` serves inner dimension 3 only."""
    n, k, m = draw(st.integers(1, 4)), 3, draw(st.integers(1, 4))
    rows = lambda r, c: st.lists(st.lists(_zi, min_size=c, max_size=c), min_size=r, max_size=r)
    return draw(rows(n, k)), draw(rows(k, m))


@settings(max_examples=200, deadline=None)
@given(zi_products())
def test_zi_mat_mul_matches_mat_mul(case):
    a, b = case
    assert linalg._zi_mat_mul(a, b) == _as_pairs(linalg.mat_mul(_as_cr(a), _as_cr(b)))


@st.composite
def zi_square3(draw, entries=_zi):
    m = draw(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3))
    # singular cases: a zero row, or one row repeated
    i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["full", "zero", "repeat"]))
    if kind == "zero":
        m[i] = [(0, 0)] * 3
    elif kind == "repeat" and i != j:
        m[i] = list(m[j])
    return m


@settings(max_examples=300, deadline=None)
@given(zi_square3())
def test_zi_det3_and_cofactors(m):
    d = linalg._zi_det3(m)
    assert ComplexRational(*d) == linalg.det(_as_cr(m))
    adj = linalg.transpose(linalg._zi_cofactors(m))
    assert linalg._zi_mat_mul(m, adj) == [[d if i == j else (0, 0) for j in range(3)] for i in range(3)]


# the sweep's products reach far past the small entries above
_big = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))
_zi_big = st.tuples(_big, _big)


def _general_cross(a, b):
    """a x b through the general ``_zi_dot``: entry k is a[k+1] . b[k+2] - a[k+2] . b[k+1]."""
    out = []
    for k in range(3):
        x, y = a[(k + 1) % 3], a[(k + 2) % 3]
        u, v = b[(k + 2) % 3], b[(k + 1) % 3]
        out.append(linalg._zi_dot(*zip(x, y), *zip(u, (-v[0], -v[1]))))
    return out


def _general_mat_mul(a, b):
    return [[linalg._zi_dot(*zip(*x), *zip(*y)) for y in zip(*b)] for x in a]


@settings(max_examples=200, deadline=None)
@given(zi_square3(_zi_big), zi_square3(_zi_big))
def test_zi_3x3_kernels_match_the_general_routes(m, b):
    """The straight-line 3x3 kernels against ``_zi_dot`` and ComplexRational ``mat_mul``/``det``."""
    prod_ = linalg._zi_mat_mul(m, b)
    assert prod_ == _general_mat_mul(m, b)
    assert prod_ == _as_pairs(linalg.mat_mul(_as_cr(m), _as_cr(b)))
    cr = _as_cr(m)
    for k in range(3):
        x, y = cr[(k + 1) % 3], cr[(k + 2) % 3]
        want = [x[(t + 1) % 3] * y[(t + 2) % 3] - x[(t + 2) % 3] * y[(t + 1) % 3] for t in range(3)]
        assert linalg._zi_cross(m[(k + 1) % 3], m[(k + 2) % 3]) == _as_pairs([want])[0]
    cof = linalg._zi_cofactors(m)
    assert cof == [_general_cross(m[(k + 1) % 3], m[(k + 2) % 3]) for k in range(3)]
    d = linalg._zi_det3(m)
    assert d == linalg._zi_dot(*zip(*m[0]), *zip(*cof[0]))
    assert ComplexRational(*d) == linalg.det(cr)
    assert linalg._zi_mat_mul(m, linalg.transpose(cof)) == [
        [d if i == j else (0, 0) for j in range(3)] for i in range(3)
    ]


# float, complex and exact entries for the unrolled 2x2 / 3x3 elimination: zeros of
# both signs, values whose products cancel exactly, and values that round
_elim_floats = st.one_of(
    st.sampled_from([0.0, -0.0]), _floats, st.floats(-100, 100, allow_nan=False)
)
ELIM_KINDS = {
    "float": _elim_floats,
    "complex": st.builds(complex, _elim_floats, _elim_floats),
    "fraction": st.one_of(st.just(Fraction(0)), _fractions),
    "gaussian": st.one_of(st.just(ComplexRational(0)), _gaussian),
}


@st.composite
def small_square(draw):
    kind = draw(st.sampled_from(sorted(ELIM_KINDS)))
    n = draw(st.integers(2, 3))
    m = draw(st.lists(st.lists(ELIM_KINDS[kind], min_size=n, max_size=n), min_size=n, max_size=n))
    # zero leading entries (forcing one or two swaps) or a whole row
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        m[i][0] = m[i][0] * 0
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        m[i] = [x * 0 for x in m[i]]
    return m


@settings(max_examples=500, deadline=None)
@given(small_square())
def test_unrolled_det_elim_matches_the_loop(m):
    """``_det_elim`` on 2x2 and 3x3 rows equals the elimination loop, float zero signs included."""
    assert same(linalg._det_elim([list(row) for row in m]), reference_det(m))


def test_unrolled_det_elim_edge_cases():
    cases = [
        [[0.0, 1.0], [-0.0, 2.0]],  # no pivot in column 0: +0.0 * 0
        [[-0.0, 1.0], [0.0, 2.0]],  # ... -0.0 * 0
        [[0.0, 3.0], [-2.0, 5.0]],  # one swap
        [[-0.0, 3.0], [-2.0, 0.0]],  # one swap, then no pivot: -2.0 * 0
        [[1.0, 2.0], [0.5, 1.0]],  # the second pivot cancels to zero
        [[0.0, 1.0, 2.0], [-0.0, 3.0, 4.0], [5.0, 6.0, 7.0]],  # swap with the last row
        [[1.0, 2.0, 3.0], [2.0, 4.0, 7.0], [3.0, 7.0, 1.0]],  # swap at the second step
        [[0.0, 2.0, 1.0], [0.0, 1.0, 3.0], [0.5, 1.0, 1.0]],  # two swaps
        [[-3.0, 1.0, 2.0], [0.0, -0.0, 0.0], [1.0, 1.0, 1.0]],  # zero row
        [[2.0, 1.0, 1.0], [4.0, 2.0, 2.0], [1.0, 3.0, 0.0]],  # both rows lose their pivot
        [[1j, 2.0, -0.0], [0.0, 1 - 1j, 2j], [3.0, 0.0, 1.0]],
    ]
    for m in cases:
        assert same(linalg._det_elim([list(row) for row in m]), reference_det(m)), m


@pytest.mark.parametrize("k", range(-12, 13, 3))
def test_float_rank_and_signature_tolerances_are_relative(k):
    """Scaling a float matrix by 10^k changes neither verdict; tol 0 stays exact pivoting."""
    sym = [[1.0, 2.0, 0.5], [2.0, -1.0, 0.25], [0.5, 0.25, 3.0]]
    low = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0 + 1e-13], [0.0, 1.0, 1.0]]
    scaled = lambda m: [[10.0**k * x for x in row] for row in m]
    assert linalg.signature(scaled(sym), 1e-10) == linalg.signature(sym, 1e-10) == (2, 1)
    assert linalg.rank(scaled(low), 1e-10) == linalg.rank(low, 1e-10) == 2
    assert linalg.rank(scaled(low)) == 3
    assert linalg.rank([[0.0, 0.0]], 1e-10) == 0


@pytest.mark.parametrize("k", range(-12, 13, 3))
def test_float_solve_and_inverse_tolerances_are_relative(k):
    """Scaling a float system by 10^k neither makes it singular nor hides that it is."""
    m = [[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 4.0]]
    near = [[1.0, 2.0], [2.0, 4.0 + 1e-13]]
    c = 10.0**k
    scaled = lambda a: [[c * x for x in row] for row in a]
    x = linalg.solve(scaled(m), [c, 2 * c, 3 * c], 1e-9)
    assert x == pytest.approx(linalg.solve(m, [1.0, 2.0, 3.0], 1e-9), rel=1e-12)
    inv = linalg.inverse(scaled(m), 1e-9)
    for row, ref in zip(inv, linalg.inverse(m, 1e-9)):
        assert [c * y for y in row] == pytest.approx(ref, rel=1e-12)
    with pytest.raises(DegenerateFormError):
        linalg.solve(scaled(near), [c, c], 1e-9)
    with pytest.raises(DegenerateFormError):
        linalg.inverse(scaled(near), 1e-9)


def test_exact_input_reads_no_tolerance():
    """A tiny exact pivot is a pivot at any ``tol``: exact verdicts read no tolerance."""
    t = Fraction(1, 10**12)
    assert linalg.rank([[1, 0], [1, t]], 1e-9) == 2
    assert linalg.solve([[1, 0], [0, t]], [1, 1], 1e-9) == [1, 10**12]
    assert linalg.inverse([[1, 0], [0, t]], 1e-9) == [[1, 0], [0, 10**12]]
    assert linalg.signature([[t, 0], [0, 1]], 1e-9) == (2, 0)


_TINY = Fraction(1, 10**12)


@st.composite
def exact_cases(draw):
    """An exact n x n matrix (n = 1..6), maybe rank-deficient, maybe with a row of 1/10^12 size."""
    kind = draw(st.sampled_from(["int", "fraction", "int+fraction", "gaussian", "gaussian+fraction"]))
    n = draw(st.integers(1, 6))
    m = draw(matrices(kind, n, n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i] = [2 * x for x in m[j]] if i != j else [x * 0 for x in m[i]]
    if kind != "int" and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        m[i] = [x * _TINY for x in m[i]]
    rhs = draw(st.lists(KINDS[kind], min_size=n, max_size=n))
    return m, rhs


def _outcome(f, *args):
    """The value of ``f(*args)``, or the type of the DegenerateFormError it raised."""
    try:
        return f(*args)
    except DegenerateFormError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(exact_cases())
def test_exact_verdicts_do_not_depend_on_tol(case):
    """rank, solve, inverse and signature of exact input: one value and type at any ``tol``."""
    m, rhs = case
    herm = linalg.mat_add(m, linalg.transpose(linalg.mat_conj(m)))
    calls = [
        (linalg.rank, m), (linalg.rank, [row[1:] or row for row in m]),
        (linalg.solve, m, rhs), (linalg.inverse, m), (linalg.signature, herm),
    ]
    for f, *args in calls:
        at_zero = _outcome(f, *args, 0.0)
        for tol in (1e-9, 1.0):
            assert same(_outcome(f, *args, tol), at_zero), (f.__name__, tol)
