"""The fraction-free paths of linalg against the generic sum-of-products and
elimination, entry by entry, in value and in type."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from g2kit import linalg
from g2kit.linalg import DegenerateFormError, _bareiss
from g2kit.scalars import ComplexRational, MixedModeError

from conftest import _det_elim as det_elim_loop, mat_vec as mat_vec_loop, rank as rank_loop
from conftest import (
    _zi_cofactors as zi_cofactors_reference,
    _zi_det3 as zi_det3_reference,
    _zi_mat_mul as zi_mat_mul_reference,
    bits,
    flat3,
    unflat3,
)


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


# Matrices are built by random.Random from one drawn seed per example, which
# gives up shrinking: drawing every entry through hypothesis strategies made
# this file about four times slower.  "a+b" kinds draw each entry from a or b.
_ENTRY = {
    "int": lambda rng: rng.randint(-4, 4),
    # denominators 1 and cancelling numerators (6/3) are included on purpose
    "fraction": lambda rng: Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
    "gaussian": lambda rng: ComplexRational(_ENTRY["fraction"](rng), _ENTRY["fraction"](rng)),
    "float": lambda rng: rng.randint(-40, 40) / 8,
}
KINDS = ("float", "fraction", "gaussian", "gaussian+fraction", "int", "int+fraction")
SEEDS = st.integers(0, 2**32 - 1)


def entry(rng, kind):
    return _ENTRY[rng.choice(kind.split("+"))](rng)


def matrix(rng, kind, rows, cols):
    return [[entry(rng, kind) for _ in range(cols)] for _ in range(rows)]


def products(rng):
    kind_a, kind_b = rng.choice(KINDS), rng.choice(KINDS)
    if "float" in (kind_a, kind_b) and kind_a != kind_b:
        kind_b = kind_a
    n, k, m = (rng.randint(1, 4) for _ in range(3))
    return matrix(rng, kind_a, n, k), matrix(rng, kind_b, k, m), [entry(rng, kind_b) for _ in range(k)]


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_mat_mul_and_mat_vec_match_generic(seed):
    a, b, v = products(random.Random(seed))
    assert same(linalg.mat_mul(a, b), reference_mat_mul(a, b))
    assert same(linalg.mat_vec(a, v), reference_mat_vec(a, v))


def square(rng):
    kind, n = rng.choice(KINDS), rng.randint(1, 5)
    m = matrix(rng, kind, n, n)
    # rank-deficient: repeat a row times a scalar, or zero one out
    if n > 1 and rng.random() < 0.5:
        i, j, c = rng.randrange(n), rng.randrange(n), rng.choice([0, 2])
        m[i] = [c * x for x in m[j]] if i != j else [x * 0 for x in m[i]]
    return m


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_det_matches_generic_elimination(seed):
    m = square(random.Random(seed))
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
        linalg.rank([[half, 0.5], [0.0, 1.0]])
    with pytest.raises(MixedModeError):
        linalg.rank([[1, 0.5], [Fraction(2), 1]])
    with pytest.raises(MixedModeError):
        linalg.solve([[half, 0], [0, 1]], [0.5, 1.0])
    with pytest.raises(MixedModeError):
        linalg.solve([[1, 0.5], [Fraction(0), 1]], [1, 1])
    with pytest.raises(MixedModeError):
        linalg.signature([[half, 0.5], [0.5, 1.0]])
    assert linalg.rank([[1, 0.5], [2, 1.0]]) == 1  # ints join either mode
    assert linalg.signature([[1.0, 0], [0, -1]]) == (1, 1)


def test_float_solve_returns_floats_beside_int_entries():
    """A float system gives float unknowns, also where its int entries meet only each other."""
    for m, rhs in (([[2, 0], [0, 1]], [1.0, 1]), ([[2.0, 0], [0, 1]], [1, 1])):
        x = linalg.solve(m, rhs)
        assert x == [0.5, 1.0] and all(type(c) is float for c in x)
    assert linalg.solve([[2, 0], [0, 1]], [1, 1]) == [Fraction(1, 2), Fraction(1)]


def _as_cr(m):
    return [[ComplexRational(re, im) for re, im in row] for row in m]


def _as_pairs(m):
    return [[(x.re, x.im) for x in row] for row in m]


def zi_square3(rng, big=False):
    """A 3x3 pair matrix; ``big`` entries reach 2^80, as the sweep's products do."""
    def part():
        return rng.randint(-(2**80), 2**80) if big and rng.random() < 0.5 else rng.randint(-9, 9)

    m = [[(part(), part()) for _ in range(3)] for _ in range(3)]
    # singular cases: a zero row, or one row repeated
    i, j, kind = rng.randrange(3), rng.randrange(3), rng.choice(["full", "zero", "repeat"])
    if kind == "zero":
        m[i] = [(0, 0)] * 3
    elif kind == "repeat" and i != j:
        m[i] = list(m[j])
    return m


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_zi_mat_mul_matches_mat_mul(seed):
    """The flat product, transpose and conjugate against ComplexRational ``mat_mul``."""
    rng = random.Random(seed)
    a, b = zi_square3(rng), zi_square3(rng)
    want = linalg.mat_mul(_as_cr(a), _as_cr(b))
    assert linalg._zi3_mul(flat3(a), flat3(b)) == flat3(_as_pairs(want))
    assert linalg._zi3_transpose(flat3(a)) == flat3(linalg.transpose(a))
    assert linalg._zi3_conj(flat3(a)) == flat3(_as_pairs(linalg.mat_conj(_as_cr(a))))


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_zi_det3_and_cofactors(seed):
    m = flat3(zi_square3(random.Random(seed)))
    d = linalg._zi3_det(m)
    assert ComplexRational(*d) == linalg.det(_as_cr(unflat3(m)))
    adj = linalg._zi3_transpose(linalg._zi3_cofactors(m))
    assert linalg._zi3_mul(m, adj) == flat3([[d if i == j else (0, 0) for j in range(3)] for i in range(3)])


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
@given(SEEDS)
def test_zi_3x3_kernels_match_the_general_routes(seed):
    """The flat 3x3 kernels against ``_zi_dot``, the pair helpers they replaced, and
    ComplexRational ``mat_mul``/``det``."""
    rng = random.Random(seed)
    m, b = zi_square3(rng, big=True), zi_square3(rng, big=True)
    prod_ = linalg._zi3_mul(flat3(m), flat3(b))
    assert prod_ == flat3(_general_mat_mul(m, b)) == flat3(zi_mat_mul_reference(m, b))
    assert prod_ == flat3(_as_pairs(linalg.mat_mul(_as_cr(m), _as_cr(b))))
    cr = _as_cr(m)
    cof = linalg._zi3_cofactors(flat3(m))
    for k in range(3):
        x, y = cr[(k + 1) % 3], cr[(k + 2) % 3]
        want = [x[(t + 1) % 3] * y[(t + 2) % 3] - x[(t + 2) % 3] * y[(t + 1) % 3] for t in range(3)]
        assert unflat3(cof)[k] == _as_pairs([want])[0]
    assert cof == flat3([_general_cross(m[(k + 1) % 3], m[(k + 2) % 3]) for k in range(3)])
    assert cof == flat3(zi_cofactors_reference(m))
    d = linalg._zi3_det(flat3(m))
    assert d == linalg._zi_dot(*zip(*m[0]), *zip(*unflat3(cof)[0])) == zi_det3_reference(m)
    assert ComplexRational(*d) == linalg.det(cr)
    assert linalg._zi3_mul(flat3(m), linalg._zi3_transpose(cof)) == flat3(
        [[d if i == j else (0, 0) for j in range(3)] for i in range(3)]
    )


# float, complex and exact entries for the unrolled 2x2 / 3x3 elimination: zeros of
# both signs, values whose products cancel exactly, and values that round, down
# to subnormals
_EDGE_FLOATS = (100.0, -100.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.1754943508222875e-38)


def _elim_float(rng):
    x = rng.choice(_EDGE_FLOATS) if rng.random() < 0.1 else rng.uniform(-100, 100)
    return rng.choice((rng.choice((0.0, -0.0)), _ENTRY["float"](rng), x))


ELIM_KINDS = {
    "float": _elim_float,
    "complex": lambda rng: complex(_elim_float(rng), _elim_float(rng)),
    "fraction": lambda rng: rng.choice((Fraction(0), _ENTRY["fraction"](rng))),
    "gaussian": lambda rng: rng.choice((ComplexRational(0), _ENTRY["gaussian"](rng))),
}


def small_square(rng):
    kind, n = rng.choice(sorted(ELIM_KINDS)), rng.randint(2, 3)
    m = [[ELIM_KINDS[kind](rng) for _ in range(n)] for _ in range(n)]
    # zero leading entries (forcing one or two swaps) or a whole row
    for i in [rng.randrange(n) for _ in range(rng.randint(0, n))]:
        m[i][0] = m[i][0] * 0
    if rng.random() < 0.5:
        i = rng.randrange(n)
        m[i] = [x * 0 for x in m[i]]
    return m


def unrolled(m):
    """``_det2``/``_det3`` on the entries of m, row by row."""
    return (linalg._det2 if len(m) == 2 else linalg._det3)(*(x for row in m for x in row))


@settings(max_examples=500, deadline=None)
@given(SEEDS)
def test_unrolled_det_elim_matches_the_loop(seed):
    """``_det_elim`` on 2x2 and 3x3 rows, and ``_det2``/``_det3`` on their entries, equal
    the elimination loop, float zero signs included."""
    m = small_square(random.Random(seed))
    assert same(linalg._det_elim([list(row) for row in m]), reference_det(m))
    assert same(unrolled(m), reference_det(m))


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
        assert same(unrolled(m), reference_det(m)), m


@pytest.mark.parametrize("k", range(-12, 13, 3))
def test_float_rank_and_signature_tolerances_are_relative(k):
    """Scaling a float matrix by 10^k changes neither verdict.  At ``PIVOT_TOL`` = 1e-9 of
    the largest |entry|, a pivot of 1e-14 of it is zero and one of 1e-8 of it is not."""
    sym = [[1.0, 2.0, 0.5], [2.0, -1.0, 0.25], [0.5, 0.25, 3.0]]
    low = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0 + 1e-13], [0.0, 1.0, 1.0]]
    full = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0 + 1e-7], [0.0, 1.0, 1.0]]
    scaled = lambda m: [[10.0**k * x for x in row] for row in m]
    assert linalg.signature(scaled(sym)) == linalg.signature(sym) == (2, 1)
    assert linalg.rank(scaled(low)) == linalg.rank(low) == 2
    assert linalg.rank(scaled(full)) == linalg.rank(full) == 3
    assert linalg.rank([[0.0, 0.0]]) == 0


@pytest.mark.parametrize("k", range(-12, 13, 3))
def test_float_solve_and_inverse_tolerances_are_relative(k):
    """Scaling a float system by 10^k neither makes it singular nor hides that it is."""
    m = [[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 4.0]]
    near = [[1.0, 2.0], [2.0, 4.0 + 1e-13]]
    apart = [[1.0, 2.0], [2.0, 4.0 + 1e-7]]
    c = 10.0**k
    scaled = lambda a: [[c * x for x in row] for row in a]
    x = linalg.solve(scaled(m), [c, 2 * c, 3 * c])
    assert x == pytest.approx(linalg.solve(m, [1.0, 2.0, 3.0]), rel=1e-12)
    inv = linalg.inverse(scaled(m))
    for row, ref in zip(inv, linalg.inverse(m)):
        assert [c * y for y in row] == pytest.approx(ref, rel=1e-12)
    with pytest.raises(DegenerateFormError):
        linalg.solve(scaled(near), [c, c])
    with pytest.raises(DegenerateFormError):
        linalg.inverse(scaled(near))
    assert linalg.solve(scaled(apart), [c, 2 * c]) == pytest.approx([1.0, 0.0], abs=1e-6)
    assert len(linalg.inverse(scaled(apart))) == 2


def test_exact_input_reads_no_tolerance():
    """An exact pivot far below ``PIVOT_TOL`` is a pivot: exact verdicts read no tolerance."""
    t = Fraction(1, 10**12)
    assert t < linalg.PIVOT_TOL
    assert linalg.rank([[1, 0], [1, t]]) == 2
    assert linalg.solve([[1, 0], [0, t]], [1, 1]) == [1, 10**12]
    assert linalg.inverse([[1, 0], [0, t]]) == [[1, 0], [0, 10**12]]
    assert linalg.signature([[t, 0], [0, 1]]) == (2, 0)


_TINY = Fraction(1, 10**12)


def exact_cases(rng):
    """An exact n x n matrix (n = 1..6), maybe rank-deficient, maybe with a row of 1/10^12 size."""
    kind = rng.choice([k for k in KINDS if k != "float"])
    n = rng.randint(1, 6)
    m = matrix(rng, kind, n, n)
    if n > 1 and rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        m[i] = [2 * x for x in m[j]] if i != j else [x * 0 for x in m[i]]
    if kind != "int" and rng.random() < 0.5:
        i = rng.randrange(n)
        m[i] = [x * _TINY for x in m[i]]
    return m, [entry(rng, kind) for _ in range(n)]


def _outcome(f, *args):
    """The value of ``f(*args)``, or the type of the DegenerateFormError it raised."""
    try:
        return f(*args)
    except DegenerateFormError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_exact_verdicts_do_not_depend_on_tol(seed):
    """rank, solve, inverse and signature of exact input: one value and type at any
    value of ``PIVOT_TOL``, 0 included."""
    m, rhs = exact_cases(random.Random(seed))
    herm = linalg.mat_add(m, linalg.transpose(linalg.mat_conj(m)))
    calls = [
        (linalg.rank, m), (linalg.rank, [row[1:] or row for row in m]),
        (linalg.solve, m, rhs), (linalg.inverse, m), (linalg.signature, herm),
    ]
    for f, *args in calls:
        with mock.patch.object(linalg, "PIVOT_TOL", 0.0):
            at_zero = _outcome(f, *args)
        for tol in (1e-9, 1.0):
            with mock.patch.object(linalg, "PIVOT_TOL", tol):
                assert same(_outcome(f, *args), at_zero), (f.__name__, tol)


REF_KINDS = {**ELIM_KINDS, "int": lambda rng: rng.choice((0, _ENTRY["int"](rng)))}


def reference_case(rng, rows, cols):
    """A rows x cols matrix of one kind with +-0.0 or exact zeros, maybe a zero column or
    row or a repeated multiple of a row, and a vector of cols entries of the same kind."""
    kind = rng.choice(sorted(REF_KINDS))
    m = [[REF_KINDS[kind](rng) for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(0, 2)):
        i, j, c = rng.randrange(rows), rng.randrange(cols), rng.choice((1, -1, 2))
        change = rng.choice(("column", "row", "repeat"))
        if change == "column":
            for row in m:
                row[j] *= 0
        elif change == "row":
            m[i] = [x * 0 for x in m[i]]
        else:
            m[i] = [c * x for x in m[rng.randrange(rows)]]
    return m, [REF_KINDS[kind](rng) for _ in range(cols)]


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_shared_elimination_and_mat_vec_match_the_old_loops(seed):
    """``rank`` and ``_det_elim`` on ``_eliminate``, and ``mat_vec`` as one ``mat_mul``
    column, against the loops they replaced (``conftest``): the same rank as the old loop
    at 1e-9, and a determinant, rows and product of the same types and float bits."""
    rng = random.Random(seed)
    m, v = reference_case(rng, rng.randint(1, 6), rng.randint(1, 6))
    assert linalg.rank(m) == rank_loop(m, 1e-9)
    assert bits(linalg.mat_vec(m, v)) == bits(mat_vec_loop(m, v))
    n = rng.randint(1, 6)
    sq, _ = reference_case(rng, n, n)
    got, want = [list(row) for row in sq], [list(row) for row in sq]
    assert bits(linalg._det_elim(got)) == bits(det_elim_loop(want))
    assert bits(got) == bits(want)


def test_mat_vec_rejects_a_vector_of_the_wrong_length():
    """A short or long vector raises, as in ``mat_mul``; it was truncated or overran before."""
    a = [[1, 2, 3], [4, 5, 6]]
    for v in ([1, 2], [1.0, 2.0], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="cannot multiply"):
            linalg.mat_vec(a, v)
    assert linalg.mat_vec(a, [1, 0, Fraction(1, 2)]) == [Fraction(5, 2), 7]


def test_mat_mul_rejects_ragged_rows():
    """Every row of either factor must fit the shape, on the fraction-free and the
    generic path; a short row of ``a`` was truncated before, and an empty factor
    raised IndexError."""
    for a, b in (
        ([[1, 2], [3]], [[1], [1]]),
        ([[1.0, 2.0], [3.0]], [[1.0], [1.0]]),
        ([[1, 2], [3, 4]], [[1, 2], [1]]),
        ([[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0, 2.0]]),
        ([[1, 2], [3, 4, 5]], [[1], [1]]),
        ([[1]], []),
        ([], [[1]]),
    ):
        with pytest.raises(ValueError, match="cannot multiply"):
            linalg.mat_mul(a, b)
    for a, v in (([[1.0, 2.0], [3.0]], [1.0, 1.0]), ([[1, 2]], [])):
        with pytest.raises(ValueError, match="cannot multiply"):
            linalg.mat_vec(a, v)


def test_empty_matrix_has_rank_0_and_determinant_1():
    """The 0x0 matrix: no pivot, and the empty product as its determinant."""
    assert linalg.rank([]) == 0
    assert linalg.det([]) == 1
