import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2kit import linalg
from g2kit.forms import ExteriorForm
from g2kit.scalars import EXACT, ComplexRational, MixedModeError
from g2kit.g2 import (
    PHI_TERMS,
    AdaptedFrame,
    FrameConstructionError,
    adapted_frame,
    associative_three_form,
    cross,
    dot,
    frame_rotate,
    g2_defect,
    is_g2,
    standard_frame,
)
from g2kit.sampling import random_g2_matrix, random_gl3_complex, random_rational_frame, random_su3

from conftest import complex_frame_vector, e7, rand_vector


def test_calibration_form_terms():
    phi = associative_three_form()
    assert len(phi.terms) == 7
    assert phi.terms == {
        (1, 2, 3): 1,
        (1, 4, 5): 1,
        (1, 6, 7): 1,
        (2, 4, 6): 1,
        (2, 5, 7): -1,
        (3, 4, 7): -1,
        (3, 5, 6): -1,
    }


def test_calibration_form_values():
    phi = associative_three_form()
    assert phi.evaluate([e7(1), e7(2), e7(3)]) == 1
    assert phi.evaluate([e7(2), e7(5), e7(7)]) == -1
    assert phi.evaluate([e7(1), e7(2), e7(2)]) == 0


def test_cross_basic():
    assert cross(e7(1), e7(2)) == e7(3)
    assert cross(e7(1), cross(e7(1), e7(2))) == tuple(-x for x in e7(2))
    u = rand_vector(random.Random(3), 7)
    assert all(x == 0 for x in cross(u, u))
    v = rand_vector(random.Random(4), 7)
    assert cross(u, v) == tuple(-x for x in cross(v, u))


def test_cross_defined_by_calibration(rng):
    phi = associative_three_form()
    for _ in range(30):
        u, v, w = (rand_vector(rng, 7) for _ in range(3))
        assert dot(cross(u, v), w) == phi.evaluate([u, v, w])


def test_cross_perpendicular(rng):
    for _ in range(50):
        u, v = rand_vector(rng, 7), rand_vector(rng, 7)
        c = cross(u, v)
        assert dot(u, c) == 0 and dot(v, c) == 0


def test_double_cross_identity(rng):
    # u x (u x v) = (u.v) u - (u.u) v, exactly, on random rational pairs
    for _ in range(200):
        u, v = rand_vector(rng, 7), rand_vector(rng, 7)
        lhs = cross(u, cross(u, v))
        uv, uu = dot(u, v), dot(u, u)
        rhs = tuple(uv * a - uu * b for a, b in zip(u, v))
        assert lhs == rhs


def test_metric_examples():
    assert dot(e7(1), e7(1)) == 1
    assert dot(e7(1), e7(2)) == 0


def test_is_g2_identity_and_reflections():
    ident = [[Fraction(1 if i == j else 0) for j in range(7)] for i in range(7)]
    assert is_g2(ident)
    refl = [[Fraction(0)] * 7 for _ in range(7)]
    for i, d in enumerate((-1, -1, 1, 1, 1, 1, 1)):
        refl[i][i] = Fraction(d)
    assert not is_g2(refl)
    # pullback oracle: the defect form is exactly the changed terms
    defect = g2_defect(refl)
    assert not defect.is_zero
    assert defect.coeff((1, 4, 5)) == -2  # d1*d4*d5 = -1 flips this term


def test_is_g2_shape_errors():
    with pytest.raises(ValueError):
        is_g2([[1, 0], [0, 1]])


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize(
    "rows",
    [[], [[1] + [0] * 6], [[1] + [0] * 5] * 7, [[1] + [0] * 7] * 7, [[1] + [0] * 6] * 8],
    ids=["0x0", "1x7", "7x6", "7x8", "8x7"],
)
def test_adapted_frame_rejects_matrices_that_are_not_7x7(rows, check):
    with pytest.raises(FrameConstructionError, match="7x7"):
        AdaptedFrame([[Fraction(x) for x in row] for row in rows], check=check)


def test_adapted_frame_standard_triple():
    f = adapted_frame(e7(1), e7(2), e7(4))
    ident = [[Fraction(1 if i == j else 0) for j in range(7)] for i in range(7)]
    assert [list(r) for r in f.matrix] == ident


def test_adapted_frame_rejects_nonadmissible():
    with pytest.raises(FrameConstructionError):
        adapted_frame(e7(1), e7(2), e7(3))  # phi(e1,e2,e3) = 1 != 0
    with pytest.raises(FrameConstructionError):
        adapted_frame(e7(1), e7(1), e7(4))  # not orthonormal


_SEVEN_CASES = {
    "|u|^2 != 1": ({1: 2}, {2: 1}, {4: 1}),
    "|v|^2 != 1": ({1: 1}, {2: 2}, {4: 1}),
    "|w|^2 != 1": ({1: 1}, {2: 1}, {4: 2}),
    "u.v != 0": ({1: 1}, {1: Fraction(3, 5), 2: Fraction(4, 5)}, {4: 1}),
    "u.w != 0": ({1: 1}, {2: 1}, {1: Fraction(3, 5), 4: Fraction(4, 5)}),
    "v.w != 0": ({1: 1}, {2: 1}, {2: Fraction(3, 5), 4: Fraction(4, 5)}),
    "phi(u,v,w) != 0": ({1: 1}, {2: 1}, {3: 1}),
}


@pytest.mark.parametrize("float_mode", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize("case", _SEVEN_CASES)
def test_adapted_frame_rejects_each_inadmissible_triple(case, float_mode):
    """Each triple breaks one of the seven conditions, which is_g2 tests on the completion."""
    scalar = float if float_mode else Fraction
    u, v, w = (
        tuple(scalar(entries.get(i, 0)) for i in range(1, 8)) for entries in _SEVEN_CASES[case]
    )
    with pytest.raises(FrameConstructionError):
        adapted_frame(u, v, w)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_adapted_frame_rejects_a_triple_of_mixed_modes(position):
    triple = [e7(1), e7(2), e7(4)]
    triple[position] = tuple(float(x) for x in triple[position])
    with pytest.raises(MixedModeError):
        adapted_frame(*triple)


def test_adapted_frame_swapped_triple():
    f = adapted_frame(e7(2), e7(1), e7(4))
    assert f.col(3) == tuple(-x for x in e7(3))
    assert is_g2(f.matrix)


def test_adapted_frames_at_float_points():
    from g2kit.sphere import random_admissible_triple

    rng = random.Random(99)
    for _ in range(10):
        u, v, w = random_admissible_triple(rng)
        f = adapted_frame(u, v, w)
        assert g2_defect([list(r) for r in f.matrix]).norm_inf() < 1e-10


def test_membership_implies_special_orthogonal(rng):
    m = random_g2_matrix(rng)
    assert is_g2(m)
    mtm = linalg.mat_mul(linalg.transpose(m), m)
    assert all(mtm[i][j] == (1 if i == j else 0) for i in range(7) for j in range(7))
    assert linalg.det(m) == 1


def test_frame_rotation_stays_in_group(rng):
    frame = standard_frame()
    for _ in range(3):
        u3 = random_su3(rng)
        rotated = frame_rotate(frame, u3)
        assert rotated.x == frame.x
        assert is_g2(rotated.matrix)


def test_random_rational_frames(rng):
    f = random_rational_frame(rng)
    assert is_g2(f.matrix)
    assert dot(f.x, f.x) == 1


def test_theta_coframe_properties():
    """theta_j pairs the complex frame correctly and sees only the tangent."""
    from g2kit.scalars import ComplexRational

    rng = random.Random(5)
    frame = random_rational_frame(rng)
    for j in (1, 2, 3):
        th = frame.theta(j)
        assert th.evaluate([frame.x]) == ComplexRational(0)
        for k in (1, 2, 3):
            val = sum(
                (th.coeff((i + 1,)) * complex_frame_vector(frame, k)[i] for i in range(7)),
                start=ComplexRational(0),
            )
            expected = ComplexRational(0, Fraction(-1, 2)) if j == k else ComplexRational(0)
            assert val == expected  # theta_j(f_k) = -(i/2) delta_jk


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_theta_matches_the_validating_constructor(seed):
    """theta_j has the terms, key order, coefficient types and mode of ``from_covector``."""
    from g2kit.g2 import theta_value
    from g2kit.sphere import frame_at_float_point

    rng = random.Random(seed)
    for frame in (random_rational_frame(rng), frame_at_float_point(rng, None)):
        for j in (1, 2, 3):
            pairs = zip(frame.col(2 * j), frame.col(2 * j + 1))
            want = ExteriorForm.from_covector(
                [theta_value(x, y, frame.mode == EXACT) for x, y in pairs]
            )
            got = frame.theta(j)
            assert [(k, type(c), c) for k, c in got.terms.items()] == [
                (k, type(c), c) for k, c in want.terms.items()
            ]
            assert (got.dim, got.degree, got.mode) == (want.dim, want.degree, want.mode)


def test_invariant_two_form_from_coframe(rng):
    """2i sum theta_j ^ conj(theta_j) = iota_x phi for any frame (exact)."""
    from g2kit.scalars import I_EXACT

    frame = random_rational_frame(rng)
    phi = associative_three_form()
    om = ExteriorForm.zero(7, 2)
    for j in (1, 2, 3):
        th = frame.theta(j)
        om = om + (2 * I_EXACT) * th.wedge(th.conj())
    assert om == phi.interior(frame.x)


def _diag(*entries):
    return [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(7)] for i in range(7)]


def test_is_g2_agrees_with_pullback_oracle():
    """The cross-product test and the pullback of phi give the same verdict."""
    rng = random.Random(11)
    members = [random_rational_frame(rng).matrix for _ in range(5)]
    g = [list(r) for r in members[0]]
    col_swap = [[r[1], r[0], *r[2:]] for r in g]
    row_flip = [[-x for x in g[0]], *g[1:]]
    nudged = [list(r) for r in g]
    nudged[3][5] += Fraction(1, 7)
    doubled = [[2 * x for x in r] for r in g]
    cycle = [[Fraction(0)] * 7 for _ in range(7)]  # e1 -> e2 -> e3 -> e1, det 1
    for i, j in ((1, 0), (2, 1), (0, 2), (3, 3), (4, 4), (5, 5), (6, 6)):
        cycle[i][j] = Fraction(1)
    non_members = [
        _diag(*[-1] * 7),
        _diag(-1, -1, 1, 1, 1, 1, 1),
        col_swap,
        row_flip,
        nudged,
        doubled,
        cycle,
        _diag(*[0] * 7),  # preserves the cross product, but is not orthogonal
    ]
    # g/3, and int or int/Fraction-mixed entries (no denominator to clear)
    mixed = lambda m: [[Fraction(x) if i % 2 else int(x) for x in r] for i, r in enumerate(m)]
    members += [[[int(i == j) for j in range(7)] for i in range(7)], mixed(_diag(*[1] * 7))]
    non_members += [[[x / 3 for x in r] for r in g], mixed(cycle)]
    for m in members:
        assert is_g2(m) and g2_defect(m).is_zero
    for m in non_members:
        assert not is_g2(m) and not g2_defect(m).is_zero


def test_is_g2_float_frames():
    from g2kit.sphere import frame_at_float_point

    rng = random.Random(31)
    for _ in range(5):
        frame = frame_at_float_point(rng, None)
        assert is_g2(frame.matrix)
        nudged = [list(r) for r in frame.matrix]
        nudged[2][4] += 1e-6
        assert not is_g2(nudged)


def test_random_rational_frame_checks_once(monkeypatch):
    from g2kit import g2

    calls = []
    original = g2.is_g2

    def counting(matrix):
        calls.append(1)
        return original(matrix)

    monkeypatch.setattr(g2, "is_g2", counting)
    random_rational_frame(random.Random(0))
    assert len(calls) == 1


def test_random_rational_frames_byte_stable():
    """The frames for seeds 0-3 are the ones the generator has always drawn."""
    import hashlib

    expected = [
        "2b8ea2ad472687239fae432a2af6eb1c6e4a25a485ff16f4f3e7c5b42a928cf4",
        "96a01af7c89fc9bb279527adfe72dfa1fa41cac3c0957b2337d14f5e874f4723",
        "0d130aaea7dd6866a548bcb22b9aacb1703d5d3c993d388e2126cc83869672ea",
        "77159aed7307a8dc5ce677687392fffac2899a463c1e2897e0a7496076ec84db",
    ]
    for seed, digest in enumerate(expected):
        frame = random_rational_frame(random.Random(seed))
        assert hashlib.sha256(str(frame.matrix).encode()).hexdigest() == digest


def test_frame_rotate_rejects_unitary_outside_su3():
    from g2kit.scalars import ComplexRational

    one, zero = ComplexRational(1), ComplexRational(0)
    u = [[ComplexRational(0, 1), zero, zero], [zero, one, zero], [zero, zero, one]]
    with pytest.raises(FrameConstructionError):
        frame_rotate(standard_frame(), u)


def test_membership_check_survives_optimize_flag(tmp_path):
    """Under python -O a corrupted exact frame is still rejected."""
    import json
    import subprocess
    import sys

    from g2kit import jsonio

    frame = [list(r) for r in random_rational_frame(random.Random(2)).matrix]
    frame[1][6] += Fraction(1, 7)
    doc = {"mode": "exact", "frame": jsonio.matrix_to_obj(frame, "exact")}
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(doc))
    script = (
        "import json, sys\n"
        "from g2kit import jsonio\n"
        "from g2kit.g2 import AdaptedFrame, FrameConstructionError\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(3)\n"
        "rows = jsonio.matrix_from_obj(json.load(open(sys.argv[1]))['frame'], 'exact')\n"
        "try:\n"
        "    AdaptedFrame(rows)\n"
        "except FrameConstructionError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    built = subprocess.run([sys.executable, "-O", "-c", script, str(path)], capture_output=True)
    assert built.returncode == 0, built.stderr
    chern = subprocess.run(
        [sys.executable, "-O", "-m", "g2kit.cli", "chern", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert chern.returncode == 2, chern.stderr
    assert "input error" in chern.stderr


def _reference_cross_table():
    """c[i][j] = [(k, sign)] with e_i x e_j = sign e_k, from the six permutations of each phi term."""
    table = [[[] for _ in range(8)] for _ in range(8)]
    for (a, b, c), s in PHI_TERMS:
        for (i, j, k), sign in (
            ((a, b, c), s),
            ((b, c, a), s),
            ((c, a, b), s),
            ((b, a, c), -s),
            ((a, c, b), -s),
            ((c, b, a), -s),
        ):
            table[i][j].append((k, sign))
    return table


CROSS_TABLE = _reference_cross_table()


def reference_cross(u, v):
    """The cross product as a loop over the structure constants, one term at a time."""
    out = [u[0] * 0] * 7
    for i in range(1, 8):
        if not u[i - 1]:
            continue
        for j in range(1, 8):
            if not v[j - 1]:
                continue
            for k, sign in CROSS_TABLE[i][j]:
                term = u[i - 1] * v[j - 1]
                out[k - 1] = out[k - 1] + (term if sign == 1 else -term)
    return tuple(out)


_cross_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -0.5]), st.floats(-1e3, 1e3, allow_nan=False)
)
_cross_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_cross_exact = st.one_of(
    st.integers(-3, 3), _cross_fractions, st.builds(ComplexRational, _cross_fractions, _cross_fractions)
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([_cross_floats, _cross_exact]).flatmap(
    lambda s: st.tuples(*[st.lists(s, min_size=7, max_size=7)] * 2)))
def test_cross_matches_the_structure_constant_loop(uv):
    """Floats by repr (signs of zero included), exact entries by value and type."""
    u, v = uv
    got, want = cross(u, v), reference_cross(u, v)
    assert [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in want]


def test_cross_keeps_the_loop_bits_where_the_kernel_differs():
    """Nonzero inputs whose products underflow give the straight-line kernel a zero
    of the other sign, and an infinity times a zero that the loop skips gives it a
    NaN: public cross must print the loop's bits in both."""
    from g2kit.g2 import _cross_float

    inf = float("inf")
    cases = [
        ([1e-200, -1e-200, 1e-200, -2e-180, 1.0, 3e-170, -1e-200],
         [-2e-180, -1e-200, 3e-170, -1e-200, -1e-200, -2e-180, 3e-170]),
        ([1.0, inf, 3.0, 4.0, 5.0, 6.0, 7.0], [0.0, -1.0, 2.0, 3.0, 5.0, 7.0, 11.0]),
    ]
    for u, v in cases:
        want = [repr(x) for x in reference_cross(u, v)]
        assert [repr(x) for x in _cross_float(u, v)] != want
        assert [repr(x) for x in cross(u, v)] == want


def reference_is_g2_float(matrix):
    """Float ``is_g2`` as one generator of the 28 + 21 residuals over the ``_cross`` loop."""
    from operator import mul

    from g2kit.g2 import DEFAULT_TOL, _CROSS_PAIRS, _cross

    cols = linalg.transpose([list(r) for r in matrix])

    def residuals():
        for i in range(7):
            for j in range(i, 7):
                yield sum(map(mul, cols[i], cols[j])) - (i == j)
        for i, j, k, negative in _CROSS_PAIRS:
            for a, b in zip(_cross(cols[i], cols[j]), cols[k]):
                yield a + b if negative else a - b

    return all(abs(r) < DEFAULT_TOL for r in residuals())


def _float_is_g2_case(rng):
    """A float frame, or a rational rotation about e1 in floats (many exact zeros),
    changed in one of several ways."""
    from g2kit.g2 import DEFAULT_TOL, _unitary_block
    from g2kit.sphere import frame_at_float_point

    if rng.random() < 0.5:
        m = [list(r) for r in frame_at_float_point(rng, None).matrix]
    else:
        m = [[float(x) for x in r] for r in _unitary_block(random_su3(rng))]
    i, j = rng.randrange(7), rng.randrange(7)
    change = rng.choice(["none", "nudge", "nudge", "nan", "inf", "swap", "negate", "gauss"])
    if change == "nudge":
        m[i][j] += rng.choice([-1, 1]) * rng.choice([0.5, 2.0]) * DEFAULT_TOL
    elif change in ("nan", "inf"):
        m[i][j] = float(change) * rng.choice([-1, 1])
    elif change == "swap":
        for r in m:
            r[i], r[j] = r[j], r[i]
    elif change == "negate":
        for r in m:
            r[j] = -r[j]
    elif change == "gauss":
        m = [[rng.gauss(0, 1) for _ in range(7)] for _ in range(7)]
    return m


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_float_is_g2_matches_the_residual_generator(seed):
    """The same verdict as the generator over the ``_cross`` loop: frames near the
    tolerance on either side, columns holding NaN or infinities, exact zeros."""
    m = _float_is_g2_case(random.Random(seed))
    assert is_g2(m) is reference_is_g2_float(m)


def reference_dot(u, v):
    """The dot product as a generic sum of products, left to right."""
    return sum((a * b for a, b in zip(u, v)), start=u[0] * 0)


_dot_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
_DOT_KINDS = {
    "int": st.integers(-5, 5),
    "fraction": _dot_fractions,
    "int+fraction": st.one_of(st.integers(-5, 5), _dot_fractions),
    "gaussian": st.builds(ComplexRational, _dot_fractions, _dot_fractions),
    "float": _cross_floats,
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_DOT_KINDS)).flatmap(
    lambda kind: st.integers(1, 7).flatmap(
        lambda n: st.tuples(*[st.lists(_DOT_KINDS[kind], min_size=n, max_size=n)] * 2))))
def test_dot_matches_the_generic_sum(uv):
    """Equal in type and repr to the old sum: signs of float zeros, Fraction against int."""
    u, v = uv
    got, want = dot(u, v), reference_dot(u, v)
    assert (type(got), repr(got)) == (type(want), repr(want))


# ---------------------------------------------------------------------------
# frame rotation against the loop that linalg.mat_mul replaced
# ---------------------------------------------------------------------------

def rotation_rows_reference(frame, unitary):
    """Rows of ``frame`` rotated by ``unitary``, column by column and entry by entry."""
    u = [list(r) for r in unitary]
    cols = [frame.col(1)]
    new_cols = {}
    for k in range(1, 4):
        re_col = [0] * 7
        im_col = [0] * 7
        for j in range(1, 4):
            c = u[j - 1][k - 1]
            a = c.re if isinstance(c, ComplexRational) else c.real
            b = c.im if isinstance(c, ComplexRational) else c.imag
            gj, gj1 = frame.col(2 * j), frame.col(2 * j + 1)
            for i in range(7):
                re_col[i] = re_col[i] + a * gj[i] + b * gj1[i]
                im_col[i] = im_col[i] + a * gj1[i] - b * gj[i]
        new_cols[2 * k] = tuple(re_col)
        new_cols[2 * k + 1] = tuple(im_col)
    for j in range(2, 8):
        cols.append(new_cols[j])
    return [[cols[j][i] for j in range(7)] for i in range(7)]


def _phase(rng):
    """z^2 / |z|^2 for a nonzero Gaussian integer z: a Gaussian rational of modulus 1."""
    while True:
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        if a or b:
            n = a * a + b * b
            return ComplexRational(Fraction(a * a - b * b, n), Fraction(2 * a * b, n))


def _unitaries(rng):
    """An SU(3) matrix, a U(3) matrix (SU(3) times a diagonal of phases) and a Gaussian-integer one."""
    su3 = random_su3(rng)
    phases = [[_phase(rng) if a == b else ComplexRational(0) for b in range(3)] for a in range(3)]
    return {"su3": su3, "u3": linalg.mat_mul(su3, phases), "gl3": random_gl3_complex(rng)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rotation_rows_match_the_replaced_loop(seed):
    """Exact frames: the same values and entry types; float frames within 1e-12."""
    from g2kit.g2 import _rotation_rows
    from g2kit.sphere import frame_at_float_point

    rng = random.Random(seed)
    frame = random_rational_frame(rng)
    float_frame = frame_at_float_point(rng, None)
    for name, u in _unitaries(rng).items():
        got, want = _rotation_rows(frame, u), rotation_rows_reference(frame, u)
        assert [[(type(x), x) for x in row] for row in got] == [
            [(type(x), x) for x in row] for row in want
        ], name
        uc = [[complex(float(x.re), float(x.im)) for x in row] for row in u]
        got, want = _rotation_rows(float_frame, uc), rotation_rows_reference(float_frame, uc)
        assert all(
            type(x) is float and abs(x - y) <= 1e-12 for gr, wr in zip(got, want) for x, y in zip(gr, wr)
        ), name


def test_random_g2_matrices_byte_stable():
    """repr of random_g2_matrix for seeds 0-9, as the rotation loop built it."""
    import hashlib

    expected = [
        "887e799b5ee0979c8d9c1aabc8589277a8c08bb5b25623080a03294ccab780f4",
        "9207af8301aa5dc73a37f694ed8bcbd94479f84518bd03fee108e73a8601196c",
        "f6ed083110dd996327a96a3eba4dfe66d362e1862ddd8a2a34ea1e961b66991d",
        "4bdee4baaf57db9f46e1bebea7282fa2efef899053fce98384f491a82e8c8cb0",
        "bab85ec3e6942af01cbec61a71a1db177ce8140d916c3ad098e656878403caff",
        "9b97cb7f989de399a9a0ed681abe42646d83ee9dcc38b79dc5f4dfd7fb0c251d",
        "307365bbebf6aab626bf768bc7f24ec7e9b748b3335fdb292230ae652628d1f7",
        "679968200c59ce7a17957991a3e8710d77f5e818c514782c8cdd28004f9e7619",
        "6baafb99a127ce92becadfd1156c433593100dbd1e3a82661ed3bce9bcda9837",
        "98b67399230c07904f5642c9eb9f0ce600074e9e46f3c6af893eca80407d930c",
    ]
    for seed, digest in enumerate(expected):
        m = random_g2_matrix(random.Random(seed))
        assert hashlib.sha256(repr(m).encode()).hexdigest() == digest
