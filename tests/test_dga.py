import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2kit.dga import GENERATORS, CoframeDGA, DgaElement
from g2kit.scalars import ComplexRational


def rand_element(rng, max_words=3, max_len=2):
    terms = {}
    for _ in range(rng.randint(1, max_words)):
        word = tuple(
            rng.sample(range(len(GENERATORS)), rng.randint(0, max_len))
        )
        terms[word] = ComplexRational(
            Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        )
    return DgaElement(terms)


def test_word_canonicalization():
    a = DgaElement({(3, 1): ComplexRational(1)})
    b = DgaElement({(1, 3): ComplexRational(-1)})
    assert a == b
    assert DgaElement({(2, 2): ComplexRational(5)}).is_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_canonicalization_idempotent(seed):
    rng = random.Random(seed)
    e = rand_element(rng)
    again = DgaElement(dict(e.terms))
    assert again == e


def test_generator_anticommutation():
    dga = CoframeDGA()
    t1, t2 = dga.theta(1), dga.theta(2)
    assert t1 * t2 == -(t2 * t1)
    assert (t1 * t1).is_zero


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_d_is_a_derivation(seed):
    rng = random.Random(seed)
    dga = CoframeDGA()
    a = rand_element(rng, max_words=2, max_len=1)
    b = rand_element(rng, max_words=2, max_len=2)
    # split a into homogeneous parts to apply the graded rule
    for word, c in a.terms.items():
        part = DgaElement({word: c})
        sign = -1 if len(word) % 2 else 1
        lhs = dga.d(part * b)
        rhs = dga.d(part) * b + (part * dga.d(b)).smul(ComplexRational(sign))
        assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_conj_involution_commutes_with_d(seed):
    rng = random.Random(seed)
    dga = CoframeDGA()
    e = rand_element(rng)
    assert e.conj().conj() == e
    assert dga.d(e.conj()) == dga.d(e).conj()


def test_d_theta1_frozen():
    dga = CoframeDGA()
    expected = (
        -(dga.kappa(1, 1) * dga.theta(1))
        - dga.kappa(1, 2) * dga.theta(2)
        - dga.kappa(1, 3) * dga.theta(3)
        + (dga.theta_bar(2) * dga.theta_bar(3)).smul(Fraction(2))
    )
    assert dga.d(dga.theta(1)) == expected


def test_d_kappa12_frozen():
    # hand expansion: (k22 - k11) k12 + k32 k13 + 3 t1 t2b
    dga = CoframeDGA()
    expected = (
        (dga.kappa(2, 2) - dga.kappa(1, 1)) * dga.kappa(1, 2)
        + dga.kappa(3, 2) * dga.kappa(1, 3)
        + (dga.theta(1) * dga.theta_bar(2)).smul(Fraction(3))
    )
    assert dga.d(dga.kappa(1, 2)) == expected


def test_d_scalar_is_zero():
    dga = CoframeDGA()
    assert dga.d(DgaElement.scalar(ComplexRational(1))).is_zero


def test_d_volume_word_frozen():
    # d(t1 t2 t3) = 2 (t2 t3 t2b t3b + t1 t3 t1b t3b + t1 t2 t1b t2b)
    dga = CoframeDGA()
    t = dga.theta
    tb = dga.theta_bar
    lhs = dga.d(t(1) * t(2) * t(3))
    rhs = (
        t(2) * t(3) * tb(2) * tb(3)
        + t(1) * t(3) * tb(1) * tb(3)
        + t(1) * t(2) * tb(1) * tb(2)
    ).smul(Fraction(2))
    assert lhs == rhs


def test_d_squared_all_generators():
    dga = CoframeDGA()
    report = dga.verify_d_squared()
    assert len(report) == 14
    assert all(r["pass"] for r in report)


@pytest.mark.parametrize("mutation", CoframeDGA.MUTATIONS)
def test_mutations_detected(mutation):
    bad = CoframeDGA(mutation=mutation)
    report = bad.verify_d_squared()
    assert not all(r["pass"] for r in report)
    failing = [r for r in report if not r["pass"]]
    assert all(r["residual_terms"] for r in failing)


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError):
        CoframeDGA(mutation="nonsense")


def test_invariant_form_identities():
    dga = CoframeDGA()
    report = dga.verify_invariant_form_identities()
    names = {r["check"] for r in report}
    assert names == {
        "d_omega_is_3_im_upsilon",
        "d_upsilon_is_2_omega_sq",
        "omega_wedge_upsilon_vanishes",
    }
    assert all(r["pass"] for r in report)


def test_invariant_identities_break_under_mutation():
    bad = CoframeDGA(mutation="dtheta-coeff")
    report = bad.verify_invariant_form_identities()
    assert not all(r["pass"] for r in report)


def test_frobenius_system():
    dga = CoframeDGA()
    report = dga.verify_frobenius_system()
    assert [r["generator"] for r in report] == list(dga.DEFAULT_FROBENIUS_SYSTEM)
    assert all(r["pass"] for r in report)


def test_frobenius_control_fails():
    dga = CoframeDGA()
    report = dga.verify_frobenius_system(("t1",))
    assert not all(r["pass"] for r in report)
    # the conjugate-pair term 2 t2b t3b survives modulo the ideal of t1 alone
    residual = report[0]["residual_terms"]
    assert {"word": ["t2b", "t3b"], "re": "2", "im": "0"} in residual


def test_report_schema():
    dga = CoframeDGA()
    for entry in dga.verify_d_squared():
        assert set(entry) == {"check", "generator", "residual_terms", "pass"}


def _reference_conj_table():
    """conj(g) as a DgaElement for each generator: t_i <-> t_ib, k_ij -> -k_ji."""
    table = {}
    for i in (1, 2, 3):
        table[GENERATORS.index(f"t{i}")] = CoframeDGA.theta_bar(i)
        table[GENERATORS.index(f"t{i}b")] = CoframeDGA.theta(i)
        for j in (1, 2, 3):
            if (i, j) != (3, 3):
                table[GENERATORS.index(f"k{i}{j}")] = -CoframeDGA.kappa(j, i)
    return table


_CONJ_TABLE = _reference_conj_table()


def _reference_conj(e):
    """Conjugation product by product: conj(c) times the conjugates of the word's generators."""
    out = DgaElement()
    for word, c in e.terms.items():
        piece = DgaElement.scalar(c.conjugate())
        for g in word:
            piece = piece * _CONJ_TABLE[g]
        out = out + piece
    return out


def _reference_d_table(dga):
    """The structure equations built from DgaElement products, d(t_ib) by conjugating d(t_i)."""
    two = Fraction(3 if dga.mutation == "dtheta-coeff" else 2)
    three = Fraction(4 if dga.mutation == "dkappa-coeff" else 3)
    eps = {(1, 2, 3): 1, (2, 1, 3): -1, (3, 1, 2): 1}
    table = {}
    for i in (1, 2, 3):
        dt = DgaElement()
        for l in (1, 2, 3):
            dt = dt - dga.kappa(i, l) * dga.theta(l)
        j, k = (l for l in (1, 2, 3) if l != i)
        dt = dt + (dga.theta_bar(j) * dga.theta_bar(k)).smul(eps[i, j, k] * two)
        table[GENERATORS.index(f"t{i}")] = dt
        table[GENERATORS.index(f"t{i}b")] = _reference_conj(dt)
        for j in (1, 2, 3):
            if (i, j) == (3, 3):
                continue
            dk = (dga.theta(i) * dga.theta_bar(j)).smul(three)
            for l in (1, 2, 3):
                dk = dk - dga.kappa(i, l) * dga.kappa(l, j)
                if i == j:
                    dk = dk - dga.theta(l) * dga.theta_bar(l)
            table[GENERATORS.index(f"k{i}{j}")] = dk
    return table


def _reference_d(dga, e):
    """Graded Leibniz as three products per (word, position): (+-c left) * d(g) * right."""
    out = DgaElement()
    for word, c in e.terms.items():
        for pos, g in enumerate(word):
            left = DgaElement({word[:pos]: c if pos % 2 == 0 else -c})
            right = DgaElement({word[pos + 1 :]: ComplexRational(1)})
            out = out + left * dga._d_table[g] * right
    return out


_DGAS = {m: CoframeDGA(m) for m in (None, *CoframeDGA.MUTATIONS)}


@pytest.mark.parametrize("mutation", _DGAS)
def test_integer_table_matches_the_structure_equations(mutation):
    dga = _DGAS[mutation]
    reference = _reference_d_table(dga)
    assert sorted(dga._d_table) == sorted(reference) == list(range(len(GENERATORS)))
    for g, expected in reference.items():
        assert dga._d_table[g].terms == expected.terms, GENERATORS[g]
        assert all(type(c) is ComplexRational for c in dga._d_table[g].terms.values())


_PARTS = [0, 1, -2, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(1, 6), Fraction(7, 4)]
_COEFFS = st.builds(ComplexRational, st.sampled_from(_PARTS), st.sampled_from(_PARTS))
_WORDS = st.lists(st.integers(0, len(GENERATORS) - 1), max_size=4, unique=True).map(tuple)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_DGAS, key=str)), st.dictionaries(_WORDS, _COEFFS, max_size=5))
def test_integer_leibniz_kernel_matches_three_products(mutation, terms):
    """Words of length 0-4 with mixed denominators (1/2, 1/3, i/6, ...)."""
    dga = _DGAS[mutation]
    e = DgaElement(terms)
    got, expected = dga.d(e), _reference_d(dga, e)
    assert got.terms == expected.terms
    assert all(type(c) is ComplexRational for c in got.terms.values())


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(_WORDS, _COEFFS, max_size=5))
def test_word_conjugation_matches_the_product_route(terms):
    """Words of length 0-4 with mixed denominators, by exact value and coefficient type."""
    e = DgaElement(terms)
    got, expected = e.conj(), _reference_conj(e)
    assert got.terms == expected.terms
    assert all(type(c) is ComplexRational for c in got.terms.values())


def test_structure_verdicts_survive_optimize_flag():
    """Under python -O verify-structure still passes, and each mutation still fails."""
    import json
    import subprocess
    import sys

    for mutation in (None, *CoframeDGA.MUTATIONS):
        flags = [] if mutation is None else ["--mutate", mutation]
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "g2kit.cli", "verify-structure", *flags],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == (0 if mutation is None else 1), (mutation, proc.stderr)
        assert json.loads(proc.stdout)["pass"] is (mutation is None)
