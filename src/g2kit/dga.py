"""Free graded-commutative differential algebra for the moving-frame coframe.

Generators are the complex coframe components of the 14-dimensional symmetry
group: t1,t2,t3 (the (1,0) coframe), their conjugates t1b,t2b,t3b, the
off-diagonal connection entries k12,k13,k21,k23,k31,k32, and the purely
imaginary diagonal entries k11,k22.  The third diagonal entry is eliminated
by the trace relation k33 = -k11 - k22, and conjugation acts by

    conj(t_i) = t_ib,   conj(k_ij) = -k_ji   (so conj(k11) = -k11).

With the generators free, the differential encodes the structure equations

    d t_i  = - k_il ^ t_l + eps_ijk  t_jb ^ t_kb
    d k_ij = - k_il ^ k_lj + 3 t_i ^ t_jb - delta_ij t_l ^ t_lb

and d(d(g)) = 0 for every generator is a genuine theorem (the Jacobi
identity of the algebra), machine-checked by :meth:`CoframeDGA.verify_d_squared`.

:class:`DgaElement` is a thin wrapper over the sparse alternating-algebra
kernel of :mod:`g2kit.forms` (``canonical_terms``, ``add_terms``,
``wedge_terms``): a word is an increasing tuple of 0-based generator indices,
and its coefficient is a ``ComplexRational``.  The structure constants are
Gaussian integers, read off the two equations above into a table of
{2-word: (re, im)} int pairs (d t_ib by conjugating d t_i).  ``d`` is one
integer Leibniz kernel over that table: it clears the coefficients of its
argument to Gaussian integers over one lcm, merges every word of
d(g) ^ rest into one int-pair accumulator, and normalizes one
``ComplexRational`` per output word.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .forms import _MERGED, _merged, add_terms, canonical_terms, sort_sign, wedge_terms
from .linalg import _cleared
from .scalars import ComplexRational, I_EXACT, Immutable, _restore

# canonical generator order: t1 < t2 < t3 < t1b < t2b < t3b < k-block (lex i,j)
GENERATORS = (
    "t1", "t2", "t3", "t1b", "t2b", "t3b",
    "k11", "k12", "k13", "k21", "k22", "k23", "k31", "k32",
)
_INDEX = {name: i for i, name in enumerate(GENERATORS)}

_PRETTY = {
    "t1": "θ1", "t2": "θ2", "t3": "θ3",
    "t1b": "θ̄1", "t2b": "θ̄2", "t3b": "θ̄3",
    "k11": "κ11̄", "k12": "κ12̄", "k13": "κ13̄",
    "k21": "κ21̄", "k22": "κ22̄", "k23": "κ23̄",
    "k31": "κ31̄", "k32": "κ32̄",
}

_ONE = ComplexRational(1)


def _as_complex_rational(c):
    return c if isinstance(c, ComplexRational) else ComplexRational(c)


class DgaElement(Immutable):
    """Formal sum of canonical words with Gaussian-rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        super().__init__(canonical_terms(terms or {}, _as_complex_rational))

    @classmethod
    def _trusted(cls, terms):
        """Build from kernel output: canonical words, nonzero ComplexRational coefficients."""
        return _restore(cls, terms)

    @classmethod
    def generator(cls, name):
        return cls({(_INDEX[name],): _ONE})

    @classmethod
    def scalar(cls, c):
        return cls({(): c})

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, DgaElement):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, DgaElement):
            return NotImplemented
        return DgaElement._trusted(add_terms(self.terms, other.terms))

    def __neg__(self):
        return self.smul(ComplexRational(-1))

    def __sub__(self, other):
        return self + (-other)

    def smul(self, c):
        c = _as_complex_rational(c)
        if not c:
            return DgaElement()
        return DgaElement._trusted({w: c * v for w, v in self.terms.items()})

    def __mul__(self, other):
        """Graded-commutative product (all generators have degree 1)."""
        if not isinstance(other, DgaElement):
            return NotImplemented
        return DgaElement._trusted(wedge_terms(self.terms, other.terms))

    def conj(self):
        """Antilinear; each word is conjugated by ``_conj_word``, the rule that also gives d(t_ib)."""
        out = {}
        for word, c in self.terms.items():
            key, sign = _conj_word(word)
            out[key] = c.conjugate() if sign > 0 else -c.conjugate()
        return DgaElement._trusted(out)

    def drop_generators(self, kill):
        """Set the given generators to zero (ideal-membership remainder)."""
        kill = {(_INDEX[k] if isinstance(k, str) else k) for k in kill}
        return DgaElement(
            {w: c for w, c in self.terms.items() if not (set(w) & kill)}
        )

    def as_report_terms(self):
        return [
            {
                "word": [GENERATORS[g] for g in w],
                "re": str(c.re),
                "im": str(c.im),
            }
            for w, c in sorted(self.terms.items())
        ]

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items()):
            word = "".join(_PRETTY[GENERATORS[g]] for g in w) or "1"
            bits.append(f"({c})*{word}")
        return " + ".join(bits)


# the conjugation rule of the module docstring, generator -> (conjugate generator, sign)
_CONJ = {
    _INDEX[n]: (_INDEX[f"k{n[2]}{n[1]}"], -1) if n[0] == "k"
    else (_INDEX[n[:2] if n[2:] else n + "b"], 1)
    for n in GENERATORS
}


def _conj_word(word):
    """The conjugate of a word as (canonical word, sign): each generator by ``_CONJ``, then sorted."""
    key, sign = sort_sign(_CONJ[g][0] for g in word)
    return key, sign * prod(_CONJ[g][1] for g in word)


def _gen_sum(name):
    """A generator as (index, sign) pairs; k33 is the trace substitution -k11 - k22."""
    return ((_INDEX["k11"], -1), (_INDEX["k22"], -1)) if name == "k33" else ((_INDEX[name], 1),)


class CoframeDGA:
    """The coframe algebra with its structure-equation differential.

    ``mutation`` deliberately corrupts one structure constant, for testing
    that the consistency checks actually detect wrong equations:
    "dkappa-coeff" turns the 3 in d(k_ij) into 4, "dtheta-coeff" turns the
    2 in the conjugate-pair term of d(t_i) into 3.
    """

    MUTATIONS = ("dkappa-coeff", "dtheta-coeff")

    def __init__(self, mutation=None):
        if mutation is not None and mutation not in self.MUTATIONS:
            raise ValueError(f"unknown mutation {mutation!r}; known: {self.MUTATIONS}")
        self.mutation = mutation
        self._d_words = self._structure_constants()
        self._d_table = {
            g: DgaElement._trusted(
                {w: ComplexRational._from_cleared(re, im, 1) for w, (re, im) in words.items()}
            )
            for g, words in self._d_words.items()
        }

    # -- generator accessors ------------------------------------------------
    @staticmethod
    def theta(i):
        return DgaElement.generator(f"t{i}")

    @staticmethod
    def theta_bar(i):
        return DgaElement.generator(f"t{i}b")

    @staticmethod
    def kappa(i, j):
        """Connection entry k_ij; the (3,3) entry is the trace substitution."""
        if i == j == 3:
            return -DgaElement.generator("k11") - DgaElement.generator("k22")
        return DgaElement.generator(f"k{i}{j}")

    # -- differential ---------------------------------------------------------
    def _structure_constants(self):
        """d of every generator as {2-word: (re, im)}, read off the structure equations.

        Each equation is a list of (c, x, y) for c * x ^ y, x and y generator
        names or k33; d(t_ib) = conj(d(t_i)) by the conjugation rule.
        """
        two = 3 if self.mutation == "dtheta-coeff" else 2
        three = 4 if self.mutation == "dkappa-coeff" else 3
        equations = {}
        for i in (1, 2, 3):
            a, b = (l for l in (1, 2, 3) if l != i)  # a < b, and eps_iab = -1 only for i = 2
            equations[f"t{i}"] = [(-1, f"k{i}{l}", f"t{l}") for l in (1, 2, 3)]
            equations[f"t{i}"].append((-two if i == 2 else two, f"t{a}b", f"t{b}b"))
            for j in (1, 2, 3):
                if (i, j) != (3, 3):
                    eq = equations[f"k{i}{j}"] = [(-1, f"k{i}{l}", f"k{l}{j}") for l in (1, 2, 3)]
                    eq.append((three, f"t{i}", f"t{j}b"))
                    eq += [(-1, f"t{l}", f"t{l}b") for l in (1, 2, 3) if i == j]
        table = {}
        for name, products in equations.items():
            out = {}
            for c, x, y in products:
                for gx, cx in _gen_sum(x):
                    for gy, cy in _gen_sum(y):
                        word, sign = sort_sign((gx, gy))
                        if sign:
                            out[word] = out.get(word, 0) + sign * c * cx * cy
            table[_INDEX[name]] = {w: (c, 0) for w, c in out.items() if c}
        for i in (1, 2, 3):  # conj of d(t_i), word by word
            conj = table[_INDEX[f"t{i}b"]] = {}
            for word, (re, im) in table[_INDEX[f"t{i}"]].items():
                key, sign = _conj_word(word)
                conj[key] = (sign * re, -sign * im)
        return table

    def d(self, e: DgaElement) -> DgaElement:
        """Degree +1 derivation extending the generator rules (graded Leibniz).

        The coefficients of ``e`` are cleared once, to Gaussian integers over
        one lcm.  The generator g at position pos of a word contributes
        (-1)^pos left ^ d(g) ^ right = (-1)^pos d(g) ^ rest, as d(g) has even
        degree and rest = left + right; its words are merged into one int-pair
        accumulator, and each output word is normalized once.
        """
        if e.is_zero:
            return DgaElement()
        res, ims, den = _cleared(list(e.terms.values()))
        acc, merged = {}, _MERGED
        for word, a, b in zip(e.terms, res, ims):
            for pos, g in enumerate(word):
                rest = word[:pos] + word[pos + 1 :]
                for w2, (p, q) in self._d_words[g].items():
                    if w2[0] in rest or w2[1] in rest:
                        continue
                    sign, key = merged.get((w2, rest)) or _merged(w2, rest)
                    if pos % 2:
                        sign = -sign
                    re, im = sign * (a * p - b * q), sign * (a * q + b * p)
                    old = acc.get(key)
                    acc[key] = (re, im) if old is None else (old[0] + re, old[1] + im)
        return DgaElement._trusted(
            {w: ComplexRational._from_cleared(*z, den) for w, z in acc.items() if any(z)}
        )

    # -- distinguished invariant elements -------------------------------------
    def invariant_two_form(self) -> DgaElement:
        """x*omega = 2i * sum_j t_j ^ t_jb."""
        out = DgaElement()
        for j in (1, 2, 3):
            out = out + self.theta(j) * self.theta_bar(j)
        return out.smul(I_EXACT + I_EXACT)

    def complex_volume(self) -> DgaElement:
        """x*Upsilon = 8 t1 ^ t2 ^ t3."""
        return (self.theta(1) * self.theta(2) * self.theta(3)).smul(Fraction(8))

    # -- verification reports ---------------------------------------------------
    def verify_d_squared(self):
        """d(d(g)) for every generator; the residual must vanish identically."""
        return [
            _report("d_squared", name, self.d(self._d_table[_INDEX[name]]))
            for name in GENERATORS
        ]

    def verify_invariant_form_identities(self):
        """Residuals of d(omega) - 3 Im(Upsilon), d(Upsilon) - 2 omega^2, omega^Upsilon."""
        omega = self.invariant_two_form()
        ups = self.complex_volume()
        ups_bar = ups.conj()
        two_i = I_EXACT + I_EXACT
        im_ups = (ups - ups_bar).smul(_ONE / two_i)
        checks = [
            ("d_omega_is_3_im_upsilon", self.d(omega) - im_ups.smul(Fraction(3))),
            ("d_upsilon_is_2_omega_sq", self.d(ups) - (omega * omega).smul(Fraction(2))),
            ("omega_wedge_upsilon_vanishes", omega * ups),
        ]
        return [_report(name, "", residual) for name, residual in checks]

    DEFAULT_FROBENIUS_SYSTEM = ("t1", "t2b", "t3b", "k12", "k13")

    def verify_frobenius_system(self, system=None):
        """Ideal-membership of d(s) in the ideal generated by the system.

        For each generator s of the system, every word of d(s) must contain a
        system generator; the remainder after setting them to zero is the
        reported residual.
        """
        system = tuple(system) if system is not None else self.DEFAULT_FROBENIUS_SYSTEM
        return [
            _report(
                "frobenius_ideal_membership",
                name,
                self._d_table[_INDEX[name]].drop_generators(system),
            )
            for name in system
        ]


def _report(check, generator, residual):
    """One check entry; it passes when the residual vanishes identically."""
    return {
        "check": check,
        "generator": generator,
        "residual_terms": residual.as_report_terms(),
        "pass": residual.is_zero,
    }
