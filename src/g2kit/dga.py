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
and its coefficient is a ``ComplexRational``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .forms import add_terms, canonical_terms, wedge_terms
from .scalars import ComplexRational, I_EXACT

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


class DgaElement:
    """Formal sum of canonical words with Gaussian-rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", canonical_terms(terms or {}, _as_complex_rational))

    def __setattr__(self, name, value):
        raise AttributeError("DgaElement is immutable")

    @classmethod
    def _trusted(cls, terms):
        """Build from kernel output: canonical words, nonzero ComplexRational coefficients."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

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

    def conj(self, conj_table):
        """Conjugation: antilinear, generator-wise via conj_table."""
        out = DgaElement()
        for word, c in self.terms.items():
            piece = DgaElement.scalar(c.conjugate())
            for g in word:
                piece = piece * conj_table[g]
            out = out + piece
        return out

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


_EPS = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (1, 3, 2): -1, (2, 1, 3): -1, (3, 2, 1): -1,
}


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
        self._conj_table = self._build_conj_table()
        self._d_table = self._build_d_table()

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

    # -- conjugation ---------------------------------------------------------
    def _build_conj_table(self):
        table = {}
        for i in (1, 2, 3):
            table[_INDEX[f"t{i}"]] = DgaElement.generator(f"t{i}b")
            table[_INDEX[f"t{i}b"]] = DgaElement.generator(f"t{i}")
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if (i, j) == (3, 3):
                    continue
                name = f"k{i}{j}"
                if name in _INDEX:
                    table[_INDEX[name]] = -self.kappa(j, i)
        return table

    def conj(self, e: DgaElement) -> DgaElement:
        return e.conj(self._conj_table)

    # -- differential ---------------------------------------------------------
    def _d_theta(self, i):
        out = DgaElement()
        for l in (1, 2, 3):
            out = out - self.kappa(i, l) * self.theta(l)
        eps_coeff = Fraction(3 if self.mutation == "dtheta-coeff" else 2)
        for j, k in combinations((1, 2, 3), 2):
            eps = _EPS.get((i, j, k), 0)
            if eps:
                out = out + (self.theta_bar(j) * self.theta_bar(k)).smul(
                    ComplexRational(eps * eps_coeff)
                )
        return out

    def _d_kappa(self, i, j):
        out = DgaElement()
        for l in (1, 2, 3):
            out = out - self.kappa(i, l) * self.kappa(l, j)
        three = Fraction(4 if self.mutation == "dkappa-coeff" else 3)
        out = out + (self.theta(i) * self.theta_bar(j)).smul(ComplexRational(three))
        if i == j:
            for l in (1, 2, 3):
                out = out - self.theta(l) * self.theta_bar(l)
        return out

    def _build_d_table(self):
        table = {}
        for i in (1, 2, 3):
            dt = self._d_theta(i)
            table[_INDEX[f"t{i}"]] = dt
            table[_INDEX[f"t{i}b"]] = self.conj(dt)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                name = f"k{i}{j}"
                if name in _INDEX:
                    table[_INDEX[name]] = self._d_kappa(i, j)
        return table

    def d(self, e: DgaElement) -> DgaElement:
        """Degree +1 derivation extending the generator rules (graded Leibniz)."""
        out = DgaElement()
        for word, c in e.terms.items():
            for pos, g in enumerate(word):
                rest_left = word[:pos]
                rest_right = word[pos + 1 :]
                piece = DgaElement({rest_left: c if pos % 2 == 0 else -c})
                piece = piece * self._d_table[g]
                piece = piece * DgaElement({rest_right: _ONE})
                out = out + piece
        return out

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
        ups_bar = self.conj(ups)
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
