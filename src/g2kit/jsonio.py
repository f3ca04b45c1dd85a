"""JSON interchange for forms, vectors, matrices, and reports.

Exact scalars travel as canonical "p/q" strings (with an optional imaginary
part), floats as JSON numbers - the latter only in documents whose root
carries "mode": "float".  Matrices are row-major.  Reports are serialized by
:func:`dumps_canonical`: sorted keys, no incidental whitespace, floats in
fixed 17-significant-digit form, so a report is byte-reproducible from
(command, inputs, seed, mode).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .forms import ExteriorForm
from .scalars import EXACT, FLOAT, ComplexRational


class JsonFormatError(ValueError):
    """Document does not follow the interchange schema."""


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def scalar_to_obj(x, mode):
    if mode == FLOAT:
        return {"re": float(x.real), "im": float(x.imag)}
    return {"re": str(Fraction(x.real)), "im": str(Fraction(x.imag))}


def scalar_from_obj(obj, mode):
    re = number_from_obj(obj.get("re", 0), mode)
    im = number_from_obj(obj["im"], mode) if "im" in obj else 0
    if mode == FLOAT:
        return complex(re, im) if im else re
    return ComplexRational(re, im) if im else re


def number_to_obj(x, mode):
    """Bare real scalar (vectors/matrices): string in exact mode, number in float."""
    if mode == FLOAT:
        return float(x)
    return str(Fraction(x))


_EXACT_NUMBER = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def number_from_obj(obj, mode):
    """A real scalar; JSON types are checked exactly, so ``true`` is not the number 1.

    Floats must be finite; exact strings must read ``[+-]p`` or ``[+-]p/q`` in decimal digits.
    """
    if mode == FLOAT:
        if type(obj) not in (int, float):
            raise JsonFormatError(f"float documents must use JSON numbers, got {obj!r}")
        try:
            x = float(obj)
        except OverflowError:  # a JSON integer beyond the float range
            x = math.inf
        if not math.isfinite(x):
            raise JsonFormatError(f"float documents need finite numbers, got {obj!r}")
        return x
    if type(obj) is int:
        return Fraction(obj)
    if type(obj) is str and (m := _EXACT_NUMBER.fullmatch(obj)):
        p, q = m.groups()
        try:
            return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
        except ValueError as exc:  # more digits than int() converts
            raise JsonFormatError(f"not an exact number: {obj!r}") from exc
    raise JsonFormatError(f"exact documents need 'p/q' strings, got {obj!r}")


def _int_from_obj(obj, what):
    if type(obj) is not int:
        raise JsonFormatError(f"{what} must be a JSON integer, got {obj!r}")
    return obj


# ---------------------------------------------------------------------------
# forms / vectors / matrices
# ---------------------------------------------------------------------------

def form_to_obj(form: ExteriorForm):
    return {
        "dim": form.dim,
        "degree": form.degree,
        "mode": form.mode,
        "terms": [
            {"idx": list(idx), **scalar_to_obj(c, form.mode)}
            for idx, c in sorted(form.terms.items())
        ],
    }


_FORM_KEYS = {"mode", "dim", "degree", "terms"}
_TERM_KEYS = {"idx", "re", "im"}


def _check_keys(obj, allowed, what):
    """A misspelled key is an error, not a silently absent value."""
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise JsonFormatError(f"unknown keys {unknown}; {what} has {sorted(allowed)}")


def form_from_obj(obj):
    _check_keys(obj, _FORM_KEYS, "a form document")
    mode = obj.get("mode", EXACT)
    if mode not in (EXACT, FLOAT):
        raise JsonFormatError(f"unknown mode {mode!r}")
    try:
        dim, degree = _int_from_obj(obj["dim"], "dim"), _int_from_obj(obj["degree"], "degree")
        terms = {}  # a repeated idx adds, as a permuted one does in ExteriorForm
        for t in obj.get("terms", []):
            if type(t) is not dict or not t.keys() <= _TERM_KEYS:
                _check_keys(t, _TERM_KEYS, "a term")
            idx, c = _index_from_obj(t["idx"]), scalar_from_obj(t, mode)
            terms[idx] = c if idx not in terms else terms[idx] + c
    except (KeyError, TypeError) as exc:
        raise JsonFormatError(f"malformed form document: {exc}") from exc
    return ExteriorForm(dim, degree, terms, mode=mode)


def _index_from_obj(obj):
    if not isinstance(obj, list):
        raise JsonFormatError(f"an index must be a JSON array, got {obj!r}")
    if not {*map(type, obj)} <= {int}:
        for i in obj:
            _int_from_obj(i, "an index entry")
    return tuple(obj)


def vector_to_obj(v, mode):
    return [number_to_obj(x, mode) for x in v]


def vector_from_obj(obj, mode):
    if not isinstance(obj, list):
        raise JsonFormatError(f"a vector must be a JSON array, got {obj!r}")
    return tuple(number_from_obj(x, mode) for x in obj)


def matrix_to_obj(m, mode):
    return [vector_to_obj(row, mode) for row in m]


def matrix_from_obj(obj, mode):
    if not isinstance(obj, list):
        raise JsonFormatError(f"a matrix must be a JSON array of rows, got {obj!r}")
    rows = [vector_from_obj(row, mode) for row in obj]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise JsonFormatError("ragged matrix")
    return [list(r) for r in rows]


# ---------------------------------------------------------------------------
# canonical report serialization
# ---------------------------------------------------------------------------

def _canonical(obj):
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{_quote(str(k))}:{_canonical(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(x) for x in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, Fraction):
        return _quote(str(obj))
    if isinstance(obj, ComplexRational):
        return _quote(f"{obj.re}{'+' if obj.im >= 0 else ''}{obj.im}i")
    if isinstance(obj, complex):
        return _quote(f"{format(obj.real, '.17g')}{'+' if obj.imag >= 0 else ''}{format(obj.imag, '.17g')}i")
    raise TypeError(f"cannot serialize {type(obj)}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting, and keys and strings
    quoted by ``json.encoder.encode_basestring_ascii``, the quoter (in C) that ``json.dumps``
    calls on a str."""
    return _canonical(obj)
