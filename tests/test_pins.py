"""Every pinned output of g2kit is a row of ``pins.json``, and one test checks every row.

A row names one request:

- ``cli``: a list of argv lists, run in order by ``cli.main`` in this process.  An argv
  entry that is an object names an input document: the builder in ``BUILDERS`` called
  with the object's other keys.  The stdout of the runs is hashed in order.
- ``call``: a library function in ``CALLS`` with keyword ``args``, hashed as text.
- ``demo``: a script under ``demos/``, run in a subprocess (with ``-O`` when this test
  runs under ``python -O``), its stdout hashed.

A row holds the exit code of each run (a library call that returns gives 0; an
exception that escapes gives its class name), the sha256 of the hashed bytes, and the
verdict of each run: ``pass``, the names of the failing checks, and ``tag``,
``H_signature``, ``verdict`` or ``signature_counts`` where the output has them.

When a row does not match, the test says whether only the bytes moved or the verdict
moved too, with the old and new values.  To re-pin, edit the row.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import g2kit
from g2kit import jsonio
from g2kit.chern import CandidateJ, compute_rs, index_from_h, signature_dichotomy_sweep
from g2kit.cli import main
from g2kit.dga import GENERATORS, CoframeDGA
from g2kit.forms import ExteriorForm
from g2kit.sampling import random_g2_matrix, random_invertible_rational, random_rational_frame
from g2kit.threeforms import elliptic_normal_form, split_normal_form

from conftest import two_cpus

TESTS = pathlib.Path(__file__).resolve().parent
DEMOS = TESTS.parent / "demos"
SRC = str(pathlib.Path(g2kit.__file__).resolve().parent.parent)
ROWS = json.loads((TESTS / "pins.json").read_text())
PINS = {row["id"]: row for row in ROWS}


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

_NORMAL_FORMS = {
    "elliptic": elliptic_normal_form,
    "split": split_normal_form,
    "degenerate": lambda: ExteriorForm(6, 3, {(1, 2, 3): Fraction(1, 3), (1, 4, 5): Fraction(-2)}),
    "e123": lambda: ExteriorForm(6, 3, {(1, 2, 3): 1}),
    "e1(e23+e45)": lambda: ExteriorForm(6, 3, {(1, 2, 3): 1, (1, 4, 5): 1}),
}


def _pullback(form, seed, mode, third=False):
    """A GL(6) pullback of a normal form by a rational matrix of seed ``seed``, as an
    exact or a float document; ``third`` scales it by 1/3 first.  Mode "float-pullback"
    pulls the float normal form back by a float matrix near the identity instead."""
    normal = _NORMAL_FORMS[form]()
    if mode == "float-pullback":
        rng = random.Random(seed)
        g = [[(a == b) + rng.uniform(-0.5, 0.5) for b in range(6)] for a in range(6)]
        return jsonio.form_to_obj(normal.as_float().pullback(g))
    rho = normal.pullback(random_invertible_rational(random.Random(seed), 6))
    rho = Fraction(1, 3) * rho if third else rho
    return jsonio.form_to_obj(rho if mode == "exact" else rho.as_float())


def _spelling(form, seed, spelling):
    """One spelling of a pullback of the cli_exact mix: the split, elliptic and degenerate
    forms take their matrices in that order from one stream of seed ``seed``."""
    rng = random.Random(seed)
    for name in ("split", "elliptic", "degenerate"):
        g = random_invertible_rational(rng, 6)
        if name == form:
            break
    rho = _NORMAL_FORMS[form]().pullback(g)
    if spelling == "float":
        return jsonio.form_to_obj(rho.as_float())
    plain = [{"idx": list(idx), "re": str(c)} for idx, c in rho.terms.items()]
    terms = {
        "plain": plain,
        "im0": [dict(t, im="0") for t in plain],
        "reversed": [{"idx": t["idx"][::-1], "re": t["re"]} for t in plain],
        "repeated": plain + [{"idx": [1, 1, 2], "re": "7"}, {"idx": [1, 2, 3], "re": "1/2"},
                             {"idx": [2, 1, 3], "re": "1/2"}],
    }[spelling]
    return {"dim": 6, "degree": 3, "terms": terms}


def _fixed_float_pullback(form):
    """The float elliptic normal form or e^123 + e^145 pulled back by one fixed float matrix."""
    g = [[(a == b) + 0.25 * ((7 * a + 3 * b) % 5 - 2) for b in range(6)] for a in range(6)]
    rho = elliptic_normal_form().as_float() if form == "elliptic" else ExteriorForm(
        6, 3, {(1, 2, 3): 1.0, (1, 4, 5): 1.0})
    return jsonio.form_to_obj(rho.pullback(g))


def _float_point(frame_seed):
    """A float sphere point, (1, 2, -1, 1/2, 3, -2, 3/2) normalized."""
    u = [1.0, 2.0, -1.0, 0.5, 3.0, -2.0, 1.5]
    n = math.sqrt(sum(x * x for x in u))
    return {"mode": "float", "point": [x / n for x in u], "frame_seed": frame_seed}


def _frame(seed, mode=None, J=None):
    """A random rational frame, with ``J`` = "flip23" its CandidateJ.flipped on planes 2, 3."""
    frame = random_rational_frame(random.Random(seed))
    doc = {"mode": mode} if mode else {}
    doc["frame"] = [[str(x) for x in row] for row in frame.matrix]
    if J:
        doc["J"] = [[str(x) for x in row] for row in CandidateJ.flipped(frame, (2, 3)).matrix]
    return doc


def _terms(dim, degree, *terms):
    return lambda: {"dim": dim, "degree": degree, "terms": list(terms)}


BUILDERS = {
    "pullback": _pullback,
    "spelling": _spelling,
    "fixed-float-pullback": _fixed_float_pullback,
    "float-point": _float_point,
    "frame": _frame,
    "vol-5/3": _terms(6, 6, {"idx": [1, 2, 3, 4, 5, 6], "re": "-5/3"}),
    # an elliptic form spelled with reversed, permuted and repeated indices
    "spelled-elliptic": _terms(
        6, 3, {"idx": [6, 3, 1], "re": "-1"}, {"idx": [1, 4, 5], "re": "1/2"},
        {"idx": [5, 1, 4], "re": "1/2"}, {"idx": [2, 3, 5], "re": "1"},
        {"idx": [2, 4, 6], "re": "-1", "im": "0"}, {"idx": [1, 1, 2], "re": "7"},
        {"idx": [1, 2, 3], "re": "2/3"}, {"idx": [2, 1, 3], "re": "2/3"}),
    "index-9": _terms(6, 3, {"idx": [1, 2, 9], "re": "1"}),
    "1/0": _terms(6, 3, {"idx": [1, 2, 3], "re": "1/0"}),
    "dim-7": _terms(7, 3, {"idx": [1, 2, 3], "re": "1"}),
}


def write_document(ref, path):
    """Write the document that ``ref`` ({"doc": builder, **keywords}) names to ``path``."""
    keywords = dict(ref)
    path.write_text(json.dumps(BUILDERS[keywords.pop("doc")](**keywords)))
    return str(path)


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

def _sweep(trials, seed):
    rep = signature_dichotomy_sweep(trials, seed=seed)
    return json.dumps(rep, sort_keys=True), rep


def _gaussian_rs(seed, J):
    """r, s and the index of H of the standard or flip23 J at a random exact frame, by repr."""
    frame = random_rational_frame(random.Random(seed))
    j = CandidateJ.standard(frame.x) if J == "standard" else CandidateJ.flipped(frame, (2, 3))
    data = compute_rs(j, frame)
    index = index_from_h(data)
    return repr((data.r, data.s, index)), {"H_signature": list(index)}


def _dga_tables(mutation):
    """repr of d(g) and d(d(g)) for every generator, coefficients included."""
    dga = CoframeDGA(mutation)
    table = [repr(dga._d_table[g]) for g in range(len(GENERATORS))]
    squares = [repr(dga.d(dga._d_table[g])) for g in range(len(GENERATORS))]
    return "\n".join(table + squares), None


CALLS = {
    "sweep": _sweep,
    "gaussian-rs": _gaussian_rs,
    "dga-tables": _dga_tables,
    "random_rational_frame": lambda seed: (str(random_rational_frame(random.Random(seed)).matrix), None),
    "random_g2_matrix": lambda seed: (repr(random_g2_matrix(random.Random(seed))), None),
}

VERDICT_KEYS = ("pass", "tag", "H_signature", "verdict", "signature_counts")


def verdict(report):
    """The verdict of one output: its VERDICT_KEYS and the sorted names of its failing checks."""
    if not isinstance(report, dict):
        return {}
    out = {k: report[k] for k in VERDICT_KEYS if k in report}
    failing = sorted({c["check"] for c in report.get("checks", ()) if not c["pass"]})
    if failing:
        out["failing"] = failing
    return out


def _runs(row, directory):
    """(exit, stdout bytes, report) of each run of the row's request."""
    if "call" in row:
        text, report = CALLS[row["call"]](**row["args"])
        return [(0, text.encode(), report)]
    if "demo" in row:
        path = [SRC, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        opt = ["-O"] if sys.flags.optimize else []
        proc = subprocess.run([sys.executable, *opt, str(DEMOS / row["demo"])], capture_output=True, env=env)
        return [(proc.returncode, proc.stdout, None)]
    runs = []
    for i, argv in enumerate(row["cli"]):
        argv = [write_document(a, directory / f"{i}-{k}.json") if isinstance(a, dict) else a
                for k, a in enumerate(argv)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = main(argv)
            except Exception as exc:  # the outcome is what is pinned
                code = type(exc).__name__
        text = out.getvalue()
        runs.append((code, text.encode(), json.loads(text) if text else None))
    return runs


def run_row(row, directory):
    """The row's fields as this tree gives them."""
    runs = _runs(row, directory)
    return {
        "exit": [code for code, _, _ in runs],
        "sha256": hashlib.sha256(b"".join(out for _, out, _ in runs)).hexdigest(),
        "verdict": [verdict(report) for _, _, report in runs],
    }


def mismatch(row, got):
    """None when ``got`` (from ``run_row``) matches the row, else one line that says whether
    only the bytes moved or the verdict moved, with the old and new values."""
    if all(got[k] == row[k] for k in ("exit", "sha256", "verdict")):
        return None
    moved = [f"{k} {row[k]} -> {got[k]}" for k in ("exit", "verdict") if got[k] != row[k]]
    sha = f"sha256 {row['sha256']} -> {got['sha256']}"
    if moved:
        return f"{row['id']}: verdict moved: {'; '.join(moved)}; {sha}"
    return f"{row['id']}: bytes only: {sha}; verdict {row['verdict']} unchanged"


def check_row(row, directory):
    message = mismatch(row, run_row(row, directory))
    if message:
        pytest.fail(message, pytrace=False)


def _needs_two_cpus(row):
    return any(argv[argv.index("--threads") + 1] == "2" for argv in row.get("cli", ()) if "--threads" in argv)


@pytest.mark.parametrize(
    "row", [pytest.param(row, id=row["id"], marks=[two_cpus] if _needs_two_cpus(row) else []) for row in ROWS]
)
def test_pinned_report(row, tmp_path):
    check_row(row, tmp_path)


# ---------------------------------------------------------------------------
# the table is the one place for pins
# ---------------------------------------------------------------------------

# The test that pinned each outcome before the table, and the rows it became.
MOVED = {
    "test_cli.py::test_sphere_suite_reports_byte_stable": [
        *(f"sphere-suite/4/seed{s}" for s in range(4)), "sphere-suite/4/seed0/threads2",
        "sphere-suite/4/seed0/upsilon-scale"],
    "test_cli.py::test_chern_frame_reports_byte_stable": ["chern/frame0", "chern/frame1/flip23"],
    "test_cli.py::test_classify_reports_byte_stable": [
        f"classify/{f}/seed{s}/{m}" for s in (0, 1) for f in ("elliptic", "split") for m in ("exact", "float")],
    "test_cli.py::test_structure_chern_and_sphere_reports_byte_stable": [
        "verify-structure", "verify-structure/dkappa-coeff", "verify-structure/dtheta-coeff",
        *(f"chern/float-point/{f}" for f in ("standard", "minus-standard", "flip23")), "sphere-suite/20/seed7"],
    "test_cli.py::test_classify_degenerate_reports_byte_stable": [
        f"classify/{f}/seed{s}/{m}"
        for s in (0, 1) for f in ("e123", "e1(e23+e45)") for m in ("exact", "float", "float-pullback")],
    "test_cli.py::test_classify_request_bytes_are_pinned": [
        *(f"classify-spellings/seed{s}/{f}" for s in (3, 4) for f in ("split", "elliptic", "degenerate")),
        "classify/index-9", "classify/1-over-0", "classify/dim-7"],
    "test_chern.py::test_sweep_report_is_pinned": [f"sweep/200/seed{s}" for s in range(4)],
    "test_chern.py::test_gaussian_rational_outputs_are_pinned": [
        f"gaussian-rs/seed{s}/{j}" for s in range(4) for j in ("standard", "flip23")],
    "test_demos.py::test_demo_output_is_pinned": [
        "demo/01_cross_product.py", "demo/02_structure_equations.py", "demo/03_sphere_geometry.py",
        "demo/04_threeform_classification.py", "demo/05_transition_invariants.py"],
    "test_dga.py::test_d_table_and_d_squared_are_pinned": [
        "dga-tables", "dga-tables/dkappa-coeff", "dga-tables/dtheta-coeff"],
    "test_g2.py::test_random_rational_frames_byte_stable": [f"random_rational_frame/seed{s}" for s in range(4)],
    "test_g2.py::test_random_g2_matrices_byte_stable": [f"random_g2_matrix/seed{s}" for s in range(10)],
}

# The commands of the python -O step that CI ran before the table; chern/float-point/flip23
# was one of them and is also moved above.
FORMER_CI = [
    "sphere-suite/9/seed3", "sphere-suite/9/seed3/threads2", "classify/spelled-elliptic",
    "classify/spelled-elliptic/vol-5/3", "classify/fixed-float-pullback/elliptic",
    "classify/fixed-float-pullback/degenerate", "sweep/2000/seed7", "chern/float-point/flip23",
    "chern/flip23", "chern/frame3/flip23",
]


def test_the_table_is_the_one_place_for_pins():
    """No test file holds a sha256 literal, no row id repeats, and the rows are exactly the
    moved outcomes and the former CI commands."""
    literals = [p.name for p in TESTS.glob("*.py") if re.search(r"\b[0-9a-f]{64}\b", p.read_text())]
    ids = [row["id"] for row in ROWS]
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    expected = {i for rows in MOVED.values() for i in rows} | set(FORMER_CI)
    if literals or repeated or set(ids) != expected:
        pytest.fail(f"digest literals in {literals}; repeated ids {repeated}; "
                    f"missing rows {sorted(expected - set(ids))}; extra rows {sorted(set(ids) - expected)}")


def test_mismatch_says_whether_the_verdict_moved():
    row = {"id": "r", "exit": [0], "sha256": "a", "verdict": [{"pass": True}]}
    assert mismatch(row, dict(row)) is None
    assert mismatch(row, dict(row, sha256="b")) == (
        "r: bytes only: sha256 a -> b; verdict [{'pass': True}] unchanged")
    failed = dict(row, exit=[1], sha256="b", verdict=[{"pass": False, "failing": ["sampled_points"]}])
    assert mismatch(row, failed) == (
        "r: verdict moved: exit [0] -> [1]; verdict [{'pass': True}] -> "
        "[{'pass': False, 'failing': ['sampled_points']}]; sha256 a -> b")
