import ast
import contextlib
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import g2kit
from g2kit import cli, jsonio
from g2kit.cli import main
from g2kit.forms import ExteriorForm
from g2kit.threeforms import elliptic_normal_form, split_normal_form

from conftest import tiny_pivot_elliptic_form


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "g2kit.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_verify_structure_passes(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(["verify-structure", "--report", str(out)])
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["pass"]
    assert all(set(c) >= {"check", "pass"} for c in report["checks"])


def test_verify_structure_mutation_fails():
    proc = run_cli(["verify-structure", "--mutate", "dkappa-coeff"])
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert not report["pass"]


def test_classify_commands(tmp_path):
    for form, tag in ((split_normal_form(), "split"), (elliptic_normal_form(), "elliptic"),
                      (ExteriorForm.zero(6, 3), "degenerate")):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(jsonio.form_to_obj(form)))
        proc = run_cli(["classify-3form", "--input", str(path)])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["tag"] == tag
        if tag == "elliptic":
            assert "J" in report


def test_classify_with_supplied_volume(tmp_path):
    """Reversing the supplied volume form reverses the recovered structure."""
    from g2kit.threeforms import standard_volume_form

    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps(jsonio.form_to_obj(elliptic_normal_form())))
    vol = tmp_path / "vol.json"
    vol.write_text(json.dumps(jsonio.form_to_obj((-1) * standard_volume_form())))
    plus = json.loads(run_cli(["classify-3form", "--input", str(rho)]).stdout)
    minus = json.loads(
        run_cli(["classify-3form", "--input", str(rho), "--vol", str(vol)]).stdout
    )
    flip = [[str(-Fraction(x)) for x in row] for row in minus["J"]]
    assert plus["J"] == flip


def test_sphere_suite_sampled():
    proc = run_cli(["sphere-suite", "--samples", "4", "--seed", "3"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["pass"]
    sampled = [c for c in report["checks"] if c["check"] == "sampled_points"][0]
    assert sampled["max_defect"] < 1e-10


def test_sphere_suite_exact_only():
    proc = run_cli(["sphere-suite", "--samples", "0"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["mode"] == "exact"
    assert report["pass"]


def test_sphere_suite_mutation_detected():
    proc = run_cli(["sphere-suite", "--samples", "2", "--seed", "3", "--mutate", "upsilon-scale"])
    assert proc.returncode == 1


def test_sphere_suite_requires_seed():
    proc = run_cli(["sphere-suite", "--samples", "2"])
    assert proc.returncode == 2


def test_sphere_suite_rejects_threads_below_one():
    for threads in ("0", "-3"):
        proc = run_cli(["sphere-suite", "--samples", "2", "--seed", "1", "--threads", threads])
        assert proc.returncode == 2
        assert "--threads" in proc.stderr


def test_chern_families():
    proc = run_cli(["chern", "--family", "standard"])
    report = json.loads(proc.stdout)
    assert report["residual"] == {"re": "-1", "im": "0"}
    assert report["H_signature"] == [3, 0]
    assert report["orientation"] == "+1"
    assert "obstruction" in report["verdict"]

    proc = run_cli(["chern", "--family", "flip23"])
    report = json.loads(proc.stdout)
    assert report["residual"] == {"re": "0", "im": "0"}
    assert report["H_signature"] == [1, 2]
    assert "index (1,2)" in report["verdict"]


def test_chern_rejects_bad_j(tmp_path):
    bad = {
        "mode": "exact",
        "point": ["1", "0", "0", "0", "0", "0", "0"],
        "J": [["1" if i == j else "0" for j in range(7)] for i in range(7)],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = run_cli(["chern", "--input", str(path)])
    assert proc.returncode == 2


def test_chern_accepts_valid_j(tmp_path):
    from g2kit.chern import CandidateJ
    from g2kit.sphere import basis_point

    j = CandidateJ.standard(basis_point(1))
    doc = {
        "mode": "exact",
        "point": ["1", "0", "0", "0", "0", "0", "0"],
        "J": [[str(Fraction(x)) for x in row] for row in j.matrix],
    }
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(["chern", "--input", str(path)])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["family"] == "from-input"
    assert report["H_signature"] == [3, 0]
    # gauge-dependent residual is nonzero; the normalized magnitude agrees
    assert report["residual"] != {"re": "0", "im": "0"}
    assert report["residual_normalized_abs"] > 0.01


@pytest.mark.parametrize("family", ["standard", "minus-standard", "flip23"])
def test_chern_family_conflicting_with_input_j_exits_2(family, tmp_path, capsys):
    """A --family cannot be honoured for a document that supplies its own J."""
    from g2kit.chern import CandidateJ
    from g2kit.sphere import basis_point

    j = CandidateJ.standard(basis_point(1))
    path = tmp_path / "j.json"
    path.write_text(json.dumps({"J": [[str(Fraction(x)) for x in row] for row in j.matrix]}))
    code, out, err = run_main(["chern", "--input", str(path), "--family", family], capsys)
    assert (code, out) == (2, "") and "input error" in err
    code, out, _ = run_main(["chern", "--input", str(path)], capsys)
    assert code == 0 and json.loads(out)["family"] == "from-input"


def test_chern_rejects_off_sphere_point(tmp_path):
    doc = {"mode": "float", "point": [2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}
    path = tmp_path / "off.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(["chern", "--input", str(path)])
    assert proc.returncode == 2
    assert "input error" in proc.stderr


def test_chern_rejects_bad_frame(tmp_path):
    doc = {
        "mode": "exact",
        "point": ["1", "0", "0", "0", "0", "0", "0"],
        "frame": [["2" if i == j else "0" for j in range(7)] for i in range(7)],
    }
    path = tmp_path / "badframe.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(["chern", "--input", str(path)])
    assert proc.returncode == 2


def test_chern_float_point(tmp_path):
    """Family structures at a float sphere point: verdicts survive rounding."""
    import math

    u = [1.0, 2.0, -1.0, 0.5, 3.0, -2.0, 1.5]
    n = math.sqrt(sum(x * x for x in u))
    doc = {"mode": "float", "point": [x / n for x in u], "frame_seed": 9}
    path = tmp_path / "floatpt.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(["chern", "--input", str(path), "--family", "flip23"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["mode"] == "float"
    assert report["H_signature"] == [1, 2]
    assert report["residual_normalized_abs"] < 1e-9
    assert "residual zero" in report["verdict"]


@pytest.mark.parametrize("doc", [{}, {"point": [1.0] + [0.0] * 6}])
def test_float_chern_document_at_e1_runs_float(doc, tmp_path, capsys):
    """A float document at e1 uses the float copy of the standard frame, not the exact one."""
    path = tmp_path / "e1.json"
    path.write_text(json.dumps({"mode": "float", **doc}))
    code, out, _ = run_main(["chern", "--input", str(path)], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["mode"] == "float"
    assert report["residual"] == {"re": -1, "im": 0} and report["H_signature"] == [3, 0]


def test_reports_byte_reproducible():
    a = run_cli(["sphere-suite", "--samples", "3", "--seed", "5"]).stdout
    b = run_cli(["sphere-suite", "--samples", "3", "--seed", "5"]).stdout
    assert a == b
    c = run_cli(["sphere-suite", "--samples", "3", "--seed", "5", "--threads", "2"]).stdout
    assert a == c


def test_exit_zero_iff_all_pass():
    report = json.loads(run_cli(["verify-structure"]).stdout)
    assert report["pass"] and all(c["pass"] for c in report["checks"])


def test_main_callable_directly(capsys):
    code = main(["verify-structure"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["pass"]


def test_sphere_suite_reports_byte_stable():
    """sphere-suite stdout for fixed seeds is the one it has always printed."""
    import hashlib

    expected = {
        ("--seed", "0", "--threads", "1"):
            "0f92eb89e2c303072c6ecb64f5a89327aa86c5b4cbb517e256d1a76f77e0f706",
        ("--seed", "1", "--threads", "1"):
            "75e71999b1cc4a351c77a5f27ec74f5a021897202e21cb7c7e49cb42af9bfcdf",
        ("--seed", "2", "--threads", "1"):
            "126b8feffbced8ff1e905a77abb4d510f7c99350492cf3403729d63b54c76bd5",
        ("--seed", "3", "--threads", "1"):
            "3fd10351ac567714a4f10d47c594f153b61b010331e54f38c6083e048d7d1f78",
        ("--seed", "0", "--threads", "2"):
            "0f92eb89e2c303072c6ecb64f5a89327aa86c5b4cbb517e256d1a76f77e0f706",
        ("--seed", "0", "--mutate", "upsilon-scale"):
            "5fe763f6e0361ade5ff8358f83d3749e153ec773c5f89552ea3b42e2e06373b7",
    }
    for flags, digest in expected.items():
        out = run_cli(["sphere-suite", "--samples", "4", *flags]).stdout
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


def test_chern_frame_reports_byte_stable(tmp_path, capsys):
    """chern --input on random exact frames prints the report it always has."""
    import hashlib
    import random

    from g2kit.chern import CandidateJ
    from g2kit.sampling import random_rational_frame

    digests = []
    for seed in (0, 1):
        frame = random_rational_frame(random.Random(seed))
        doc = {"mode": "exact", "frame": [[str(x) for x in row] for row in frame.matrix]}
        if seed == 1:
            flip = CandidateJ.flipped(frame, (2, 3))
            doc["J"] = [[str(x) for x in row] for row in flip.matrix]
        path = tmp_path / f"frame{seed}.json"
        path.write_text(json.dumps(doc))
        assert main(["chern", "--input", str(path)]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == [
        "8fc16f96c96243b526b016f53c010649bac20a87ccacc6abd479132f9ae29bdf",
        "a3440d067d176bf244265422a9fc2965c2c71731e674ba4da1df54daf1de466d",
    ]


def test_commands_run_without_numpy():
    """numpy is a test extra: every CLI verdict path runs with it unimportable."""
    script = """
import sys
sys.modules["numpy"] = None
from g2kit.cli import main
for args in (
    ["verify-structure"],
    ["sphere-suite", "--samples", "3", "--seed", "1"],
    ["sphere-suite", "--samples", "0"],
    ["chern", "--family", "flip23"],
):
    code = main(args)
    print(code, file=sys.stderr)
    if code != 0:
        sys.exit(10)
try:
    import numpy
except ImportError:
    sys.exit(0)
sys.exit(11)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["0", "0", "0", "0"]


def test_classify_reports_byte_stable(tmp_path, capsys):
    """classify-3form on GL(6) pullbacks of the normal forms prints the report it always has.

    The float reports print J, Upsilon and the discriminant to 17 digits, so
    any change in the order of float evaluation shows here.
    """
    import hashlib
    import random

    from g2kit.sampling import random_invertible_rational

    digests = {}
    for seed in (0, 1):
        g = random_invertible_rational(random.Random(seed), 6)
        for name, normal in (("elliptic", elliptic_normal_form()), ("split", split_normal_form())):
            rho = normal.pullback(g)
            for mode, form in (("exact", rho), ("float", rho.as_float())):
                path = tmp_path / f"{name}{seed}{mode}.json"
                path.write_text(json.dumps(jsonio.form_to_obj(form)))
                assert main(["classify-3form", "--input", str(path)]) == 0
                out = capsys.readouterr().out
                assert json.loads(out)["tag"] == name
                digests[name, seed, mode] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == {
        ("elliptic", 0, "exact"): "0ee1f9760381d6ef0f3c66732d4fcda3849f5fbd288140f2ecff9194e6f3fe3b",
        ("elliptic", 0, "float"): "65e7d00f9e2ef986dfbc09d8acf324b3dffd225ca00fe22e4fb4f20f4df3a31a",
        ("split", 0, "exact"): "5a2329b7de9bf8ee664e6889ad4a400eea3f73eb7d5ac16cc20d72d69af97ef3",
        ("split", 0, "float"): "0cb8e818d045dc3d8a8fa05cce25ea1e694b3514faf7edccf64b82e1dc083f21",
        ("elliptic", 1, "exact"): "08388ea759028da01b99cf7ecdeaf7b5150a92bd49877eb6db5997255d8957c5",
        ("elliptic", 1, "float"): "902b0ba22125a4088339924524c77adf7abfe79c340a33a5395f06908b4b39ac",
        ("split", 1, "exact"): "5d6eb6c8210452770f149687b24918ce7632676f0c426149c5db04db079df800",
        ("split", 1, "float"): "288d0cc91d412e5b04516e65e5be33698566c175a100d252677f9ee43d6f14c4",
    }


_PINNED_DIGESTS = [
    "245915a97b4e51b3cdb69424a6210e153632722269d56e381488fbc11248bc94",
    "28b8e36492ba7ea2ac0c0f79e3e3be2c7cdb5208b408fd7f5bd77fa9c3da2b6b",
    "ac7a3bfecf76068390a69793c45afae4c6742c5e9e4b449edb01c734a7496384",
    "5823cc02cb37d4eeca13f9640f37396494b2a67b1b569fcaada44dcc4168c064",
    "01c24a0ff97ed55edf498a09fcc7bcfeb28c9cbc47a9d37bc851eb7ba10af9cb",
    "e6b8d32345e9df6bbe2600e1c9f506bb6fa4d4da9e645e4c31855469e4b9090a",
    "b7ab87b070f68e36584b8c907700dd4469a0df28ead0779d5de7db22899b4ca8",
]


def _pinned_digests(tmp_path, capsys):
    """stdout sha256 of the runs that ``_PINNED_DIGESTS`` pins, each checked for its exit code."""
    import hashlib
    import math

    u = [1.0, 2.0, -1.0, 0.5, 3.0, -2.0, 1.5]
    n = math.sqrt(sum(x * x for x in u))
    path = tmp_path / "floatpt.json"
    path.write_text(json.dumps({"mode": "float", "point": [x / n for x in u], "frame_seed": 9}))
    runs = {
        ("verify-structure",): 0,
        ("verify-structure", "--mutate", "dkappa-coeff"): 1,
        ("verify-structure", "--mutate", "dtheta-coeff"): 1,
        **{("chern", "--input", str(path), "--family", f): 0
           for f in ("standard", "minus-standard", "flip23")},
        ("sphere-suite", "--samples", "20", "--seed", "7"): 0,
    }
    digests = []
    for args, code in runs.items():
        assert main(list(args)) == code, args
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    return digests


def test_structure_chern_and_sphere_reports_byte_stable(tmp_path, capsys):
    """More reports whose bytes are pinned: the DGA products of verify-structure
    (plain and mutated), chern families at the float point of
    ``test_chern_float_point`` (its J is built by float cross products), and a
    longer sphere-suite run.
    """
    assert _pinned_digests(tmp_path, capsys) == _PINNED_DIGESTS


def test_usage_error_leaves_later_reports_unchanged(tmp_path, capsys):
    """The parser is built once per process: a usage error on it changes no later report."""
    from g2kit.cli import build_parser

    assert build_parser() is build_parser()
    assert run_main(["sphere-suite", "--samples", "x"], capsys)[:2] == (2, "")
    assert _pinned_digests(tmp_path, capsys) == _PINNED_DIGESTS


def test_classify_degenerate_reports_byte_stable(tmp_path, capsys):
    """classify-3form on pullbacks of degenerate forms prints the report it always has.

    A float discriminant here is what is left of K^2 after cancellation, so
    its 17 digits show any change in the order of the float sums that build K.
    """
    import hashlib
    import random

    from g2kit.sampling import random_invertible_rational

    degenerate = {
        "e123": ExteriorForm(6, 3, {(1, 2, 3): 1}),
        "e1(e23+e45)": ExteriorForm(6, 3, {(1, 2, 3): 1, (1, 4, 5): 1}),
    }
    digests = {}
    for seed in (0, 1):
        g = random_invertible_rational(random.Random(seed), 6)
        rng = random.Random(seed)
        gf = [[(a == b) + rng.uniform(-0.5, 0.5) for b in range(6)] for a in range(6)]
        for name, normal in degenerate.items():
            rho = Fraction(1, 3) * normal.pullback(g)
            forms = {
                "exact": rho,
                "float": rho.as_float(),
                "float-pullback": normal.as_float().pullback(gf),
            }
            for mode, form in forms.items():
                path = tmp_path / f"{seed}{mode}.json"
                path.write_text(json.dumps(jsonio.form_to_obj(form)))
                assert main(["classify-3form", "--input", str(path)]) == 0
                out = capsys.readouterr().out
                assert json.loads(out)["tag"] == "degenerate"
                digests[name, seed, mode] = hashlib.sha256(out.encode()).hexdigest()
    exact_zero = "6f0689c4ba32136078b6eacfd6a0630b036f3936a79e9e3c8094ad3e709eb50e"
    assert digests == {
        ("e123", 0, "exact"): exact_zero,
        ("e123", 0, "float"): "cebed787678d7b9d36d1639dc5fe2b9ece3516d6861228a2c9b83e29a61e6e64",
        ("e123", 0, "float-pullback"):
            "9131636d52616c9394596cef38e6ec8c81b2dabd337f9b102babf1e0d0581f79",
        ("e1(e23+e45)", 0, "exact"): exact_zero,
        ("e1(e23+e45)", 0, "float"):
            "74f7b3c896c84f5279dc8a069722305be465f6050b48478179549a29e468c18d",
        ("e1(e23+e45)", 0, "float-pullback"):
            "1b505ed02078d545afd66f848361642708c21650fe5c40fca8bfa240e3978b22",
        ("e123", 1, "exact"): exact_zero,
        ("e123", 1, "float"): "6b23440f428512f4c7c5f593867dd2a579ab322866dcc40c8ed9ffd639d78f0c",
        ("e123", 1, "float-pullback"):
            "e589b4cc6b15337a82c31713d0647baae428745e095f934fcf7a9dfaa60ec72f",
        ("e1(e23+e45)", 1, "exact"): exact_zero,
        ("e1(e23+e45)", 1, "float"):
            "a0214d6a1e5da6609faee2535d94448cba33a6c5c5a30767594665a3afcd4ed7",
        ("e1(e23+e45)", 1, "float-pullback"):
            "3f027fa8e90182e241ce6e8d1d3c7c915d8516fc74003911970f49ac8847cb6f",
    }


def run_main(argv, capsys):
    """Exit code, stdout and stderr of ``main`` in-process; argparse usage errors give 2."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def exact_elliptic_doc(tmp_path):
    path = tmp_path / "elliptic.json"
    path.write_text(json.dumps(jsonio.form_to_obj(elliptic_normal_form())))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["verify-structure", "--mode", "exact"], id="verify-structure-mode"),
        pytest.param(["verify-structure", "--tol", "1e-8"], id="verify-structure-tol"),
        pytest.param(["verify-structure", "--input", "DOC"], id="verify-structure-input"),
        pytest.param(["classify-3form", "--input", "DOC", "--mode", "exact"], id="classify-3form-mode"),
        pytest.param(["sphere-suite", "--mode", "float"], id="sphere-suite-mode"),
        pytest.param(["sphere-suite", "--input", "DOC"], id="sphere-suite-input"),
        pytest.param(["chern", "--mode", "exact"], id="chern-mode"),
        pytest.param(["chern", "--tol", "1e-9"], id="chern-tol"),
        # the mode comes from documents only: an exact request never runs float samples
        pytest.param(
            ["sphere-suite", "--mode", "exact", "--samples", "2", "--seed", "1"],
            id="sphere-suite-mode-exact-samples",
        ),
    ],
)
def test_removed_flags_exit_2(argv, tmp_path, capsys):
    doc = exact_elliptic_doc(tmp_path)
    code, out, _ = run_main([doc if a == "DOC" else a for a in argv], capsys)
    assert (code, out) == (2, "")


def test_classify_tol_leaves_exact_report_unchanged(tmp_path, capsys):
    """--tol is not read on exact input, not even where J is float (mu = 2989/648 is no square)."""
    paths = [tmp_path / "rho.json", tmp_path / "vol.json"]
    for path, form in zip(paths, tiny_pivot_elliptic_form()):
        path.write_text(json.dumps(jsonio.form_to_obj(form)))
    for argv, sqrt_is_exact in (
        (["classify-3form", "--input", exact_elliptic_doc(tmp_path)], True),
        (["classify-3form", "--input", str(paths[0]), "--vol", str(paths[1])], False),
    ):
        plain = run_main(argv, capsys)
        assert plain[0] == 0 and json.loads(plain[1])["sqrt_is_exact"] is sqrt_is_exact
        for tol in ("0", "1e-9", "1"):
            assert run_main(argv + ["--tol", tol], capsys) == plain


# the pullback of the elliptic normal form drawn at elliptic seed 870 of
# tests/test_chern.py; as a float form its J has max|J| = 3835 and
# max|J^2 + I| = 1.75e-10, which an absolute bound of 1e-10 rejected
_G870 = [
    [-3, 3, 4, 3, 2, 2],
    [0, -3, -2, 2, 3, -1],
    [-3, 3, 4, 0, 2, -1],
    [-2, 1, -1, -4, 2, 3],
    [2, -3, 0, -4, -2, 3],
    [0, -3, -1, 2, 3, -3],
]


def test_float_elliptic_form_with_large_j_is_classified(tmp_path, capsys):
    """The J^2 bound scales with max|J|^2, so this float form is elliptic, not a traceback."""
    rho = elliptic_normal_form().pullback([[Fraction(x) for x in row] for row in _G870])
    path = tmp_path / "elliptic870.json"
    path.write_text(json.dumps(jsonio.form_to_obj(rho.as_float())))
    code, out, _ = run_main(["classify-3form", "--input", str(path)], capsys)
    report = json.loads(out)
    assert code == 0 and report["tag"] == "elliptic" and report["discriminant"] == -144.0


@pytest.mark.parametrize("payload", ["[1, 2]", '"x"'], ids=["list", "string"])
@pytest.mark.parametrize(
    "argv",
    [
        ["chern", "--input", "BAD"],
        ["classify-3form", "--input", "BAD"],
        ["classify-3form", "--input", "DOC", "--vol", "BAD"],
    ],
    ids=["chern-input", "classify-3form-input", "classify-3form-vol"],
)
def test_non_object_document_is_an_input_error(argv, payload, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    paths = {"BAD": str(bad), "DOC": exact_elliptic_doc(tmp_path)}
    code, out, err = run_main([paths.get(a, a) for a in argv], capsys)
    assert (code, out) == (2, "") and "input error" in err


def test_chern_rejects_unknown_document_mode(tmp_path, capsys):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"mode": "bogus"}))
    code, out, err = run_main(["chern", "--input", str(path)], capsys)
    assert (code, out) == (2, "") and "unknown mode" in err


_SEVEN = ["1", "0", "0", "0", "0", "0", "0"]
_FLOAT_IDENTITY = [[float(i == j) for j in range(7)] for i in range(7)]
_FLOAT_POINT = [0.6, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0]



def _form(mode="exact", dim=6, degree=3, **term):
    """A one-term 3-form document on R^6, with ``term`` overriding the e^123 term's keys."""
    term = {"idx": [1, 2, 3], "re": "1", **term}
    return {"mode": mode, "dim": dim, "degree": degree, "terms": [term]}


def _float_vol(re):
    """The float 6-form re * e^123456 on R^6."""
    return {"mode": "float", "dim": 6, "degree": 6, "terms": [{"idx": [1, 2, 3, 4, 5, 6], "re": re}]}


def _float_split(re):
    """The float 3-form re * (e^123 + e^456) on R^6."""
    terms = [{"idx": [1, 2, 3], "re": re}, {"idx": [4, 5, 6], "re": re}]
    return {"mode": "float", "dim": 6, "degree": 3, "terms": terms}


@pytest.mark.parametrize(
    "doc, tag",
    [(_float_split(1e-80), "split"), (_form("float", re=1e-100), "degenerate")],
    ids=["split-1e-80", "e123-1e-100"],
)
def test_small_float_forms_keep_their_tags(doc, tag, tmp_path, capsys):
    """lambda = 1e-320 is still nonzero, and the K of e^123 is exactly 0: neither exits 2."""
    path = tmp_path / "form.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_main(["classify-3form", "--input", str(path)], capsys)
    assert code == 0 and json.loads(out)["tag"] == tag


# malformed documents that must exit 2: a vector or matrix that is not a JSON
# array, a float entry that is not a number, a frame that is not 7x7, a
# --vol that is not a nonzero 6-form on R^6, a JSON boolean where a number
# belongs, a dim, degree or index entry that is not a JSON integer, and a
# chern document with a key outside mode, point, frame, frame_seed and J,
# and a form document with a key outside mode, dim, degree and terms, or a
# term with a key outside idx, re and im, a classify-3form --input or --vol
# with a nonzero imaginary part, a float part that is not finite, a float form
# whose K or lambda is not finite, or whose lambda underflows to 0 while K does
# not, and an exact string outside the grammar
# [+-]p or [+-]p/q
BAD_INPUTS = {
    "point-digit-string": ("chern", {"point": "1000000"}),
    "point-string": ("chern", {"point": "abc"}),
    "float-point-string": ("chern", {"mode": "float", "point": "abc"}),
    "float-point-null-entry": ("chern", {"mode": "float", "point": [None] + [0] * 6}),
    "float-frame-list-entry": ("chern", {"mode": "float", "frame": [[[1]] + [0] * 6] * 7}),
    "frame-string": ("chern", {"frame": "abc"}),
    "frame-row-string": ("chern", {"frame": ["abc"] * 7}),
    "frame-1x7-float": ("chern", {"mode": "float", "frame": [[1, 0, 0, 0, 0, 0, 0]]}),
    "frame-1x7-exact": ("chern", {"frame": [_SEVEN]}),
    "frame-7x6-exact": ("chern", {"frame": [_SEVEN[:6]] * 7}),
    "vol-3-form": ("vol", jsonio.form_to_obj(elliptic_normal_form())),
    "vol-zero-6-form": ("vol", {"dim": 6, "degree": 6, "terms": []}),
    "vol-float-zero-6-form": ("vol", {"mode": "float", "dim": 6, "degree": 6, "terms": []}),
    "vol-7-form-on-r7": (
        "vol", {"dim": 7, "degree": 7, "terms": [{"idx": [1, 2, 3, 4, 5, 6, 7], "re": "1"}]}
    ),
    "float-point-bools": ("chern", {"mode": "float", "point": [True, False] + [0.0] * 5}),
    "exact-point-bool": ("chern", {"point": [True] + _SEVEN[1:]}),
    "float-identity-frame-bool": (
        "chern", {"mode": "float", "frame": [[True] + [0] * 6] + _FLOAT_IDENTITY[1:]}
    ),
    "form-im-false": ("classify-3form", _form(im=False)),
    "float-form-re-true": ("classify-3form", _form("float", re=True)),
    "form-dim-float": ("classify-3form", _form(dim=6.9)),
    "form-degree-string": ("classify-3form", _form(degree="3")),
    "form-idx-bool": ("classify-3form", _form(idx=[1, 2, True])),
    "form-idx-float": ("classify-3form", _form(idx=[1.5, 2, 3])),
    "form-idx-string": ("classify-3form", _form(idx="123")),
    "form-re-not-a-number": ("classify-3form", _form(re="abc")),
    "form-im-not-a-number": ("classify-3form", _form(im="1/2x")),
    "frame-entries-not-numbers": ("chern", {"frame": [["abc"] * 7] * 7}),
    "exact-point-entries-not-numbers": ("chern", {"point": ["abc"] * 7}),
    "float-point-3-entries": ("chern", {"mode": "float", "point": [0.6, 0.8, 0.0]}),
    "float-point-8-entries": ("chern", {"mode": "float", "point": [0.6, 0.8] + [0.0] * 6}),
    "frame-seed-list": ("chern", {"mode": "float", "point": _FLOAT_POINT, "frame_seed": [1]}),
    "frame-seed-bool": ("chern", {"mode": "float", "point": _FLOAT_POINT, "frame_seed": True}),
    "frame-seed-float": ("chern", {"mode": "float", "point": _FLOAT_POINT, "frame_seed": 1.0}),
    "frame-seed-string": ("chern", {"mode": "float", "point": _FLOAT_POINT, "frame_seed": "1"}),
    "chern-unknown-key-family": ("chern", {"mode": "exact", "family": "bogus"}),
    "chern-misspelled-frame-seed": ("chern", {"frame_sed": 3}),
    "chern-lowercase-j": ("chern", {"j": [_SEVEN] * 7}),
    "form-term-value-key": ("classify-3form", {
        **jsonio.form_to_obj(elliptic_normal_form()),
        "terms": [{"idx": t["idx"], "value": t["re"]}
                  for t in jsonio.form_to_obj(elliptic_normal_form())["terms"]],
    }),
    "form-root-dims-key": ("classify-3form", {**_form(), "dims": 7}),
    "form-imaginary-coefficient": ("classify-3form", {
        "dim": 6, "degree": 3, "terms": [{"idx": [1, 2, 3], "re": "0", "im": "1"},
                                         {"idx": [4, 5, 6], "re": "1"}],
    }),
    "float-form-imaginary-coefficient": ("classify-3form", {
        "mode": "float", "dim": 6, "degree": 3, "terms": [{"idx": [1, 2, 3], "re": 0, "im": 1},
                                                          {"idx": [4, 5, 6], "re": 1}],
    }),
    "vol-imaginary-6-form": (
        "vol", {"dim": 6, "degree": 6, "terms": [{"idx": [1, 2, 3, 4, 5, 6], "re": "1", "im": "1"}]}
    ),
    # float parts that are not finite numbers, in a form or a --vol
    "float-form-nan": ("classify-3form", _form("float", re=float("nan"))),
    "float-form-infinity": ("classify-3form", _form("float", re=float("inf"))),
    "float-form-minus-infinity": ("classify-3form", _form("float", re=float("-inf"))),
    "float-form-int-beyond-float-range": ("classify-3form", _form("float", re=10**400)),
    "float-vol-nan": ("float vol", _float_vol(float("nan"))),
    "float-vol-infinity": ("float vol", _float_vol(float("inf"))),
    # split forms whose K or lambda overflows: inf was printed, or OverflowError,
    # NotComplexStructureError or ZeroDivisionError escaped
    "float-split-1e77": ("classify-3form", _float_split(1e77)),
    "float-split-1e78": ("classify-3form", _float_split(1e78)),
    "float-split-1e100": ("classify-3form", _float_split(1e100)),
    "float-split-1e200": ("classify-3form", _float_split(1e200)),
    "float-split-vol-1e-160": ("float split vol", _float_vol(1e-160)),
    "float-split-vol-1e-200": ("float split vol", _float_vol(1e-200)),
    "float-split-vol-1e-320": ("float split vol", _float_vol(1e-320)),
    # open-orbit forms whose lambda underflows to 0 while K does not: tagged degenerate
    "float-split-1e-100": ("classify-3form", _float_split(1e-100)),
    "float-split-vol-1e300": ("float split vol", _float_vol(1e300)),
    "float-elliptic-2^-300": (
        "classify-3form", jsonio.form_to_obj((Fraction(1, 2**300) * elliptic_normal_form()).as_float())
    ),
    # exact strings outside [+-]p(/q): what Fraction() parses besides the documented grammar
    "form-re-exponent": ("classify-3form", _form(re="1e5")),
    "form-re-decimal": ("classify-3form", _form(re="0.5")),
    "form-re-leading-blank": ("classify-3form", _form(re=" 1")),
    "form-re-underscore": ("classify-3form", _form(re="1_000")),
    # a --tol that is not a finite number >= 0 is a usage error, not a failed check
    "sphere-suite-tol-nan": ("sphere-suite --tol", "nan"),
    "sphere-suite-tol-negative": ("sphere-suite --tol", "-1"),
    "classify-3form-tol-nan": ("classify-3form --tol", "nan"),
    "classify-3form-tol-negative": ("classify-3form --tol", "-1"),
}


def bad_input_argv(case, tmp_path):
    command, doc = BAD_INPUTS[case]
    if command == "sphere-suite --tol":
        return ["sphere-suite", "--samples", "2", "--seed", "1", "--tol", doc]
    path = tmp_path / f"{case}.json"
    if command in ("classify-3form --tol", "float vol", "float split vol"):
        split = command == "float split vol"  # on e^123 + e^456, else on e^123
        path.write_text(json.dumps(_float_split(1.0) if split else _form("float", re=1.0)))
        if command == "classify-3form --tol":
            return ["classify-3form", "--input", str(path), "--tol", doc]
        vol = tmp_path / f"{case}-vol.json"
        vol.write_text(json.dumps(doc))
        return ["classify-3form", "--input", str(path), "--vol", str(vol)]
    path.write_text(json.dumps(doc))
    if command == "vol":
        return ["classify-3form", "--input", exact_elliptic_doc(tmp_path), "--vol", str(path)]
    return [command, "--input", str(path)]


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_malformed_vectors_frames_and_volumes_exit_2(case, tmp_path, capsys):
    code, out, err = run_main(bad_input_argv(case, tmp_path), capsys)
    usage = BAD_INPUTS[case][0].endswith("--tol")  # argparse rejects the flag's value
    assert (code, out) == (2, "") and ("argument --tol" if usage else "input error") in err


def test_malformed_inputs_exit_2_under_optimize(tmp_path):
    """The exit-2 checks of ``BAD_INPUTS`` do not rest on ``assert``."""
    script = (
        "import json, sys\n"
        "from g2kit.cli import main\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(3)\n"
        "for argv in map(json.loads, sys.stdin):\n"
        "    try:\n"
        "        print(main(argv))\n"
        "    except SystemExit as exc:\n"
        "        print(exc.code)\n"
    )
    argvs = "".join(json.dumps(bad_input_argv(case, tmp_path)) + "\n" for case in BAD_INPUTS)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], input=argvs, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"] * len(BAD_INPUTS)


def test_huge_exponent_string_exits_2_within_a_second(tmp_path):
    """Fraction("1e999999999") would build 10**999999999; the grammar turns it away first.

    It runs in a child process, so that a regression fails at the timeout instead of hanging.
    """
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_form(re="1e999999999")))
    script = (
        "import sys, time\n"
        "from g2kit.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(['classify-3form', '--input', sys.argv[1]])\n"
        "print(code, time.perf_counter() - start)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)], capture_output=True, text=True, timeout=60
    )
    code, seconds = proc.stdout.split()
    assert code == "2" and "input error" in proc.stderr, proc.stderr
    assert float(seconds) < 1.0


def test_package_has_no_assert_statements():
    """No check in the package is an ``assert``, which ``python -O`` strips."""
    src = pathlib.Path(g2kit.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(src.glob("*.py"))) > 10 and found == []


_NEVER_SET_ALLOWED = set()


def _nodes(node, cls=None):
    """(node, parent, name of the nearest enclosing class) for every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        yield child, node, cls
        yield from _nodes(child, child.name if isinstance(child, ast.ClassDef) else cls)


def _defaults(fn, module, cls):
    """(qualified name, callee name, parameter, position or None) of each default of ``fn``.

    The callee of ``__init__`` is its class; positions skip ``self``/``cls``
    and are None for keyword-only parameters.
    """
    a = fn.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    method = cls is not None and not static
    callee = cls if fn.name == "__init__" else fn.name
    qual = ".".join(x for x in (module, cls, fn.name) if x and x != "__init__")
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    for k, arg in enumerate(positional[first:], first):
        yield f"{qual}.{arg.arg}", callee, arg.arg, k - method
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield f"{qual}.{arg.arg}", callee, arg.arg, None


def _sets(call, name, pos):
    """Whether ``call`` passes the parameter ``name`` at position ``pos``."""
    return (
        any(isinstance(x, ast.Starred) for x in call.args)
        or any(k.arg in (None, name) for k in call.keywords)
        or (pos is not None and len(call.args) > pos)
    )


def test_every_defaulted_parameter_is_set_by_some_call():
    """A default that no call in src, tests, bench or demos overrides is a constant.

    A call counts when its callee's name matches (the class for ``__init__``,
    the enclosing class for ``cls(...)``) and it passes the parameter by
    keyword, by position, or through ``*``/``**`` arguments.
    """
    root = pathlib.Path(__file__).resolve().parents[1]
    params, calls = [], {}
    for folder in ("src", "tests", "bench", "demos"):
        for path in sorted((root / folder).rglob("*.py")):
            for node, parent, cls in _nodes(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    calls.setdefault(cls if name == "cls" else name, []).append(node)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if path.parent.name == "g2kit":
                        method_of = cls if isinstance(parent, ast.ClassDef) else None
                        params.extend(_defaults(node, path.stem, method_of))
    never = {
        qual
        for qual, callee, name, pos in params
        if not any(_sets(call, name, pos) for call in calls.get(callee, ()))
    }
    assert len(params) > 20 and never == _NEVER_SET_ALLOWED


def _tol_positions():
    """The position of ``tol`` among the arguments of each callee that takes one."""
    import inspect

    from g2kit import almost_symplectic, compat, linalg

    fns = [linalg.rank, linalg.solve, linalg.inverse, linalg.signature,
           compat.hermitian_index, almost_symplectic._decompose, ExteriorForm.restrict]
    out = {}
    for fn in fns:
        names = list(inspect.signature(fn).parameters)
        out[fn.__name__] = names.index("tol") - (names[0] == "self")
    return out


def test_no_call_picks_a_tolerance_by_mode():
    """No call in the package passes a conditional expression as a tolerance.

    linalg and compat decide exact or float from their input, so a caller's
    ``0.0 if exact else tol`` would repeat that decision in a second place.
    """
    positions = _tol_positions()
    src = pathlib.Path(g2kit.__file__).parent
    checked, found = 0, []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            )
            if name not in positions:
                continue
            pos = positions[name]
            tols = node.args[pos : pos + 1] + [k.value for k in node.keywords if k.arg == "tol"]
            checked += bool(tols)
            if any(isinstance(x, ast.IfExp) for t in tols for x in ast.walk(t)):
                found.append(f"{path.name}:{node.lineno}")
    assert checked >= 8 and found == []


# ---------------------------------------------------------------------------
# sphere-suite --threads: helper processes run chunks of the samples
# ---------------------------------------------------------------------------

two_cpus = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--threads 2 needs two CPUs")


@pytest.fixture
def fresh_helpers():
    """No cached helper before or after the test, so that none outlives a patch."""
    cli._stop_helpers()
    yield
    cli._stop_helpers()


def _sphere(capsys, seed, samples, threads, *extra):
    argv = ["sphere-suite", "--samples", str(samples), "--seed", str(seed)]
    return run_main([*argv, "--threads", str(threads), *extra], capsys)


@two_cpus
@pytest.mark.parametrize("seed", range(10))
def test_threads_2_prints_the_serial_bytes(seed, capsys):
    """Sample counts 1-9 split oddly and unevenly; a failing report (exit 1) too."""
    for samples, extra in ((seed % 9 + 1, ()), (9 - seed % 9, ("--mutate", "upsilon-scale"))):
        serial = _sphere(capsys, seed, samples, 1, *extra)
        assert _sphere(capsys, seed, samples, 2, *extra) == serial
        assert serial[0] == (1 if extra else 0)


@two_cpus
def test_helper_reports_come_back_in_seed_order_with_their_float_bits():
    import marshal

    seeds = list(range(20, 27))
    serial = [cli._sphere_sample_check(s, 1e-10, 8) for s in seeds]
    assert marshal.dumps(cli._sample_reports(seeds, 1e-10, 8, 2)) == marshal.dumps(serial)


def test_threads_above_cpu_count_exit_2_before_any_process_starts(capsys, monkeypatch):
    def no_fork():
        raise AssertionError("a helper was forked")

    monkeypatch.setattr(cli, "_fork_helper", no_fork)
    code, out, err = _sphere(capsys, 1, 4, (os.cpu_count() or 1) + 1)
    assert (code, out) == (2, "") and "argument --threads" in err


@two_cpus
def test_a_killed_helper_gives_the_serial_report_and_is_replaced(capsys, fresh_helpers):
    serial = _sphere(capsys, 4, 6, 1)
    assert _sphere(capsys, 4, 6, 2) == serial
    (killed, _, _), = cli._helpers
    os.kill(killed, signal.SIGKILL)
    assert _sphere(capsys, 4, 6, 2) == serial
    assert cli._helpers == []
    assert _sphere(capsys, 4, 6, 2) == serial
    assert [h[0] for h in cli._helpers] != [killed]


@two_cpus
def test_a_failed_fork_runs_the_samples_here(capsys, fresh_helpers, monkeypatch):
    def no_process():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(cli, "_fork_helper", no_process)
    assert _sphere(capsys, 6, 5, 2) == _sphere(capsys, 6, 5, 1) and cli._helpers == []


@two_cpus
def test_a_sample_raising_in_a_helper_gives_the_serial_outcome(capsys, fresh_helpers, monkeypatch):
    """The caller re-runs a chunk whose helper sample raised, and meets what it raises."""
    parent, check = os.getpid(), cli._sphere_sample_check
    bad = {"seed": None}

    def flaky(seed_i, tol, upsilon_scale):
        if os.getpid() != parent or seed_i == bad["seed"]:
            raise ValueError(seed_i)
        return check(seed_i, tol, upsilon_scale)

    monkeypatch.setattr(cli, "_sphere_sample_check", flaky)
    expected = _sphere(capsys, 2, 5, 1)
    assert _sphere(capsys, 2, 5, 2) == expected
    bad["seed"] = 2 * 1_000_003 + 4  # in the helper's chunk, so it raises in the caller too
    for threads in (1, 2):
        with pytest.raises(ValueError, match=str(bad["seed"])):
            _sphere(capsys, 2, 5, threads)
    bad["seed"] = None
    assert _sphere(capsys, 2, 5, 2) == expected and len(cli._helpers) == 1


@two_cpus
def test_a_forked_child_leaves_its_parents_helpers_alone(capsys, fresh_helpers):
    expected = _sphere(capsys, 3, 4, 1)
    assert _sphere(capsys, 3, 4, 2) == expected
    mine = list(cli._helpers)
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            inherited = list(cli._helpers)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(["sphere-suite", "--samples", "4", "--seed", "3", "--threads", "2"])
            own = [h[0] for h in cli._helpers]
            cli._stop_helpers()
            ok = inherited == [] and (code, out.getvalue()) == expected[:2]
            ok = ok and len(own) == 1 and own[0] not in [h[0] for h in mine]
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG)) == (0, 0) and time.monotonic() < deadline:
        time.sleep(0.01)
    if done == (0, 0):
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[1] == 0
    assert cli._helpers == mine and _sphere(capsys, 3, 4, 2) == expected


@two_cpus
def test_concurrent_callers_each_get_their_own_reports(fresh_helpers):
    """The lock keeps one caller's exchange with a helper from reading another's reply."""
    import threading

    jobs = {t: list(range(10 * t, 10 * t + 3)) for t in range(4)}
    serial = {t: [cli._sphere_sample_check(s, 1e-10, 8) for s in jobs[t]] for t in jobs}
    results = {}

    def run(t):
        results[t] = [cli._sample_reports(jobs[t], 1e-10, 8, 2) for _ in range(3)]

    threads = [threading.Thread(target=run, args=(t,)) for t in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {t: [serial[t]] * 3 for t in jobs}


def _running(pid):
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@two_cpus
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
@pytest.mark.parametrize("end", ["exit", "killed"])
def test_no_helper_outlives_its_parent(end):
    """At exit the parent reaps its helpers; killed, it leaves them end of file on their pipe."""
    script = (
        "import os, signal, sys\n"
        "from g2kit import cli\n"
        "cli.main(['sphere-suite', '--samples', '4', '--seed', '1', '--threads', '2'])\n"
        "print(*[h[0] for h in cli._helpers], file=sys.stderr, flush=True)\n"
        "if sys.argv[1] == 'killed':\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, end], capture_output=True, text=True, timeout=60
    )
    helpers = [int(pid) for pid in proc.stderr.split()]
    assert len(helpers) == 1 and json.loads(proc.stdout)["pass"]
    deadline = time.monotonic() + 10
    while any(map(_running, helpers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, helpers))
