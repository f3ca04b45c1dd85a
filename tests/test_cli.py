import json
import subprocess
import sys
from fractions import Fraction

from g2kit import jsonio
from g2kit.cli import main
from g2kit.forms import ExteriorForm
from g2kit.threeforms import elliptic_normal_form, split_normal_form


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


def test_tol_requires_float_mode():
    proc = run_cli(["verify-structure", "--tol", "1e-8"])
    assert proc.returncode == 2


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
