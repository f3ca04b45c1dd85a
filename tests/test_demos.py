"""Each demo runs to completion and prints the bytes it always has.

The demos import only public names, so a renamed or deleted name, or a
changed verdict, shows here as a failed run or a moved digest.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import g2kit

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = str(pathlib.Path(g2kit.__file__).resolve().parent.parent)

STDOUT_SHA256 = {
    "01_cross_product.py": "192e92fa80feaf899c2c81705c793ce4093148ba3136b576e688635f849c9fc2",
    "02_structure_equations.py": "401c39f24b4b4548c264323a55185e9b46594e5dd78dc276d03b57830c0b00ae",
    "03_sphere_geometry.py": "38e5df6d6f5fab37755f06dee3dc2c1af1b4251ab26978c7fa6f9cad2b242db0",
    "04_threeform_classification.py": "02e92373922499921f32a33b088952827d200aa95c2166a4e64dc40e1439377d",
    "05_transition_invariants.py": "95d087647e7fe4b654b0ccfb98b89ca32a38b87ea8e7cbc4a190c14949321ee8",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_is_pinned(name):
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
