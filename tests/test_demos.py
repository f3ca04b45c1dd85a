"""Each demo has a row in ``pins.json``: ``test_pins`` runs it and checks the bytes it prints.

The demos import only public names, so a renamed or deleted name, or a
changed verdict, shows there as a failed run or a moved digest.
"""

from test_pins import DEMOS, ROWS


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(row["demo"] for row in ROWS if "demo" in row)
