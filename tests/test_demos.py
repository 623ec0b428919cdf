"""The demos print what they printed when their outputs were frozen.

``tests/data/demos/<demo>.txt`` holds the stdout of ``demos/<demo>.py``.
The demos run the subdivision, goodness and pipeline code end to end, so
a change there that alters any printed number shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_frozen(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    frozen = ROOT / "tests" / "data" / "demos" / f"{demo.stem}.txt"
    assert result.stdout == frozen.read_text()
