"""The narrative scripts in demos/ run to completion against the package.

Demo 05, the only one that calls both small-alpha constructions, is the
slowest: about 12 s on a 2-core machine, because its product scan builds
the census of all connected graphs on up to 8 vertices.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_swap_number_basics.py", "02_tree_structure.py",
         "03_star_products.py", "04_grid_tokens.py", "05_small_graph_scans.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
