"""The fast demos run to completion against the current public API.

03 (supercell spectra) and 05 (bend dynamics) take 13-19 s each and are
left out; the three here take about 1.5 s together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_bulk_bands.py", "02_matching_condition.py", "04_zero_modes.py"])
def test_demo_runs(tmp_path, demo):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
