import csv
import json
import math
from pathlib import Path

import pytest

import edgelab
from edgelab.output import BLOCK_ROWS, write_csv, write_json

SRC = Path(edgelab.__file__).parent
_VALUES = [0.0, -0.0, 1.5, -2.25e-300, 1e-320, math.inf, -math.inf, math.nan, 1 / 3]


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 1])
def test_write_csv_matches_csv_writer_across_blocks(tmp_path, n_rows):
    def block(lo, hi):
        assert 0 <= lo < hi <= n_rows and hi - lo <= BLOCK_ROWS
        rows = range(lo, hi)
        return "%s%.17g,%d,%.17g\r\n" * (hi - lo), (
            [f"p{i}," for i in rows], [float(i) for i in rows], list(rows),
            [_VALUES[i % len(_VALUES)] for i in rows])

    path = tmp_path / "new" / "dir" / "t.csv"  # the writer makes the directory
    write_csv(path, ["name", "x", "i", "v"], n_rows, block)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "x", "i", "v"])
        for i in range(n_rows):
            w.writerow([f"p{i}", f"{float(i):.17g}", i, f"{_VALUES[i % len(_VALUES)]:.17g}"])
    assert path.read_bytes() == ref.read_bytes()


def test_write_json_is_indented_sorted_and_newline_terminated(tmp_path):
    payload = {"z": [1.0, None, True], "a": {"y": "s", "b": 1e-320}, "m": 3}
    path = tmp_path / "new" / "p.json"
    write_json(path, payload)
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    # NaN and Infinity are not JSON; refused before the directory is made
    path = tmp_path / "new" / "p.json"
    with pytest.raises(ValueError):
        write_json(path, {"x": [1.0, value]})
    assert not path.parent.exists()


def test_only_the_output_module_writes_files():
    # the format of every file, and where its directory comes from, is
    # decided in edgelab.output alone
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10 and SRC / "output.py" in modules
    output = (SRC / "output.py").read_text()
    assert "json.dumps(" in output and ".mkdir(" in output and "open(" in output
    found = [(path.name, needle) for path in modules if path.name != "output.py"
             for needle in ("import csv", "json.dump", ".mkdir(", "open(")
             if needle in path.read_text()]
    assert found == []
