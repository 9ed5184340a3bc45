import csv
import errno
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import edgelab
from edgelab import _platform
from edgelab._platform import usable_cores
from edgelab.output import BLOCK_ROWS, BackgroundWriter, write_csv, write_json

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
    assert "os.fork(" in output and "fdopen(" in output
    found = [(path.name, needle) for path in modules if path.name != "output.py"
             for needle in ("import csv", "json.dump", ".mkdir(", "open(", "os.fork(", "fdopen(")
             if needle in path.read_text()]
    assert found == []


def test_usable_cores_falls_back_to_the_cpu_count(monkeypatch):
    assert usable_cores() >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert usable_cores() == 1


def _forks():
    if not hasattr(os, "fork") or usable_cores() < 2:
        pytest.skip("the writer forks only with os.fork and two usable cores")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _recording(where):
    """A write function that records each payload's values and the writing pid."""
    def write(key, doubles):
        with open(where / f"{key}.txt", "w") as fh:
            fh.write(f"{os.getpid()} {doubles.tolist()!r}")
    return write


# the last payload is larger than a pipe's buffer, so its send blocks
_PAYLOADS = [np.arange(n) / 3.0 for n in (0, 1, 5, 100_000)]


def test_background_writer_writes_every_payload_in_one_child(tmp_path):
    _forks()
    with BackgroundWriter(_recording(tmp_path)) as writer:
        for key, doubles in enumerate(_PAYLOADS):
            writer.send(key, doubles)
    _no_child_left()
    pids = set()
    for key, doubles in enumerate(_PAYLOADS):
        pid, values = (tmp_path / f"{key}.txt").read_text().split(" ", 1)
        assert values == repr(doubles.tolist())
        pids.add(int(pid))
    assert len(pids) == 1 and os.getpid() not in pids


def test_background_writer_runs_in_process_on_one_core(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called with one usable core")

    monkeypatch.setattr(_platform, "usable_cores", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)
    with BackgroundWriter(_recording(tmp_path)) as writer:
        for key, doubles in enumerate(_PAYLOADS):
            writer.send(key, doubles)
            assert (tmp_path / f"{key}.txt").read_text() == f"{os.getpid()} {doubles.tolist()!r}"


def test_background_writer_raises_the_childs_failure(tmp_path):
    _forks()

    def write(key, doubles):
        if key == 1:
            open(tmp_path, "w")  # a directory
        _recording(tmp_path)(key, doubles)

    with pytest.raises(IsADirectoryError) as info:
        with BackgroundWriter(write) as writer:
            for key in range(50):  # 4 MB, more than the pipe holds
                writer.send(key, np.zeros(10_000))
    assert info.value.filename == str(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0.txt"]  # it stops at the failure
    _no_child_left()


def test_background_writer_close_ends_the_stream_without_waiting(tmp_path, monkeypatch):
    _forks()
    if not hasattr(os, "waitid"):
        pytest.skip("needs os.waitid to see the child exit before it is reaped")
    with BackgroundWriter(_recording(tmp_path)) as writer:
        for key, doubles in enumerate(_PAYLOADS):
            writer.send(key, doubles)
        writer.close()
        writer.close()  # closing twice does nothing
        # the child writes every payload and exits while this process waits
        expected = {f"{key}.txt": f"{writer.pid} {doubles.tolist()!r}"
                    for key, doubles in enumerate(_PAYLOADS)}
        deadline = time.monotonic() + 60
        while (exited := os.waitid(os.P_PID, writer.pid,
                                   os.WEXITED | os.WNOHANG | os.WNOWAIT)) is None:
            assert time.monotonic() < deadline, "the child did not exit after close()"
            time.sleep(0.01)
        assert (exited.si_code, exited.si_status) == (os.CLD_EXITED, 0)
        assert {path.name: path.read_text() for path in tmp_path.iterdir()} == expected
    _no_child_left()

    # a failure in the last payload sent comes out of the with block
    def failing_last(key, doubles):
        if key == len(_PAYLOADS) - 1:
            raise ValueError(f"payload {key} of {len(doubles)}")

    closed = []
    with pytest.raises(ValueError, match=f"payload 3 of {len(_PAYLOADS[-1])}"):
        with BackgroundWriter(failing_last) as writer:
            for key, doubles in enumerate(_PAYLOADS):
                writer.send(key, doubles)
            writer.close()
            closed.append(writer.pid)
    assert closed[0] is not None  # close() returned, and leaving the block raised
    _no_child_left()

    # in-process, on one core and after a failed fork, close() closes nothing
    def failed_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", failed_fork)
    for cores in (1, 2):
        monkeypatch.setattr(_platform, "usable_cores", lambda: cores)
        (tmp_path / str(cores)).mkdir()
        fds = len(os.listdir("/dev/fd"))
        with BackgroundWriter(_recording(tmp_path / str(cores))) as writer:
            writer.send(0, _PAYLOADS[1])
            writer.close()
            writer.close()
            assert writer.pid is None
        assert len(os.listdir("/dev/fd")) == fds  # no pipe end left open
        assert (tmp_path / str(cores) / "0.txt").read_text() == f"{os.getpid()} [0.0]"


def test_background_writer_failure_replaces_a_later_exception(tmp_path):
    _forks()

    def write(key, doubles):
        os._exit(3)  # a writer that dies without a report

    with pytest.raises(ChildProcessError, match="status 3"):
        with BackgroundWriter(write) as writer:
            writer.send(0, np.zeros(3))
            raise KeyError("later")
    _no_child_left()
