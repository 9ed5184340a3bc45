"""The one writer of every output file.

CSV is csv.writer's dialect (commas, CRLF, no field needs quoting), written
``BLOCK_ROWS`` rows at a time, one ``%`` format per block, from the format
and columns the caller builds per block, so the memory held stays bounded.
JSON is strict (no NaN or infinity), indented by 2, with sorted keys and a
final newline.
Writing a file makes its directory, so a command that fails before it has
results leaves none.

A :class:`BackgroundWriter` runs a caller's write function on float64
payloads in one forked child process, fed over a pipe while the caller goes
on computing, since the ``%`` formatting holds the GIL.  The child inherits
everything the function reads, so only the payloads cross the pipe.  It runs
stdlib code alone (no numpy or BLAS, so OpenBLAS's idle threads in the parent
cannot deadlock it) and leaves through ``os._exit``.  A failure in it comes
back to the caller as the same exception.  Without ``os.fork``, a second
usable core (:func:`edgelab._platform.usable_cores`) or a process to fork,
the same function runs in-process, so the bytes do not depend on the route.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import struct
from pathlib import Path

from . import _platform

BLOCK_ROWS = 4096  # rows formatted and written per write call
_HEADER = struct.Struct("=qq")  # a payload's key and byte count


def _open(path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="")


def write_csv(path, header, n_rows: int, block) -> None:
    """The ``header`` line, then ``n_rows`` rows; ``block(lo, hi)`` returns
    the ``%`` format of rows lo..hi-1, line ends included, and their fields
    as one sequence per column."""
    with _open(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n_rows, BLOCK_ROWS):
            fmt, columns = block(lo, min(lo + BLOCK_ROWS, n_rows))
            fields = [None] * sum(map(len, columns))  # row-major
            for c, column in enumerate(columns):
                fields[c::len(columns)] = column
            fh.write(fmt % tuple(fields))


def write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _open(path) as fh:
        fh.write(text)


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


class BackgroundWriter:
    """Runs ``write(key, doubles)`` for each :meth:`send`, in order, in one
    forked child while the caller goes on, or in-process without ``os.fork``,
    a second usable core or a successful fork; the child gets ``doubles`` as
    a memoryview of the same float64 values.  A send blocks while the pipe is
    full, so about one payload is in flight.  :meth:`close` ends the stream
    without waiting.  Leaving the ``with`` block waits for the child and
    raises what stopped it, in place of any later exception, since an
    in-process write would have failed first."""

    def __init__(self, write):
        self.write, self.pid, self._data_w = write, None, None
        if hasattr(os, "fork") and _platform.usable_cores() >= 2:
            data_r, data_w = os.pipe()
            self._status_r, status_w = os.pipe()
            try:
                self.pid = os.fork()
            except OSError:  # out of processes, say: write in-process
                for fd in (data_r, data_w, self._status_r, status_w):
                    os.close(fd)
                return
            self._data_w = data_w
            if self.pid == 0:
                self._serve(data_r, status_w)
            os.close(data_r)
            os.close(status_w)

    def _serve(self, data_r: int, status_w: int):
        """The child: write every payload until the pipe closes, send back
        the exception that stops it, and exit without returning."""
        code = 1
        try:
            os.close(self._data_w)  # or the pipe never reads as closed
            os.close(self._status_r)
            with os.fdopen(data_r, "rb") as fh:
                while len(head := fh.read(_HEADER.size)) == _HEADER.size:
                    key, size = _HEADER.unpack(head)
                    if len(payload := fh.read(size)) < size:
                        break  # the caller stopped in the middle of a send
                    self.write(key, memoryview(payload).cast("d"))
            code = 0
        except BaseException as exc:  # interrupts too: the child never returns
            with contextlib.suppress(BaseException):
                _write_all(status_w, pickle.dumps(exc))
        finally:
            os._exit(code)

    def send(self, key: int, doubles) -> None:
        """Have ``write(key, doubles)`` run; ``doubles`` is a C-contiguous
        float64 array."""
        if self.pid is None:
            return self.write(key, doubles)
        try:
            _write_all(self._data_w, _HEADER.pack(key, doubles.nbytes))
            _write_all(self._data_w, doubles)
        except BrokenPipeError:  # the child has stopped
            self._reap()
            raise

    def close(self) -> None:
        """End the stream: the child writes what it was sent and exits while
        the caller goes on.  Sends end here; closing again does nothing."""
        if self._data_w is not None:
            os.close(self._data_w)
            self._data_w = None

    def _reap(self) -> None:
        """Close the pipe, wait for the child and raise what stopped it."""
        pid, self.pid = self.pid, None
        self.close()
        with os.fdopen(self._status_r, "rb") as fh:
            report = fh.read()
        status = os.waitpid(pid, 0)[1]
        if report:
            raise pickle.loads(report)
        if status:
            raise ChildProcessError(
                f"writer process ended with status {os.waitstatus_to_exitcode(status)}")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.pid is not None:
            self._reap()
