"""The one writer of every output file.

CSV is csv.writer's dialect (commas, CRLF, no field needs quoting), written
``BLOCK_ROWS`` rows at a time, one ``%`` format per block, from columns the
caller builds per block, so the memory held stays bounded.  JSON is strict
(no NaN or infinity), indented by 2, with sorted keys and a final newline.
Writing a file makes its directory, so a command that fails before it has
results leaves none.
"""

from __future__ import annotations

import json
from pathlib import Path

BLOCK_ROWS = 4096  # rows formatted and written per write call


def _open(path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="")


def write_csv(path, header, fmt: str, n_rows: int, block) -> None:
    """The ``header`` line, then ``n_rows`` rows of ``fmt % fields``;
    ``block(lo, hi)`` returns rows lo..hi-1 as one sequence per column."""
    with _open(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n_rows, BLOCK_ROWS):
            columns = block(lo, min(lo + BLOCK_ROWS, n_rows))
            fields = [None] * sum(map(len, columns))  # row-major
            for c, column in enumerate(columns):
                fields[c::len(columns)] = column
            fh.write((fmt + "\r\n") * len(columns[0]) % tuple(fields))


def write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _open(path) as fh:
        fh.write(text)
