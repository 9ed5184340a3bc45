"""The one writer of every output file.

CSV is csv.writer's dialect (commas, CRLF, no field needs quoting), every
field the ``%.17g`` text of a number (an integer's is its ``%d``), and
:func:`write_rows` writes every CSV ``BLOCK_ROWS`` rows at a time, so the
memory held stays bounded.  Each block is one uint8 matrix: a column is
either a :func:`text_table`, each distinct value's text formatted once with
its separator, or values formatted per row by :func:`g17_fields`, an exact
vectorized ``%.17g``.
JSON is strict (no NaN or infinity), indented by 2, with sorted keys and a
final newline.
Writing a file makes its directory, so a command that fails before it has
results leaves none.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path

import numpy as np

BLOCK_ROWS = 4096  # rows formatted and written per write call


def _open(path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "wb")


# One value's text in the kernel's row layout: each piece has fixed columns
# and the keep mask picks its bytes, so the layout is the same in every row.
# Digit words start on a 4-byte boundary, so each group of four is one store.
#   0 "-" | 1-5 "0.000" | 7-23 the 17 digits, before the point | 24 "." |
#   27-43 the 17 digits, after it | 47 "e" | 48-51 exponent sign and three
#   digits | 52-53 CRLF; the other columns are never kept.
_TEXT = 56
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves


def _pow10_le_pow2(j: int, a: int) -> bool:
    """10**j <= 2**a, exactly."""
    return 10**max(j, 0) * 2**max(-a, 0) <= 2**max(a, 0) * 10**max(-j, 0)


def _nearest(num: int, den: int) -> tuple[float, float]:
    """The double nearest num / den, and the double nearest the rest."""
    hi = num / den  # int / int is correctly rounded
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


class _Tables:
    """The kernel's lookup tables, made at its first call, not at import.
    Index i = e + 1074 stands for the frexp exponent e of x in
    [2**(e-1), 2**e); its entries are filled the first time it occurs."""

    def __init__(self):
        # group 100 a + b: four ASCII digits in a word, and its trailing zeros
        pairs = np.frombuffer("".join(f"{v:02d}" for v in range(100)).encode("ascii"), np.uint8)
        groups = np.empty((100, 100, 4), dtype=np.uint8)
        groups[:, :, :2], groups[:, :, 2:] = pairs.reshape(100, 1, 2), pairs.reshape(1, 100, 2)
        self.groups = groups.reshape(-1).view(np.uint32)
        tail = np.array([2] + [v % 10 == 0 for v in range(1, 100)], dtype=np.int8)
        zeros = np.empty((100, 100), dtype=np.int8)
        zeros[:], zeros[:, 0] = tail, 2 + tail
        self.zeros = zeros.reshape(-1)
        signs = "".join(f"{'-' if k < 0 else '+'}{abs(k):03d}" for k in range(-324, 309))
        self.exponents = np.frombuffer(signs.encode("ascii"), np.uint32)  # at k + 324
        row = bytearray(_TEXT)
        row[0:6], row[24], row[47], row[52:54] = b"-0.000", ord("."), ord("e"), b"\r\n"
        self.row = np.frombuffer(bytes(row), np.uint32)
        # the keep mask of every (notation, digit count, sign): notation c is
        # k + 4 for fixed -4 <= k <= 16, 21 for exponent form, 22 with 3 digits
        c, nd, neg = (v.reshape(-1, 1) for v in np.meshgrid(
            np.arange(23), np.arange(1, 18), np.arange(2), indexing="ij"))
        fixed, k = c <= 20, c - 4
        whole = np.where(fixed, np.maximum(k + 1, 0), 1)  # digits before the point
        i = np.arange(17)
        keep = np.zeros((c.size, _TEXT), dtype=bool)
        keep[:, :1], keep[:, 52:54] = neg, True
        keep[:, 1:6] = np.arange(5) < np.where(fixed & (k < 0), 1 - k, 0)
        keep[:, 7:24] = i < whole
        keep[:, 24:25] = (whole > 0) & (nd > whole)
        keep[:, 27:44] = (i >= whole) & (i < nd)
        keep[:, 47:52] = ~fixed
        keep[:, 49:50] &= c == 22
        self.keep = np.ascontiguousarray(keep.view(np.uint32).T)  # a row per word
        self.ready = np.zeros(2099, dtype=bool)
        self.top = np.zeros(2099)  # the least double >= 10**(k0 + 1)
        # at 2 i + b, for k = k0 + b: k, and D = 2**e 10**(16 - k) as hi + lo,
        # with hi split into the halves hh + hl
        self.k = np.zeros(4198, dtype=np.int16)
        self.d = np.zeros((4, 4198))

    def fill(self, index) -> None:
        # Two threads may fill the same entry at once: each writes the same
        # values, computed from i alone, and sets ready[i] only after them, so
        # a reader that finds ready[i] set reads finished entries either way.
        for i in index.tolist():
            e = i - 1074
            k0 = math.floor((e - 1) * math.log10(2))  # off by one at most: fixed
            k0 += _pow10_le_pow2(k0 + 1, e - 1) - (not _pow10_le_pow2(k0, e - 1))
            top = 10**max(k0 + 1, 0) / 10**max(-k0 - 1, 0)  # correctly rounded
            n, d = top.as_integer_ratio()
            if n * 10**max(-k0 - 1, 0) < d * 10**max(k0 + 1, 0):  # below 10**(k0 + 1)
                top = math.nextafter(top, math.inf)
            self.top[i] = top
            for b in (0, 1):
                k = k0 + b
                hi, lo = _nearest(2**max(e, 0) * 10**max(16 - k, 0),
                                  2**max(-e, 0) * 10**max(k - 16, 0))
                hh = _SPLIT * hi - (_SPLIT * hi - hi)
                self.k[2 * i + b], self.d[:, 2 * i + b] = k, (hi, hh, hi - hh, lo)
            self.ready[i] = True


_tables: _Tables | None = None
_TABLES_LOCK = threading.Lock()


def _significand(a, t: _Tables):
    """For positive finite doubles a: the table row j of each, its 17-digit
    significand N = round(a 10**(16 - k)) as int64, and the fraction rounded
    off, less one half.  a = f 2**e exactly (``np.frexp``) and k is exact per
    e, so a 10**(16 - k) = f D with D = 2**e 10**(16 - k) = hi + lo: p =
    fl(f hi) is an integer, its error comes exactly from Dekker's product
    (numpy has no FMA), and the rest is below 1e-14."""
    f, j = np.frexp(a)
    j += 1074
    new = ~t.ready.take(j)
    if new.any():
        t.fill(np.flatnonzero(np.bincount(j[new], minlength=len(t.ready))))
    up = a >= t.top.take(j)
    j *= 2
    j += up
    fh = f * _SPLIT
    fl = fh - f
    fh -= fl  # f = fh + fl, 26 bits each
    np.subtract(f, fh, out=fl)
    p = f * t.d[0].take(j)
    hh, hl = t.d[1].take(j), t.d[2].take(j)
    s = fh * hh  # ((fh hh - p) + fh hl + fl hh) + fl hl, in place
    s -= p
    fh *= hl
    s += fh
    hh *= fl
    s += hh
    hl *= fl
    s += hl
    f *= t.d[3].take(j)
    s += f
    whole = np.floor(s)
    s -= whole
    n = p.astype(np.int64)
    n += whole.astype(np.int64)
    n += s > 0.5
    s -= 0.5
    return j, n, s


def _digits(n, text, t: _Tables):
    """Write the 17 digits of each N into both digit pieces of its row of
    ``text``; returns how many of the 16 after the first are trailing zeros."""
    head = n // 10**8  # the first nine digits, and n - head 10**8 the last eight
    tail = n - head * 10**8
    d0 = head // 10**8
    head -= d0 * 10**8
    g1 = head // 10**4
    head -= g1 * 10**4
    g3 = tail // 10**4
    tail -= g3 * 10**4
    words = text.view(np.uint32)
    text[:, 7] = text[:, 27] = 48 + d0
    trailing = t.zeros.take(g1)  # among the 16 digits after the first
    for w, g in ((2, g1), (3, head), (4, g3), (5, tail)):
        words[:, w] = words[:, w + 5] = t.groups.take(g)
        if w > 2:
            trailing = np.where(g, t.zeros.take(g), trailing + 4)
    return trailing


def g17_fields(values, text, keep) -> int:
    """Write ``"%.17g" % x`` of each float64 x, then CRLF, into its row of
    ``text`` in the layout above and set ``keep`` on exactly those bytes.
    ``text`` is uint8 and ``keep`` bool, both ``(len(values), _TEXT)`` with
    contiguous rows that start on a 4-byte boundary.  The digits are exact
    (:func:`_significand`); a row whose rounded-off fraction is within 1e-9
    of one half (ties such as 1e15 + 0.25), and a non-finite one, takes
    Python's ``%`` instead; returns their count.  Elementwise numpy only,
    so two threads may run it at once."""
    global _tables
    with _TABLES_LOCK:  # callers on two threads may both find no tables yet
        t = _tables = _tables or _Tables()
    x = np.asarray(values, dtype=np.float64)
    ok = (x != 0) & np.isfinite(x)  # zero, inf and NaN take other routes
    j, n, half = _significand(np.where(ok, np.abs(x), 1.0), t)
    k = t.k.take(j)
    n[~ok] = k[~ok] = 0  # zero is the digit 0 at k = 0
    carry = n == 10**17  # rounded up to the next power of ten
    n[carry], k[carry] = 10**16, k[carry] + 1
    fallback = np.flatnonzero(ok & (np.abs(half) <= 1e-9) | ~ok & (x != 0))
    text.view(np.uint32)[...] = t.row
    trailing = _digits(n, text, t)
    text.view(np.uint32)[:, 12] = t.exponents.take(k + 324)
    # the keep mask's row: notation, digit count and sign; a word at a time
    notation = np.where((k >= -4) & (k <= 16), k + 4, 21 + (np.abs(k) >= 100))
    notation *= 17
    notation += 16 - trailing
    notation *= 2
    notation += np.signbit(x)
    words = keep.view(np.uint32)
    for w, column in enumerate(t.keep):
        words[:, w] = column.take(notation)

    for row, v in zip(fallback.tolist(), x[fallback].tolist()):
        b = ("%.17g" % v).encode("ascii")
        text[row, :len(b)] = np.frombuffer(b, np.uint8)
        keep[row, :52] = np.arange(52) < len(b)
    return len(fallback)


def text_table(values, last: bool = False):
    """A text table of a column: the text ``"%.17g," % v`` of each distinct
    value v (CRLF in place of the comma when ``last``) at the left edge of a
    uint8 table row, with its keep mask, and the table row of every value
    (int32): together, a :func:`write_rows` column.  Each distinct value goes
    through :func:`g17_fields` once."""
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    text = np.empty((len(bits), _TEXT), dtype=np.uint8)
    keep = np.empty(text.shape, dtype=bool)
    g17_fields(bits.view(np.float64), text, keep)
    if not last:
        text[:, 52], keep[:, 53] = ord(","), False  # a comma for the CRLF
    size = keep.sum(axis=1)
    lead = np.arange(size.max(initial=0)) < size[:, None]
    table = np.zeros(lead.shape, dtype=np.uint8)
    table[lead] = text[keep]
    return (table, lead), inverse.astype(np.int32)


def write_rows(path, header, n_rows: int, columns) -> None:
    """The ``header`` line, then ``n_rows`` rows as csv.writer writes them,
    one field per column, each the ``%.17g`` text of its value.  A column is
    a pair (table, entries): with a :func:`text_table` ``table`` its entries
    are table rows, and with None they are float64 values, formatted per row
    by :func:`g17_fields`.  ``entries`` holds every row's, or is a function
    of (lo, hi) that makes those of rows lo..hi-1.  Each ``BLOCK_ROWS``
    block is one uint8 matrix made into bytes by one boolean-mask
    compression."""
    spans, at = [], 0  # each column's first byte and width in a row
    for table, _ in columns:
        if table is None:
            at = -(-at // 4) * 4  # a value's text starts on a word
        spans.append((at, _TEXT if table is None else table[0].shape[1]))
        at += spans[-1][1]
    padding = np.ones(-(-at // 4) * 4, dtype=bool)  # rows start on a word too
    for at, width in spans:
        padding[at:at + width] = False
    rows = np.empty((min(n_rows, BLOCK_ROWS), len(padding)), dtype=np.uint8)
    keep = np.empty(rows.shape, dtype=bool)
    keep[:, padding] = False
    with _open(path) as fh:
        fh.write((",".join(header) + "\r\n").encode("ascii"))
        for lo in range(0, n_rows, BLOCK_ROWS):
            m = min(n_rows - lo, BLOCK_ROWS)
            for c, ((table, entries), (at, width)) in enumerate(zip(columns, spans)):
                part = entries(lo, lo + m) if callable(entries) else entries[lo:lo + m]
                if table is None:
                    g17_fields(part, rows[:m, at:at + width], keep[:m, at:at + width])
                    if c < len(columns) - 1:  # a comma for the CRLF
                        rows[:m, at + 52], keep[:m, at + 53] = ord(","), False
                else:
                    rows[:m, at:at + width] = table[0].take(part, axis=0)
                    keep[:m, at:at + width] = table[1].take(part, axis=0)
            fh.write(rows[:m][keep[:m]])


def write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _open(path) as fh:
        fh.write(text.encode("ascii"))  # json.dumps escapes every non-ASCII character
