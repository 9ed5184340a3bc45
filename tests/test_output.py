import csv
import json
import math
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgelab
from edgelab import output
from edgelab._platform import usable_cores
from edgelab.output import (
    BLOCK_ROWS,
    BackgroundWriter,
    g17_fields,
    text_table,
    write_json,
    write_rows,
)

SRC = Path(edgelab.__file__).parent
_VALUES = [0.0, -0.0, 1.5, -2.25e-300, 1e-320, math.inf, -math.inf, math.nan, 1 / 3]


def _kernel_texts(values):
    """The rows g17_fields writes for ``values``, each checked to end in CRLF,
    without it; and the count of rows that took Python's ``%``."""
    x = np.asarray(values, dtype=np.float64).ravel()
    text = np.empty((len(x), output._TEXT), dtype=np.uint8)
    keep = np.empty(text.shape, dtype=bool)
    fallbacks = g17_fields(x, text, keep)
    rows = [bytes(row[k]).decode("ascii") for row, k in zip(text, keep)]
    assert all(row.endswith("\r\n") for row in rows)
    return [row[:-2] for row in rows], fallbacks


def _bits(*words):
    return [float(np.array(w, dtype=np.uint64).view(np.float64)) for w in words]


# signed zeros, subnormals, the largest double, infinities, NaN of either sign
# with payloads, and 17-digit ties that the fast path must not decide
_KERNEL_SPECIAL = [0.0, -0.0, 5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308,
                   1.7976931348623157e308, math.inf, -math.inf, math.nan,
                   *_bits(0xFFF8000000000000, 0x7FF8000000000001, 0xFFF0000000000001,
                          0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF),
                   1e15 + 0.25, 1e15 + 0.75, 1e16, 1e17, 1e-4, 1e-5, 0.1, 123456.0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.sampled_from(_KERNEL_SPECIAL)
                | st.integers(-1074, 1023).map(lambda p: 2.0**p)
                | st.integers(-323, 308).map(lambda p: float(f"1e{p}")), max_size=40))
def test_g17_fields_is_the_percent_format_of_every_value(values):
    # every value with its negation and its neighbours one ulp either side
    a = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # NaN payloads too
        a = np.concatenate([a, -a, np.nextafter(a, np.inf), np.nextafter(a, -np.inf)])
    texts, _ = _kernel_texts(a)
    assert texts == ["%.17g" % x for x in a.tolist()]


def _is_tie(x):
    """x lies halfway between two 17-digit decimals: its exact expansion
    has 18 significant digits and ends in 5."""
    n, d = x.as_integer_ratio()
    places = d.bit_length() - 1  # the expansion n 5**places / 10**places
    if places > 26:  # an odd n 5**places has more than 18 digits
        return False
    digits = str(abs(n) * 5**places).rstrip("0")
    return len(digits) == 18 and digits[-1] == "5"


def test_g17_fields_matches_the_percent_format_in_bulk():
    # random bit patterns over the whole range and below one, squared and
    # sixth-power uniforms, subnormals, integers, every power of 2 and 10
    # with both neighbours; only non-finite values and ties take Python's %
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    u = rng.random(50_000)
    powers = np.array([2.0**p for p in range(-1074, 1024)] + [float(f"1e{p}") for p in range(-323, 309)])
    with np.errstate(under="ignore", over="ignore"):
        powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    sets = {"bits": bits, "below one": np.abs(bits[np.abs(bits) < 1]), "u^2": u**2, "u^6": u**6,
            "subnormal": rng.integers(1, 2**52, 20_000).view(np.float64),
            "integer": rng.integers(-10**17, 10**17, 50_000).astype(float), "powers": powers}
    for name, values in sets.items():
        texts, fallbacks = _kernel_texts(values)
        assert texts == ["%.17g" % x for x in values.tolist()], name
        assert fallbacks == np.count_nonzero(~np.isfinite(values)) + sum(
            map(_is_tie, values[np.isfinite(values)].tolist())), name


def test_g17_fields_tables_are_exact():
    # per binary exponent: the decimal exponent k0 of 2**(e-1), the least
    # double >= 10**(k0 + 1), and D = 2**e 10**(16 - k) as hi + lo with hi
    # split exactly, checked against Fractions
    g17_fields(np.zeros(1), np.empty((1, output._TEXT), np.uint8), np.empty((1, output._TEXT), bool))
    t = output._tables
    index = np.arange(1, 2099)
    t.fill(index[~t.ready[index]])
    for i in index.tolist():
        e = i - 1074
        k0 = int(t.k[2 * i])
        assert Fraction(10)**k0 <= Fraction(2)**(e - 1) < Fraction(10)**(k0 + 1)
        top = float(t.top[i])
        assert Fraction(math.nextafter(top, 0)) < Fraction(10)**(k0 + 1) <= Fraction(top)
        for b in (0, 1):
            hi, hh, hl, lo = t.d[:, 2 * i + b].tolist()
            exact = Fraction(2)**e * Fraction(10)**(16 - k0 - b)
            assert t.k[2 * i + b] == k0 + b
            assert hi == float(exact) and lo == float(exact - Fraction(hi))
            assert Fraction(hh) + Fraction(hl) == Fraction(hi)
            for half in (hh, hl):  # 26 significant bits at most
                assert (math.frexp(half)[0] * 2**26).is_integer()


def test_g17_fields_takes_no_fallback_on_a_wide_domain_snapshot():
    # the 80x80 bent type-II domain of the wide benchmark, before and after
    # propagating: every row is decided by the vectorized path
    from edgelab import HoppingProfile, InterfaceKind
    from edgelab.dynamics import (DomainSpec, build_domain, initial_wavepacket, propagate,
                                  rho_bound)

    profile = HoppingProfile(60.0, 60.0, 30.0, -30.0, 50.0)
    dom = build_domain(DomainSpec(InterfaceKind.TYPE_II, (80, 80), profile, bend=(0, 1)))
    state = initial_wavepacket(dom, profile, center_m=-10.0, width=8.0, direction=+1)
    later = propagate(state.amplitudes, dom.hamiltonian, 0.02, rho_bound(dom.hamiltonian))
    for amps in (state.amplitudes, later):
        abs2 = np.float_power(np.hypot(amps.real, amps.imag), 2.0)
        texts, fallbacks = _kernel_texts(abs2)
        assert fallbacks == 0
        assert texts == ["%.17g" % x for x in abs2.tolist()]
    assert len(texts) == 38_400 and np.count_nonzero(abs2) == len(abs2)


def test_g17_tables_are_made_at_the_first_call_not_at_import():
    code = ("import edgelab.cli, edgelab.output as o; assert o._tables is None; "
            "import numpy as np; t = np.empty((1, o._TEXT), np.uint8); "
            "o.g17_fields(np.ones(1), t, np.empty(t.shape, bool)); assert o._tables is not None")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


_N_ROWS = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 1]


@pytest.mark.parametrize("n_rows, layout", [pytest.param(n, "snapshot", id=str(n)) for n in _N_ROWS]
                         + [pytest.param(n, layout, id=f"{layout}-{n}")
                            for layout in ("spectrum", "per-block") for n in _N_ROWS])
def test_write_rows_matches_csv_writer_across_blocks(tmp_path, n_rows, layout):
    rng = np.random.default_rng(n_rows)
    x = np.round(rng.normal(size=n_rows), 2)  # few distinct values
    y = rng.normal(size=n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
    y[::5] = [_VALUES[i % len(_VALUES)] for i in range(len(y[::5]))]
    values = rng.random(n_rows) ** 6
    values[1::3] = [_VALUES[i % len(_VALUES)] for i in range(len(values[1::3]))]
    i = np.arange(n_rows)
    calls = []

    def per_block(f):
        def entries(lo, hi):
            calls.append((lo, hi))
            return f(np.arange(lo, hi))
        return entries

    if layout == "snapshot":  # two tables, then a value: x, y, abs2
        columns = [text_table(x), text_table(y), (None, memoryview(values).cast("B").cast("d"))]
        fields = [x, y, values]
        assert [index.shape for _, index in columns[:2]] == [(n_rows,)] * 2
    elif layout == "spectrum":  # values in the middle, a table last
        columns = [text_table(x), text_table(i % 7), (None, y), (None, values),
                   text_table(values < 0.5, last=True)]
        fields = [x, i % 7, y, values, (values < 0.5).astype(int)]
    else:  # every entry made per block, as bands.csv's
        columns = [(None, per_block(lambda r: r // 6)),
                   (text_table(np.arange(6))[0], per_block(lambda r: r % 6)), (None, values)]
        fields = [i // 6, i % 6, values]
    path = tmp_path / "new" / "dir" / "t.csv"  # the writer makes the directory
    header = [f"c{c}" for c in range(len(columns))]
    write_rows(path, header, n_rows, columns)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*([f"{v:.17g}" for v in f.tolist()] if f.dtype == float else f.tolist()
                          for f in fields)))
    assert path.read_bytes() == ref.read_bytes()
    blocks = [(lo, min(lo + BLOCK_ROWS, n_rows)) for lo in range(0, n_rows, BLOCK_ROWS)]
    assert calls == ([pair for pair in blocks for _ in range(2)] if layout == "per-block" else [])


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
    # decided in edgelab.output alone; no module forks a writer
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10 and SRC / "output.py" in modules
    output = (SRC / "output.py").read_text()
    assert "json.dumps(" in output and ".mkdir(" in output and "open(" in output
    found = [(path.name, needle) for path in modules
             for needle in ("import csv", "json.dump", ".mkdir(", "open(", "os.fork(", "fdopen(")
             if needle in path.read_text() and (path.name != "output.py" or "fork" in needle)]
    assert found == []


def test_usable_cores_falls_back_to_the_cpu_count(monkeypatch):
    assert usable_cores() >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert usable_cores() == 1


def _writer_threads():
    return [t for t in threading.enumerate() if t.name.startswith("edgelab-writer")]


def _recording(written):
    """A write function that records each payload's key, values and thread."""
    def write(key, doubles):
        written.append((key, doubles.tolist(), threading.get_ident()))
    return write


_PAYLOADS = [np.arange(n) / 3.0 for n in (0, 1, 5, 100_000)]


def test_background_writer_writes_every_payload_in_one_thread():
    written = []
    with BackgroundWriter(_recording(written)) as writer:
        for key, doubles in enumerate(_PAYLOADS):
            writer.send(key, doubles)
    assert [(key, values) for key, values, _ in written] == [
        (key, doubles.tolist()) for key, doubles in enumerate(_PAYLOADS)]
    threads = {thread for _, _, thread in written}
    assert len(threads) == 1 and threading.get_ident() not in threads
    assert _writer_threads() == []


def test_background_writer_raises_the_writers_failure():
    failure, written = OSError(28, "No space left on device"), []

    def write(key, doubles):
        if key == 1:
            raise failure
        written.append(key)

    # at the next send, and again on leaving the block
    with pytest.raises(OSError) as info:
        with BackgroundWriter(write) as writer:
            writer.send(0, np.zeros(3))
            writer.send(1, np.zeros(3))
            with pytest.raises(OSError) as at_send:
                writer.send(2, np.zeros(3))
            assert at_send.value is failure
    assert info.value is failure and written == [0]  # it stops at the failure

    # a failure in the last payload sent comes out of the with block
    with pytest.raises(OSError) as info:
        with BackgroundWriter(write) as writer:
            writer.send(1, np.zeros(3))
    assert info.value is failure
    assert _writer_threads() == []


def test_background_writer_failure_replaces_a_later_exception():
    failure = ValueError("the writer's")

    def write(key, doubles):
        raise failure

    with pytest.raises(ValueError) as info:
        with BackgroundWriter(write) as writer:
            writer.send(0, np.zeros(3))
            raise KeyError("later")
    assert info.value is failure and isinstance(info.value.__context__, KeyError)
    assert _writer_threads() == []


def test_background_writer_holds_the_callers_errstate():
    def write(key, doubles):
        np.multiply(doubles, 1e308)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            with BackgroundWriter(write) as writer:
                writer.send(0, np.full(3, 10.0))
    with np.errstate(over="ignore"):
        with BackgroundWriter(write) as writer:
            writer.send(0, np.full(3, 10.0))


def test_background_writer_leaves_no_thread_alive():
    for raising in (False, True):
        started = threading.Event()

        def write(key, doubles):
            started.set()
            time.sleep(0.05)  # still writing when the caller leaves the block

        try:
            with BackgroundWriter(write) as writer:
                writer.send(0, np.zeros(3))
                assert started.wait(timeout=60)
                assert len(_writer_threads()) == 1
                if raising:
                    raise KeyError("caller")
        except KeyError:
            assert raising
        assert _writer_threads() == []


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
def test_write_rows_with_a_helper_writes_the_same_bytes(tmp_path, n_rows):
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(n_rows)
    values = rng.random(n_rows) ** 6
    values[::7] = [_VALUES[i % len(_VALUES)] for i in range(len(values[::7]))]
    columns = [text_table(np.round(rng.normal(size=n_rows), 2)), text_table(rng.normal(size=n_rows)),
               (None, values)]
    write_rows(tmp_path / "alone.csv", ["x", "y", "v"], n_rows, columns)
    with ThreadPoolExecutor(1) as helper:
        write_rows(tmp_path / "shared.csv", ["x", "y", "v"], n_rows, columns, helper=helper)
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_g17_fields_fills_fresh_tables_from_threads_at_once(monkeypatch):
    # more threads than cores, switching often, all finding no tables and
    # the same unfilled exponents: each gets the % text, and one table set
    monkeypatch.setattr(output, "_tables", None)
    rng = np.random.default_rng(41)
    values = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    n = max(4, usable_cores() + 2)
    barrier, texts, tables = threading.Barrier(n, timeout=60), [None] * n, [None] * n

    def run(i):
        barrier.wait()
        texts[i] = _kernel_texts(values)[0]
        tables[i] = output._tables

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = ["%.17g" % x for x in values.tolist()]
    assert texts == [expected] * n
    assert all(t is output._tables for t in tables)
