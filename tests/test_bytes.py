"""The byte contract: the SHA-256 of every file the commands write.

The digests below were recorded on one platform, keyed by numpy's version
and the config string of its bundled OpenBLAS, which names the library's
version, build and the core kernel it picked.  There each command must write
exactly those bytes.  On any other platform the bytes may differ in their
last bits, so each command runs twice and the two runs must agree, and a
warning names the key that has no digests.
"""

import ctypes
import hashlib
import warnings

import numpy as np
import pytest

from edgelab import _platform
from edgelab.cli import main

_COMMANDS = {
    "spectrum type1": ["spectrum", "--kind", "type1", "--n-cells", "40", "--k-points", "21"],
    "spectrum type2": ["spectrum", "--kind", "type2", "--n-cells", "40", "--k-points", "21"],
    # the README's match-c, exist and bulk
    "match-c": ["match-c", "--b-plus", "60", "--b-minus", "60", "--delta-plus", "30",
                "--delta-minus", "-30"],
    "exist": ["exist", "--kind", "type2", "--delta-plus", "30", "--delta-minus", "30"],
    "bulk": ["bulk", "--b", "5", "--eps", "0"],
    # 10,560 sites through a bend, two snapshots
    "evolve": ["evolve", "--kind", "type2", "--extent-m", "40", "--extent-n", "44",
               "--bend-m", "4", "--t-final", "0.01"],
    # a spectrum_sweep op of the benchmark, at one drawn type-II profile
    "spectrum_sweep": ["spectrum", "--kind", "type2", "--delta-plus", "31.25",
                       "--delta-minus", "-28.5", "--c", "47.75", "--n-cells", "48",
                       "--k-points", "7"],
}

_DIGESTS = {
    ("numpy 2.4.6, OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX "
     "MAX_THREADS=64"): {
        "spectrum type1": {
            "spectrum.csv": "6dca570e225903630137bf175d022024e3dbd362ffc3dc6b7114ca04a777de02",
            "summary.json": "a4a5498e8630cd34d7b42bba8cdf063e3f758773fc39d7393c74eb9c6086676e",
        },
        "spectrum type2": {
            "spectrum.csv": "5f2b9c75b5466ea82806de85dec8fe78aa4f40950fc7e6232b304a1c212ad0f6",
            "summary.json": "5f9d43c2b22638dbb6914c8164a19faeea0a7389b8c11f0f7d5adb8176beefa8",
        },
        "match-c": {
            "match_c.json": "0b8d6746dc39fedcdc234ffbd157d2be3e88a306bcd2811a67142e731d5b43dd",
        },
        "exist": {
            "exist.json": "7f81958dc392090732a15bb90396da08aab942ea2a24126c8150b360fbf54354",
        },
        "bulk": {
            "bands.csv": "97ad895f421365770e6a65ee0284679cfbfcb2786ad7740121a0b74251c40b2d",
            "bulk.json": "88e9c7b6b602e9a3492f6caefb03a992fcbbd690644955afbe646032cb42c823",
        },
        "evolve": {
            "manifest.json": "af06d45edba6892c6f7abc716aad8d0222593f7d06a7ebc29e83de4104397dc0",
            "snapshot_0000.csv": "db00c4acb3767b845b81fdacd98886eba67baa3e06af00ef9f8d1429f2b0b7f8",
            "snapshot_0001.csv": "22eb948967f7283f83d65d40fbe454353e0b56a44c4ff8b4561f8b853a5e1f47",
        },
        "spectrum_sweep": {
            "spectrum.csv": "1be8dde7ff176559198ba8b241f156eeedfd946c25b737d878e61d4d210569e1",
            "summary.json": "ff9d5d6d3c5b9a270d476ee3da2da113a7e98b2c66eabd0fcc658dbce124fb9c",
        },
    },
}


def _key():
    """numpy's version and the config string of the OpenBLAS file whose
    routines edgelab binds; None without that library."""
    libs = _platform._library_files()
    if not libs:
        return None
    config = ctypes.CDLL(str(libs[0])).scipy_openblas_get_config64_
    config.argtypes, config.restype = [], ctypes.c_char_p
    return f"numpy {np.__version__}, {config().decode()}"


def _digests(argv, where, monkeypatch):
    """{file name: SHA-256} of an in-process run; the same relative --out
    each time, since the JSON files embed the config."""
    where.mkdir()
    monkeypatch.chdir(where)
    assert main([*argv, "--out", "o"]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((where / "o").iterdir())}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_file_keeps_its_bytes(tmp_path, monkeypatch, command):
    first = _digests(_COMMANDS[command], tmp_path / "first", monkeypatch)
    recorded = _DIGESTS.get(key := _key())
    if recorded is None:  # shown in the warnings summary, so the digests are not skipped unseen
        warnings.warn(f"no digests recorded for {key}; comparing two runs instead", stacklevel=1)
        assert _digests(_COMMANDS[command], tmp_path / "second", monkeypatch) == first
    else:
        assert first == recorded[command]
