"""The skip for tests that need the bundled-OpenBLAS route."""

import pytest

from edgelab import _platform


def blas_threads():
    """get and set of the thread count of numpy's bundled OpenBLAS; skips the
    test without that library, and fails it when the library lacks a routine
    that :func:`edgelab._platform.openblas` binds, since that wheel would
    quietly take the other route."""
    if not _platform._library_files():
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    blas = _platform.openblas()
    assert blas is not None, f"{_platform._library_files()[0].name} lacks a routine the package binds"
    return blas["get_num_threads"], blas["set_num_threads"]
