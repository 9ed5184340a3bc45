"""Supercell spectra and crossing slopes.

Every bond joins sublattices 1-3 to 4-6, so the truncated chain Hamiltonian
is H(k) = [[0, C], [C^H, 0]] in that ordering and one SVD of the chiral
block C gives the whole spectrum as the pairs +-s with eigenvectors
(u, +-v)/sqrt(2).  H(-k) is the complex conjugate of H(k), so each distinct
|k| is solved once; ``edgelab spectrum`` makes its grid bitwise
antisymmetric for that reason.  C is placed from the cell blocks behind
:func:`edgelab.hamiltonian.chain_operator`.  It is real at k = 0, and for
type II at every k once written in a cell-local basis invariant under the
type-II antiunitary R, (Rw)(n) = e^{ink} rev conj(w(n)) with rev swapping
sublattices 1 <-> 3 and 4 <-> 6, so the SVD is a real one there.  The
distinct |k| are solved concurrently with numpy's OpenBLAS pinned to one
thread, so the results do not depend on its thread count.

The truncated chain introduces artificial boundary states; every eigenpair
is scored by the fraction of its mass in the outermost cells and discarded
when that fraction is too large.  The remaining mid-gap branches are
compared against the perturbative slope extracted from the zero modes.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NoMidGapState
from .hamiltonian import HoppingProfile, _cell_blocks, _place_blocks, chain_apply_first_order
from .lattice import InterfaceKind
from .output import usable_cores, write_csv
from .transfer import ZeroMode, zero_modes

__all__ = [
    "SpectrumTable",
    "SlopeReport",
    "EdgeCurves",
    "supercell_spectrum",
    "edge_curves",
    "min_abs_kept",
    "min_abs_kept_at",
    "perturbation_m0",
    "perturbation_matrix",
    "write_spectrum_csv",
]

# Extended chain states carry a few percent of their mass in the margin
# cells, boundary-localized ones carry order one; the default separates the
# two populations.
DEFAULT_N = 80
DEFAULT_MARGIN = 5
DEFAULT_THRESHOLD = 0.2
DEFAULT_K_POINTS = 201


@dataclass(frozen=True)
class SpectrumTable:
    """Filtered supercell spectrum over a k-grid.

    ``eigenvalues[i]`` is the ascending spectrum at ``k_grid[i]``;
    ``localization`` holds the boundary-mass fraction of each eigenpair and
    ``kept`` the filter verdict.
    """

    kind: InterfaceKind
    profile: HoppingProfile
    k_grid: np.ndarray
    eigenvalues: np.ndarray
    localization: np.ndarray
    kept: np.ndarray
    half_width: int
    margin: int
    threshold: float


# Per cell, the columns (e1 + e3)/sqrt2, e2 and i (e1 - e3)/sqrt2 on sublattices 1-3
# (and 4-6); with the phase e^{ink/2} of cell n they are the vectors R leaves invariant.
_R_CELL = np.array([[1, 0, 1j], [0, np.sqrt(2), 0], [1, 0, -1j]]) / np.sqrt(2)


def _chiral_block(kind, profile, k, N):
    """The dense chiral block C = H[A][:, B] of the chain on [-N, N]; real at k = 0
    and, for type II, at every k in the basis of _R_CELL, which acts within cells,
    so margin masses and cluster Gram matrices are the same in either basis."""
    # the cell blocks from sites 1-3 to sites 4-6: every bond of sites 1-3 ends there
    T = _cell_blocks(kind, profile, k, False)[:, :, :3, 3:]
    if kind is InterfaceKind.TYPE_II:
        # U = diag(e^{ink/2}) (x) _R_CELL: U^H C U has block (n, n + d) = e^{ikd/2} R^H T_d R,
        # whose imaginary part is rounding, about 1e-14 of max|C|
        T = np.exp(0.5j * k * np.arange(-2, 3))[:, None, None] * (_R_CELL.conj().T @ T @ _R_CELL)
    if kind is InterfaceKind.TYPE_II or k == 0:
        T = T.real
    return _place_blocks(np.zeros((3 * (2 * N + 1),) * 2, dtype=T.dtype), T, -N)


def _solve_one(kind, profile, k, N, margin):
    # (u_r, -+v_r)/sqrt2 is the eigenvector of -+s_r; see the module docstring
    u, s, vh = np.linalg.svd(_chiral_block(kind, profile, k, N))
    if not np.isfinite(s).all():
        raise FloatingPointError("supercell energies overflow")
    n = len(s)
    evals = np.concatenate([-s, s[::-1]])
    # only the rows of the outer margin cells enter the boundary mass
    edge = np.r_[0:3 * margin, n - 3 * margin:n]
    u_edge, v_edge = u[edge], vh[:, edge].conj().T
    half = ((np.abs(u_edge) ** 2).sum(axis=0) + (np.abs(v_edge) ** 2).sum(axis=0)) / 2
    loc = np.concatenate([half, half[::-1]])
    # Within a degenerate cluster the eigenvector basis is solver-dependent
    # (interface and artificial-boundary zero modes mix at k = 0), so the
    # boundary-mass form is rediagonalized there: each cluster member gets
    # one of the extremal localization scores.
    tol = 1e-8 * max(1.0, float(np.abs(evals).max()))
    i = 0
    while i < 2 * n:
        j = i + 1
        while j < 2 * n and evals[j] - evals[j - 1] < tol:
            j += 1
        if j - i > 1:
            idx = np.arange(i, j)
            r = np.where(idx < n, idx, 2 * n - 1 - idx)
            V = np.vstack([u_edge[:, r], np.where(idx < n, -1, 1) * v_edge[:, r]])
            loc[i:j] = np.sort(np.linalg.eigvalsh(V.conj().T @ V / 2))
        i = j
    return evals, loc


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS bundled with numpy's
    wheel, or None for any other BLAS; looked up on first use."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            handle = ctypes.CDLL(str(lib))  # the copy numpy has loaded
            get = handle.scipy_openblas_get_num_threads64_
            set_ = handle.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_PIN_LOCK = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread, whose results do not depend on the
    caller's count, and restore that count on exit; yields whether it pinned.
    The count is process-wide: one thread at a time saves, pins, restores it."""
    if (blas := _openblas_threads()) is None:
        yield False
        return
    get, set_ = blas
    with _PIN_LOCK:
        saved = get()
        set_(1)
        try:
            yield True
        finally:
            set_(saved)


def _solve_all(kind, profile, abs_k, N, margin):
    """_solve_one at each |k|, in order; on a worker per usable core while pinned."""
    with _one_blas_thread() as pinned:
        if not pinned:
            return [_solve_one(kind, profile, k, N, margin) for k in abs_k]
        from concurrent.futures import ThreadPoolExecutor  # 6-8 ms, so not at import

        with ThreadPoolExecutor(min(usable_cores(), len(abs_k))) as pool:
            # each task runs in a copy of the caller's context, np.errstate included
            futures = [pool.submit(contextvars.copy_context().run, _solve_one,
                                   kind, profile, k, N, margin) for k in abs_k]
            return [f.result() for f in futures]


def supercell_spectrum(kind: InterfaceKind, profile: HoppingProfile, c: float | None,
                       k_grid, N: int = DEFAULT_N, margin: int = DEFAULT_MARGIN,
                       threshold: float = DEFAULT_THRESHOLD) -> SpectrumTable:
    """Eigensolve the truncated interface Hamiltonian across a k-grid and
    flag boundary-concentrated eigenpairs.

    ``c`` overrides the interface coupling of ``profile`` when given (handy
    for scanning the matching condition).
    """
    if N < 20:
        raise ValueError("supercell needs N >= 20")
    if not 1 <= margin < N // 4:
        raise ValueError("margin must be at least 1 and stay below N/4")
    if not 0 < threshold <= 1:
        raise ValueError("threshold must lie in (0, 1]")
    if c is not None:
        profile = profile.with_c(c)
    k_grid = np.asarray(k_grid, dtype=float)
    if not k_grid.size:
        raise ValueError("k_grid must hold at least one point")

    # H(-k) = conj(H(k)) bitwise, so k and -k share singular values, margin
    # masses and cluster rediagonalization: one solve per distinct |k|
    abs_k, mirror = np.unique(np.abs(k_grid), return_inverse=True)
    results = _solve_all(kind, profile, abs_k, N, margin)
    evals = np.array([r[0] for r in results])[mirror]
    loc = np.array([r[1] for r in results])[mirror]
    return SpectrumTable(
        kind=kind, profile=profile, k_grid=k_grid,
        eigenvalues=evals, localization=loc, kept=loc < threshold,
        half_width=N, margin=margin, threshold=threshold,
    )


@dataclass(frozen=True)
class EdgeCurves:
    """Smallest-magnitude kept eigenvalues per k, labeled by sign."""

    k_grid: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    min_abs_at_zero: float


def min_abs_kept(table: SpectrumTable) -> np.ndarray:
    """Smallest |E| among the kept eigenpairs at each k; inf where nothing
    is kept."""
    return np.where(table.kept, np.abs(table.eigenvalues), np.inf).min(axis=1)


def edge_curves(table: SpectrumTable) -> EdgeCurves:
    """Extract the two mid-gap branches from a filtered spectrum table."""
    min_abs = min_abs_kept(table)
    bulk_gap = min(abs(table.profile.delta_plus), abs(table.profile.delta_minus))
    if not np.any(min_abs < bulk_gap - 1e-9):
        raise NoMidGapState("no kept eigenvalue inside the bulk gap at any k")
    E, kept = table.eigenvalues, table.kept
    e_plus = np.where(kept & (E >= 0), E, np.inf).min(axis=1)
    e_minus = np.where(kept & (E < 0), E, -np.inf).max(axis=1)
    # at k = 0 the two branches are the +-pair of smallest magnitude
    at_zero = np.abs(table.k_grid) < 1e-12
    e_plus = np.where(at_zero, min_abs, e_plus)
    e_minus = np.where(at_zero, -min_abs, e_minus)
    # NaN marks a branch with no kept eigenvalue
    e_plus[np.isinf(e_plus)] = np.nan
    e_minus[np.isinf(e_minus)] = np.nan
    min_abs0 = float(e_plus[at_zero][0]) if at_zero.any() else float("nan")
    return EdgeCurves(k_grid=table.k_grid, e_plus=e_plus, e_minus=e_minus,
                      min_abs_at_zero=min_abs0)


@dataclass(frozen=True)
class SlopeReport:
    """Degenerate-perturbation slope of the crossing and its finite
    difference cross-check."""

    m0: np.ndarray
    slope: float
    fd_slope: float
    rel_gap: float


def perturbation_m0(kind: InterfaceKind, profile: HoppingProfile,
                    modes: tuple[ZeroMode, ZeroMode] | None = None) -> np.ndarray:
    """The 2x2 matrix of dH/dk in the zero-mode pair; Hermitian, zero
    diagonal, purely imaginary off-diagonal."""
    if modes is None:
        modes = zero_modes(kind, profile)
    # the window [-L, L] holds both supports, so the image rows of [-L, L]
    # carry every term of either inner product
    L = max(max(map(abs, mode.support())) for mode in modes)
    V = np.stack([mode.as_vector(L) for mode in modes], axis=1)
    W = np.stack([chain_apply_first_order(kind, profile, -L, v.reshape(-1, 6))[2:-2].ravel()
                  for v in V.T], axis=1)
    return V.conj().T @ W


def min_abs_kept_at(kind: InterfaceKind, profile: HoppingProfile, k: float,
                    N: int = DEFAULT_N) -> float:
    """Smallest kept |E| at one k; NoMidGapState when nothing is kept there."""
    table = supercell_spectrum(kind, profile, None, [k], N)
    e = float(min_abs_kept(table)[0])
    if e == np.inf:
        raise NoMidGapState(f"no kept eigenvalue at k={k}")
    return e


def perturbation_matrix(kind: InterfaceKind, profile: HoppingProfile,
                        N: int = DEFAULT_N, h: float = 1e-3) -> SlopeReport:
    """Crossing slope |Im m0_12| plus the one-sided finite difference of the
    supercell edge branch at step h.

    E(k) is |k|-like at the crossing, so the difference is one-sided; the
    caller can halve h to Richardson-check it.
    """
    m0 = perturbation_m0(kind, profile)
    slope = float(abs(m0[0, 1].imag))
    e0 = min_abs_kept_at(kind, profile, 0.0, N)
    eh = min_abs_kept_at(kind, profile, h, N)
    fd = (eh - e0) / h
    rel = abs(slope - fd) / slope if slope > 0 else float("inf")
    return SlopeReport(m0=m0, slope=slope, fd_slope=fd, rel_gap=rel)


def write_spectrum_csv(table: SpectrumTable, path) -> None:
    """Columns: k, eig_index, energy, localization, kept."""
    def block(lo, hi):
        i, j = np.divmod(np.arange(lo, hi), table.eigenvalues.shape[1])
        return "%.17g,%d,%.17g,%.17g,%d\r\n" * (hi - lo), [
            table.k_grid[i].tolist(), j.tolist(), table.eigenvalues.ravel()[lo:hi].tolist(),
            table.localization.ravel()[lo:hi].tolist(), table.kept.ravel()[lo:hi].tolist()]

    write_csv(path, ["k", "eig_index", "energy", "localization", "kept"],
              table.eigenvalues.size, block)
