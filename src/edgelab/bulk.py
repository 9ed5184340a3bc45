"""Bulk Bloch Hamiltonian of the homogeneous material.

One hexagonal cell, six sites, quasi-momentum in the dual cell Y*.  The
intracell hopping is b, all intercell hoppings are b + eps; eps = 0 produces
a fourfold double Dirac point at the zone center and eps != 0 opens a gap of
width 2|eps| with a band inversion across the transition.  The 6x6 matrix is
assembled from the 18-bond list of :func:`edgelab.lattice.frame_bonds`.
"""

from __future__ import annotations

import numpy as np

from .errors import GapLawViolated, NotConical
from .hamiltonian import check_material
from .lattice import BASIS, InterfaceKind, frame_bonds, frame_vectors
from .output import BLOCK_ROWS, text_table, write_rows

__all__ = [
    "dual_basis",
    "bulk_h",
    "gamma_eigs",
    "gamma_eigs_closed_form",
    "bulk_bands",
    "default_k_path",
    "dirac_slope",
    "band_inversion",
    "write_bands_csv",
]


def dual_basis() -> tuple[np.ndarray, np.ndarray]:
    """Reciprocal vectors with k_a . v_a = k_b . v_b = 2*pi and zero cross
    pairings, solved from the basis rather than hard-coded."""
    K = 2.0 * np.pi * np.linalg.inv(BASIS).T
    return K[:, 0], K[:, 1]


def bulk_h(b: float, eps: float, k=(0.0, 0.0)) -> np.ndarray:
    """The Hermitian 6x6 Bloch Hamiltonian at quasi-momentum k, or the
    (..., 6, 6) stack for k of shape (..., 2).

    Bond j -> j2 of the cell's 18 adds -w exp(i k . s) at [j-1, j2-1], with
    w = b within the cell, b + eps between cells and s the Cartesian shift
    of the partner cell.
    """
    check_material(b, eps)
    k = np.asarray(k, dtype=float)
    j, j2, dm, dn, intracell = frame_bonds(InterfaceKind.TYPE_I).T
    va, vb = frame_vectors(InterfaceKind.TYPE_I)
    s = dm[:, None] * va + dn[:, None] * vb
    # elementwise, not k @ s.T: a stack must equal its per-point calls bitwise
    phase = np.exp(1j * (k[..., 0, None] * s[:, 0] + k[..., 1, None] * s[:, 1]))
    H = np.zeros(k.shape[:-1] + (6, 6), dtype=complex)
    H[..., j - 1, j2 - 1] = -np.where(intracell, b, b + eps) * phase
    return H


def gamma_eigs(b: float, eps: float) -> np.ndarray:
    """Ascending eigenvalues at the zone center (numeric eigensolve)."""
    return np.linalg.eigvalsh(bulk_h(b, eps))


def gamma_eigs_closed_form(b: float, eps: float) -> np.ndarray:
    """Zone-center spectrum in closed form.

    The coupling block at k = 0 is b*J + eps*X with J the all-ones matrix
    and X the exchange permutation; its eigenvalues are 3b + eps and +-eps,
    so the chiral pairing gives -(3b+eps), -|eps| (x2), |eps| (x2), 3b+eps.
    The extremal pair is analytic in eps (simple eigenvalue), hence carries
    eps itself, not |eps|.
    """
    a = abs(eps)
    return np.sort([-(3 * b + eps), -a, -a, a, a, 3 * b + eps])


def default_k_path(n_points: int = 120) -> np.ndarray:
    """Piecewise-linear path Gamma -> M -> K -> Gamma in the dual cell."""
    ka, kb = dual_basis()
    gamma = np.zeros(2)
    m_pt = 0.5 * (ka + kb)
    k_pt = (2.0 * ka + kb) / 3.0
    corners = [gamma, m_pt, k_pt, gamma]
    segs = []
    per_seg = max(2, n_points // 3)
    for a, bb in zip(corners[:-1], corners[1:]):
        ts = np.linspace(0.0, 1.0, per_seg, endpoint=False)
        segs.append(a[None, :] + ts[:, None] * (bb - a)[None, :])
    segs.append(gamma[None, :])
    return np.vstack(segs)


def bulk_bands(b: float, eps: float, k_path) -> np.ndarray:
    """Six ascending energies per point of ``k_path``.

    Solves ``BLOCK_ROWS`` points per batched eigensolve into one result
    array, so the transient memory is bounded by the block, not the path;
    each point's energies are those of its own ``bulk_h`` matrix bit for bit.
    Verifies |E| >= |eps| for every band at every point, to within
    eigensolver rounding: max(1e-9, 1e-13 ||H||) with ||H|| = 3b + |eps|.
    """
    k_path = np.atleast_2d(k_path)
    bands = np.empty((len(k_path), 6))
    for lo in range(0, len(k_path), BLOCK_ROWS):
        block = k_path[lo:lo + BLOCK_ROWS]
        bands[lo:lo + len(block)] = np.linalg.eigvalsh(bulk_h(b, eps, block))
    if not np.isfinite(bands).all():
        raise FloatingPointError("bulk energies overflow")
    a = abs(eps)
    tol = max(1e-9, 1e-13 * (3 * b + a))
    if bands[:, :3].max() > -a + tol or bands[:, 3:].min() < a - tol:
        raise GapLawViolated("bulk gap law |E| >= |eps| violated")
    return bands


def dirac_slope(b: float, spread_tol: float = 0.01) -> float:
    """Linear slope of the double Dirac cone at eps = 0.

    Fits band 4 over |k| in {1e-3, 5e-4, 2.5e-4} along three directions and
    extrapolates |k| -> 0; raises NotConical unless the per-direction slopes
    spread by less than ``spread_tol`` of their mean (a NaN spread fails).
    """
    radii = np.array([1e-3, 5e-4, 2.5e-4])
    angles = np.array([0.0, 0.7, 2.1])
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    k = radii[None, :, None] * dirs[:, None, :]
    ratio = np.linalg.eigvalsh(bulk_h(b, 0.0, k))[..., 3] / radii
    # lambda4/|k| = slope + c|k| + ...: linear extrapolation to zero, per direction
    slopes = np.array([np.polyfit(radii, r, 1)[1] for r in ratio])
    mean = slopes.mean()
    spread = (slopes.max() - slopes.min()) / mean
    if not spread < spread_tol:
        raise NotConical(f"direction spread {spread:.3e} exceeds {spread_tol}")
    return float(mean)


def band_inversion(b: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the two degenerate pairs at the zone center.

    Returns (lower, upper): 6x2 arrays spanning the eigenspaces at -|eps|
    and +|eps|.  The two subspaces swap under eps -> -eps; compare them by
    principal angles, not by vectors.
    """
    if eps == 0.0:
        raise ValueError("band inversion needs eps != 0")
    evals, evecs = np.linalg.eigh(bulk_h(b, eps))
    return evecs[:, 1:3], evecs[:, 3:5]


def write_bands_csv(bands: np.ndarray, path) -> None:
    """Columns: path_parameter, band_index, energy.  The path parameter is an
    integer formatted per row as a value (``%.17g`` of an integer is its
    ``%d``), so the write holds nothing per path point."""
    n = bands.shape[1]
    band_text, _ = text_table(np.arange(n))  # row j holds j
    write_rows(path, ["path_parameter", "band_index", "energy"], bands.size, [
        (None, lambda lo, hi: np.arange(lo, hi) // n),
        (band_text, lambda lo, hi: np.arange(lo, hi) % n),
        (None, bands.ravel())])
