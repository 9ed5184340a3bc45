"""Bulk Bloch Hamiltonian of the homogeneous material.

One hexagonal cell, six sites, quasi-momentum in the dual cell Y*.  The
intracell hopping is b, all intercell hoppings are b + eps; eps = 0 produces
a fourfold double Dirac point at the zone center and eps != 0 opens a gap of
width 2|eps| with a band inversion across the transition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GapLawViolated, NotConical
from .lattice import BASIS, V_ALPHA, V_BETA
from .output import write_csv

__all__ = [
    "BulkParams",
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


@dataclass(frozen=True)
class BulkParams:
    """Homogeneous material parameters plus a 2D quasi-momentum."""

    b: float
    eps: float
    kvec: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.b <= 0 or self.b + self.eps <= 0:
            raise ValueError("need b > 0 and b + eps > 0")


def bulk_h(params: BulkParams) -> np.ndarray:
    """The 6x6 Bloch Hamiltonian at params.kvec (Hermitian)."""
    b, be = params.b, params.b + params.eps
    k = np.asarray(params.kvec, dtype=float)
    pa = np.exp(1j * (k @ V_ALPHA))
    pb = np.exp(1j * (k @ V_BETA))
    pab = np.exp(1j * (k @ (V_ALPHA - V_BETA)))
    H = np.zeros((6, 6), dtype=complex)
    H[0, 3], H[0, 4], H[0, 5] = -b, -b, -be * np.conj(pa)
    H[1, 3], H[1, 4], H[1, 5] = -b, -be * pab, -b
    H[2, 3], H[2, 4], H[2, 5] = -be * pb, -b, -b
    H[3:, :3] = H[:3, 3:].conj().T
    return H


def gamma_eigs(b: float, eps: float) -> np.ndarray:
    """Ascending eigenvalues at the zone center (numeric eigensolve)."""
    return np.linalg.eigvalsh(bulk_h(BulkParams(b, eps)))


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


def bulk_bands(b: float, eps: float, k_path, check_gap: bool = True) -> np.ndarray:
    """Six ascending energies per point of ``k_path``.

    With check_gap=True, verifies |E| >= |eps| for every band at every point,
    to within eigensolver rounding: max(1e-9, 1e-13 ||H||) with ||H|| = 3b + |eps|.
    """
    k_path = np.atleast_2d(np.asarray(k_path, dtype=float))
    bands = np.empty((len(k_path), 6))
    for i, k in enumerate(k_path):
        bands[i] = np.linalg.eigvalsh(bulk_h(BulkParams(b, eps, (k[0], k[1]))))
    if check_gap:
        a = abs(eps)
        tol = max(1e-9, 1e-13 * (3 * b + a))
        if bands[:, :3].max() > -a + tol or bands[:, 3:].min() < a - tol:
            raise GapLawViolated("bulk gap law |E| >= |eps| violated")
    return bands


def dirac_slope(b: float, spread_tol: float = 0.01) -> float:
    """Linear slope of the double Dirac cone at eps = 0.

    Fits band 4 over |k| in {1e-3, 5e-4, 2.5e-4} along three directions and
    extrapolates |k| -> 0; raises NotConical when the per-direction slopes
    spread by more than ``spread_tol`` of their mean.
    """
    radii = np.array([1e-3, 5e-4, 2.5e-4])
    angles = [0.0, 0.7, 2.1]
    slopes = []
    for th in angles:
        d = np.array([np.cos(th), np.sin(th)])
        ratio = np.array([
            np.linalg.eigvalsh(bulk_h(BulkParams(b, 0.0, tuple(r * d))))[3] / r
            for r in radii
        ])
        # lambda4/|k| = slope + c|k| + ...: linear extrapolation to zero
        coef = np.polyfit(radii, ratio, 1)
        slopes.append(coef[1])
    slopes = np.array(slopes)
    mean = slopes.mean()
    spread = (slopes.max() - slopes.min()) / mean
    if spread >= spread_tol:
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
    evals, evecs = np.linalg.eigh(bulk_h(BulkParams(b, eps)))
    return evecs[:, 1:3], evecs[:, 3:5]


def write_bands_csv(bands: np.ndarray, path) -> None:
    """Columns: path_parameter, band_index, energy."""
    def block(lo, hi):
        i, j = np.divmod(np.arange(lo, hi), bands.shape[1])
        return [i.tolist(), j.tolist(), bands.ravel()[lo:hi].tolist()]

    write_csv(path, ["path_parameter", "band_index", "energy"], "%d,%d,%.17g", bands.size, block)
