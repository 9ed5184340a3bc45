"""Interface hopping profiles and Bloch-reduced chain Hamiltonians.

After the Bloch reduction along the interface, each quasi-momentum k in
[-pi, pi) yields a one-dimensional chain of cells indexed by n, six sites per
cell.  The chain is truncated to n in [-N, N] with open ends; couplings that
would leave the window are dropped.

Every operator comes from one place: the frame bond list of
:func:`edgelab.lattice.frame_bonds`, weighted by :func:`bond_weights` into six
material rows of blocks T_d, each coupling a cell to the cell d further on.
One placement of T_d makes H(k) and dH/dk in :func:`chain_operator` and the
supercell's chiral block; :func:`chain_apply` applies the bonds matrix-free.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .lattice import InterfaceKind, frame_bonds, material_sign

__all__ = [
    "check_material",
    "HoppingProfile",
    "BlochOperator",
    "bond_weights",
    "chain_operator",
    "bloch_h1",
    "bloch_h2",
    "chain_apply",
    "chain_apply_first_order",
]


def check_material(b: float, eps: float) -> None:
    """Reject a homogeneous material (b, eps) unless both hoppings, b within a
    cell and b + eps between cells, are finite normal floats: at least
    ``sys.float_info.min``, below which they lose digits.  The sum is finite
    only if b and eps are too."""
    if not (math.isfinite(b + eps) and b >= sys.float_info.min and b + eps >= sys.float_info.min):
        raise ValueError("need b > 0 and b + eps > 0, both finite and normal")


@dataclass(frozen=True)
class HoppingProfile:
    """The five physical parameters of an interface junction.

    b_plus/b_minus are the intracell hoppings of the two half-lattices,
    delta_plus/delta_minus detune their intercell hoppings to b + delta, and
    c couples bonds that cross the interface.  All bond weights must be
    finite normal floats.
    """

    b_plus: float
    b_minus: float
    delta_plus: float
    delta_minus: float
    c: float

    def __post_init__(self):
        check_material(self.b_plus, self.delta_plus)
        check_material(self.b_minus, self.delta_minus)
        if not sys.float_info.min <= self.c < math.inf:
            raise ValueError("interface hopping c must be positive, finite and normal")

    def with_c(self, c: float) -> "HoppingProfile":
        return replace(self, c=c)


@dataclass(frozen=True)
class BlochOperator:
    """A truncated interface Hamiltonian at fixed quasi-momentum.

    ``matrix`` is ``chain_operator(kind, profile, -half_width, half_width, k)``:
    dense Hermitian, site (n, j) at flat index 6 (n + half_width) + j - 1.
    """

    kind: InterfaceKind
    profile: HoppingProfile
    k: float
    half_width: int
    matrix: np.ndarray


def bond_weights(profile: HoppingProfile, intracell, s1, s2) -> np.ndarray:
    """The interface bond rule, elementwise over bonds with end materials s1,
    s2: c across the interface, b within a cell, b + delta between cells."""
    plus = np.asarray(s1) > 0
    b = np.where(plus, profile.b_plus, profile.b_minus)
    delta = np.where(plus, profile.delta_plus, profile.delta_minus)
    return np.where(np.not_equal(s1, s2), profile.c, np.where(intracell, b, b + delta))


def _bond_table(kind: InterfaceKind, profile: HoppingProfile, k: float, derivative: bool):
    """Sites j -> j2 (0-based), cell offsets dn and the entries -w exp(i k dm) of H(k), or
    i dm (-w) of dH/dk at k = 0, of the 18 frame bonds in the cells n = -3..2; bonds reach
    two cells, so any cell n has the entries of row clip(n, -3, 2) + 3.  The arrays are
    read-only and shared by the calls with the same key; k = -0.0 and 0.0 have their own,
    since exp(i k dm) keeps the sign of a zero."""
    return _bond_tables(kind, profile, k, math.copysign(1.0, k), derivative)


@lru_cache(maxsize=32)  # a closed-form op asks for 4 keys, a spectrum for one per k
def _bond_tables(kind, profile, k, k_sign, derivative):
    j, j2, dm, dn, intracell = frame_bonds(kind).T
    n = np.arange(-3, 3)[:, None]
    w = bond_weights(profile, intracell, material_sign(n), material_sign(n + dn))
    vals = 1j * dm * -w if derivative else -w * np.exp(1j * k * dm)
    table = j - 1, j2 - 1, dn, vals
    for a in table:
        a.flags.writeable = False
    return table


def _cell_blocks(kind: InterfaceKind, profile: HoppingProfile, k: float, derivative: bool):
    """The (6, 5, 6, 6) cell blocks of _bond_table: [r, d + 2] couples a cell of
    material row r to the cell d further on.  Each entry is one bond's, added
    onto zeros so that a -0.0 real part of i dm (-w) is stored as +0.0."""
    j, j2, dn, vals = _bond_table(kind, profile, k, derivative)
    T = np.zeros((6, 5, 6, 6), dtype=complex)
    T[:, dn + 2, j, j2] += vals
    return T


def _place_blocks(H: np.ndarray, T: np.ndarray, lo: int) -> np.ndarray:
    """Place the s x s blocks T[r, d + 2] on the zeroed band matrix H of the cells
    from lo on, with open ends: block (n, n + d) is T[clip(n, -3, 2) + 3, d + 2]."""
    s = T.shape[-1]
    n = len(H) // s
    blocks = H.reshape(n, s, n, s)
    for d in range(-2, 3):
        m = np.arange(max(0, -d), min(n, n - d))
        blocks[m, :, m + d] = T[np.clip(m + lo, -3, 2) + 3, d + 2]
    return H


def chain_operator(kind: InterfaceKind, profile: HoppingProfile, lo: int, hi: int,
                   k: float = 0.0, derivative: bool = False) -> np.ndarray:
    """Dense chain operator on the cells [lo, hi] with open ends; site (n, j)
    has flat index 6 (n - lo) + j - 1."""
    H = np.zeros((6 * (hi - lo + 1),) * 2, dtype=complex)  # first: an impossible size fails at once
    return _place_blocks(H, _cell_blocks(kind, profile, k, derivative), lo)


def _bloch(kind: InterfaceKind, profile: HoppingProfile, k: float, N: int) -> BlochOperator:
    H = chain_operator(kind, profile, -N, N, k)
    return BlochOperator(kind=kind, profile=profile, k=k, half_width=N, matrix=H)


def bloch_h1(profile: HoppingProfile, k: float, N: int) -> BlochOperator:
    """Type-I interface Hamiltonian on 2N+1 cells; N >= 2."""
    if N < 2:
        raise ValueError("type-I supercell needs N >= 2 to contain the interface rows")
    return _bloch(InterfaceKind.TYPE_I, profile, k, N)


def bloch_h2(profile: HoppingProfile, k: float, N: int) -> BlochOperator:
    """Type-II interface Hamiltonian on 2N+1 cells; N >= 4 (n+-2 couplings)."""
    if N < 4:
        raise ValueError("type-II supercell needs N >= 4 for the n+-2 couplings")
    return _bloch(InterfaceKind.TYPE_II, profile, k, N)


# ---------------------------------------------------------------------------
# Matrix-free application of H(k) and dH/dk on the infinite chain.
# ---------------------------------------------------------------------------

def _chain_apply(kind, profile, lo, cells, k, derivative):
    # source sublattice rows on the cells [lo - 4, lo + len(cells) + 3]; image
    # column i is cell lo - 2 + i, and its bond to cell + dn reads window 2 + dn
    src = np.zeros((6, len(cells) + 8), dtype=complex)
    src[:, 4:-4] = np.transpose(cells)
    reach = np.lib.stride_tricks.sliding_window_view(src, len(cells) + 4, axis=1)
    _, j2, dn, vals = _bond_table(kind, profile, k, derivative)
    rows = np.clip(np.arange(lo - 2, lo + len(cells) + 2), -3, 2) + 3
    t = (vals.T[:, rows] * reach[j2, dn + 2]).reshape(6, 3, -1)
    # the three bonds of each site in frame order, summed from zero as slice-adds would
    return (0.0 + t[:, 0] + t[:, 1] + t[:, 2]).T.copy()


def chain_apply(kind: InterfaceKind, profile: HoppingProfile, lo: int, cells: np.ndarray,
                k: float = 0.0, derivative: bool = False) -> np.ndarray:
    """Apply the infinite-chain H(k), or dH/dk at k = 0 when ``derivative`` is
    set, to the amplitudes ``cells[i]`` of cell lo + i (zero elsewhere).  Bonds
    reach two cells, so the image is the (len(cells) + 4, 6) array of the cells
    [lo - 2, lo + len(cells) + 1]."""
    return _chain_apply(kind, profile, lo, cells, k, derivative)


def chain_apply_first_order(kind: InterfaceKind, profile: HoppingProfile, lo: int,
                            cells: np.ndarray) -> np.ndarray:
    """:func:`chain_apply` with dH/dk at k = 0."""
    return _chain_apply(kind, profile, lo, cells, 0.0, True)
