"""Interface hopping profiles and Bloch-reduced chain Hamiltonians.

After the Bloch reduction along the interface, each quasi-momentum k in
[-pi, pi) yields a one-dimensional chain of cells indexed by n, six sites per
cell.  The chain is truncated to n in [-N, N] with open ends; couplings that
would leave the window are dropped.

Every operator comes from one place: the frame bond list of
:func:`edgelab.lattice.frame_bonds`, weighted by :func:`bond_weights` into six
material rows.  It is assembled densely by :func:`chain_operator` into H(k) or
dH/dk, and applied matrix-free to (cells, 6) amplitude arrays by :func:`chain_apply`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    "h1_first_order",
    "h2_first_order",
    "apply_T",
    "apply_V",
    "apply_R",
    "chain_index",
    "chain_apply",
    "chain_apply_first_order",
]


def check_material(b: float, eps: float) -> None:
    """Reject a homogeneous material (b, eps) unless b and eps are finite and
    both hoppings, b within a cell and b + eps between cells, are positive."""
    if not (math.isfinite(b) and math.isfinite(eps) and b > 0 and b + eps > 0):
        raise ValueError("need b > 0 and b + eps > 0")


@dataclass(frozen=True)
class HoppingProfile:
    """The five physical parameters of an interface junction.

    b_plus/b_minus are the intracell hoppings of the two half-lattices,
    delta_plus/delta_minus detune their intercell hoppings to b + delta, and
    c couples bonds that cross the interface.  All bond weights must stay
    strictly positive.
    """

    b_plus: float
    b_minus: float
    delta_plus: float
    delta_minus: float
    c: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in
                   (self.b_plus, self.b_minus, self.delta_plus, self.delta_minus, self.c)):
            raise ValueError("hopping parameters must be finite")
        if not (self.b_plus > 0 and self.b_minus > 0):
            raise ValueError("intracell hoppings must be positive")
        if self.c <= 0:
            raise ValueError("interface hopping c must be positive")
        if self.b_plus + self.delta_plus <= 0 or self.b_minus + self.delta_minus <= 0:
            raise ValueError("intercell hoppings b + delta must be positive")

    def with_c(self, c: float) -> "HoppingProfile":
        return replace(self, c=c)


@dataclass(frozen=True)
class BlochOperator:
    """A truncated interface Hamiltonian at fixed quasi-momentum.

    ``matrix`` is dense Hermitian of dimension 6*(2*half_width + 1); cell n,
    sublattice j map to flat index ``chain_index(n, j, half_width)``.
    """

    kind: InterfaceKind
    profile: HoppingProfile
    k: float
    half_width: int
    matrix: np.ndarray

    def index(self, n: int, j: int) -> int:
        return chain_index(n, j, self.half_width)


def chain_index(n: int, j: int, half_width: int) -> int:
    """Flat index of site (j, n) on the chain n in [-N, N], j in 1..6."""
    return (n + half_width) * 6 + (j - 1)


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
    two cells, so any cell n has the entries of row clip(n, -3, 2) + 3."""
    j, j2, dm, dn, intracell = frame_bonds(kind).T
    n = np.arange(-3, 3)[:, None]
    w = bond_weights(profile, intracell, material_sign(kind, 0, n), material_sign(kind, 0, n + dn))
    vals = 1j * dm * -w if derivative else -w * np.exp(1j * k * dm)
    return j - 1, j2 - 1, dn, vals


def chain_operator(kind: InterfaceKind, profile: HoppingProfile, lo: int, hi: int,
                   k: float = 0.0, derivative: bool = False) -> np.ndarray:
    """Dense chain operator on the cells [lo, hi] with open ends; site (n, j)
    has flat index 6 (n - lo) + j - 1.  No two bonds of the frame share a
    (j, j2, dn), so every entry is one bond's."""
    n = np.arange(lo, hi + 1)[:, None]
    H = np.zeros((6 * len(n), 6 * len(n)), dtype=complex)  # first: an impossible size fails at once
    j, j2, dn, vals = _bond_table(kind, profile, k, derivative)
    vals = vals[np.clip(n[:, 0], -3, 2) + 3]
    n2 = n + dn
    keep = (n2 >= lo) & (n2 <= hi)
    # added onto zeros, so a -0.0 real part of i dm (-w) is stored as +0.0
    H[(6 * (n - lo) + j)[keep], (6 * (n2 - lo) + j2)[keep]] += vals[keep]
    return H


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


def h1_first_order(profile: HoppingProfile, N: int) -> np.ndarray:
    """dH_I/dk at k = 0 (Hermitian; rows 3 and 4 vanish identically)."""
    if N < 2:
        raise ValueError("need N >= 2")
    return chain_operator(InterfaceKind.TYPE_I, profile, -N, N, derivative=True)


def h2_first_order(profile: HoppingProfile, N: int) -> np.ndarray:
    """dH_II/dk at k = 0 (Hermitian; rows 3 and 4 vanish identically)."""
    if N < 4:
        raise ValueError("need N >= 4")
    return chain_operator(InterfaceKind.TYPE_II, profile, -N, N, derivative=True)


# ---------------------------------------------------------------------------
# Symmetry operators.  T and R are antilinear (conjugation enters), so they
# are exposed as explicit actions rather than plain matrices.
# ---------------------------------------------------------------------------

def _as_cells(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state)
    if state.size % 6:
        raise ValueError("state length must be a multiple of 6")
    return state.reshape(-1, 6)


def apply_T(k: float, state: np.ndarray) -> np.ndarray:
    """Antiunitary sublattice swap: (Tu)(n) = exp(-i n k) * swap * conj(u(n))."""
    cells = _as_cells(state)
    N = (cells.shape[0] - 1) // 2
    n = np.arange(-N, N + 1)
    out = np.conj(cells)[:, [3, 4, 5, 0, 1, 2]]
    return (np.exp(-1j * n * k)[:, None] * out).reshape(-1)


def apply_V(state: np.ndarray) -> np.ndarray:
    """Chiral sign flip on the (4,5,6) sublattice block."""
    cells = _as_cells(state).copy()
    cells[:, 3:] *= -1.0
    return cells.reshape(-1)


def apply_R(k: float, state: np.ndarray) -> np.ndarray:
    """Antiunitary in-block reversal: (Rw)(n) = exp(+i n k) * rev * conj(w(n))
    with rev swapping 1<->3 and 4<->6."""
    cells = _as_cells(state)
    N = (cells.shape[0] - 1) // 2
    n = np.arange(-N, N + 1)
    out = np.conj(cells)[:, [2, 1, 0, 5, 4, 3]]
    return (np.exp(1j * n * k)[:, None] * out).reshape(-1)


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
