"""Generalized honeycomb geometry.

Six sites per hexagonal cell on a triangular lattice.  Cell coordinates are
integer pairs (p, q) meaning p*v_alpha + q*v_beta; all neighbor arithmetic is
exact integer arithmetic, floating positions appear only as output data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

SQRT3 = np.sqrt(3.0)

#: triangular-lattice basis vectors (columns of :data:`BASIS`)
V_ALPHA = np.array([SQRT3 / 2.0, -0.5])
V_BETA = np.array([SQRT3 / 2.0, 0.5])
BASIS = np.column_stack([V_ALPHA, V_BETA])

# Site offsets within a cell, in units of (v_alpha/3, v_beta/3):
#   v1 = -v_alpha/3, v2 = (v_alpha - v_beta)/3, v3 = v_beta/3, v4..v6 = -v3..-v1
_SITE_OFFSETS = {
    1: (-1, 0),
    2: (1, -1),
    3: (0, 1),
    4: (0, -1),
    5: (-1, 1),
    6: (1, 0),
}

# Nearest neighbors of site j, in the row order of the defining display:
# (partner sublattice index, cell shift in (v_alpha, v_beta) units).
_NEIGHBOR_TABLE = {
    1: ((4, (0, 0)), (5, (0, 0)), (6, (-1, 0))),
    2: ((4, (0, 0)), (5, (1, -1)), (6, (0, 0))),
    3: ((4, (0, 1)), (5, (0, 0)), (6, (0, 0))),
    4: ((1, (0, 0)), (2, (0, 0)), (3, (0, -1))),
    5: ((1, (0, 0)), (2, (-1, 1)), (3, (0, 0))),
    6: ((1, (1, 0)), (2, (0, 0)), (3, (0, 0))),
}

# Position of the single intercell neighbor within each row above.
_INTERCELL_SLOT = {1: 2, 2: 1, 3: 0, 4: 2, 5: 1, 6: 0}


class InterfaceKind(Enum):
    """The two junction orientations between the half-lattices."""

    TYPE_I = "type1"
    TYPE_II = "type2"


@dataclass(frozen=True)
class SiteIndex:
    """A lattice site: sublattice index j in 1..6 plus integer cell (p, q)."""

    j: int
    cell: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.j not in range(1, 7):
            raise ValueError(f"sublattice index must be in 1..6, got {self.j}")


def site_position(site: SiteIndex) -> np.ndarray:
    """Cartesian position of a site in dimensionless lattice units."""
    p, q = site.cell
    return cell_site_positions(np.array([p]), np.array([q]))[0, site.j - 1]


def cell_site_positions(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Positions of the six sites of each cell (p[i], q[i]), shape (cells, 6, 2)."""
    offsets = np.array([_SITE_OFFSETS[j] for j in range(1, 7)]) / 3.0
    coeff = np.stack([p, q], axis=-1)[:, None, :] + offsets[None]
    return np.matmul(BASIS[None], coeff.reshape(-1, 2, 1)).reshape(-1, 6, 2)


def neighbors(site: SiteIndex) -> list[SiteIndex]:
    """The three nearest neighbors, in the fixed row order used by the
    zero-mode recursions."""
    p, q = site.cell
    return [
        SiteIndex(j2, (p + dp, q + dq))
        for j2, (dp, dq) in _NEIGHBOR_TABLE[site.j]
    ]


def classify_neighbors(site: SiteIndex) -> tuple[list[SiteIndex], list[SiteIndex]]:
    """Split ``neighbors(site)`` into (intracell, intercell) sublists."""
    nbrs = neighbors(site)
    k = _INTERCELL_SLOT[site.j]
    intra = [s for i, s in enumerate(nbrs) if i != k]
    return intra, [nbrs[k]]


def interface_frame(kind: InterfaceKind) -> tuple[tuple[int, int], tuple[int, int]]:
    """Integer basis (v_a, v_b) of the interface frame in (v_alpha, v_beta)
    coordinates; v_a is the periodic direction, v_b the extension direction."""
    if kind is InterfaceKind.TYPE_I:
        return (1, -1), (0, 1)
    return (1, 1), (0, 1)


def frame_to_cell(kind: InterfaceKind, m: int, n: int) -> tuple[int, int]:
    """Map interface-frame coordinates (m, n) to lattice coordinates (p, q)."""
    if kind is InterfaceKind.TYPE_I:
        return m, n - m
    return m, n + m


def cell_to_frame(kind: InterfaceKind, p: int, q: int) -> tuple[int, int]:
    """Inverse of :func:`frame_to_cell` (the frame change is unimodular)."""
    if kind is InterfaceKind.TYPE_I:
        return p, q + p
    return p, q - p


def material_sign(kind: InterfaceKind, m, n):
    """+1 on the upper half-space n >= 0, -1 on the complement (elementwise)."""
    return np.where(np.asarray(n) >= 0, 1, -1)


@functools.cache
def frame_bonds(kind: InterfaceKind) -> np.ndarray:
    """The 18 directed bonds of a cell in interface-frame coordinates, read-only.

    Row (j, j2, dm, dn, intracell) couples site j of cell (m, n) to site j2
    of cell (m + dm, n + dn); rows follow the order of :func:`neighbors`.
    """
    bonds = np.array([
        (j, j2, *cell_to_frame(kind, dp, dq), slot != _INTERCELL_SLOT[j])
        for j, row in _NEIGHBOR_TABLE.items()
        for slot, (j2, (dp, dq)) in enumerate(row)
    ])
    bonds.flags.writeable = False
    return bonds


def frame_vectors(kind: InterfaceKind) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian versions of the interface-frame basis."""
    (a1, a2), (b1, b2) = interface_frame(kind)
    return BASIS @ np.array([a1, a2]), BASIS @ np.array([b1, b2])
