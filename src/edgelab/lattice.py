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


# kind -> integer basis (v_a, v_b) of the interface frame in (v_alpha, v_beta)
# coordinates: v_a is the periodic direction, v_b the extension direction.
# Every frame has determinant 1, so both changes of coordinates are integer.
_FRAMES = {
    InterfaceKind.TYPE_I: ((1, -1), (0, 1)),
    InterfaceKind.TYPE_II: ((1, 1), (0, 1)),
}


def frame_to_cell(kind: InterfaceKind, m, n):
    """Lattice coordinates (p, q) of the frame cell m v_a + n v_b (elementwise)."""
    (a1, a2), (b1, b2) = _FRAMES[kind]
    return a1 * m + b1 * n, a2 * m + b2 * n


def cell_to_frame(kind: InterfaceKind, p, q):
    """Inverse of :func:`frame_to_cell`, by the adjugate of the unit-determinant frame."""
    (a1, a2), (b1, b2) = _FRAMES[kind]
    return b2 * p - b1 * q, a1 * q - a2 * p


def material_sign(n):
    """+1 on the upper half-space n >= 0, -1 on the complement (elementwise)."""
    return np.where(np.asarray(n) >= 0, 1, -1)


@functools.cache
def frame_bonds(kind: InterfaceKind) -> np.ndarray:
    """The 18 directed bonds of a cell in interface-frame coordinates, read-only.

    Row (j, j2, dm, dn, intracell) couples site j of cell (m, n) to site j2
    of cell (m + dm, n + dn); rows follow the order of :func:`neighbors`.  A
    bond is intracell exactly when its cell shift is zero.
    """
    bonds = np.array([
        (j, j2, *cell_to_frame(kind, dp, dq), dp == dq == 0)
        for j, row in _NEIGHBOR_TABLE.items()
        for j2, (dp, dq) in row
    ])
    bonds.flags.writeable = False
    return bonds


def frame_vectors(kind: InterfaceKind) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian versions of the interface-frame basis."""
    v_a, v_b = _FRAMES[kind]
    return BASIS @ np.array(v_a), BASIS @ np.array(v_b)
