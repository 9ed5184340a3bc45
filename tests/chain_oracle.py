"""The chain operator built cell by cell: every cell's 18 bond entries from
the bond rule, and the matrix-free product as 18 strided slice-adds.

They are the independent oracle of :func:`edgelab.hamiltonian.chain_operator`
and :func:`edgelab.hamiltonian.chain_apply`, which take the entries from six
material rows and apply the bonds on contiguous sublattice rows.  Both must
agree with this module bit for bit.
"""

from __future__ import annotations

import numpy as np

from edgelab.hamiltonian import HoppingProfile, bond_weights
from edgelab.lattice import InterfaceKind, frame_bonds, material_sign


def bond_entries(kind: InterfaceKind, profile: HoppingProfile, n: np.ndarray,
                 k: float, derivative: bool):
    """Sites j -> j2 (0-based), cell offsets dn and entries of the 18 bonds of
    each cell in the column ``n``: -w exp(i k dm) for H(k), or i dm (-w) for
    dH/dk at k = 0 when ``derivative`` is set."""
    j, j2, dm, dn, intracell = frame_bonds(kind).T
    w = bond_weights(profile, intracell, material_sign(kind, 0, n), material_sign(kind, 0, n + dn))
    vals = 1j * dm * -w if derivative else -w * np.exp(1j * k * dm)
    return j - 1, j2 - 1, dn, vals


def chain_operator(kind: InterfaceKind, profile: HoppingProfile, lo: int, hi: int,
                   k: float = 0.0, derivative: bool = False) -> np.ndarray:
    """Dense chain operator on the cells [lo, hi] with open ends."""
    n = np.arange(lo, hi + 1)[:, None]
    j, j2, dn, vals = bond_entries(kind, profile, n, k, derivative)
    n2 = n + dn
    keep = (n2 >= lo) & (n2 <= hi)
    H = np.zeros((6 * len(n), 6 * len(n)), dtype=complex)
    H[(6 * (n - lo) + j)[keep], (6 * (n2 - lo) + j2)[keep]] += vals[keep]
    return H


def chain_apply(kind: InterfaceKind, profile: HoppingProfile, lo: int, cells: np.ndarray,
                k: float = 0.0, derivative: bool = False) -> np.ndarray:
    """Image of ``cells`` (cell lo + i in row i) on the cells
    [lo - 2, lo + len(cells) + 1], one slice-add per bond in frame order."""
    out = np.zeros((len(cells) + 4, 6), dtype=complex)
    j, j2, dn, vals = bond_entries(kind, profile, np.arange(lo - 2, lo + len(out) - 2)[:, None],
                                   k, derivative)
    # image row i is cell lo - 2 + i; cell lo - 2 + i + dn is source row i + 2 + dn
    src = np.pad(cells, ((4, 4), (0, 0)))
    for b in range(len(j)):
        out[:, j[b]] += vals[:, b] * src[2 + dn[b]:2 + dn[b] + len(out), j2[b]]
    return out
