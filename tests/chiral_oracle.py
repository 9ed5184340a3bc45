"""The chiral block sliced out of the dense chain operator.

H(k) = chain_oracle.chain_operator(kind, profile, -N, N, k) is assembled
bond by bond on all six sublattices, and C is its block from sites 1-3 to
sites 4-6 of every cell, taken to the real basis of ``spectrum._R_CELL`` for
type II one cell pair at a time.  It is the oracle of
:func:`edgelab.spectrum._chiral_block`, which places the same cell blocks as
:func:`edgelab.hamiltonian.chain_operator` without the (12N + 6)^2 operator,
so it must not go through that function; both must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from edgelab.hamiltonian import HoppingProfile
from edgelab.lattice import InterfaceKind
from edgelab.spectrum import _R_CELL

from chain_oracle import chain_operator


def chiral_block(kind: InterfaceKind, profile: HoppingProfile, k: float, N: int) -> np.ndarray:
    n = 2 * N + 1
    # block (m, m2) couples sites 1-3 of cell m to sites 4-6 of cell m2
    blocks = chain_operator(kind, profile, -N, N, k).reshape(n, 6, n, 6)[:, :3, :, 3:]
    if kind is InterfaceKind.TYPE_II:
        C = np.zeros((n, 3, n, 3), dtype=complex)
        for d in range(-2, 3):
            m = np.arange(max(0, -d), min(n, n - d))
            C[m, :, m + d] = np.exp(0.5j * k * d) * (_R_CELL.conj().T @ blocks[m, :, m + d] @ _R_CELL)
        return C.reshape(3 * n, 3 * n).real
    C = blocks.reshape(3 * n, 3 * n)
    return C.real if k == 0 else C
