"""Edge states of the infinite interface from its transfer pencil.

At fixed k and E the bulk rows of a material satisfy the recurrence
sum_d T_d psi_{n+d} = E psi_n over the bonds' reach R (1 for type I, 2 for
type II), with T_d the cell blocks behind
:func:`edgelab.hamiltonian.chain_operator`.  On x_n = (psi_{n-R}, ...,
psi_{n+R-1}) it is the pencil A x_n = lambda B x_n with x_{n+1} = lambda x_n,
B = diag(I, ..., I, T_R) and the companion A whose last block row is
-(T_{-R}, ..., T_0 - E, ..., T_{R-1}) (Lee & Joannopoulos, PRB 23, 4988
(1981); Umerski, PRB 55, 5266 (1997)).  ``scipy.linalg.ordqz`` orders it so
that the leading columns of Z span the states that decay to the right
(|lambda| < 1, zero included) or to the left (|lambda| > 1, infinite
included); a singular T_{+-R} gives such finitely supported states, and the
ordering counts them with no cut on |lambda|.

An edge state is then a null vector of one square matrix: the rows of H - E
on the cells [-W + R, W - R] of the window [-W, W], and the orthogonal
complements of the two decaying subspaces applied to the 2R end cells on
each side.  Every row outside the window is a pure bulk row (material rows
``clip(n, -3, 2)``) once W >= 4.  Nothing here uses :mod:`edgelab.transfer`
or a supercell; the count is independent of the closed-form verdicts.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from edgelab.hamiltonian import HoppingProfile, _cell_blocks, chain_operator
from edgelab.lattice import InterfaceKind

W = 6  # the window [-W, W]; at least 4


def decaying_basis(T: np.ndarray, E: float, reach: int, sort: str) -> tuple[np.ndarray, np.ndarray]:
    """A unitary Z whose leading half spans the states of the bulk blocks
    ``T`` (indexed d + 2) that decay to the right (``sort`` "iuc") or to the
    left ("ouc"), and the modulus |lambda| of each of the pencil's
    eigenvalues (inf for an infinite one).  Refuses a bulk that is not
    gapped at E: the decaying states must fill exactly half, so none lies on
    the unit circle."""
    s = T.shape[-1]
    m = 2 * reach * s
    A = np.zeros((m, m), dtype=complex)
    B = np.eye(m, dtype=complex)
    A[:-s, s:] = np.eye(m - s)
    A[-s:] = -np.hstack([T[d + 2] - (E * np.eye(s) if d == 0 else 0) for d in range(-reach, reach)])
    B[-s:, -s:] = T[reach + 2]
    _, _, alpha, beta, _, Z = scipy.linalg.ordqz(A, B, sort=sort, output="complex")
    a, b = np.abs(alpha), np.abs(beta)
    selected = a < b if sort == "iuc" else a > b
    if selected.sum() != m // 2 or not selected[:m // 2].all():  # ordqz puts them first
        raise ValueError(f"gapless or degenerate bulk at E = {E}: {selected.sum()} of {m} "
                         f"eigenvalues selected by {sort!r}")
    with np.errstate(divide="ignore"):
        return Z, a / b


def _bulk_blocks(kind: InterfaceKind, profile: HoppingProfile, k: float) -> tuple[int, np.ndarray]:
    """The bonds' reach R and the cell blocks at k, checked to reach no further."""
    R = 1 if kind is InterfaceKind.TYPE_I else 2
    T = _cell_blocks(kind, profile, k)
    for row in (0, 5):
        outside = np.delete(T[row], range(2 - R, 3 + R), axis=0)
        assert not outside.any(), "bonds reach further than the pencil"
    return R, T


def bulk_moduli(kind: InterfaceKind, profile: HoppingProfile, k: float = 0.0,
                E: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalue moduli |lambda| of the plus and of the minus bulk's
    pencil at (k, E), each in ascending order, infinite ones last as inf."""
    R, T = _bulk_blocks(kind, profile, k)
    return tuple(np.sort(decaying_basis(T[row], E, R, sort)[1])
                 for row, sort in ((5, "iuc"), (0, "ouc")))


def interface_matrix(kind: InterfaceKind, profile: HoppingProfile, k: float = 0.0,
                     E: float = 0.0) -> tuple[np.ndarray, float]:
    """The stacked interface matrix at (k, E), on the window's flat vectors
    in ``chain_operator``'s layout, with H's rows scaled by 1 / max|H|; and
    the bulks' smallest distance of an eigenvalue modulus from 1.  Its null
    space is the edge states at (k, E), restricted to the window."""
    (R, T), s = _bulk_blocks(kind, profile, k), 6
    right, moduli_plus = decaying_basis(T[5], E, R, "iuc")  # cells n >= 2: the plus bulk
    left, moduli_minus = decaying_basis(T[0], E, R, "ouc")  # cells n <= -3: the minus bulk
    H = chain_operator(kind, profile, -W, W, k) - E * np.eye(s * (2 * W + 1))
    rows = H[s * R:-s * R] / np.abs(H).max()
    m, n = 2 * R * s, H.shape[1]
    ends = np.zeros((m, n), dtype=complex)  # each complement has m / 2 columns
    ends[:m // 2, n - m:] = right[:, m // 2:].conj().T  # x_{W-R+1}: the last 2R cells
    ends[m // 2:, :m] = left[:, m // 2:].conj().T  # x_{-W+R}: the first 2R cells
    margin = float(np.min(np.abs(np.concatenate([moduli_plus, moduli_minus]) - 1.0)))
    return np.vstack([rows, ends]), margin


def interface_singular_values(kind: InterfaceKind, profile: HoppingProfile, k: float = 0.0,
                              E: float = 0.0) -> tuple[np.ndarray, float]:
    """The singular values of :func:`interface_matrix` in ascending order, and
    the bulks' margin from the unit circle."""
    M, margin = interface_matrix(kind, profile, k, E)
    return np.linalg.svd(M, compute_uv=False)[::-1], margin
