"""The symmetries of the interface chain, as actions on chain vectors.

A state on the cells n in [-N, N] is a flat array in ``chain_operator``'s
layout, site (n, j) at 6 (n + N) + j - 1.  T and R are antilinear
(conjugation enters), so they are actions rather than plain matrices:

- T, the antiunitary sublattice swap: (Tu)(n) = exp(-i n k) swap conj(u(n)),
  with swap exchanging sublattices 1-3 and 4-6;
- V, the chiral sign flip on sublattices 4-6;
- R, the antiunitary in-cell reversal of type II:
  (Rw)(n) = exp(+i n k) rev conj(w(n)), with rev swapping 1 <-> 3 and 4 <-> 6.
"""

import numpy as np


def _as_cells(state):
    state = np.asarray(state)
    if state.size % 6:
        raise ValueError("state length must be a multiple of 6")
    return state.reshape(-1, 6)


def _phased(k, sign, cells):
    N = (cells.shape[0] - 1) // 2
    n = np.arange(-N, N + 1)
    return (np.exp(sign * 1j * n * k)[:, None] * cells).reshape(-1)


def apply_T(k, state):
    return _phased(k, -1, np.conj(_as_cells(state))[:, [3, 4, 5, 0, 1, 2]])


def apply_V(state):
    cells = _as_cells(state).copy()
    cells[:, 3:] *= -1.0
    return cells.reshape(-1)


def apply_R(k, state):
    return _phased(k, 1, np.conj(_as_cells(state))[:, [2, 1, 0, 5, 4, 3]])
