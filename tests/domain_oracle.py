"""COO assembly of a domain Hamiltonian, the oracle of ``build_domain``,
and the flat index of a domain site.

All 18 bonds of every cell are laid out as ``(cells, 18)`` tables, the
bonds leaving the domain are dropped, and scipy sorts the (row, col, -w)
triples into CSR.  ``build_domain`` fills the CSR arrays in order one bond
at a time instead; both must give the same ``data``, ``indices`` and
``indptr`` bit for bit.
"""

import numpy as np
import scipy.sparse as sp

from edgelab.hamiltonian import bond_weights
from edgelab.lattice import frame_bonds


def coo_hamiltonian(spec):
    Ma, Mb = spec.extent
    m_lo, n_lo = spec.origin if spec.origin is not None else (-(Ma // 2), -(Mb // 2))
    m_range = np.arange(m_lo, m_lo + Ma)
    n_range = np.arange(n_lo, n_lo + Mb)
    m, n = (g.reshape(-1, 1) for g in np.meshgrid(m_range, n_range, indexing="ij"))
    sigma = spec.material(m, n)
    j, j2, dm, dn, intracell = frame_bonds(spec.kind).T
    m2, n2 = m + dm, n + dn
    inside = (m2 >= m_lo) & (m2 < m_lo + Ma) & (n2 >= n_lo) & (n2 < n_lo + Mb)
    cell2 = np.where(inside, (m2 - m_lo) * Mb + (n2 - n_lo), 0)
    s2 = sigma[cell2, 0]
    w = bond_weights(spec.profile, intracell, sigma, s2)
    rows = (6 * np.arange(Ma * Mb)[:, None] + j - 1)[inside]
    cols = (6 * cell2 + j2 - 1)[inside]
    n_sites = Ma * Mb * 6
    return sp.csr_matrix((-w[inside], (rows, cols)), shape=(n_sites, n_sites))


def site_index(dom, m, n, j):
    """Row of site j of the frame cell (m, n) in ``dom.hamiltonian``: cells in
    row-major (m, n) order over the domain, six sites each."""
    im = m - dom.m_range[0]
    i_n = n - dom.n_range[0]
    return (im * len(dom.n_range) + i_n) * 6 + (j - 1)
