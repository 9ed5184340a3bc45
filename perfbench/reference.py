"""Fixed reference kernels that time the machine next to each op.

The machines this benchmark runs on share their cores with other tenants,
and their speed swings by up to 2x over tens of seconds.  A run's op times
follow those swings, so a median of wall times moves by up to 35% from run
to run at any affordable run length.  Each op is therefore bracketed by a
reference kernel that does the same kind of work (dense eigensolves, sparse
products, interpreted Python) and does not use edgelab, so its cost never
changes from one commit to the next.  An op's relative time is its wall time
divided by the mean of the two reference times around it; this cancels most
of the machine's swings while any change in edgelab's own cost moves it in
full.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp


class DenseEigh:
    """One dense Hermitian eigensolve, the size of a spectrum op's H(k)."""

    def __init__(self, dim: int):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        self.matrix = a + a.conj().T

    def __call__(self) -> float:
        t = time.perf_counter()
        np.linalg.eigh(self.matrix)
        return time.perf_counter() - t


class SparseProducts:
    """Repeated complex sparse matrix-vector products on a graph with about
    three neighbours per site, the shape of an evolve step."""

    def __init__(self, sites: int, products: int = 200):
        rng = np.random.default_rng(0)
        upper = sp.random(sites, sites, density=1.5 / sites, random_state=rng, format="csr")
        self.matrix = (upper + upper.T).tocsr()
        self.vector = rng.standard_normal(sites) + 0j
        self.products = products

    def __call__(self) -> float:
        t = time.perf_counter()
        y = self.vector
        for _ in range(self.products):
            y = self.matrix @ y
            y = y / np.abs(y).max()
        return time.perf_counter() - t


class Interpreted:
    """Dictionary, tuple and float formatting work in the interpreter, with
    small NumPy calls: the mix of the closed-form and domain-build paths."""

    def __init__(self, rounds: int = 4000):
        self.rounds = rounds
        self.row = np.arange(6, dtype=float)

    def __call__(self) -> float:
        t = time.perf_counter()
        table: dict[int, np.ndarray] = {}
        text = []
        for n in range(self.rounds):
            table[n] = self.row * (n % 7)
            if n - 2 in table:
                acc = table[n - 2][3] + table[n][1]
                text.append(f"{acc:.17g},{n}")
        np.dot(self.row, self.row)
        return time.perf_counter() - t


class Sum:
    """Several kernels in turn, for ops that mix kinds of work."""

    def __init__(self, *kernels):
        self.kernels = kernels

    def __call__(self) -> float:
        return sum(kernel() for kernel in self.kernels)
