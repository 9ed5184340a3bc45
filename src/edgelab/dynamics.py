"""Wavepacket dynamics on finite 2D domains.

A domain is a rectangle of cells in the interface frame with a two-valued
material map.  Its Hamiltonian is written straight into CSR arrays, one of
the 18 frame bonds at a time over all cells, from the same frame bond list
and bond rule that build the Bloch chains
(:func:`edgelab.lattice.frame_bonds`,
:func:`edgelab.hamiltonian.bond_weights`: intracell b, intercell b + delta,
c across the material boundary), with open outer edges.  A cell's distance
to the nearest interface cell comes from one table of the squared lengths
|dm v_a + dn v_b|^2 of all frame offsets in the domain: each interface cell
lowers a running minimum over its window of that table, so memory stays
linear in the cells and an interface cell reads exactly 0.

Time evolution of i dPhi/dt = H Phi applies exp(-iHt) as a Chebyshev series
in H/rho with Bessel-function coefficients (Tal-Ezer & Kosloff 1984), one
series per snapshot interval; its truncation is below double precision, so
the evolution is unitary to rounding.  :func:`evolve` takes the state
``steps`` sampling steps on through the same series, under the step rule
dt * rho(H) <= 0.5 that the CLI keeps.  Domains are sized so packets never
reach the outer edge.  :func:`record_run` propagates each interval on one
worker thread while it samples and writes the snapshot before it.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from .errors import StepTooLarge
from .hamiltonian import HoppingProfile, bond_weights
from .lattice import (
    InterfaceKind,
    cell_site_positions,
    frame_bonds,
    frame_to_cell,
    frame_vectors,
    material_sign,
)
from .output import text_table, write_json, write_rows
from .spectrum import perturbation_m0
from .transfer import zero_modes

__all__ = [
    "DomainSpec",
    "Domain",
    "WavepacketState",
    "build_domain",
    "initial_wavepacket",
    "evolve",
    "propagate",
    "rho_bound",
    "interface_mass",
    "transmission",
    "make_bend_partition",
    "record_run",
]

_MAX_SNAPSHOTS = 10_000  # snapshot_{:04d} names sort in time order up to here

# (kind, turn) -> frame vector (a, b) of the outgoing leg a v_a + b v_b of a bend
_LEGS = {
    (InterfaceKind.TYPE_I, 1): (0, -1),
    (InterfaceKind.TYPE_I, -1): (1, 1),
    (InterfaceKind.TYPE_II, 1): (-1, 3),
    (InterfaceKind.TYPE_II, -1): (2, -3),
}


@dataclass(frozen=True)
class DomainSpec:
    """Finite patch of the interface system.

    ``extent`` counts cells along (v_a, v_b); the patch is centered on the
    interface unless ``origin`` fixes the lower corner (m_lo, n_lo).  A bend
    is (vertex_m, turn): the material boundary follows n = 0 up to the
    vertex cell and then turns 60 degrees onto a rotation-equivalent
    interface direction; turn = +1 and turn = -1 pick the two mirror-image
    continuations.
    """

    kind: InterfaceKind
    extent: tuple[int, int]
    profile: HoppingProfile
    bend: tuple[int, int] | None = None
    origin: tuple[int, int] | None = None

    def __post_init__(self):
        if self.bend is not None and (self.kind, self.bend[1]) not in _LEGS:
            raise ValueError(f"bend turn must be +1 or -1, got {self.bend[1]}")

    def material(self, m, n):
        """Piecewise material map, elementwise over cell coordinates; the bent
        boundary is the rotation image of the straight one, so both legs are
        interfaces of the same kind."""
        if self.bend is None:
            return material_sign(n)
        m, n = np.asarray(m), np.asarray(n)
        mb, turn = self.bend
        a, b = _LEGS[self.kind, turn]
        # left of the outgoing leg: added to n >= 0 if the leg dips below, else cut
        side = a * n - b * (m - mb) >= 0
        plus = (n >= 0) | side if b < 0 else (n >= 0) & side
        return np.where(plus, 1, -1)


@dataclass
class Domain:
    """Assembled finite system: sparse Hamiltonian plus geometry tables."""

    spec: DomainSpec
    m_range: np.ndarray
    n_range: np.ndarray
    positions: np.ndarray
    hamiltonian: sp.csr_matrix
    sigma: np.ndarray
    cell_interface_dist: np.ndarray

    @property
    def n_cells(self) -> tuple[int, int]:
        return len(self.m_range), len(self.n_range)

    def cell_mass(self, amplitudes: np.ndarray) -> np.ndarray:
        return (np.abs(amplitudes.reshape(-1, 6)) ** 2).sum(axis=1)


def build_domain(spec: DomainSpec) -> Domain:
    """Enumerate sites, assemble the sparse real-symmetric Hamiltonian (complex
    entries), and precompute the interface geometry the diagnostics use."""
    import scipy.sparse as sp  # only the 2D domain pays for sparse storage

    Ma, Mb = spec.extent
    if Ma < 20 or Mb < 20:
        raise ValueError("domain extents must be at least 20x20 cells")
    if spec.origin is not None:
        m_lo, n_lo = spec.origin
    else:
        m_lo, n_lo = -(Ma // 2), -(Mb // 2)
    m_range = np.arange(m_lo, m_lo + Ma)
    n_range = np.arange(n_lo, n_lo + Mb)
    va, vb = frame_vectors(spec.kind)

    # cells in flat-index order; site j of a cell is row 6 cell + j - 1, and its
    # bond to site j2 of cell + dm Mb + dn is column 6 cell + shift, the same shift
    # in every cell, so bonds sorted by (j, shift) fill each row in column order
    cells, n_sites = Ma * Mb, 6 * Ma * Mb
    m, n = (g.reshape(-1) for g in np.meshgrid(m_range, n_range, indexing="ij"))
    sigma = spec.material(m, n)
    bonds = frame_bonds(spec.kind)
    shift = 6 * (bonds[:, 2] * Mb + bonds[:, 3]) + bonds[:, 1] - 1
    order = np.lexsort((shift, bonds[:, 0]))
    vals = np.empty((cells, 18))
    keep = np.empty((cells, 18), dtype=bool)
    at_interface = np.zeros(cells, dtype=bool)
    cell, im, i_n = np.arange(cells), np.arange(Ma), np.arange(Mb)
    for c, (_, _, dm, dn, intracell) in enumerate(bonds[order]):
        keep[:, c] = (((im + dm >= 0) & (im + dm < Ma))[:, None]
                      & ((i_n + dn >= 0) & (i_n + dn < Mb))[None, :]).reshape(-1)
        # a neighbor outside the domain reads a clipped cell; keep drops its bond
        s2 = sigma.take(cell + dm * Mb + dn, mode="clip")
        vals[:, c] = -bond_weights(spec.profile, intracell, sigma, s2)
        # crossing bonds come in mirrored pairs, so this marks both of their ends
        at_interface |= keep[:, c] & (sigma != s2)
    # complex entries, stored once, so no product with a complex state casts them
    data = vals[keep].astype(complex)
    del vals  # each (cells, 18) table goes once its kept entries are out
    idx = np.int32 if 3 * n_sites < 2**31 else np.int64
    indices = (6 * cell.astype(idx)[:, None] + shift[order].astype(idx))[keep]
    indptr = np.zeros(n_sites + 1, dtype=idx)
    np.cumsum(np.count_nonzero(keep.reshape(n_sites, 3), axis=1), out=indptr[1:])
    del keep
    H = sp.csr_matrix((data, indices, indptr), shape=(n_sites, n_sites))

    p, q = frame_to_cell(spec.kind, m, n)
    positions = cell_site_positions(p, q).reshape(-1, 2)

    # squared length of every frame offset (dm, dn) between two cells; the
    # window of the interface cell (im, i_n) holds its offsets to all cells
    dm_off = np.arange(1 - Ma, Ma)[:, None]
    dn_off = np.arange(1 - Mb, Mb)[None, :]
    off2 = (dm_off * va[0] + dn_off * vb[0]) ** 2 + (dm_off * va[1] + dn_off * vb[1]) ** 2
    dist2 = np.full((Ma, Mb), np.inf)
    for im, i_n in zip(*np.nonzero(at_interface.reshape(Ma, Mb))):
        window = off2[Ma - 1 - im:2 * Ma - 1 - im, Mb - 1 - i_n:2 * Mb - 1 - i_n]
        np.minimum(dist2, window, out=dist2)
    dist = np.sqrt(dist2).reshape(-1)

    return Domain(spec=spec, m_range=m_range, n_range=n_range, positions=positions,
                  hamiltonian=H, sigma=sigma.reshape(Ma, Mb), cell_interface_dist=dist)


@dataclass
class WavepacketState:
    """Complex amplitude per site at a given time.  Its norm and energy are
    numpy sums, whose bits no BLAS thread count moves."""

    domain: Domain
    amplitudes: np.ndarray
    time: float = 0.0

    def norm(self) -> float:
        return math.sqrt(np.sum(np.abs(self.amplitudes) ** 2))

    def energy(self) -> float:
        a = self.amplitudes
        return float(np.sum((a.conj() * (self.domain.hamiltonian @ a)).real))


def initial_wavepacket(domain: Domain, profile: HoppingProfile, center_m: float,
                       width: float, direction: int) -> WavepacketState:
    """Zero-mode transverse profile times a Gaussian envelope along the
    interface; ``direction`` selects the sign of the group velocity through
    the corresponding eigenvector of the crossing matrix."""
    kind = domain.spec.kind
    modes = zero_modes(kind, profile)
    m0 = perturbation_m0(kind, profile, modes)
    evals, evecs = np.linalg.eigh(m0)
    coeff = evecs[:, 1] if direction > 0 else evecs[:, 0]
    mode_a, mode_b = modes
    L = max(max(map(abs, mode.support())) for mode in modes)
    chi = (coeff[0] * mode_a.as_vector(L) + coeff[1] * mode_b.as_vector(L)).reshape(-1, 6)

    # transverse profile on the rows n in [n0, n1] shared by chi and the domain
    n0, n1 = max(-L, domain.n_range[0]), min(L, domain.n_range[-1])
    env = np.exp(-((domain.m_range - center_m) ** 2) / (2.0 * width**2))
    keep = env >= 1e-18
    amps = np.zeros((*domain.n_cells, 6), dtype=complex)
    amps[keep, n0 - domain.n_range[0]:n1 - domain.n_range[0] + 1] += (
        env[keep, None, None] * chi[None, n0 + L:n1 + L + 1])
    amps = amps.reshape(-1)
    norm = math.sqrt(np.sum(np.abs(amps) ** 2))
    if not norm > 0:
        raise ValueError("the wavepacket envelope misses the domain")
    amps /= norm
    return WavepacketState(domain=domain, amplitudes=amps, time=0.0)


def rho_bound(H) -> float:
    """Cheap spectral-radius bound: maximum absolute row sum.  A CSR matrix
    reduces each row's stored entries without a copy of the matrix, as
    scipy's row sum does, so the bound keeps its bits."""
    if getattr(H, "format", None) != "csr":
        return float(np.max(np.abs(H).sum(axis=1)))
    sums = np.zeros(H.shape[0])
    filled = H.indptr[1:] > H.indptr[:-1]  # reduceat gives an empty row the next entry
    sums[filled] = np.add.reduceat(np.abs(H.data), H.indptr[:-1][filled])
    return float(sums.max())


def evolve(state: WavepacketState, H, dt: float, steps: int) -> WavepacketState:
    """The state ``steps`` steps of ``dt`` later, through :func:`propagate`;
    requires |dt| * rho(H) <= 0.5, the sampling rule of :func:`record_run`."""
    rho = rho_bound(H)
    if abs(dt) * rho > 0.5:
        raise StepTooLarge("dt * rho(H) exceeds 0.5")
    amplitudes = propagate(state.amplitudes, H, dt * steps, rho)
    return WavepacketState(domain=state.domain, amplitudes=amplitudes, time=state.time + dt * steps)


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(x) for k = 0..K: the Chebyshev coefficients
    of exp(-i x s) on s in [-1, 1].  By Jacobi-Anger they are the cosine
    coefficients of exp(-i x cos theta), read off one FFT on M > 2K points;
    aliasing adds J_{M-k}, which is negligible.  K depends on x alone, so a
    rerun uses the same series; beyond it the Bessel tail is below 1e-16."""
    K = math.ceil(abs(x) + 11.0 * abs(x) ** (1.0 / 3.0) + 6.0)
    M = 2 * K + 64
    c = np.fft.fft(np.exp(-1j * x * np.cos(2.0 * np.pi * np.arange(M) / M)))[:K + 1] / M
    c[1:] *= 2.0
    return c


def propagate(amplitudes: np.ndarray, H, t: float, rho: float) -> np.ndarray:
    """exp(-iHt) applied to ``amplitudes`` as a Chebyshev series in H/rho;
    ``rho`` must bound the spectral radius of H (e.g. :func:`rho_bound`).
    A domain's H stores complex entries, so no product casts them."""
    out = amplitudes.astype(complex)
    if rho * t == 0.0:
        return out
    c = _chebyshev_coefficients(rho * t)
    # three-term recurrence T_{k+1} = 2 (H/rho) T_k - T_{k-1} on the vectors
    prev, cur = out.copy(), (H @ out) / rho
    out *= c[0]
    out += c[1] * cur
    for ck in c[2:]:
        prev *= -1.0
        prev += (2.0 / rho) * (H @ cur)
        prev, cur = cur, prev
        out += ck * cur
    return out


def interface_mass(state: WavepacketState, tube_radius: float) -> float:
    """Fraction of squared amplitude within ``tube_radius`` cell pitches of
    the interface (distance measured between cell centers)."""
    mass = state.domain.cell_mass(state.amplitudes)
    total = mass.sum()
    sel = state.domain.cell_interface_dist <= tube_radius + 1e-9
    return float(mass[sel].sum() / total)


def make_bend_partition(domain: Domain) -> np.ndarray:
    """Label every site 0 (incoming leg), 1 (outgoing leg) or 2 (residual)
    by projecting onto the two interface rays from the bend vertex mb v_a."""
    if domain.spec.bend is None:
        raise ValueError("partition requires a bent domain")
    mb, turn = domain.spec.bend
    va, vb = frame_vectors(domain.spec.kind)
    a, b = _LEGS[domain.spec.kind, turn]
    leg2 = a * va + b * vb
    u = domain.positions - (mb * va)[None, :]
    s_in = u @ -(va / np.linalg.norm(va))  # packets arrive traveling toward +m
    s_out = u @ (leg2 / np.linalg.norm(leg2))
    labels = np.full(len(u), 2, dtype=np.int8)
    labels[(s_in > 0) & (s_in >= s_out)] = 0
    labels[(s_out > 0) & (s_out > s_in)] = 1
    return labels


def transmission(state: WavepacketState, partition: np.ndarray) -> tuple[float, float, float]:
    """(transmitted, reflected, residual) mass fractions; they sum to 1."""
    mass = np.abs(state.amplitudes) ** 2
    total = mass.sum()
    transmitted = mass[partition == 1].sum() / total
    reflected = mass[partition == 0].sum() / total
    residual = mass[partition == 2].sum() / total
    return float(transmitted), float(reflected), float(residual)


def record_run(domain: Domain, state: WavepacketState, t_final: float,
               out_dir, stride: int = 200, dt: float | None = None,
               config: dict | None = None) -> dict:
    """Evolve to t_final, writing |amplitude|^2 snapshots every ``stride``
    sampling steps of ``dt`` plus a JSON manifest with the diagnostic time
    series.  Each snapshot interval is one :func:`propagate` call; ``dt``
    keeps the step rule dt * rho(H) <= 0.5, and a run holds at most 10,000
    snapshots.  Each interval propagates on one worker thread, in a copy of
    the caller's context (so its ``np.errstate`` holds there), while the
    caller samples and writes the snapshot before it: the thread only
    propagates, and the caller formats every snapshot.  A failure on either
    side raises here once the running interval is done, and the thread is
    joined before anything leaves, so no manifest follows a failure."""
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if not (t_final > 0 and math.isfinite(t_final)):
        raise ValueError("t_final must be positive and finite")
    if dt is not None and not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    H = domain.hamiltonian
    rho = rho_bound(H)
    if dt is None:
        dt = 0.1 / rho
    if dt * rho > 0.5:
        raise StepTooLarge("dt * rho(H) exceeds 0.5")
    # ceil(steps / stride) <= _MAX_SNAPSHOTS - 1 holds iff the float ratio
    # does; comparing it with an int is exact and also rejects an infinite one
    if not t_final / dt <= (_MAX_SNAPSHOTS - 1) * stride:
        raise ValueError(f"t_final / (dt * stride) schedules more than "
                         f"{_MAX_SNAPSHOTS} snapshots")
    steps_total = math.ceil(t_final / dt)
    out = Path(out_dir)
    partition = make_bend_partition(domain) if domain.spec.bend is not None else None
    x, y = (text_table(col) for col in domain.positions.T)

    def write_snapshot(snap_idx: int, abs2) -> None:
        write_rows(out / f"snapshot_{snap_idx:04d}.csv", ["x", "y", "abs2"], len(abs2),
                   [x, y, (None, abs2)])

    series = {"time": [], "norm": [], "energy": [], "interface_mass": []}
    if partition is not None:
        series.update({"transmitted": [], "reflected": [], "residual": []})

    def sample(st: WavepacketState) -> np.ndarray:
        series["time"].append(st.time)
        series["norm"].append(st.norm())
        series["energy"].append(st.energy())
        series["interface_mass"].append(interface_mass(st, 5.0))
        if partition is not None:
            t, r, rest = transmission(st, partition)
            series["transmitted"].append(t)
            series["reflected"].append(r)
            series["residual"].append(rest)
        # libm hypot then pow, as Python's abs(a) ** 2 per element, bit for bit;
        # np.abs and squaring by a product both differ in the last bit
        abs2 = np.hypot(st.amplitudes.real, st.amplitudes.imag)
        return np.float_power(abs2, 2.0, out=abs2)

    from concurrent.futures import ThreadPoolExecutor  # 6-8 ms, so not at import

    # the thread propagates an interval (from a copy: both threads only read
    # the amplitudes) while this one samples and writes the snapshot at its
    # start
    with ThreadPoolExecutor(1, thread_name_prefix="edgelab-evolve") as pool:
        snap = done = 0
        while done < steps_total:
            chunk = min(stride, steps_total - done)
            later = pool.submit(contextvars.copy_context().run, propagate,
                                state.amplitudes, H, dt * chunk, rho)
            write_snapshot(snap, sample(state))
            state = WavepacketState(domain=domain, amplitudes=later.result(),
                                    time=state.time + dt * chunk)
            done += chunk
            snap += 1
    write_snapshot(snap, sample(state))  # nothing left to overlap

    manifest = {
        "dt": dt,
        "steps": steps_total,
        "rho_bound": rho,
        "series": series,
        "config": config or {},
    }
    write_json(out / "manifest.json", manifest)
    return manifest
