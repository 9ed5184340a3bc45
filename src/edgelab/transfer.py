"""Propagation matrices and exact zero-energy edge modes.

Zero-energy solutions of the interface chains satisfy linear recursions whose
cell-to-cell maps are small closed-form matrices: a 2x2 propagation matrix P
for the type-I interface and a 3x3 matrix Q for the type-II interface.  The
eigenvalue of P (resp. Q) inside the unit circle selects the decaying
direction on each side; a zero mode exists exactly when the two decaying
directions can be matched across the interface rows.

Every closed form here is kept alongside its explicit matrix-product oracle;
the formulas involve cancellations and the redundancy is deliberate.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import astuple, dataclass, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import DegenerateGapless, NotAZeroMode
from .hamiltonian import HoppingProfile, chain_apply, check_material
from .lattice import InterfaceKind

__all__ = [
    "PMatrixReport",
    "QMatrixReport",
    "ZeroMode",
    "a_matrices",
    "boundary_a1",
    "propagation_matrix",
    "p_elements",
    "p_eigen",
    "matching_coupling",
    "matching_c_star",
    "type1_zero_exists",
    "build_type1_zero_modes",
    "q_matrix",
    "q_boundary_matrices",
    "q_eigen",
    "type2_zero_exists",
    "build_type2_zero_modes",
    "zero_modes",
]

_PARALLEL_TOL = 1e-10
_RESIDUAL_TOL = 1e-10
_MAX_HALF_SUPPORT = 20_000


# ---------------------------------------------------------------------------
# 2x2 machinery (type I)
# ---------------------------------------------------------------------------

def a_matrices(b: float, eps: float, k: float) -> tuple[np.ndarray, ...]:
    """The six 2x2 cell-transfer blocks A_1..A_6 for one material (b, eps)."""
    check_material(b, eps)
    be = b + eps
    ep, em = np.exp(1j * k), np.exp(-1j * k)
    A1 = np.array([[-b, 0], [-b, -be * em]])
    A2 = np.array([[-b, -be * ep], [0, -b]])
    A3 = np.array([[-be * em, 0], [-b, -b]])
    A4 = np.array([[-b, -b], [0, -be]], dtype=complex)
    A5 = np.array([[-b, 0], [-be * ep, -b]])
    A6 = np.array([[-be, -b], [0, -b]], dtype=complex)
    return A1, A2, A3, A4, A5, A6


def boundary_a1(b_plus: float, c: float, k: float) -> np.ndarray:
    """Interface variant of A_1: the bond into cell 0 carries c."""
    return np.array([[-b_plus, 0], [-b_plus, -c * np.exp(-1j * k)]])


def propagation_matrix(b: float, eps: float, k: float) -> np.ndarray:
    """P(b, eps, k) = -A6^-1 A5 A4^-1 A3 A2^-1 A1, the two-cell transfer map
    of even pairs (u4, u6) for a zero-energy solution."""
    A1, A2, A3, A4, A5, A6 = a_matrices(b, eps, k)
    M = np.linalg.solve(A2, A1)
    M = np.linalg.solve(A4, A3 @ M)
    return -np.linalg.solve(A6, A5 @ M)


def p_elements(b: float, eps: float, k: float) -> tuple[complex, complex, complex]:
    """Closed-form entries (alpha, beta, gamma) of P; the remaining entry is
    -exp(ik)*beta."""
    check_material(b, eps)
    t = (b + eps) / b
    ep, em = np.exp(1j * k), np.exp(-1j * k)
    alpha = -ep * t**2 + 2 * t - em + np.exp(2j * k) - 4 * ep / t + 4 / t**2
    beta = -t**3 + em * t**2 + ep * t - 3 + 2 * em / t
    gamma = t**4 - ep * t**2 + 2 * t - em
    return alpha, beta, gamma


@dataclass(frozen=True)
class PMatrixReport:
    """Spectral data of the type-I propagation matrix at one (b, eps, k)."""

    alpha: complex
    beta: complex
    gamma: complex
    lambda1: complex
    lambda2: complex
    f1: float | None
    v1: np.ndarray
    v2: np.ndarray


def _p_vector(lam: complex, alpha: complex, beta: complex, gamma: complex) -> np.ndarray:
    if abs(beta) > 1e-300:
        return np.array([1.0, (lam - alpha) / beta])
    # beta = 0 happens only on the eps = 0 line: P is diagonal there
    if abs(lam - alpha) <= abs(lam - gamma):
        return np.array([1.0, 0.0], dtype=complex)
    return np.array([0.0, 1.0], dtype=complex)


def p_eigen(b: float, eps: float, k: float) -> PMatrixReport:
    """Eigenvalues ordered |lambda1| < |lambda2|, eigenvectors, and (at k = 0)
    the decaying-direction slope f1 with its sign cases."""
    # one Brillouin zone, [-pi, pi]; near |k| = 1e308 exp(2ik) is NaN, and a
    # verdict would be computed from it
    if not abs(k) <= math.pi:
        raise ValueError(f"quasi-momentum k must be finite with |k| <= pi, got {k}")
    alpha, beta, gamma = p_elements(b, eps, k)
    # b + eps rounds to b for |eps| below about 1e-16 b: a nonzero detuning is
    # then lost at every k, and P is exactly the identity at k = 0
    if b + eps == b and (eps != 0.0 or k == 0.0):
        raise DegenerateGapless("b + eps == b: the detuning is zero or lost to rounding")
    disc = np.sqrt((alpha - gamma) ** 2 - 4 * np.exp(1j * k) * beta**2 + 0j)
    lam_a = (alpha + gamma - disc) / 2
    lam_b = (alpha + gamma + disc) / 2
    lam2 = lam_b if abs(lam_a) <= abs(lam_b) else lam_a
    # the smaller root loses digits to cancellation; take it from det P instead
    lam1 = np.exp(-2j * k) / lam2
    f1 = None
    if k == 0.0:
        ar, br, gr = alpha.real, beta.real, gamma.real
        f1 = (-ar + gr - math.sqrt((ar - gr) ** 2 - 4 * br**2)) / (2 * br)
    return PMatrixReport(
        alpha=alpha, beta=beta, gamma=gamma, lambda1=lam1, lambda2=lam2, f1=f1,
        v1=_p_vector(lam1, alpha, beta, gamma),
        v2=_p_vector(lam2, alpha, beta, gamma),
    )


def matching_coupling(b_plus: float, delta_plus: float, b_minus: float,
                      delta_minus: float) -> tuple[float, float, float]:
    """(c*, f1_plus, f1_minus): the decaying-direction slopes of both
    materials at k = 0 and the coupling they determine."""
    if delta_plus == 0.0 or delta_minus == 0.0:
        raise DegenerateGapless("matching requires nonzero detuning on both sides")
    f1p = p_eigen(b_plus, delta_plus, 0.0).f1
    f1m = p_eigen(b_minus, delta_minus, 0.0).f1
    prod = (b_plus + delta_plus) * (b_minus + delta_minus) * f1p * f1m
    return math.sqrt(prod), f1p, f1m


def matching_c_star(profile: HoppingProfile) -> float:
    """The unique interface coupling for which the two decaying directions
    align at k = 0 and a type-I zero mode exists."""
    return matching_coupling(profile.b_plus, profile.delta_plus,
                             profile.b_minus, profile.delta_minus)[0]


def type1_zero_exists(profile: HoppingProfile, c_test: float, k: float) -> bool:
    """Eigenvector-alignment criterion for a two-fold type-I zero mode."""
    if not 0 < c_test < math.inf:
        raise ValueError("test coupling c_test must be positive and finite")
    rp = p_eigen(profile.b_plus, profile.delta_plus, k)
    rm = p_eigen(profile.b_minus, profile.delta_minus, k)
    # v1 scaled by (1, t^2), t^2 = (b+ + delta+)(b- + delta-) / c_test^2, or by
    # (1 / t^2, 1) from t^2 > 1: no scale exceeds 1, so the norms below stay
    # finite at every coupling
    t = math.sqrt(profile.b_plus + profile.delta_plus) * math.sqrt(
        profile.b_minus + profile.delta_minus) / c_test
    w = rp.v1 * (np.array([1.0, t * t]) if t * t <= 1 else np.array([1 / t / t, 1.0]))
    v = rm.v2
    cross = abs(w[0] * v[1] - w[1] * v[0])
    with np.errstate(over="raise"):  # an infinite norm would read as parallel
        return cross / (np.linalg.norm(w) * np.linalg.norm(v)) < _PARALLEL_TOL


# ---------------------------------------------------------------------------
# Zero modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroMode:
    """A normalized kernel vector of H(0), stored as one array of cells.

    ``cells[i]`` is the complex 6-vector of cell ``lo + i``, so the support
    is the ``len(cells)`` consecutive cells from ``lo``.  ``amplitudes`` is a
    read-only view n -> ``cells[n - lo]`` of the same rows.  ``decay_rate``
    is the per-two-cell contraction factor of the envelope, so that
    ||amplitudes[n]|| <= C * decay_rate**(|n|/2).
    """

    kind: InterfaceKind
    label: str
    lo: int
    cells: np.ndarray
    decay_rate: float
    residual: float

    @cached_property
    def amplitudes(self) -> Mapping[int, np.ndarray]:
        return MappingProxyType(dict(zip(range(self.lo, self.lo + len(self.cells)), self.cells)))

    def support(self) -> tuple[int, int]:
        return self.lo, self.lo + len(self.cells) - 1

    def as_vector(self, half_width: int) -> np.ndarray:
        """Dense chain vector on n in [-half_width, half_width]: the support
        truncated to the window, zero elsewhere."""
        out = np.zeros((2 * half_width + 1, 6), dtype=complex)
        lo, hi = max(self.lo, -half_width), min(self.support()[1], half_width)
        if lo <= hi:
            out[lo + half_width:hi + half_width + 1] = self.cells[lo - self.lo:hi - self.lo + 1]
        return out.ravel()


def _half_support(rate_per_cell: float) -> int:
    # extend until the predicted envelope falls below 1e-16 of the maximum
    if rate_per_cell >= 1.0:
        raise NotAZeroMode("candidate does not decay")
    cells = 37.0 / -math.log(rate_per_cell)
    if cells > _MAX_HALF_SUPPORT:
        raise NotAZeroMode(f"the mode needs {math.ceil(cells)} cells a side to decay to 1e-16, "
                           f"beyond the limit of {_MAX_HALF_SUPPORT}")
    return max(8, math.ceil(cells))


def _residual(kind: InterfaceKind, profile: HoppingProfile, lo: int, cells: np.ndarray) -> float:
    image = chain_apply(kind, profile, lo, cells)
    return float(np.linalg.norm(image) / np.linalg.norm(cells))


def _finalize(kind: InterfaceKind, profile: HoppingProfile, label: str,
              lo: int, cells: np.ndarray, rate2: float) -> ZeroMode:
    cells = cells / math.sqrt(sum(np.sum(np.abs(cells) ** 2, axis=1)))
    # sign convention: first entry above noise (scanning n, then j) is positive
    flat = np.abs(cells.ravel())
    if cells.flat[np.argmax(flat > 1e-12 * flat.max())].real < 0:
        cells = -cells
    res = _residual(kind, profile, lo, cells)
    if not res < _RESIDUAL_TOL:
        raise NotAZeroMode(f"kernel residual {res:.3e} exceeds {_RESIDUAL_TOL}")
    return ZeroMode(kind=kind, label=label, lo=lo, cells=cells, decay_rate=rate2, residual=res)


def _type1_half(b: float, eps: float, c: float, M: int) -> np.ndarray:
    """Cells 0..2M of the type-I zero mode on the n >= 0 side held by the
    material (b, eps), with u4(0) = 1; sublattice A stays zero."""
    r = p_eigen(b, eps, 0.0)
    A1, A2, _, _, A5, A6 = (np.real(m) for m in a_matrices(b, eps, 0.0))
    # pair[m] = (u4 of cell 2m, u6 of cell 2m - 1)
    pair = r.lambda1.real ** np.arange(M + 1)[:, None] * np.array([1.0, r.f1])
    pair[0] = (1.0, (b + eps) * r.f1 / c)
    cells = np.zeros((2 * M + 1, 6))
    cells[0::2, 3] = pair[:, 0]
    cells[1::2, 5] = pair[1:, 1]
    cells[0::2, [5, 4]] = pair @ -np.linalg.solve(A2, A1).T
    cells[1::2, [4, 3]] = pair[1:] @ -np.linalg.solve(A5, A6).T
    cells[0, [5, 4]] = -np.linalg.solve(A2, np.real(boundary_a1(b, c, 0.0))) @ pair[0]
    return cells


def build_type1_zero_modes(profile: HoppingProfile) -> tuple[ZeroMode, ZeroMode]:
    """Construct the two type-I zero modes at k = 0 from the propagation
    recursions; requires the profile's c to satisfy the matching condition."""
    if not type1_zero_exists(profile, profile.c, 0.0):
        raise NotAZeroMode("coupling c does not satisfy the matching condition")
    bp, bm, dp, dm, c = astuple(profile)
    rp, rm = p_eigen(bp, dp, 0.0), p_eigen(bm, dm, 0.0)
    # each half reaches 2M >= _half_support cells past its cell 0
    Mp, Mm = (-(-_half_support(math.sqrt(r.lambda1.real)) // 2) for r in (rp, rm))
    # the inversion (n, j) -> (-1 - n, j') with 1 <-> 3, 4 <-> 6 and 2, 5 fixed
    # maps the chain at k = 0 onto the one with the materials swapped, so the
    # n <= -1 half is the other material's n >= 0 half.  Its u4(0) = 1 becomes
    # u6(-1), scaled to this side's; at c = c* its u6(-1) becomes u4(0) = 1.
    lower = _type1_half(bm, dm, c, Mm)[::-1, [2, 1, 0, 5, 4, 3]] * ((bp + dp) * rp.f1 / c)
    cells = np.concatenate([lower, _type1_half(bp, dp, c, Mp)]).astype(complex)
    rate2 = max(rp.lambda1.real, rm.lambda1.real)
    return tuple(_finalize(InterfaceKind.TYPE_I, profile, label, -len(lower), v, rate2)
                 for label, v in (("A", cells), ("B", cells[:, [3, 4, 5, 0, 1, 2]])))


# ---------------------------------------------------------------------------
# 3x3 machinery (type II)
# ---------------------------------------------------------------------------

def _q_shape(p: float, q: float, k: float) -> np.ndarray:
    ep, em = np.exp(1j * k / 2), np.exp(-1j * k / 2)
    return np.array([
        [0, -p * em, p * em],
        [-p * ep, 0, p * ep],
        [q * ep, q * em, 0],
    ])


def q_matrix(b: float, eps: float, k: float) -> np.ndarray:
    """Bulk 3x3 recursion matrix of the type-II zero-mode reduction."""
    check_material(b, eps)
    t = (b + eps) / b
    return _q_shape(t, 1.0 / t**2, k)


def q_boundary_matrices(profile: HoppingProfile, k: float):
    """The four interface-row matrices (Q_A,-1, Q_A,-2, Q_B,0, Q_B,-1);
    an entry that overflows raises FloatingPointError."""
    bp, dp = profile.b_plus, profile.delta_plus
    bm, dm = profile.b_minus, profile.delta_minus
    c = profile.c
    shapes = ((c / bm, bp**2 / ((bp + dp) * c)), ((bm + dm) / bm, bp * bm / c**2),
              ((bp + dp) / bp, bp * bm / c**2), (c / bp, bm**2 / ((bm + dm) * c)))
    if not all(math.isfinite(x) for pq in shapes for x in pq):
        raise FloatingPointError("an interface-row matrix entry is not finite")
    return tuple(_q_shape(p, q, k) for p, q in shapes)


@dataclass(frozen=True)
class QMatrixReport:
    """Closed-form eigen data of Q(b, eps, 0)."""

    mu1: float
    mu2: float
    mu3: float
    t1: float
    t2: float
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray


def q_eigen(b: float, eps: float) -> QMatrixReport:
    """Eigenvalues mu1 < -2 < mu2, mu3 = (b+eps)/b and eigenvectors
    (t1,t1,1), (t2,t2,1), (i,-i,0) of the k = 0 bulk matrix."""
    check_material(b, eps)
    t = (b + eps) / b
    root = math.sqrt(t * t + 8.0 / t)
    mu1 = (-t - root) / 2
    mu2 = (-t + root) / 2
    t1 = -t / mu2
    t2 = -t / mu1
    return QMatrixReport(
        mu1=mu1, mu2=mu2, mu3=t, t1=t1, t2=t2,
        v1=np.array([t1, t1, 1.0]),
        v2=np.array([t2, t2, 1.0]),
        v3=np.array([1j, -1j, 0.0]),
    )


def type2_zero_exists(profile: HoppingProfile) -> bool:
    """True exactly when the two materials are topologically distinct
    (delta_plus * delta_minus < 0); verified constructively when true."""
    if profile.delta_plus == 0.0 or profile.delta_minus == 0.0:
        raise DegenerateGapless("existence dichotomy requires nonzero detunings")
    # compare signs: the product of two tiny detunings underflows to -0.0
    if (profile.delta_plus > 0) == (profile.delta_minus > 0):
        return False
    build_type2_zero_modes(profile)  # raises NotAZeroMode on residual failure
    return True


# The sequences below live on n in [-M, M] and are stored at index n + M.

def _geometric_sublattice_a(profile: HoppingProfile, M: int) -> np.ndarray:
    # x_{n+1} = (b_n / c_n) x_n solves rows 1..3 with pattern (0,0,0,x,0,-x):
    # x_n = (b+ / (b+ + delta+))^n for n >= 0, and x_{-1} = c / b- followed by
    # powers of (b- + delta-) / b- below, each filled as a running product
    bp, bm, dp, dm, c = astuple(profile)
    up = np.cumprod(np.full(M, bp / (bp + dp)))
    down = np.cumprod(np.r_[c / bm, np.full(M - 1, (bm + dm) / bm)])
    return np.concatenate([down[::-1], [1.0], up])


def _xi_mode(profile: HoppingProfile, qp: QMatrixReport, qm: QMatrixReport,
             M: int) -> tuple[np.ndarray, np.ndarray]:
    """Sublattice-B sequence (y_n, z_n) for delta_plus > 0 > delta_minus:
    seed on qp's decaying eigenvector (the + side), cross the interface
    through Q_B,0 and Q_B,-1, then solve for the weights on qm's eigenvectors."""
    _, _, qb0, qbm1 = (np.real(m) for m in q_boundary_matrices(profile, 0.0))
    # xi_n = mu2^(n - 1) v2 for n >= 1, filled as a running product
    upper = np.cumprod(np.vstack([qp.v2, np.full((M - 1, 3), qp.mu2)]), axis=0)
    xi0 = np.linalg.solve(qb0, upper[0])
    seed = np.linalg.solve(qbm1, xi0)
    if abs(seed[0] - seed[1]) > 1e-9 * np.max(np.abs(seed)):
        raise NotAZeroMode("minus-side seed lost its reality structure")
    h5, h6 = np.linalg.solve(np.array([[qm.t1, qm.t2], [1.0, 1.0]]),
                             np.array([seed[0], seed[2]]))
    n = np.arange(-M, -1)[:, None]
    lower = h5 * qm.mu1 ** (n + 1) * qm.v1 + h6 * qm.mu2 ** (n + 1) * qm.v2
    xi = np.concatenate([lower, [seed, xi0], upper])
    return xi[:, 0] - xi[:, 2], xi[:, 2]


def _cells(*columns) -> np.ndarray:
    """Complex (cells, 6) array from six sublattice columns, each a sequence
    over the cells or 0."""
    return np.stack(np.broadcast_arrays(*columns), axis=1).astype(complex)


def build_type2_zero_modes(profile: HoppingProfile) -> tuple[ZeroMode, ZeroMode]:
    """Construct the two type-II zero modes at k = 0; requires topologically
    distinct materials (delta_plus * delta_minus < 0)."""
    dp, dm = profile.delta_plus, profile.delta_minus
    if dp == 0.0 or dm == 0.0:
        raise DegenerateGapless("zero detuning closes the bulk gap")
    if (dp > 0) == (dm > 0):
        raise NotAZeroMode("no type-II zero modes between topologically identical materials")
    if dp < 0:
        # the inversion (n, j) -> (-1 - n, 7 - j) maps this chain onto the one
        # with the two materials swapped, where delta_plus > 0
        swapped = HoppingProfile(profile.b_minus, profile.b_plus, dm, dp, profile.c)
        image_b, image_a = build_type2_zero_modes(swapped)
        return tuple(_finalize(InterfaceKind.TYPE_II, profile, label, -m.lo - len(m.cells),
                               m.cells[::-1, ::-1], m.decay_rate)
                     for label, m in (("A", image_a), ("B", image_b)))
    qp = q_eigen(profile.b_plus, dp)
    qm = q_eigen(profile.b_minus, dm)
    rate_a = max(1.0 / qp.mu3, qm.mu3)  # mu3 = (b + delta) / b
    rate_b = max(qp.mu2, 1.0 / min(abs(qm.mu1), qm.mu2))
    Ma, Mb = _half_support(rate_a), _half_support(rate_b)
    x = _geometric_sublattice_a(profile, Ma)
    y, z = _xi_mode(profile, qp, qm, Mb)
    mode_a = _finalize(InterfaceKind.TYPE_II, profile, "A", -Ma, _cells(0, 0, 0, x, 0, -x), rate_a**2)
    mode_b = _finalize(InterfaceKind.TYPE_II, profile, "B", -Mb, _cells(y, z, y, 0, 0, 0), rate_b**2)

    # sign conventions from the eigenvector-form lemma: x_n > 0, y_n < 0; the x's
    # share one sign, and _finalize made the first of them above noise positive
    if mode_b.cells[Mb, 0].real > 0:
        mode_b = replace(mode_b, cells=-mode_b.cells)
    return mode_a, mode_b


def zero_modes(kind: InterfaceKind, profile: HoppingProfile) -> tuple[ZeroMode, ZeroMode]:
    """The pair of zero modes at k = 0 of the interface of ``kind``.  The
    builders are looked up when called, so a replaced module attribute is used."""
    build = build_type1_zero_modes if kind is InterfaceKind.TYPE_I else build_type2_zero_modes
    return build(profile)
