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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapless, NotAZeroMode
from .hamiltonian import HoppingProfile, chain_apply, coeffs_type2
from .lattice import InterfaceKind

__all__ = [
    "PMatrixReport",
    "QMatrixReport",
    "ZeroMode",
    "a_matrices",
    "boundary_a1",
    "boundary_a6",
    "propagation_matrix",
    "p_elements",
    "p_eigen",
    "matching_c_star",
    "type1_zero_exists",
    "build_type1_zero_modes",
    "q_matrix",
    "q_boundary_matrices",
    "q_eigen",
    "type2_zero_exists",
    "build_type2_zero_modes",
]

_PARALLEL_TOL = 1e-10
_RESIDUAL_TOL = 1e-10
_MAX_HALF_SUPPORT = 400


# ---------------------------------------------------------------------------
# 2x2 machinery (type I)
# ---------------------------------------------------------------------------

def a_matrices(b: float, eps: float, k: float) -> tuple[np.ndarray, ...]:
    """The six 2x2 cell-transfer blocks A_1..A_6 for one material (b, eps)."""
    if b <= 0 or b + eps <= 0:
        raise ValueError("need b > 0 and b + eps > 0")
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


def boundary_a6(b_minus: float, c: float) -> np.ndarray:
    """Interface variant of A_6: the bond out of cell 0 carries c."""
    return np.array([[-c, -b_minus], [0, -b_minus]], dtype=complex)


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
    if b <= 0 or b + eps <= 0:
        raise ValueError("need b > 0 and b + eps > 0")
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
    # b + eps rounds to b for |eps| below about 1e-16 b, and P is then
    # exactly the identity too
    if b + eps == b and k == 0.0:
        raise DegenerateGapless("P is the identity at k = 0 when b + eps == b")
    alpha, beta, gamma = p_elements(b, eps, k)
    disc = np.sqrt((alpha - gamma) ** 2 - 4 * np.exp(1j * k) * beta**2 + 0j)
    lam_a = (alpha + gamma - disc) / 2
    lam_b = (alpha + gamma + disc) / 2
    lam1, lam2 = (lam_a, lam_b) if abs(lam_a) <= abs(lam_b) else (lam_b, lam_a)
    f1 = None
    if k == 0.0:
        ar, br, gr = alpha.real, beta.real, gamma.real
        f1 = (-ar + gr - math.sqrt((ar - gr) ** 2 - 4 * br**2)) / (2 * br)
    return PMatrixReport(
        alpha=alpha, beta=beta, gamma=gamma, lambda1=lam1, lambda2=lam2, f1=f1,
        v1=_p_vector(lam1, alpha, beta, gamma),
        v2=_p_vector(lam2, alpha, beta, gamma),
    )


def matching_c_star(profile: HoppingProfile) -> float:
    """The unique interface coupling for which the two decaying directions
    align at k = 0 and a type-I zero mode exists."""
    if profile.delta_plus == 0.0 or profile.delta_minus == 0.0:
        raise DegenerateGapless("matching requires nonzero detuning on both sides")
    f1p = p_eigen(profile.b_plus, profile.delta_plus, 0.0).f1
    f1m = p_eigen(profile.b_minus, profile.delta_minus, 0.0).f1
    prod = (profile.b_plus + profile.delta_plus) * (profile.b_minus + profile.delta_minus) * f1p * f1m
    return math.sqrt(prod)


def type1_zero_exists(profile: HoppingProfile, c_test: float, k: float) -> bool:
    """Eigenvector-alignment criterion for a two-fold type-I zero mode."""
    if not c_test > 0:
        raise ValueError("test coupling c_test must be positive")
    rp = p_eigen(profile.b_plus, profile.delta_plus, k)
    rm = p_eigen(profile.b_minus, profile.delta_minus, k)
    scale = (profile.b_plus + profile.delta_plus) * (profile.b_minus + profile.delta_minus) / c_test**2
    w = rp.v1 * np.array([1.0, scale])
    v = rm.v2
    cross = abs(w[0] * v[1] - w[1] * v[0])
    return cross / (np.linalg.norm(w) * np.linalg.norm(v)) < _PARALLEL_TOL


# ---------------------------------------------------------------------------
# Zero modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroMode:
    """A normalized kernel vector of H(0), stored cell by cell.

    ``amplitudes[n]`` is the complex 6-vector of cell n.  ``decay_rate`` is
    the per-two-cell contraction factor of the envelope, so that
    ||amplitudes(n)|| <= C * decay_rate**(|n|/2).
    """

    kind: InterfaceKind
    label: str
    amplitudes: dict[int, np.ndarray]
    decay_rate: float
    residual: float

    def support(self) -> tuple[int, int]:
        return min(self.amplitudes), max(self.amplitudes)

    def as_vector(self, half_width: int) -> np.ndarray:
        """Dense chain vector on n in [-half_width, half_width]."""
        out = np.zeros(6 * (2 * half_width + 1), dtype=complex)
        for n, amp in self.amplitudes.items():
            if -half_width <= n <= half_width:
                out[(n + half_width) * 6:(n + half_width) * 6 + 6] = amp
        return out


def _half_support(rate_per_cell: float) -> int:
    # extend until the predicted envelope falls below 1e-16 of the maximum
    if rate_per_cell >= 1.0:
        raise NotAZeroMode("candidate does not decay")
    return min(_MAX_HALF_SUPPORT, max(8, math.ceil(37.0 / -math.log(rate_per_cell))))


def _residual(kind: InterfaceKind, profile: HoppingProfile, amps: dict[int, np.ndarray]) -> float:
    image = chain_apply(kind, profile, 0.0, amps)
    num = math.sqrt(sum(float(np.sum(np.abs(v) ** 2)) for v in image.values()))
    den = math.sqrt(sum(float(np.sum(np.abs(v) ** 2)) for v in amps.values()))
    return num / den


def _finalize(kind: InterfaceKind, profile: HoppingProfile, label: str,
              amps: dict[int, np.ndarray], rate2: float) -> ZeroMode:
    norm = math.sqrt(sum(float(np.sum(np.abs(v) ** 2)) for v in amps.values()))
    amps = {n: v / norm for n, v in amps.items()}
    # sign convention: first entry above noise (scanning n, then j) is positive
    peak = max(float(np.max(np.abs(v))) for v in amps.values())
    for n in sorted(amps):
        row = amps[n]
        idx = np.flatnonzero(np.abs(row) > 1e-12 * peak)
        if idx.size:
            if row[idx[0]].real < 0:
                amps = {m: -v for m, v in amps.items()}
            break
    res = _residual(kind, profile, amps)
    if res >= _RESIDUAL_TOL:
        raise NotAZeroMode(f"kernel residual {res:.3e} exceeds {_RESIDUAL_TOL}")
    return ZeroMode(kind=kind, label=label, amplitudes=amps, decay_rate=rate2, residual=res)


def build_type1_zero_modes(profile: HoppingProfile) -> tuple[ZeroMode, ZeroMode]:
    """Construct the two type-I zero modes at k = 0 from the propagation
    recursions; requires the profile's c to satisfy the matching condition."""
    if not type1_zero_exists(profile, profile.c, 0.0):
        raise NotAZeroMode("coupling c does not satisfy the matching condition")
    bp, dp = profile.b_plus, profile.delta_plus
    bm, dm = profile.b_minus, profile.delta_minus
    c = profile.c
    rp = p_eigen(bp, dp, 0.0)
    rm = p_eigen(bm, dm, 0.0)
    lam1p = rp.lambda1.real
    lam2m = rm.lambda2.real
    v1p = np.array([1.0, rp.f1])
    v2m = np.array([1.0, 1.0 / rm.f1])
    v0 = np.array([1.0, (bp + dp) * rp.f1 / c])
    g7 = c / (bm + dm)

    rate2 = max(lam1p, 1.0 / lam2m)  # contraction per two cells
    # number of pairs until the envelope falls below 1e-16 of the maximum
    M = min(_MAX_HALF_SUPPORT // 2, max(6, math.ceil(37.0 / -math.log(rate2))))

    A = [np.real(m) for m in a_matrices(bp, dp, 0.0)]
    Am = [np.real(m) for m in a_matrices(bm, dm, 0.0)]
    a1t = np.real(boundary_a1(bp, c, 0.0))
    a6t = np.real(boundary_a6(bm, c))
    plus_even = -np.linalg.solve(A[1], A[0])        # (u4,u6-) -> (u6,u5), same cell
    plus_odd = -np.linalg.solve(A[4], A[5])         # (u4,u6) at 2m+2 -> (u5,u4) at 2m+1
    plus_bnd = -np.linalg.solve(A[1], a1t)
    minus_odd = -np.linalg.solve(Am[4], Am[5])
    minus_even = -np.linalg.solve(Am[2], Am[3])
    minus_bnd = -np.linalg.solve(Am[4], a6t)

    pair = {0: v0}
    for m in range(1, M + 1):
        pair[m] = lam1p**m * v1p
    for m in range(-1, -M - 1, -1):
        pair[m] = g7 * lam2m**m * v2m

    u4: dict[int, float] = {}
    u5: dict[int, float] = {}
    u6: dict[int, float] = {}
    u4[0], u6[-1] = v0
    for m in range(1, M + 1):
        u4[2 * m], u6[2 * m - 1] = pair[m]
    for m in range(-1, -M - 1, -1):
        u4[2 * m], u6[2 * m - 1] = pair[m]

    u6[0], u5[0] = plus_bnd @ v0
    for m in range(1, M + 1):
        u6[2 * m], u5[2 * m] = plus_even @ pair[m]
    for m in range(0, M):
        u5[2 * m + 1], u4[2 * m + 1] = plus_odd @ pair[m + 1]

    u5[-1], u4[-1] = minus_bnd @ v0
    for m in range(-1, -M, -1):
        u5[2 * m - 1], u4[2 * m - 1] = minus_odd @ pair[m]
    for m in range(0, -M, -1):
        u6[2 * m - 2], u5[2 * m - 2] = minus_even @ np.array([u5[2 * m - 1], u4[2 * m - 1]])

    amps_a = {}
    for n in range(-2 * M, 2 * M + 1):
        amps_a[n] = np.array([0, 0, 0, u4[n], u5[n], u6[n]], dtype=complex)
    amps_b = {n: v[[3, 4, 5, 0, 1, 2]] for n, v in amps_a.items()}  # T(0) image

    mode_a = _finalize(InterfaceKind.TYPE_I, profile, "A", amps_a, rate2)
    mode_b = _finalize(InterfaceKind.TYPE_I, profile, "B", amps_b, rate2)
    return mode_a, mode_b


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
    if b <= 0 or b + eps <= 0:
        raise ValueError("need b > 0 and b + eps > 0")
    t = (b + eps) / b
    return _q_shape(t, 1.0 / t**2, k)


def q_boundary_matrices(profile: HoppingProfile, k: float):
    """The four interface-row matrices (Q_A,-1, Q_A,-2, Q_B,0, Q_B,-1)."""
    bp, dp = profile.b_plus, profile.delta_plus
    bm, dm = profile.b_minus, profile.delta_minus
    c = profile.c
    qa_m1 = _q_shape(c / bm, bp**2 / ((bp + dp) * c), k)
    qa_m2 = _q_shape((bm + dm) / bm, bp * bm / c**2, k)
    qb_0 = _q_shape((bp + dp) / bp, bp * bm / c**2, k)
    qb_m1 = _q_shape(c / bp, bm**2 / ((bm + dm) * c), k)
    return qa_m1, qa_m2, qb_0, qb_m1


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
    if b <= 0 or b + eps <= 0:
        raise ValueError("need b > 0 and b + eps > 0")
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
    if profile.delta_plus * profile.delta_minus >= 0:
        return False
    build_type2_zero_modes(profile)  # raises NotAZeroMode on residual failure
    return True


def _geometric_sublattice_a(profile: HoppingProfile, M: int) -> dict[int, float]:
    # x_{n+1} = (b_n / c_n) x_n solves rows 1..3 with pattern (0,0,0,x,0,-x)
    x = {0: 1.0}
    for n in range(0, M):
        r = coeffs_type2(profile, n)
        x[n + 1] = (r.b / r.c) * x[n]
    for n in range(0, -M, -1):
        r = coeffs_type2(profile, n - 1)
        x[n - 1] = (r.c / r.b) * x[n]
    return x


def _geometric_sublattice_b(profile: HoppingProfile, M: int) -> dict[int, float]:
    # s_n = (c_{n-1} / b_n) s_{n-1} solves rows 4..6 with pattern (s,0,-s,0,0,0)
    s = {0: 1.0}
    for n in range(1, M + 1):
        rm = coeffs_type2(profile, n - 1)
        r = coeffs_type2(profile, n)
        s[n] = (rm.c / r.b) * s[n - 1]
    for n in range(0, -M, -1):
        rm = coeffs_type2(profile, n - 1)
        r = coeffs_type2(profile, n)
        s[n - 1] = (r.b / rm.c) * s[n]
    return s


def _xi_mode(profile: HoppingProfile, M: int) -> tuple[dict[int, float], dict[int, float]]:
    """Sublattice-B sequence (y_n, z_n) for delta_plus > 0 > delta_minus:
    seed on the decaying Q-eigenvector of the + side, cross the interface
    through Q_B,0 and Q_B,-1, then solve for the two minus-side weights."""
    qp = q_eigen(profile.b_plus, profile.delta_plus)
    qm = q_eigen(profile.b_minus, profile.delta_minus)
    _, _, qb0, qbm1 = (np.real(m) for m in q_boundary_matrices(profile, 0.0))
    xi = {1: qp.v2.copy()}
    for n in range(1, M):
        xi[n + 1] = qp.mu2 * xi[n]
    xi[0] = np.linalg.solve(qb0, xi[1])
    xi[-1] = np.linalg.solve(qbm1, xi[0])
    if abs(xi[-1][0] - xi[-1][1]) > 1e-9 * np.max(np.abs(xi[-1])):
        raise NotAZeroMode("minus-side seed lost its reality structure")
    h5, h6 = np.linalg.solve(np.array([[qm.t1, qm.t2], [1.0, 1.0]]),
                             np.array([xi[-1][0], xi[-1][2]]))
    for n in range(-2, -M - 1, -1):
        xi[n] = h5 * qm.mu1 ** (n + 1) * qm.v1 + h6 * qm.mu2 ** (n + 1) * qm.v2
    y = {n: v[0] - v[2] for n, v in xi.items()}
    z = {n: v[2] for n, v in xi.items()}
    return y, z


def _chi_mode(profile: HoppingProfile, M: int) -> tuple[dict[int, float], dict[int, float]]:
    """Sublattice-A sequences (v4_n, v5_n) for delta_plus < 0 < delta_minus:
    two decaying + side directions, one linear matching condition across the
    interface rows."""
    qp = q_eigen(profile.b_plus, profile.delta_plus)
    qm = q_eigen(profile.b_minus, profile.delta_minus)
    qam1, qam2, _, _ = (np.real(m) for m in q_boundary_matrices(profile, 0.0))
    cross = qam2 @ qam1

    def v1m_weight(vec: np.ndarray) -> float:
        # coefficient along the growing minus-side direction v1m in a
        # (S, S, Z)-shaped vector
        return (vec[0] - qm.t2 * vec[2]) / (qm.t1 - qm.t2)

    a1 = v1m_weight(cross @ qp.v1)
    a2 = v1m_weight(cross @ qp.v2)
    h1, h2 = a2, -a1
    if abs(h1) < 1e-300 and abs(h2) < 1e-300:
        raise NotAZeroMode("degenerate matching system")
    chi = {}
    for n in range(0, M + 1):
        chi[n] = h1 * qp.mu1 ** (-n) * qp.v1 + h2 * qp.mu2 ** (-n) * qp.v2
    chi[-1] = qam1 @ chi[0]
    chi_m2 = cross @ chi[0]
    c2 = (chi_m2[0] - qm.t1 * chi_m2[2]) / (qm.t2 - qm.t1)
    for n in range(-2, -M - 1, -1):
        chi[n] = c2 * qm.mu2 ** (-(n + 2)) * qm.v2
    v4 = {n: v[0] - v[2] for n, v in chi.items()}
    v5 = {n: v[2] for n, v in chi.items()}
    return v4, v5


def build_type2_zero_modes(profile: HoppingProfile) -> tuple[ZeroMode, ZeroMode]:
    """Construct the two type-II zero modes at k = 0; requires topologically
    distinct materials (delta_plus * delta_minus < 0)."""
    dp, dm = profile.delta_plus, profile.delta_minus
    if dp == 0.0 or dm == 0.0:
        raise DegenerateGapless("zero detuning closes the bulk gap")
    if dp * dm > 0:
        raise NotAZeroMode("no type-II zero modes between topologically identical materials")
    tp = (profile.b_plus + dp) / profile.b_plus
    tm = (profile.b_minus + dm) / profile.b_minus
    qp = q_eigen(profile.b_plus, dp)
    qm = q_eigen(profile.b_minus, dm)

    if dp > 0:
        rate_a = max(1.0 / tp, tm)
        rate_b = max(qp.mu2, 1.0 / min(abs(qm.mu1), qm.mu2))
        Ma, Mb = _half_support(rate_a), _half_support(rate_b)
        x = _geometric_sublattice_a(profile, Ma)
        amps_a = {n: np.array([0, 0, 0, x[n], 0, -x[n]], dtype=complex) for n in x}
        y, z = _xi_mode(profile, Mb)
        amps_b = {n: np.array([y[n], z[n], y[n], 0, 0, 0], dtype=complex) for n in y}
    else:
        rate_a = max(1.0 / min(abs(qp.mu1), qp.mu2), qm.mu2)
        rate_b = max(tp, 1.0 / tm)
        Ma, Mb = _half_support(rate_a), _half_support(rate_b)
        v4, v5 = _chi_mode(profile, Ma)
        amps_a = {n: np.array([0, 0, 0, v4[n], v5[n], v4[n]], dtype=complex) for n in v4}
        s = _geometric_sublattice_b(profile, Mb)
        amps_b = {n: np.array([s[n], 0, -s[n], 0, 0, 0], dtype=complex) for n in s}

    mode_a = _finalize(InterfaceKind.TYPE_II, profile, "A", amps_a, rate_a**2)
    mode_b = _finalize(InterfaceKind.TYPE_II, profile, "B", amps_b, rate_b**2)

    # sign conventions from the eigenvector-form lemma: x_n > 0, y_n < 0
    if dp > 0:
        if mode_a.amplitudes[0][3].real < 0:
            mode_a = ZeroMode(mode_a.kind, "A", {n: -v for n, v in mode_a.amplitudes.items()},
                              mode_a.decay_rate, mode_a.residual)
        if mode_b.amplitudes[0][0].real > 0:
            mode_b = ZeroMode(mode_b.kind, "B", {n: -v for n, v in mode_b.amplitudes.items()},
                              mode_b.decay_rate, mode_b.residual)
    return mode_a, mode_b
