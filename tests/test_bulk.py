import tracemalloc

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from edgelab.bulk import (
    band_inversion,
    bulk_bands,
    bulk_h,
    default_k_path,
    dirac_slope,
    dual_basis,
    gamma_eigs,
    gamma_eigs_closed_form,
    write_bands_csv,
)
from edgelab.lattice import V_ALPHA, V_BETA
from edgelab.output import BLOCK_ROWS


def test_dual_basis_biorthogonality():
    ka, kb = dual_basis()
    assert ka @ V_ALPHA == pytest.approx(2 * np.pi, abs=1e-12)
    assert kb @ V_BETA == pytest.approx(2 * np.pi, abs=1e-12)
    assert abs(ka @ V_BETA) < 1e-12
    assert abs(kb @ V_ALPHA) < 1e-12


def _bulk_h_written_out(b, eps, k):
    # the Bloch matrix with its nine coupling entries written out by hand
    be = b + eps
    pa = np.exp(1j * (k @ V_ALPHA))
    pb = np.exp(1j * (k @ V_BETA))
    pab = np.exp(1j * (k @ (V_ALPHA - V_BETA)))
    H = np.zeros((6, 6), dtype=complex)
    H[:3, 3:] = [
        [-b, -b, -be * np.conj(pa)],
        [-b, -be * pab, -b],
        [-be * pb, -b, -b],
    ]
    H[3:, :3] = H[:3, 3:].conj().T
    return H


def test_bulk_h_entries_and_hermiticity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        b = rng.uniform(0.5, 50.0)
        eps = b * rng.uniform(-0.9, 2.0)
        k = rng.uniform(-8.0, 8.0, size=2)
        H = bulk_h(b, eps, k)
        ref = _bulk_h_written_out(b, eps, k)
        # all 18 bond entries, and zeros within each sublattice triple
        assert np.abs(H - ref).max() <= 1e-14 * (b + abs(eps))
        assert np.count_nonzero(H) == 18
        assert np.array_equal(H, H.conj().T)
    H0 = bulk_h(5.0, 2.0)
    assert H0.shape == (6, 6)
    assert np.abs(H0.imag).max() == 0.0


def test_bulk_h_stack_equals_per_point_calls():
    rng = np.random.default_rng(6)
    k = rng.uniform(-5.0, 5.0, size=(4, 7, 2))
    H = bulk_h(3.3, -1.1, k)
    assert H.shape == (4, 7, 6, 6)
    for idx in np.ndindex(4, 7):
        assert np.array_equal(H[idx], bulk_h(3.3, -1.1, k[idx]))
    # a stacked eigensolve is the per-point one, bit for bit
    bands = bulk_bands(3.3, -1.1, k.reshape(-1, 2))
    per_point = [np.linalg.eigvalsh(bulk_h(3.3, -1.1, kk)) for kk in k.reshape(-1, 2)]
    assert np.array_equal(bands, np.array(per_point))


def test_blocked_bands_equal_one_batched_solve():
    # several full blocks and a partial one, against a single eigvalsh call
    rng = np.random.default_rng(15)
    k = rng.uniform(-6.0, 6.0, size=(3 * BLOCK_ROWS + 517, 2))
    bands = bulk_bands(4.1, 1.7, k)
    assert bands.tobytes() == np.linalg.eigvalsh(bulk_h(4.1, 1.7, k)).tobytes()


def test_bands_transient_memory_is_bounded_by_the_block():
    path = default_k_path(200_000)
    tracemalloc.start()
    try:
        bands = bulk_bands(5.0, 2.0, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bands.shape == (len(path), 6)
    # one block of 4,096 points holds about 4.5 MB; the whole stack would be 220 MB
    assert peak - bands.nbytes < 8 * 2**20


def test_bands_csv_memory_is_bounded_by_the_block(tmp_path):
    bands = bulk_bands(5.0, 2.0, default_k_path(200_000))
    tracemalloc.start()
    try:
        write_bands_csv(bands, tmp_path / "bands.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 1.2M rows: one block's buffers take under 1 MB, while an int64 index
    # or path parameter for every row would take 9.6 MB
    assert bands.size == 1_199_994 and peak < 4 * 2**20


def test_gamma_point_spectrum():
    assert np.allclose(gamma_eigs(5.0, 2.0), [-17, -2, -2, 2, 2, 17], atol=1e-10)
    # the extremal pair is analytic in eps, so eps < 0 lowers it to 3b + eps
    assert np.allclose(gamma_eigs(5.0, -2.0), [-13, -2, -2, 2, 2, 13], atol=1e-10)
    ev0 = gamma_eigs(5.0, 0.0)
    assert np.allclose(ev0, [-15, 0, 0, 0, 0, 15], atol=1e-10)


def test_gamma_closed_form_matches_eigensolve():
    rng = np.random.default_rng(21)
    for _ in range(150):
        b = rng.uniform(0.5, 50.0)
        eps = b * rng.uniform(-0.9, 2.0)
        assert np.abs(gamma_eigs(b, eps) - gamma_eigs_closed_form(b, eps)).max() < 1e-10 * (3 * b + abs(eps))


def test_gap_law_and_chiral_pairing_on_grid():
    ka, kb = dual_basis()
    ss = np.linspace(0.0, 1.0, 50, endpoint=False)
    pts = np.array([s * ka + t * kb for s in ss for t in ss])
    for eps in (2.0, -2.0):
        bands = bulk_bands(5.0, eps, pts)
        assert bands[:, :3].max() <= -abs(eps) + 1e-9
        assert bands[:, 3:].min() >= abs(eps) - 1e-9
        assert np.abs(bands + bands[:, ::-1]).max() < 1e-10 * np.abs(bands).max()


def test_bands_on_default_path():
    bands = bulk_bands(5.0, 2.0, default_k_path(60))
    assert bands.shape[1] == 6
    assert np.all(np.diff(bands, axis=1) >= -1e-12)
    # observable gap of width >= 2|eps| around zero
    assert bands[:, 3].min() - bands[:, 2].max() >= 2 * 2.0 - 1e-9


def _csv_writer_bands(path, bands):
    # the band format as csv.writer writes it, element by element
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path_parameter", "band_index", "energy"])
        for i in range(bands.shape[0]):
            for j in range(6):
                w.writerow([i, j, f"{bands[i, j]:.17g}"])
    return path.read_bytes()


@pytest.mark.parametrize("eps", [2.0, 0.0, -2.0])
def test_bands_csv_matches_csv_writer(tmp_path, eps):
    from edgelab.output import BLOCK_ROWS

    bands = bulk_bands(5.0, eps, default_k_path(900))
    assert bands.size == 5406 and bands.size > BLOCK_ROWS and bands.size % BLOCK_ROWS
    write_bands_csv(bands, tmp_path / "bands.csv")
    assert (tmp_path / "bands.csv").read_bytes() == _csv_writer_bands(tmp_path / "ref.csv", bands)


def test_double_dirac_at_eps_zero():
    bands = bulk_bands(5.0, 0.0, default_k_path(60))
    i0 = np.argmin(np.abs(bands[:, 2]))
    assert np.abs(bands[i0, 1:5]).max() < 1e-9  # fourfold touching at Gamma
    # chiral partners: lambda4 = -lambda3 everywhere at eps = 0
    assert np.abs(bands[:, 3] + bands[:, 2]).max() < 1e-9 * np.abs(bands).max()


def test_dirac_slope_isotropic_linear_and_homogeneous():
    s5 = dirac_slope(5.0)
    s10 = dirac_slope(10.0)
    assert s10 == pytest.approx(2.0 * s5, rel=1e-6)
    # frozen fit value for b = 5 (independent check: 6x6 eigensolve at tiny k)
    k = 1e-6
    lam4 = np.linalg.eigvalsh(bulk_h(5.0, 0.0, (k, 0.0)))[3]
    assert s5 == pytest.approx(lam4 / k, rel=1e-4)


def test_band_inversion_swap():
    lo_p, up_p = band_inversion(5.0, 2.0)
    lo_m, up_m = band_inversion(5.0, -2.0)
    assert np.max(subspace_angles(lo_p, up_m)) < 1e-8
    assert np.max(subspace_angles(up_p, lo_m)) < 1e-8
    # the two pairs are orthogonal complements within the middle bands
    assert np.max(subspace_angles(lo_p, lo_m)) > 1.5


def test_band_inversion_algebraic_spans():
    # eigenvalue -eps pair at eps > 0 spans (x2, x2) and (x3, -x3) with
    # x2 = (1,-2,1), x3 = (1,0,-1): coupling block eigenvectors
    lo_p, _ = band_inversion(5.0, 2.0)
    span = np.array([[1, -2, 1, 1, -2, 1], [1, 0, -1, -1, 0, 1]], dtype=float).T
    assert np.max(subspace_angles(lo_p, span)) < 1e-8
    _, up_m = band_inversion(5.0, -2.0)
    assert np.max(subspace_angles(up_m, span)) < 1e-8


def test_bulk_params_validation():
    with pytest.raises(ValueError):
        bulk_h(0.0, 1.0)
    with pytest.raises(ValueError):
        bulk_h(5.0, -5.0)
    with pytest.raises(ValueError):
        band_inversion(5.0, 0.0)


_NON_FINITE = [(np.nan, 1.0), (5.0, np.nan), (np.inf, 1.0), (5.0, np.inf), (5.0, -np.inf)]
_MATERIAL_MESSAGE = r"need b > 0 and b \+ eps > 0"


@pytest.mark.parametrize("b, eps", _NON_FINITE)
@pytest.mark.parametrize("call", [
    bulk_h,
    gamma_eigs,
    band_inversion,
    lambda b, eps: bulk_bands(b, eps, default_k_path(12)),
], ids=["bulk_h", "gamma_eigs", "band_inversion", "bulk_bands"])
def test_non_finite_material_is_rejected(call, b, eps):
    # NaN fails every comparison, so a sign check alone lets it through
    with pytest.raises(ValueError, match=_MATERIAL_MESSAGE):
        call(b, eps)


def test_overflowing_bands_raise():
    # valid hoppings, but the eigensolver's energies overflow to +-inf
    with pytest.raises(FloatingPointError):
        bulk_bands(1e308, 1.0, default_k_path(12))


@pytest.mark.parametrize("b", [np.nan, np.inf])
def test_dirac_slope_rejects_non_finite_b(b):
    with pytest.raises(ValueError, match=_MATERIAL_MESSAGE):
        dirac_slope(b)


@pytest.mark.parametrize("b, eps", [(1e-320, 0.0), (5e-324, 0.0), (3e-308, -2.5e-308),
                                    (-1e-320, 1.0), (1e-320, 1.0)])
def test_subnormal_hoppings_are_rejected(b, eps):
    # below sys.float_info.min a hopping loses digits: the slope at b = 1e-320
    # came out as half its true value
    with pytest.raises(ValueError, match=_MATERIAL_MESSAGE):
        bulk_h(b, eps)


def test_smallest_normal_hoppings_keep_the_slope():
    import sys

    b = sys.float_info.min
    bulk_h(b, 0.0)
    bulk_h(2 * b, -b)  # b + eps is exactly the smallest normal float
    assert abs(dirac_slope(b) / b - dirac_slope(1.0)) < 1e-9


def test_dirac_slope_refuses_a_nan_spread(monkeypatch):
    # a flat band gives slopes 0, whose spread is 0/0 = NaN: it fails the fit
    import edgelab.bulk as bulk
    from edgelab.errors import NotConical

    monkeypatch.setattr(bulk, "bulk_h", lambda b, eps, k: np.zeros(np.shape(k)[:-1] + (6, 6)))
    with np.errstate(invalid="ignore"), pytest.raises(NotConical):
        dirac_slope(5.0)
