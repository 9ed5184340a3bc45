import numpy as np
import pytest
from scipy.linalg import subspace_angles

from edgelab.bulk import (
    BulkParams,
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


def test_dual_basis_biorthogonality():
    ka, kb = dual_basis()
    assert ka @ V_ALPHA == pytest.approx(2 * np.pi, abs=1e-12)
    assert kb @ V_BETA == pytest.approx(2 * np.pi, abs=1e-12)
    assert abs(ka @ V_BETA) < 1e-12
    assert abs(kb @ V_ALPHA) < 1e-12


def test_bulk_h_entries_and_hermiticity():
    b, eps = 5.0, 2.0
    k = np.array([0.31, -0.77])
    H = bulk_h(BulkParams(b, eps, tuple(k)))
    assert H[0, 5] == pytest.approx(-(b + eps) * np.exp(-1j * (k @ V_ALPHA)))
    assert H[1, 4] == pytest.approx(-(b + eps) * np.exp(1j * (k @ (V_ALPHA - V_BETA))))
    assert H[2, 3] == pytest.approx(-(b + eps) * np.exp(1j * (k @ V_BETA)))
    assert np.abs(H - H.conj().T).max() < 1e-14 * np.abs(H).max()
    H0 = bulk_h(BulkParams(b, eps))
    assert np.abs(H0.imag).max() == 0.0


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
        bands = bulk_bands(5.0, eps, pts, check_gap=False)
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
    lam4 = np.linalg.eigvalsh(bulk_h(BulkParams(5.0, 0.0, (k, 0.0))))[3]
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
        BulkParams(0.0, 1.0)
    with pytest.raises(ValueError):
        BulkParams(5.0, -5.0)
    with pytest.raises(ValueError):
        band_inversion(5.0, 0.0)
