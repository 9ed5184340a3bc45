import concurrent.futures
import ctypes
import dataclasses
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from edgelab import _platform, spectrum
from edgelab.errors import NoMidGapState
from edgelab.hamiltonian import HoppingProfile, bloch_h1, bloch_h2
from edgelab.lattice import InterfaceKind
from edgelab.spectrum import (
    _chiral_block,
    edge_curves,
    min_abs_kept,
    perturbation_m0,
    perturbation_matrix,
    supercell_spectrum,
    write_spectrum_csv,
)
from edgelab.transfer import build_type1_zero_modes, matching_c_star, p_eigen

import chain_oracle
from blas_route import blas_threads
from chiral_oracle import chiral_block
from coefficient_rows import coeffs_type1

MIXED = HoppingProfile(60, 60, 30, -30, 50.0)


def _gapped_profile(rng, scale=1.0):
    b = 10 ** rng.uniform(0.0, 2.5, size=2)
    return HoppingProfile(*(scale * np.array([
        b[0], b[1], rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.9) * b[0],
        rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.9) * b[1], 10 ** rng.uniform(-2.0, 2.5)])))


def test_preconditions():
    with pytest.raises(ValueError):
        supercell_spectrum(InterfaceKind.TYPE_I, MIXED, None, [0.0], N=10)
    with pytest.raises(ValueError):
        supercell_spectrum(InterfaceKind.TYPE_I, MIXED, None, [0.0], N=24, margin=6)


def _eigh_filter(H, margin):
    """Eigenvalues, boundary-mass scores and degenerate-cluster flags of a
    dense chain Hamiltonian, from the documented filter definition: the mass
    in the outer ``margin`` cells at each end, rediagonalized inside
    numerically degenerate clusters."""
    evals, evecs = np.linalg.eigh(H)
    mask = np.zeros(len(evals))
    mask[:6 * margin] = mask[-6 * margin:] = 1.0
    loc = mask @ (np.abs(evecs) ** 2)
    clustered = np.zeros(len(evals), dtype=bool)
    tol = 1e-8 * max(1.0, float(np.abs(evals).max()))
    i = 0
    while i < len(evals):
        j = i + 1
        while j < len(evals) and evals[j] - evals[j - 1] < tol:
            j += 1
        if j - i > 1:
            V = evecs[:, i:j]
            loc[i:j] = np.sort(np.linalg.eigvalsh(V.conj().T @ (mask[:, None] * V)))
            clustered[i:j] = True
        i = j
    return evals, loc, clustered


@pytest.mark.parametrize("kind", list(InterfaceKind))
@pytest.mark.parametrize("profile", [
    MIXED,
    HoppingProfile(60, 60, 30, 30, 50.0),  # same material on both sides
    HoppingProfile(60, 60, 0, 0, 60.0),  # homogeneous
])
def test_spectrum_matches_eigh_filter(kind, profile):
    N, margin, threshold = 30, 5, 0.2
    kg = [0.0, 1e-4, 0.7, np.pi, -np.pi]
    table = supercell_spectrum(kind, profile, None, kg, N=N, margin=margin,
                               threshold=threshold)
    build = bloch_h1 if kind is InterfaceKind.TYPE_I else bloch_h2
    for i, k in enumerate(kg):
        evals, loc, clustered = _eigh_filter(build(profile, k, N).matrix, margin)
        assert np.abs(table.eigenvalues[i] - evals).max() <= 1e-9 * profile.b_plus
        assert np.array_equal(table.kept[i], loc < threshold)
        assert np.abs(table.localization[i] - loc)[~clustered].max() <= 1e-8


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_mirror_rows_are_identical(kind):
    kg = np.array([-np.pi, -2.1, -0.7, 0.0, 0.7, 2.1, np.pi])
    table = supercell_spectrum(kind, MIXED, None, kg, N=24)
    for field in (table.eigenvalues, table.localization, table.kept):
        assert np.array_equal(field, field[::-1])


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_non_symmetric_grid_matches_per_point_solves(kind):
    kg = [0.3, -0.1, 0.7]
    table = supercell_spectrum(kind, MIXED, None, kg, N=24)
    build = bloch_h1 if kind is InterfaceKind.TYPE_I else bloch_h2
    for i, k in enumerate(kg):
        single = supercell_spectrum(kind, MIXED, None, [k], N=24)
        assert np.array_equal(table.eigenvalues[i], single.eigenvalues[0])
        assert np.array_equal(table.localization[i], single.localization[0])
        # the row at -0.1 is the solve at +0.1; the signed-k operator agrees
        evals, loc, _ = _eigh_filter(build(MIXED, k, 24).matrix, table.margin)
        assert np.abs(table.eigenvalues[i] - evals).max() <= 1e-9 * MIXED.b_plus
        assert np.array_equal(table.kept[i], loc < table.threshold)


@pytest.mark.parametrize("kind, k", [
    (InterfaceKind.TYPE_II, 0.3),
    (InterfaceKind.TYPE_II, 0.7),
    (InterfaceKind.TYPE_II, 2.1),
    (InterfaceKind.TYPE_II, np.pi),
    (InterfaceKind.TYPE_I, 0.0),
    (InterfaceKind.TYPE_I, 0.7),  # no real form away from k = 0
])
def test_real_chiral_block_keeps_singular_values(kind, k):
    N = 24
    block = _chiral_block(kind, MIXED, k, N)
    assert block.dtype == (np.complex128 if kind is InterfaceKind.TYPE_I and k else np.float64)
    build = bloch_h1 if kind is InterfaceKind.TYPE_I else bloch_h2
    H = build(MIXED, k, N).matrix
    a = np.arange(6 * (2 * N + 1)).reshape(-1, 6)
    C = H[a[:, :3].ravel()][:, a[:, 3:].ravel()]
    s_real = np.linalg.svd(block, compute_uv=False)
    s_complex = np.linalg.svd(C, compute_uv=False)
    assert np.abs(s_real - s_complex).max() <= 1e-12 * MIXED.b_plus


def test_chiral_symmetry_and_localization_range():
    kg = np.linspace(-np.pi, np.pi, 7)
    table = supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, kg, N=24)
    for i in range(len(kg)):
        ev = table.eigenvalues[i]
        assert np.abs(ev + ev[::-1]).max() < 1e-9 * np.abs(ev).max()
    assert table.localization.min() >= -1e-12
    assert table.localization.max() <= 1.0 + 1e-12


def test_homogeneous_material_keeps_continuum_and_has_no_midgap():
    hom = HoppingProfile(60, 60, 0, 0, 60.0)
    table = supercell_spectrum(InterfaceKind.TYPE_I, hom, None, [0.0, 0.8], N=40)
    for i in range(2):
        kept = table.eigenvalues[i][table.kept[i]]
        assert kept.size > 0.9 * table.eigenvalues.shape[1]  # extended states survive
        assert kept.min() < -2.5 * 60 and kept.max() > 2.5 * 60
    kept0 = table.eigenvalues[0][table.kept[0]]
    assert kept0.min() < -3 * 60 + 2  # band bottom -3b reached at k = 0
    with pytest.raises(NoMidGapState):
        edge_curves(table)


def test_crossing_and_gapped_cases():
    kg = np.array([-0.1, 0.0, 0.1])
    table = supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, kg, N=60)
    curves = edge_curves(table)
    assert curves.min_abs_at_zero < 1e-6 * 60
    assert np.all(curves.e_plus[[0, 2]] > 0.1)

    same = HoppingProfile(60, 60, 30, 30, 50.0)
    table = supercell_spectrum(InterfaceKind.TYPE_II, same, None, kg, N=60)
    vals = table.eigenvalues[1][table.kept[1]]
    assert np.abs(vals).min() > 1.0


def _edge_curves_loop(table):
    """Per-k reference for edge_curves' branches and min_abs_kept."""
    e_plus, e_minus, min_abs = [], [], []
    for k, E, kept in zip(table.k_grid, table.eigenvalues, table.kept):
        vals = E[kept]
        e0 = np.abs(vals).min() if vals.size else np.inf
        pos, neg = vals[vals >= 0], vals[vals < 0]
        min_abs.append(e0)
        if not vals.size:
            e_plus.append(np.nan)
            e_minus.append(np.nan)
        elif abs(k) < 1e-12:
            e_plus.append(e0)
            e_minus.append(-e0)
        else:
            e_plus.append(pos.min() if pos.size else np.nan)
            e_minus.append(neg.max() if neg.size else np.nan)
    return np.array(e_plus), np.array(e_minus), np.array(min_abs)


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_edge_curves_match_per_k_loop(kind):
    kg = np.array([-0.7, -0.2, 0.0, 0.2, 0.7, 1.3, 1e-13])  # the last counts as k = 0
    table = supercell_spectrum(kind, MIXED, None, kg, N=24)
    kept = table.kept.copy()
    kept[1] = False  # nothing kept at one k
    kept[[2, 3]] &= table.eigenvalues[[2, 3]] < 0  # only the lower branch
    kept[[5, 6]] &= table.eigenvalues[[5, 6]] > 0  # only the upper branch
    for t in (table, dataclasses.replace(table, kept=kept)):
        e_plus, e_minus, min_abs = _edge_curves_loop(t)
        curves = edge_curves(t)
        assert np.array_equal(min_abs_kept(t), min_abs)
        assert np.array_equal(curves.e_plus, e_plus, equal_nan=True)
        assert np.array_equal(curves.e_minus, e_minus, equal_nan=True)
        assert curves.min_abs_at_zero == min_abs[2]


def test_edge_branches_symmetric_in_k():
    kg = np.array([-0.3, -0.15, 0.0, 0.15, 0.3])
    table = supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, kg, N=40)
    curves = edge_curves(table)
    assert abs(curves.e_plus[0] - curves.e_plus[4]) < 1e-9
    assert abs(curves.e_plus[1] - curves.e_plus[3]) < 1e-9
    assert abs(curves.e_minus[1] - curves.e_minus[3]) < 1e-9


def test_kept_extended_states_respect_bulk_gap():
    kg = np.array([0.0, 0.9])
    table = supercell_spectrum(InterfaceKind.TYPE_I, MIXED, None, kg, N=40)
    N = table.half_width
    # recompute eigenvectors to classify which kept states are extended
    for i, k in enumerate(kg):
        H = bloch_h1(table.profile, k, N).matrix
        evals, evecs = np.linalg.eigh(H)
        cells = (np.abs(evecs) ** 2).reshape(2 * N + 1, 6, -1).sum(axis=1)
        near_interface = cells[N - 10:N + 11].sum(axis=0)
        for j in range(len(evals)):
            if table.kept[i, j] and near_interface[j] < 0.5:
                assert abs(evals[j]) >= 30.0 - 0.05 * 30.0


def test_geometric_convergence_with_supercell_size():
    profile = HoppingProfile(60, 60, 6, -6, 50.0)
    tuned = profile.with_c(matching_c_star(profile))
    rate2 = max(p_eigen(60, 6, 0).lambda1.real, 1.0 / p_eigen(60, -6, 0).lambda2.real)
    vals = {}
    for N in (20, 28, 36):
        table = supercell_spectrum(InterfaceKind.TYPE_I, tuned, None, [0.0], N=N, margin=4)
        vals[N] = np.abs(table.eigenvalues[0][table.kept[0]]).min()
    predicted = rate2**8  # eight extra cells per side between successive N
    assert vals[28] / vals[20] == pytest.approx(predicted, rel=0.1)
    assert vals[36] / vals[28] == pytest.approx(predicted, rel=0.1)


def test_m0_structure_and_slope_positive():
    tuned = MIXED.with_c(matching_c_star(MIXED))
    m0 = perturbation_m0(InterfaceKind.TYPE_I, tuned)
    assert abs(m0[0, 0]) < 1e-12 and abs(m0[1, 1]) < 1e-12
    assert m0[1, 0] == pytest.approx(-m0[0, 1], abs=1e-12)
    assert abs(m0[0, 1].real) < 1e-12  # purely imaginary off-diagonal
    assert abs(m0[0, 1].imag) > 0


def test_m0_against_explicit_sum():
    # independent route: the displayed sum with d and c weights over the mode
    tuned = MIXED.with_c(matching_c_star(MIXED))
    mode_a, mode_b = build_type1_zero_modes(tuned)
    m0 = perturbation_m0(InterfaceKind.TYPE_I, tuned, (mode_a, mode_b))
    acc = 0.0
    ns = sorted(mode_a.amplitudes)
    for n in ns:
        row = coeffs_type1(tuned, n)
        u5 = mode_a.amplitudes[n][4].real
        u6 = mode_a.amplitudes[n][5].real
        u4n1 = mode_a.amplitudes[n + 1][3].real if n + 1 in mode_a.amplitudes else 0.0
        acc += row.d * u5 * u5 - row.c * u6 * u4n1
    assert m0[0, 1].imag == pytest.approx(acc, rel=1e-10)


def test_m0_matrix_route_matches_dense_operator():
    tuned = MIXED.with_c(matching_c_star(MIXED))
    mode_a, mode_b = build_type1_zero_modes(tuned)
    m0 = perturbation_m0(InterfaceKind.TYPE_I, tuned, (mode_a, mode_b))
    L = max(abs(n) for n in mode_a.amplitudes)
    H1 = chain_oracle.chain_operator(InterfaceKind.TYPE_I, tuned, -L, L, derivative=True)
    va = mode_a.as_vector(L)
    vb = mode_b.as_vector(L)
    assert m0[0, 1] == pytest.approx(np.vdot(va, H1 @ vb), rel=1e-10)


@pytest.mark.parametrize("kind,profile", [
    (InterfaceKind.TYPE_I, MIXED.with_c(matching_c_star(MIXED))),
    (InterfaceKind.TYPE_II, MIXED),
])
def test_slope_matches_finite_difference(kind, profile):
    report = perturbation_matrix(kind, profile, N=60)
    assert report.slope > 0
    assert report.rel_gap < 0.01
    # Richardson step: halving h must stay consistent
    half = perturbation_matrix(kind, profile, N=60, h=5e-4)
    assert abs(half.fd_slope - report.slope) <= abs(report.fd_slope - report.slope) + 1e-6 * report.slope


def test_overflowing_energies_raise():
    # valid hoppings, but the SVD's singular values overflow to inf
    profile = HoppingProfile(1e308, 60, 30, -30, 0.0231)
    with pytest.raises(FloatingPointError):
        supercell_spectrum(InterfaceKind.TYPE_I, profile, None, [0.0, 1.0], N=32)


def test_sweep_rerun_is_bitwise_identical():
    kg = np.linspace(-1.0, 1.0, 5)
    first = supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, kg, N=24)
    rerun = supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, kg, N=24)
    assert np.array_equal(first.eigenvalues, rerun.eigenvalues)
    assert np.array_equal(first.localization, rerun.localization)


def test_writers_are_deterministic(tmp_path):
    kg = np.array([0.0, 0.5])
    table = supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, kg, N=24)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_spectrum_csv(table, p1)
    write_spectrum_csv(table, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "k,eig_index,energy,localization,kept"


def _csv_writer_spectrum(path, table):
    # the spectrum format as csv.writer writes it, element by element
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "eig_index", "energy", "localization", "kept"])
        for i, k in enumerate(table.k_grid):
            for j in range(table.eigenvalues.shape[1]):
                w.writerow([f"{k:.17g}", j, f"{table.eigenvalues[i, j]:.17g}",
                            f"{table.localization[i, j]:.17g}", int(table.kept[i, j])])
    return path.read_bytes()


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_spectrum_csv_matches_csv_writer(tmp_path, kind):
    from edgelab.output import BLOCK_ROWS

    k_grid = np.linspace(-np.pi, np.pi, 21)
    table = supercell_spectrum(kind, MIXED, None, (k_grid - k_grid[::-1]) / 2, N=20, margin=4)
    n_rows = table.eigenvalues.size
    assert n_rows == 5166 and n_rows > BLOCK_ROWS and n_rows % BLOCK_ROWS
    assert table.kept.any() and not table.kept.all()
    write_spectrum_csv(table, tmp_path / "spectrum.csv")
    assert (tmp_path / "spectrum.csv").read_bytes() == (
        _csv_writer_spectrum(tmp_path / "ref.csv", table))


def _one_bit_apart(field):
    # k = -0.7 and 0.7 of a mirrored grid, with one bit of `field` flipped at -0.7
    table = supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, [-0.7, 0.0, 0.7], N=24)
    values = getattr(table, field).copy()
    assert np.array_equal(values[0], values[2])
    if field == "kept":
        values[0, 7] = not values[0, 7]
    else:
        values[0].view(np.int64)[7] ^= 1
    return dataclasses.replace(table, **{field: values})


def _special_values():
    # -0.0, infinities and NaN of either sign bit, on rows equal to other rows
    table = supercell_spectrum(InterfaceKind.TYPE_I, MIXED, None, [0.5, -0.5, 0.5], N=24)
    E, L = table.eigenvalues.copy(), table.localization.copy()
    E[:, :4] = [-0.0, -np.inf, np.inf, np.copysign(np.nan, -1)]
    L[:, :2] = [np.nan, 5e-324]
    return dataclasses.replace(table, k_grid=np.array([-0.0, 0.0, -0.0]),
                               eigenvalues=E, localization=L)


def _long_rows():
    # k-rows longer than a block, so that blocks begin and end inside one;
    # the rows of -0.3 and 0.3 are equal and Fortran-ordered
    from edgelab.output import BLOCK_ROWS

    rng = np.random.default_rng(0)
    E = np.asfortranarray(rng.standard_normal((3, BLOCK_ROWS + 7)))
    E[2] = E[0]
    L = np.abs(E) / 4
    table = supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, [0.3], N=24)
    return dataclasses.replace(table, k_grid=np.array([-0.3, 0.0, 0.3]), eigenvalues=E,
                               localization=L, kept=L < 0.2)


@pytest.mark.parametrize("make", [
    lambda: _one_bit_apart("eigenvalues"),
    lambda: _one_bit_apart("localization"),
    lambda: _one_bit_apart("kept"),
    _special_values,
    _long_rows,
    # one k; an even count, which has no k = 0
    lambda: supercell_spectrum(InterfaceKind.TYPE_I, MIXED, None, [0.3], N=24),
    lambda: supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, np.linspace(-np.pi, np.pi, 6),
                               N=24),
], ids=["energy-bit", "localization-bit", "kept-bit", "special-values", "long-rows", "one-k",
         "even-k"])
def test_spectrum_csv_shares_text_by_value(tmp_path, make):
    table = make()
    write_spectrum_csv(table, tmp_path / "spectrum.csv")
    assert (tmp_path / "spectrum.csv").read_bytes() == (
        _csv_writer_spectrum(tmp_path / "ref.csv", table))


def _loop_solve(kind, profile, k, N, margin):
    """_solve_one with its cluster search as the loop over the sorted
    energies, and the number of clusters it rediagonalized."""
    n = 3 * (2 * N + 1)
    edge = np.r_[0:3 * margin, n - 3 * margin:n]
    s, u_edge, v_edge = spectrum._margin_svd(_chiral_block(kind, profile, k, N), edge)
    evals = np.concatenate([-s, s[::-1]])
    half = ((np.abs(u_edge) ** 2).sum(axis=0) + (np.abs(v_edge) ** 2).sum(axis=0)) / 2
    loc = np.concatenate([half, half[::-1]])
    tol = 1e-8 * max(1.0, float(np.abs(evals).max()))
    clusters, i = 0, 0
    while i < 2 * n:
        j = i + 1
        while j < 2 * n and evals[j] - evals[j - 1] < tol:
            j += 1
        if j - i > 1:
            idx = np.arange(i, j)
            r = np.where(idx < n, idx, 2 * n - 1 - idx)
            V = np.vstack([u_edge[:, r], np.where(idx < n, -1, 1) * v_edge[:, r]])
            loc[i:j] = np.sort(np.linalg.eigvalsh(V.conj().T @ V / 2))
            clusters += 1
        i = j
    return evals, loc, clusters


@pytest.mark.parametrize("kind, profile, clusters", [
    (InterfaceKind.TYPE_I, HoppingProfile(60, 60, 30, 30, 50.0), 2),  # two clusters side by side
    (InterfaceKind.TYPE_II, HoppingProfile(60, 60, 30, 30, 50.0), 1),
    (InterfaceKind.TYPE_II, HoppingProfile(60, 60, 0, 0, 60.0), 2),
])
@pytest.mark.parametrize("N", [24, 30])
def test_cluster_search_matches_the_loop(kind, profile, clusters, N):
    # k = 0 tables whose energies hold degenerate clusters
    evals, loc = spectrum._solve_one(kind, profile, 0.0, N, 5)
    expected = _loop_solve(kind, profile, 0.0, N, 5)
    assert expected[2] == clusters
    assert evals.tobytes() == expected[0].tobytes()
    assert loc.tobytes() == expected[1].tobytes()


# ---------------------------------------------------------------------------
# The k-point pool and the BLAS pin
# ---------------------------------------------------------------------------

_SPECTRUM_ARGV = {
    # both differ between one and two BLAS threads when the count is not pinned
    InterfaceKind.TYPE_I: ["--kind", "type1", "--n-cells", "24", "--k-points", "5"],
    InterfaceKind.TYPE_II: ["--kind", "type2", "--n-cells", "40", "--k-points", "5"],
}


def _run_spectrum(argv, where, monkeypatch):
    """spectrum.csv and summary.json of an in-process run; the same relative
    --out, so that summary.json's config is the same too."""
    from edgelab.cli import main

    where.mkdir()
    monkeypatch.chdir(where)
    assert main(["spectrum", *argv, "--out", "o"]) == 0
    return [(where / "o" / name).read_bytes() for name in ("spectrum.csv", "summary.json")]


@pytest.fixture
def record_solves(monkeypatch):
    """The thread of every _solve_one call, with the caller's np.errstate
    as that call saw it."""
    calls = []
    solve = spectrum._solve_one

    def recording(*args):
        calls.append((threading.get_ident(), np.geterr()["over"]))
        return solve(*args)

    monkeypatch.setattr(spectrum, "_solve_one", recording)
    return calls


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, record_solves, kind):
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(_platform, "usable_cores", lambda n=cores: n)
        record_solves.clear()
        runs.append(_run_spectrum(_SPECTRUM_ARGV[kind], tmp_path / str(cores), monkeypatch))
        # 3 distinct |k| of 5 points, on at most one worker per core
        assert len(record_solves) == 3
        assert 1 <= len({ident for ident, _ in record_solves}) <= cores
    assert runs[0] == runs[1]


def test_the_pool_has_one_worker_per_usable_core(monkeypatch):
    blas_threads()
    sizes = []
    pool = concurrent.futures.ThreadPoolExecutor

    class Recording(pool):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    for cores in (1, 2, 8):
        monkeypatch.setattr(_platform, "usable_cores", lambda n=cores: n)
        supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, [0.0, 0.1, -0.1, 0.2], N=24)
    assert sizes == [1, 2, 3]  # never more workers than distinct |k|


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_outputs_do_not_depend_on_openblas_num_threads(tmp_path, kind):
    blas_threads()
    src = Path(__file__).resolve().parents[1] / "src"
    runs = []
    for threads in (None, "1", "2"):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(src)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / str(threads)
        result = subprocess.run([sys.executable, "-m", "edgelab", "spectrum", *_SPECTRUM_ARGV[kind],
                                 "--out", "o"], cwd=tmp_path, env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        (tmp_path / "o").rename(out)
        runs.append([(out / name).read_bytes() for name in ("spectrum.csv", "summary.json")])
    assert runs[0] == runs[1] == runs[2]


def test_solve_restores_the_callers_blas_thread_count(monkeypatch):
    get, set_ = blas_threads()
    saved = get()
    try:
        for threads in (1, 2, 3):
            set_(threads)
            supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, [0.0, 0.5, 1.0], N=24)
            assert get() == threads

        def failing(*args):
            raise FloatingPointError("solve failed")

        monkeypatch.setattr(spectrum, "_solve_one", failing)
        set_(2)
        with pytest.raises(FloatingPointError, match="solve failed"):
            supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, [0.0, 0.5, 1.0], N=24)
        assert get() == 2
    finally:
        set_(saved)


def test_concurrent_callers_keep_the_pin_and_the_count(monkeypatch):
    get, set_ = blas_threads()
    saved = get()
    kg = [0.0, 0.3, 0.7, 1.1]
    solve = spectrum._solve_one

    def slow(*args):  # every caller's solve overlaps the others'
        time.sleep(0.05)
        return solve(*args)

    monkeypatch.setattr(spectrum, "_solve_one", slow)
    interval = sys.getswitchinterval()
    try:
        set_(2)
        alone = supercell_spectrum(InterfaceKind.TYPE_I, MIXED, None, kg, N=24)
        sys.setswitchinterval(1e-6)
        # more callers than cores
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            tables = list(pool.map(lambda _: supercell_spectrum(InterfaceKind.TYPE_I, MIXED, None, kg, N=24),
                                   range(4), timeout=120))
        assert get() == 2
        for table in tables:
            assert table.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
            assert table.localization.tobytes() == alone.localization.tobytes()
    finally:
        sys.setswitchinterval(interval)
        set_(saved)


def test_workers_see_the_callers_errstate(record_solves):
    with np.errstate(over="raise"):
        supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, [0.0, 0.5, 1.0], N=24)
    with np.errstate(over="ignore"):
        supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, [0.0, 0.5, 1.0], N=24)
    assert [over for _, over in record_solves] == ["raise"] * 3 + ["ignore"] * 3


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_sequential_fallback_without_the_symbol(monkeypatch, record_solves, kind):
    get, set_ = blas_threads()
    kg = [0.0, 0.5, -0.5, 1.5, -1.5]
    pooled = supercell_spectrum(kind, MIXED, None, kg, N=24)
    saved = get()
    monkeypatch.setattr(_platform, "openblas", lambda: None)
    seen = []
    solve = spectrum._solve_one
    monkeypatch.setattr(spectrum, "_solve_one", lambda *args: (seen.append(get()), solve(*args))[1])
    try:
        for threads in (1, 2):
            set_(threads)
            seen.clear()
            record_solves.clear()
            table = supercell_spectrum(kind, MIXED, None, kg, N=24)
            # 3 distinct |k|, solved on the caller's thread at the caller's count
            assert seen == [threads] * 3 and get() == threads
            assert [ident for ident, _ in record_solves] == [threading.get_ident()] * 3
            if threads == 1:  # the count the pin sets: the energies agree bitwise
                assert table.eigenvalues.tobytes() == pooled.eigenvalues.tobytes()
                assert table.kept.tobytes() == pooled.kept.tobytes()
                np.testing.assert_allclose(table.localization, pooled.localization, rtol=0,
                                           atol=_LOCALIZATION_ATOL)
    finally:
        set_(saved)


class _Lacking:
    """A loaded library with one symbol missing."""

    def __init__(self, lib, missing):
        self.lib, self.missing = lib, missing

    def __getattr__(self, name):
        if name == self.missing:
            raise AttributeError(name)
        return getattr(self.lib, name)


def test_without_the_library_nothing_is_pinned_or_bound(monkeypatch):
    def no_library(*args, **kwargs):
        raise OSError("no such library")

    _platform.openblas.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", no_library)
    try:
        assert _platform.openblas() is None
        with _platform.one_blas_thread() as pinned:
            assert pinned is False
    finally:
        monkeypatch.undo()
        _platform.openblas.cache_clear()


@pytest.mark.parametrize("missing", ["scipy_LAPACKE_zunmbr64_", "scipy_openblas_set_num_threads64_"])
def test_a_library_lacking_one_routine_binds_nothing_and_neither_pins_nor_pools(
        monkeypatch, record_solves, missing):
    get, set_ = blas_threads()
    cdll = ctypes.CDLL

    def pools(*args, **kwargs):
        raise AssertionError("a pool was made")

    _platform.openblas.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: _Lacking(cdll(*args, **kwargs), missing))
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pools)
    saved = get()
    try:
        assert _platform.openblas() is None
        with pytest.raises(AssertionError, match="lacks a routine"):  # fails, not skips
            blas_threads()
        set_(2)
        with _platform.one_blas_thread() as pinned:
            assert pinned is False and get() == 2
        supercell_spectrum(InterfaceKind.TYPE_I, MIXED, None, [0.0, 0.5, -0.5], N=24)
        assert get() == 2
        assert [ident for ident, _ in record_solves] == [threading.get_ident()] * 2
    finally:
        set_(saved)
        monkeypatch.undo()
        _platform.openblas.cache_clear()


# the largest localization difference between the LAPACK route and np.linalg.svd,
# measured 1.1e-15 over the cases of test_lapack_route_matches_the_svd (1.6e-15 over
# seeds 0-11)
_LOCALIZATION_ATOL = 1e-14


@pytest.mark.parametrize("kind", list(InterfaceKind))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("N", [24, 40])
# 1e+-200 take gesdd's scaling of the block into its safe range
@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
def test_lapack_route_matches_the_svd(monkeypatch, kind, seed, N, scale):
    # real blocks, complex type-I blocks and the zero-mode clusters of k = 0
    profile = _gapped_profile(np.random.default_rng(seed), scale)
    kg = [0.0, 1e-4, 0.7, np.pi]
    table = supercell_spectrum(kind, profile, None, kg, N=N)
    # the other route at the count the pin sets, so that only the SVD differs
    with _platform.one_blas_thread():
        monkeypatch.setattr(_platform, "openblas", lambda: None)
        reference = supercell_spectrum(kind, profile, None, kg, N=N)
    assert table.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
    assert table.kept.tobytes() == reference.kept.tobytes()
    np.testing.assert_allclose(table.localization, reference.localization, rtol=0,
                               atol=_LOCALIZATION_ATOL)


def test_the_bundled_openblas_takes_the_lapack_route(monkeypatch):
    # a numpy wheel that renamed one bound symbol would fall back to the slower
    # SVD and leave spectrum and evolve unpinned; blas_threads fails on it
    blas_threads()

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for kind in InterfaceKind:
        evals, _ = spectrum._solve_one(kind, MIXED, 0.3, 24, 5)
        assert np.isfinite(evals).all()


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_lapack_route_matches_the_svd_fallback(tmp_path, monkeypatch, kind):
    blas_threads()
    lapack = _run_spectrum(_SPECTRUM_ARGV[kind], tmp_path / "lapack", monkeypatch)
    with _platform.one_blas_thread():  # as above
        monkeypatch.setattr(_platform, "openblas", lambda: None)
        fallback = _run_spectrum(_SPECTRUM_ARGV[kind], tmp_path / "svd", monkeypatch)
    assert lapack[1] == fallback[1]  # summary.json
    columns = []
    for csv in (lapack[0], fallback[0]):
        rows = [line.split(b",") for line in csv.splitlines()]
        columns.append(([row[:3] + row[4:] for row in rows], np.array([float(row[3]) for row in rows[1:]])))
    assert columns[0][0] == columns[1][0]  # k, eig_index, energy, kept
    np.testing.assert_allclose(columns[0][1], columns[1][1], rtol=0, atol=_LOCALIZATION_ATOL)


def test_empty_grid_is_refused():
    with pytest.raises(ValueError, match="at least one point"):
        supercell_spectrum(InterfaceKind.TYPE_II, MIXED, None, [], N=24)


@pytest.mark.parametrize("kind", list(InterfaceKind))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_chiral_block_matches_the_sliced_operator(kind, seed):
    # random gapped profiles of either detuning sign, every k class, two sizes
    profile = _gapped_profile(np.random.default_rng(seed))
    for k in (0.0, 0.1, 0.7, 2.0, np.pi):
        for N in (20, 48):
            block, expected = _chiral_block(kind, profile, k, N), chiral_block(kind, profile, k, N)
            assert block.dtype == expected.dtype and block.shape == expected.shape
            assert block.tobytes() == expected.tobytes(), (k, N)
