import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgelab.errors import DegenerateGapless, NotAZeroMode
from edgelab.hamiltonian import HoppingProfile, bloch_h1, bloch_h2
from edgelab import transfer
from edgelab.lattice import InterfaceKind
from edgelab.transfer import (
    _geometric_sublattice_a,
    _xi_mode,
    a_matrices,
    boundary_a1,
    boundary_a6,
    build_type1_zero_modes,
    build_type2_zero_modes,
    matching_c_star,
    matching_coupling,
    p_eigen,
    p_elements,
    propagation_matrix,
    q_boundary_matrices,
    q_eigen,
    q_matrix,
    type1_zero_exists,
    type2_zero_exists,
)

from coefficient_rows import coeffs_type2

params = st.tuples(
    st.floats(min_value=0.5, max_value=100.0),
    st.floats(min_value=-0.9, max_value=2.0),
    st.floats(min_value=-np.pi, max_value=np.pi - 1e-9),
)


# ---------------------------------------------------------------------------
# A matrices and the propagation matrix
# ---------------------------------------------------------------------------

def test_a_matrix_displays():
    b, eps, k = 7.0, 2.0, 0.4
    A1, A2, A3, A4, A5, A6 = a_matrices(b, eps, k)
    assert np.allclose(A4, [[-b, -b], [0, -(b + eps)]])
    assert abs(np.linalg.det(A2) - b * b) < 1e-12
    flat = np.concatenate([m.ravel() for m in a_matrices(b, 0.0, 0.0)])
    assert set(np.round(flat.real, 12)) <= {0.0, -b}


def test_intermediate_product_displays():
    # the three displayed two-step maps, written out entrywise in the proof
    b, eps, k = 5.0, 1.5, -0.8
    be = b + eps
    ep, em = np.exp(1j * k), np.exp(-1j * k)
    A1, A2, A3, A4, A5, A6 = a_matrices(b, eps, k)
    m21 = np.array([[b**2 - b * be * ep, -be**2], [b**2, b * be * em]]) / b**2
    assert np.allclose(np.linalg.solve(A2, A1), m21, atol=1e-12)
    m43 = np.array([[be**2 * em - b**2, -b**2], [b**2, b**2]]) / (b * be)
    assert np.allclose(np.linalg.solve(A4, A3), m43, atol=1e-12)
    m65 = np.array([[b**2 - b * be * ep, -b**2], [be**2 * ep, b * be]]) / (b * be)
    assert np.allclose(np.linalg.solve(A6, A5), m65, atol=1e-12)


def test_propagation_identity_case():
    assert np.allclose(propagation_matrix(1.0, 0.0, 0.0), np.eye(2), atol=1e-14)


def test_trace_value_against_formula():
    # trace formula (2b/(b+eps) + (b+eps)^2/b^2 - 1)^2 - 2 at (60, 30, 0) is 673/144;
    # the five-matrix product must reproduce it
    P = propagation_matrix(60.0, 30.0, 0.0)
    assert abs(np.trace(P).real - 673.0 / 144.0) < 1e-12
    assert abs(np.trace(P).imag) < 1e-12


@settings(max_examples=150, deadline=None)
@given(params)
def test_determinant_identity(p):
    b, ratio, k = p
    P = propagation_matrix(b, ratio * b, k)
    assert abs(np.linalg.det(P) - np.exp(-2j * k)) < 1e-11


@settings(max_examples=150, deadline=None)
@given(params)
def test_closed_form_matches_product(p):
    b, ratio, k = p
    P = propagation_matrix(b, ratio * b, k)
    alpha, beta, gamma = p_elements(b, ratio * b, k)
    Pc = np.array([[alpha, beta], [-np.exp(1j * k) * beta, gamma]])
    assert np.abs(P - Pc).max() < 1e-12 * max(1.0, np.abs(P).max())


def test_p_elements_identity_point_and_monotonicity():
    alpha, beta, gamma = p_elements(13.0, 0.0, 0.0)
    assert np.allclose([alpha, beta, gamma], [1.0, 0.0, 1.0], atol=1e-13)
    a30 = p_elements(60.0, 30.0, 0.0)[0].real
    a0 = p_elements(60.0, 0.0, 0.0)[0].real
    assert a30 < a0


def test_element_monotonicity_on_grid():
    b = 8.0
    eps = np.linspace(-0.9 * b, 2.0 * b, 117)
    vals = np.array([[x.real for x in p_elements(b, e, 0.0)] for e in eps])
    alpha, beta, gamma = vals.T
    assert np.all(np.diff(alpha) < 0)
    assert np.all(np.diff(beta) < 0)
    assert np.all(np.diff(gamma) > 0)
    for combo in (gamma - alpha - 2 * beta, gamma - alpha + 2 * beta, gamma - alpha):
        assert np.all(np.diff(combo) > 0)
    trace = alpha + gamma
    i0 = np.argmin(trace)
    assert abs(eps[i0]) <= (eps[1] - eps[0])  # unique minimum at eps = 0


# ---------------------------------------------------------------------------
# Eigen data of P
# ---------------------------------------------------------------------------

def test_p_eigen_against_brute_force():
    P = propagation_matrix(60.0, 30.0, 0.0)
    lam_oracle = sorted(np.linalg.eigvals(P), key=abs)
    r = p_eigen(60.0, 30.0, 0.0)
    assert abs(r.lambda1 - lam_oracle[0]) < 1e-10
    assert abs(r.lambda2 - lam_oracle[1]) < 1e-10
    # frozen from the brute-force oracle
    assert abs(r.lambda1.real - 0.22477804520553413) < 1e-10
    assert abs(r.lambda1 * r.lambda2 - 1.0) < 1e-12


def test_p_eigen_f1_sign_cases():
    b = 60.0
    for eps in np.concatenate([np.linspace(-0.9 * b, -0.02 * b, 40),
                               np.linspace(0.02 * b, 2.0 * b, 40)]):
        f1 = p_eigen(b, eps, 0.0).f1
        if eps < 0:
            assert f1 < -1
        else:
            assert -1 < f1 < 0
    assert p_eigen(60.0, 30.0, 0.0).f1 == pytest.approx(-0.2815485941376181, abs=1e-12)
    assert p_eigen(60.0, -30.0, 0.0).f1 == pytest.approx(-5.3117376914899, abs=1e-10)


def test_p_eigen_vector_convention_and_degenerate_error():
    r = p_eigen(2.0, 1.0, 0.7)
    assert r.v1[0] == 1.0 and r.v2[0] == 1.0
    for lam, v in ((r.lambda1, r.v1), (r.lambda2, r.v2)):
        P = propagation_matrix(2.0, 1.0, 0.7)
        assert np.abs(P @ v - lam * v).max() < 1e-10
    with pytest.raises(DegenerateGapless):
        p_eigen(5.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Matching condition and type-I zero modes
# ---------------------------------------------------------------------------

def _alignment_defect(profile, c):
    rp = p_eigen(profile.b_plus, profile.delta_plus, 0.0)
    rm = p_eigen(profile.b_minus, profile.delta_minus, 0.0)
    scale = (profile.b_plus + profile.delta_plus) * (profile.b_minus + profile.delta_minus) / c**2
    w = rp.v1 * np.array([1.0, scale])
    return (w[0] * rm.v2[1] - w[1] * rm.v2[0]).real


@pytest.mark.parametrize("dp,dm,c_star_frozen", [
    (30.0, 30.0, 25.33937347238563),
    (30.0, -30.0, 63.544340067076796),
    (-30.0, -30.0, 159.352130744697),
])
def test_matching_c_star(dp, dm, c_star_frozen):
    profile = HoppingProfile(60, 60, dp, dm, 50.0)
    c_star = matching_c_star(profile)
    assert c_star == pytest.approx(c_star_frozen, rel=1e-12)
    # oracle 1: the tuned supercell has a kernel vector
    H = bloch_h1(profile.with_c(c_star), 0.0, 50).matrix
    assert np.abs(np.linalg.eigvalsh(H)).min() < 1e-8 * 60
    # oracle 2: the alignment defect changes sign exactly once over a c-scan
    cs = np.linspace(5.0, 200.0, 120)
    signs = np.sign([_alignment_defect(profile, c) for c in cs])
    assert np.count_nonzero(np.diff(signs)) == 1


def test_symmetric_case_collapses():
    profile = HoppingProfile(60, 60, 30, 30, 50.0)
    f1 = p_eigen(60.0, 30.0, 0.0).f1
    assert matching_c_star(profile) == pytest.approx(90.0 * abs(f1), rel=1e-13)


@pytest.mark.parametrize("profile", [
    HoppingProfile(60, 60, 30, -30, 50.0),
    HoppingProfile(47.5, 71.25, -18.0, 33.5, 50.0),
    HoppingProfile(1e-3, 2e3, 5e-4, -7e2, 50.0),
])
def test_matching_coupling_returns_the_slopes_behind_c_star(profile):
    c_star, f1p, f1m = matching_coupling(profile)
    assert c_star == matching_c_star(profile)
    assert f1p == p_eigen(profile.b_plus, profile.delta_plus, 0.0).f1
    assert f1m == p_eigen(profile.b_minus, profile.delta_minus, 0.0).f1


def test_matching_requires_detuning():
    with pytest.raises(DegenerateGapless):
        matching_c_star(HoppingProfile(60, 60, 0.0, 30, 50.0))


def test_type1_zero_exists_cases():
    profile = HoppingProfile(60, 60, 30, 30, 50.0)
    c_star = matching_c_star(profile)
    assert type1_zero_exists(profile, c_star, 0.0)
    assert not type1_zero_exists(profile, 50.0, 0.0)
    mixed = HoppingProfile(60, 60, 30, -30, 50.0)
    assert type1_zero_exists(mixed, matching_c_star(mixed), 0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1.0, max_value=80.0),
       st.floats(min_value=1.0, max_value=80.0),
       st.sampled_from([(1, 1), (1, -1), (-1, -1), (-1, 1)]),
       st.floats(min_value=0.05, max_value=0.85),
       st.floats(min_value=0.05, max_value=0.85))
def test_tuned_coupling_always_admits_modes(bp, bm, signs, rp, rm):
    # both topologically distinct and identical pairings admit type-I zero
    # modes once c is tuned
    profile = HoppingProfile(bp, bm, signs[0] * rp * bp, signs[1] * rm * bm, 1.0)
    c_star = matching_c_star(profile)
    assert c_star > 0
    assert type1_zero_exists(profile, c_star, 0.0)


def test_build_type1_zero_modes():
    profile = HoppingProfile(60, 60, 30, -30, 50.0)
    tuned = profile.with_c(matching_c_star(profile))
    mode_a, mode_b = build_type1_zero_modes(tuned)
    assert mode_a.residual < 1e-10 and mode_b.residual < 1e-10
    assert 0 < mode_a.decay_rate < 1
    # support structure: A on sublattice (4,5,6), B = T(0) A on (1,2,3)
    for n, row in mode_a.amplitudes.items():
        assert np.abs(row[:3]).max() == 0.0
        assert np.abs(row - row.real).max() == 0.0
    overlap = sum(np.vdot(mode_a.amplitudes[n], mode_b.amplitudes[n])
                  for n in mode_a.amplitudes)
    assert abs(overlap) < 1e-14
    # sign lemma u6_n * u4_{n+1} < 0 wherever both are resolved
    ns = sorted(mode_a.amplitudes)
    peak = max(np.abs(v).max() for v in mode_a.amplitudes.values())
    for n in ns[:-1]:
        u6 = mode_a.amplitudes[n][5].real
        u4 = mode_a.amplitudes[n + 1][3].real
        if min(abs(u6), abs(u4)) > 1e-10 * peak:
            assert u6 * u4 < 0


def test_type1_even_pair_decay_matches_lambda1():
    profile = HoppingProfile(60, 60, 30, -30, 50.0)
    tuned = profile.with_c(matching_c_star(profile))
    mode_a, _ = build_type1_zero_modes(tuned)
    lam1 = p_eigen(60.0, 30.0, 0.0).lambda1.real
    u4 = {n: v[3].real for n, v in mode_a.amplitudes.items()}
    for m in range(1, 6):
        assert u4[2 * m + 2] / u4[2 * m] == pytest.approx(lam1, rel=1e-9)


def test_build_type1_rejects_untuned_coupling():
    with pytest.raises(NotAZeroMode):
        build_type1_zero_modes(HoppingProfile(60, 60, 30, -30, 50.0))


def test_type1_modes_of_random_profiles():
    # b and |delta| unequal across the interface and all four sign pairings,
    # so that a lower half built from the wrong material, without the
    # sublattice reversal or without the scale cannot pass
    rng = np.random.default_rng(17)
    N = 60
    for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)] * 2:
        bp, bm = rng.uniform(20.0, 50.0), rng.uniform(60.0, 90.0)
        rp, rm = rng.uniform(0.25, 0.45), rng.uniform(0.55, 0.8)
        if rng.random() < 0.5:
            (bp, rp), (bm, rm) = (bm, rm), (bp, rp)
        profile = HoppingProfile(bp, bm, signs[0] * rp * bp, signs[1] * rm * bm, 1.0)
        profile = profile.with_c(matching_c_star(profile))
        mode_a, mode_b = build_type1_zero_modes(profile)
        H = bloch_h1(profile, 0.0, N).matrix
        for mode in (mode_a, mode_b):
            v = mode.as_vector(N)
            assert np.linalg.norm((H @ v)[6 * 3:-6 * 3]) / np.linalg.norm(v) < 1e-10
            peak = max(np.linalg.norm(row) for row in mode.amplitudes.values())
            for n, row in mode.amplitudes.items():
                assert np.linalg.norm(row) <= 4.0 * peak * mode.decay_rate ** (abs(n) / 2.0)
        assert np.abs(mode_a.cells[:, :3]).max() == 0
        assert np.abs(mode_b.cells[:, 3:]).max() == 0
        u = {n: row.real for n, row in mode_a.amplitudes.items()}
        for n in sorted(u)[:-1]:
            if min(abs(u[n][5]), abs(u[n + 1][3])) > 1e-10 * peak:
                assert u[n][5] * u[n + 1][3] < 0
        # cell -1 from the interface rows: A_5 (u5, u4)(-1) + A~_6 (u4(0), u6(-1)) = 0
        A5 = np.real(a_matrices(bm, profile.delta_minus, 0.0)[4])
        expect = -np.linalg.solve(A5, np.real(boundary_a6(bm, profile.c))) @ [u[0][3], u[-1][5]]
        assert np.abs(u[-1][[4, 3]] - expect).max() < 1e-12 * np.abs(expect).max()


def test_type1_slow_decay_is_built_or_refused_whole():
    # (60, 60, 1, -1) needs about 1290 cells a side, (60, 60, 0.01, -0.01) more
    # than the 20,000-cell limit
    profile = HoppingProfile(60, 60, 1.0, -1.0, 1.0)
    for mode in build_type1_zero_modes(profile.with_c(matching_c_star(profile))):
        assert mode.residual < 1e-10
        assert mode.support()[0] < -1000 and mode.support()[1] > 1000
    profile = HoppingProfile(60, 60, 0.01, -0.01, 1.0)
    with pytest.raises(NotAZeroMode, match="128179 cells"):
        build_type1_zero_modes(profile.with_c(matching_c_star(profile)))


def test_p_eigen_small_root_against_inverse_product():
    # lambda1 = 1 / (largest eigenvalue of P^-1), with P^-1 = -A1^-1 A2 A3^-1 A4 A5^-1 A6
    # from the explicit matrices; the root formula alone loses digits here
    for eps in (-5.0, -9.0, -9.9, -9.99, 30.0):
        A1, A2, A3, A4, A5, A6 = a_matrices(10.0, eps, 0.0)
        Pinv = -np.linalg.solve(A1, A2 @ np.linalg.solve(A3, A4 @ np.linalg.solve(A5, A6)))
        oracle = 1.0 / max(np.linalg.eigvals(Pinv), key=abs)
        assert abs(p_eigen(10.0, eps, 0.0).lambda1 - oracle) < 1e-14 * abs(oracle)
    # the quadratic's smaller root is off by 2e-7 relative at eps = -9.9,
    # enough to leave this mode a kernel residual of 7e-9
    profile = HoppingProfile(10, 20, -9.9, 5, 1.0)
    for mode in build_type1_zero_modes(profile.with_c(matching_c_star(profile))):
        assert mode.residual < 1e-13


# ---------------------------------------------------------------------------
# Q machinery and type-II zero modes
# ---------------------------------------------------------------------------

def test_q_matrix_display():
    b, eps = 60.0, 30.0
    Q = np.real(q_matrix(b, eps, 0.0))
    s = b**2 / (b + eps) ** 2
    assert np.allclose(Q[2], [s, s, 0.0])
    for k in (0.0, 0.9):
        assert abs(np.linalg.det(q_matrix(b, eps, k))) > 0.1


def test_q_boundary_matrix_entries():
    profile = HoppingProfile(60, 60, 30, -30, 50.0)
    qa_m1, qa_m2, qb_0, qb_m1 = q_boundary_matrices(profile, 0.0)
    assert qa_m2[2, 0] == pytest.approx(60.0 * 60.0 / 50.0**2)
    assert qa_m1[0, 1] == pytest.approx(-50.0 / 60.0)
    assert qb_0[0, 1] == pytest.approx(-(60.0 + 30.0) / 60.0)
    assert qb_m1[2, 0] == pytest.approx(60.0**2 / ((60.0 - 30.0) * 50.0))


def test_q_eigen_closed_forms():
    r = q_eigen(60.0, 30.0)
    assert r.mu3 == pytest.approx(1.5)
    # frozen from the brute-force 3x3 eigendecomposition
    assert r.mu1 == pytest.approx(-2.1268926368215255, abs=1e-12)
    assert r.mu2 == pytest.approx(0.6268926368215255, abs=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(200):
        b = rng.uniform(1.0, 100.0)
        eps = b * rng.uniform(-0.9, 2.0)
        r = q_eigen(b, eps)
        Q = np.real(q_matrix(b, eps, 0.0))
        oracle = np.sort(np.linalg.eigvals(Q).real)
        assert np.abs(np.sort([r.mu1, r.mu2, r.mu3]) - oracle).max() < 1e-10 * max(1, abs(r.mu1))
        assert r.mu1 < -2
        if eps < 0:
            assert r.mu2 > 1
        elif eps > 0:
            assert 0 < r.mu2 < 1
        assert r.t1 == pytest.approx(-(b + eps) / (r.mu2 * b), rel=1e-12)
        assert r.t2 == pytest.approx(-(b + eps) / (r.mu1 * b), rel=1e-12)
        for mu, v in ((r.mu1, r.v1), (r.mu2, r.v2), (r.mu3, r.v3)):
            assert np.abs(Q @ v - mu * v).max() < 1e-9 * max(1.0, abs(mu))


def test_type2_existence_dichotomy():
    assert type2_zero_exists(HoppingProfile(60, 60, 30, -30, 50.0))
    assert type2_zero_exists(HoppingProfile(60, 60, -30, 30, 50.0))
    assert not type2_zero_exists(HoppingProfile(60, 60, 30, 30, 50.0))
    assert not type2_zero_exists(HoppingProfile(60, 60, -30, -30, 50.0))
    with pytest.raises(DegenerateGapless):
        type2_zero_exists(HoppingProfile(60, 60, 0.0, 30, 50.0))


def test_build_type2_rejects_identical_materials():
    with pytest.raises(NotAZeroMode):
        build_type2_zero_modes(HoppingProfile(60, 60, 30, 30, 50.0))


def test_type2_modes_structure_and_signs():
    profile = HoppingProfile(60, 60, 30, -30, 50.0)
    mode_a, mode_b = build_type2_zero_modes(profile)
    assert mode_a.residual < 1e-10 and mode_b.residual < 1e-10
    for n, row in mode_a.amplitudes.items():
        x = row[3].real
        assert x > 0
        assert row[4] == 0 and np.abs(row[:3]).max() == 0
        assert row[5].real == pytest.approx(-x)
    for n, row in mode_b.amplitudes.items():
        y, z = row[0].real, row[1].real
        assert y < 0
        assert row[2].real == pytest.approx(y)
        assert np.abs(row[3:]).max() == 0
    _ = z


def test_type2_plus_side_geometric_decay():
    profile = HoppingProfile(60, 60, 30, -30, 50.0)
    mode_a, _ = build_type2_zero_modes(profile)
    mu3 = q_eigen(60.0, 30.0).mu3
    for n in range(0, 8):
        ratio = mode_a.amplitudes[n][3].real / mode_a.amplitudes[n + 1][3].real
        assert ratio == pytest.approx(mu3, rel=1e-12)
    # crossing the interface rows: x_{-2}/x_0 = c t_- / b_-
    tm = (60.0 - 30.0) / 60.0
    assert mode_a.amplitudes[-2][3].real / mode_a.amplitudes[0][3].real == pytest.approx(
        50.0 * tm / 60.0, rel=1e-12)


def test_type2_fills_match_their_row_recursions():
    # the array fills against the cell-by-cell recursions they replace:
    # x_{n+1} = (b_n / c_n) x_n from the coefficient rows, xi_{n+1} = mu2 xi_n
    # on the + side, the q_eigen powers below the two interface rows
    profile = HoppingProfile(47, 71, 20, -33, 52)
    qp, qm = q_eigen(47, 20), q_eigen(71, -33)
    M = 12
    x = np.empty(2 * M + 1)
    x[M] = 1.0
    for n in range(M):
        row = coeffs_type2(profile, n)
        x[M + n + 1] = (row.b / row.c) * x[M + n]
    for n in range(0, -M, -1):
        row = coeffs_type2(profile, n - 1)
        x[M + n - 1] = (row.c / row.b) * x[M + n]
    assert np.array_equal(_geometric_sublattice_a(profile, M), x)

    _, _, qb0, qbm1 = (np.real(m) for m in q_boundary_matrices(profile, 0.0))
    xi = np.empty((2 * M + 1, 3))
    xi[M + 1] = qp.v2
    for n in range(1, M):
        xi[M + n + 1] = qp.mu2 * xi[M + n]
    xi[M] = np.linalg.solve(qb0, xi[M + 1])
    xi[M - 1] = np.linalg.solve(qbm1, xi[M])
    h5, h6 = np.linalg.solve([[qm.t1, qm.t2], [1.0, 1.0]], xi[M - 1, [0, 2]])
    for n in range(-2, -M - 1, -1):
        xi[M + n] = h5 * qm.mu1 ** (n + 1) * qm.v1 + h6 * qm.mu2 ** (n + 1) * qm.v2
    got, expected = np.stack(_xi_mode(profile, qp, qm, M)), np.stack([xi[:, 0] - xi[:, 2], xi[:, 2]])
    # cells n >= -1 repeat the loop's arithmetic; below them numpy's array
    # power may round differently from the scalar one
    assert np.array_equal(got[:, M - 1:], expected[:, M - 1:])
    assert np.abs(got - expected).max() <= 4 * np.finfo(float).eps * np.abs(expected).max()


def test_type2_modes_mirrored_pattern():
    profile = HoppingProfile(60, 60, -30, 30, 50.0)
    mode_a, mode_b = build_type2_zero_modes(profile)
    assert mode_a.residual < 1e-10 and mode_b.residual < 1e-10
    # sublattice supports as for the other orientation, components swapped
    for row in mode_a.amplitudes.values():
        assert np.abs(row[:3]).max() == 0
        assert row[5].real == pytest.approx(row[3].real)
    for row in mode_b.amplitudes.values():
        assert np.abs(row[3:]).max() == 0
        assert row[1] == 0
        assert row[2].real == pytest.approx(-row[0].real)


def test_type2_modes_of_random_inverted_profiles():
    # delta_plus < 0 < delta_minus with b and |delta| unequal across the
    # interface, so that swapping only b, only delta or reflecting n -> -n
    # in place of the inversion n -> -1 - n cannot pass
    rng = np.random.default_rng(91)
    N = 60
    for _ in range(6):
        bp, bm = rng.uniform(40.0, 80.0, 2)
        profile = HoppingProfile(bp, bm, -rng.uniform(0.3, 0.6) * bp,
                                 rng.uniform(0.3, 0.9) * bm, rng.uniform(30.0, 70.0))
        mode_a, mode_b = build_type2_zero_modes(profile)
        assert (mode_a.label, mode_b.label) == ("A", "B")
        H = bloch_h2(profile, 0.0, N).matrix
        for mode in (mode_a, mode_b):
            v = mode.as_vector(N)
            assert np.linalg.norm((H @ v)[6 * 3:-6 * 3]) / np.linalg.norm(v) < 1e-10
            peak = max(np.linalg.norm(row) for row in mode.amplitudes.values())
            for n, row in mode.amplitudes.items():
                assert np.linalg.norm(row) <= 4.0 * peak * mode.decay_rate ** (abs(n) / 2.0)
        for row in mode_a.amplitudes.values():
            assert np.abs(row[:3]).max() == 0
            assert row[5].real == pytest.approx(row[3].real)
        for row in mode_b.amplitudes.values():
            assert np.abs(row[3:]).max() == 0
            assert row[1] == 0
            assert row[2].real == pytest.approx(-row[0].real)


def test_zero_mode_envelope_bound():
    profile = HoppingProfile(60, 60, 30, -30, 50.0)
    for mode in build_type2_zero_modes(profile) + build_type1_zero_modes(
            profile.with_c(matching_c_star(profile))):
        peak = max(np.linalg.norm(v) for v in mode.amplitudes.values())
        for n, v in mode.amplitudes.items():
            bound = 4.0 * peak * mode.decay_rate ** (abs(n) / 2.0)
            assert np.linalg.norm(v) <= bound + 1e-300


@pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf, 1e308, 4.0, -4.0])
def test_k_outside_the_zone_is_rejected(k):
    with pytest.raises(ValueError):
        p_eigen(60.0, 30.0, k)
    # unchecked, a NaN k reaches the beta = 0 branch of _p_vector and the
    # verdict comes out True; at k = 1e308 exp(2ik) is NaN
    with pytest.raises(ValueError):
        type1_zero_exists(HoppingProfile(60, 60, 30, -30, 50), 50.0, k)


@pytest.mark.parametrize("b, eps", [
    (np.nan, 30.0), (60.0, np.nan), (np.inf, 30.0), (60.0, np.inf), (60.0, -np.inf),
    (1e308, 1e308),  # finite terms whose sum b + eps overflows
])
@pytest.mark.parametrize("call", [
    lambda b, eps: a_matrices(b, eps, 0.3),
    lambda b, eps: propagation_matrix(b, eps, 0.3),
    lambda b, eps: p_elements(b, eps, 0.3),
    lambda b, eps: p_eigen(b, eps, 0.0),
    lambda b, eps: q_matrix(b, eps, 0.3),
    q_eigen,
], ids=["a_matrices", "propagation_matrix", "p_elements", "p_eigen", "q_matrix", "q_eigen"])
def test_non_finite_material_is_rejected(call, b, eps):
    # NaN fails every comparison, so a sign check alone lets it through; an
    # infinite b must not reach p_eigen's gapless test b + eps == b
    with pytest.raises(ValueError, match=r"need b > 0 and b \+ eps > 0"):
        call(b, eps)


@pytest.mark.parametrize("kind, dp, dm", [
    (InterfaceKind.TYPE_I, 30.0, -30.0),
    (InterfaceKind.TYPE_II, 30.0, -30.0),
    (InterfaceKind.TYPE_II, -30.0, 30.0),
])
def test_zero_mode_amplitude_view(kind, dp, dm):
    profile = HoppingProfile(60, 60, dp, dm, 50.0)
    if kind is InterfaceKind.TYPE_I:
        modes = build_type1_zero_modes(profile.with_c(matching_c_star(profile)))
    else:
        modes = build_type2_zero_modes(profile)
    for mode in modes:
        amps = mode.amplitudes
        with pytest.raises(TypeError):
            amps[0] = np.zeros(6)
        assert mode.support() == (min(amps), max(amps))
        reach = max(map(abs, mode.support()))
        # truncation inside the support and zero padding beyond it
        for L in (reach // 2, reach + 3):
            ref = np.zeros(6 * (2 * L + 1), dtype=complex)
            for n, row in amps.items():
                if -L <= n <= L:
                    ref[6 * (n + L):6 * (n + L) + 6] = row
            assert np.array_equal(mode.as_vector(L), ref)


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_zero_modes_calls_the_kinds_builder_through_the_module(kind, monkeypatch):
    # the benchmark's tracer counts zero-mode constructions by replacing the
    # two builders in edgelab.transfer, so the dispatch must look them up there
    profile = HoppingProfile(60, 60, 30, -30, 50.0)
    if kind is InterfaceKind.TYPE_I:
        profile = profile.with_c(matching_c_star(profile))
    name = "build_type1_zero_modes" if kind is InterfaceKind.TYPE_I else "build_type2_zero_modes"
    build = getattr(transfer, name)
    calls = []
    monkeypatch.setattr(transfer, name, lambda p: calls.append(p) or build(p))
    modes = transfer.zero_modes(kind, profile)
    assert calls == [profile]
    for got, want in zip(modes, build(profile), strict=True):
        assert (got.kind, got.label, got.lo) == (kind, want.label, want.lo)
        assert got.cells.tobytes() == want.cells.tobytes()


def test_boundary_a_matrices():
    a1 = boundary_a1(60.0, 50.0, 0.3)
    assert a1[1, 1] == -50.0 * np.exp(-0.3j)
    a6 = boundary_a6(60.0, 50.0)
    assert a6[0, 0] == -50.0 and a6[0, 1] == -60.0
