import numpy as np
import pytest

from edgelab.hamiltonian import (
    HoppingProfile,
    bloch_h1,
    bloch_h2,
    chain_apply,
    chain_apply_first_order,
    chain_operator,
)
from edgelab import hamiltonian
from edgelab.lattice import InterfaceKind

import chain_oracle
from coefficient_rows import coeffs_type1, coeffs_type2
from symmetry_actions import apply_R, apply_T, apply_V

MIXED = HoppingProfile(60, 60, 30, -30, 50.0)
SAME = HoppingProfile(60, 60, 30, 30, 50.0)
HOMOG = HoppingProfile(60, 60, 30, 30, 90.0)  # c = b + delta: no interface at all


def _site(n, j, N):
    """Flat index of site (n, j) in chain_operator's layout 6 (n - lo) + j - 1, lo = -N."""
    return 6 * (n + N) + j - 1


def _derivative(kind, N):
    """dH/dk at k = 0 on the cells [-N, N], from the oracle: ``src/`` applies
    it only matrix-free."""
    return chain_oracle.chain_operator(kind, MIXED, -N, N, derivative=True)


def test_profile_invariants():
    with pytest.raises(ValueError):
        HoppingProfile(0, 60, 30, 30, 50)
    with pytest.raises(ValueError):
        HoppingProfile(60, 60, -60, 30, 50)
    with pytest.raises(ValueError):
        HoppingProfile(60, 60, 30, 30, 0)
    for bad in ((1e308, 60, 1e308, 30, 50),  # b + delta overflows to infinity
                (60, 1e308, 30, 1e308, 50), (60, 60, 30, 30, np.inf), (60, 60, 30, 30, np.nan),
                (60, 60, 30, 30, 1e-320), (1e-320, 60, 30, 30, 50)):  # subnormal hoppings
        with pytest.raises(ValueError):
            HoppingProfile(*bad)


def test_coeffs_type1_interface_row():
    row = coeffs_type1(SAME, 0)
    assert (row.a, row.b, row.c, row.d) == (50, 60, 90, 90)


def test_coeffs_type1_bulk_and_homogeneous():
    row = coeffs_type1(MIXED, 7)
    assert (row.a, row.b, row.c, row.d) == (90, 60, 90, 90)
    for n in range(-6, 7):
        row = coeffs_type1(HOMOG, n)
        assert (row.a, row.b, row.c, row.d) == (90, 60, 90, 90)


def test_coeffs_type2_interface_rows():
    row = coeffs_type2(MIXED, -1)
    assert (row.a, row.b, row.c, row.d) == (50, 60, 50, 50)
    row = coeffs_type2(MIXED, -2)
    assert row.a == 30 and row.d == 50  # d keeps the interface value two rows deep
    for n in range(-6, 7):
        row = coeffs_type2(HOMOG, n)
        assert (row.a, row.b, row.c, row.d) == (90, 60, 90, 90)


def test_small_supercells_rejected():
    with pytest.raises(ValueError):
        bloch_h1(MIXED, 0.0, 1)
    with pytest.raises(ValueError):
        bloch_h2(MIXED, 0.0, 3)


@pytest.mark.parametrize("build", [bloch_h1, bloch_h2])
@pytest.mark.parametrize("k", [0.0, 0.7, -2.9])
def test_hermitian_and_sparse_rows(build, k):
    op = build(MIXED, k, 7)
    H = op.matrix
    assert np.abs(H - H.conj().T).max() <= 1e-14 * np.abs(H).max()
    offdiag = (np.abs(H) > 0).sum(axis=1)
    assert offdiag.max() <= 3  # at most three bonds per site


@pytest.mark.parametrize("build", [bloch_h1, bloch_h2])
@pytest.mark.parametrize("k", [0.0, 1.3])
def test_chiral_symmetry_exact(build, k):
    H = build(MIXED, k, 6).matrix
    signs = np.tile([1, 1, 1, -1, -1, -1], H.shape[0] // 6).astype(float)
    V = np.diag(signs)
    assert np.abs(V @ H @ V + H).max() == 0.0
    evals = np.linalg.eigvalsh(H)
    assert np.abs(evals + evals[::-1]).max() < 1e-9 * np.abs(evals).max()


def test_real_symmetric_at_k0_homogeneous():
    for build in (bloch_h1, bloch_h2):
        H = build(HOMOG, 0.0, 6).matrix
        assert np.abs(H.imag).max() == 0.0
        assert np.abs(H - H.T).max() == 0.0


def test_bloch_h1_entries():
    k, N = 0.37, 6
    H = bloch_h1(MIXED, k, N).matrix
    for n in (-3, 0, 2):
        row = coeffs_type1(MIXED, n)
        prev = coeffs_type1(MIXED, n - 1)
        assert H[_site(n, 1, N), _site(n - 1, 6, N)] == -prev.c * np.exp(-1j * k)
        assert H[_site(n, 2, N), _site(n, 5, N)] == -row.d * np.exp(1j * k)
        assert H[_site(n, 5, N), _site(n, 2, N)] == -row.d * np.exp(-1j * k)


def test_bloch_h2_entries():
    k, N = -0.9, 6
    H = bloch_h2(MIXED, k, N).matrix
    for n in (-2, 0, 3):
        row = coeffs_type2(MIXED, n)
        two_below = coeffs_type2(MIXED, n - 2)
        assert H[_site(n, 2, N), _site(n - 2, 5, N)] == -two_below.d * np.exp(1j * k)
        assert H[_site(n, 1, N), _site(n + 1, 6, N)] == -row.c * np.exp(-1j * k)


def test_deep_bulk_rows_match_homogeneous_material():
    N = 8
    plus = HoppingProfile(60, 60, 30, 30, 90.0)   # homogeneous + material
    minus = HoppingProfile(60, 60, -30, -30, 30.0)  # homogeneous - material
    for build in (bloch_h1, bloch_h2):
        H = build(MIXED, 0.4, N).matrix
        Hp = build(plus, 0.4, N).matrix
        Hm = build(minus, 0.4, N).matrix
        for n in range(3, N - 2):
            i = _site(n, 1, N)
            assert np.abs(H[i:i + 6] - Hp[i:i + 6]).max() == 0.0
        for n in range(-N + 3, -2):
            i = _site(n, 1, N)
            assert np.abs(H[i:i + 6] - Hm[i:i + 6]).max() == 0.0


@pytest.mark.parametrize("k", [0.0, 0.9])
def test_t_commutes_with_h1(k):
    N = 9
    H = bloch_h1(MIXED, k, N).matrix
    rng = np.random.default_rng(11)
    u = rng.normal(size=H.shape[0]) + 1j * rng.normal(size=H.shape[0])
    lhs = H @ apply_T(k, u)
    rhs = apply_T(k, H @ u)
    interior = slice(2 * 6, (2 * N - 1) * 6)  # drop two boundary cells each end
    scale = np.abs(H).max()
    assert np.abs(lhs[interior] - rhs[interior]).max() < 1e-12 * scale


@pytest.mark.parametrize("k", [0.0, -1.7])
def test_r_commutes_with_h2(k):
    N = 9
    H = bloch_h2(MIXED, k, N).matrix
    rng = np.random.default_rng(12)
    w = rng.normal(size=H.shape[0]) + 1j * rng.normal(size=H.shape[0])
    lhs = H @ apply_R(k, w)
    rhs = apply_R(k, H @ w)
    interior = slice(2 * 6, (2 * N - 1) * 6)
    assert np.abs(lhs[interior] - rhs[interior]).max() < 1e-12 * np.abs(H).max()


def test_symmetry_involutions():
    rng = np.random.default_rng(13)
    u = rng.normal(size=6 * 11) + 1j * rng.normal(size=6 * 11)
    assert np.abs(apply_V(apply_V(u)) - u).max() == 0.0
    for k in (0.0, 0.4, -2.2):
        assert np.abs(apply_T(k, apply_T(k, u)) - u).max() < 1e-13
        assert np.abs(apply_R(k, apply_R(k, u)) - u).max() < 1e-13


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_inversion_swaps_the_materials(kind):
    # (n, j) -> (-1 - n, 7 - j) maps the chain onto the one with the two
    # materials swapped; it reverses the bond offsets, so k enters conjugated
    profile = HoppingProfile(47, 71, -20, 33, 52)
    swapped = HoppingProfile(71, 47, 33, -20, 52)
    N = 9

    def image(k):
        return chain_operator(kind, swapped, -N - 1, N - 1, k)[::-1, ::-1]

    assert np.array_equal(chain_operator(kind, profile, -N, N, 0.0), image(0.0))
    assert np.array_equal(chain_operator(kind, profile, -N, N, 0.37), np.conj(image(0.37)))


def test_type1_mirror_swaps_the_materials():
    # (n, j) -> (-1 - n, j') with 1 <-> 3, 4 <-> 6 and 2, 5 fixed keeps each
    # sublattice and maps the type-I chain onto the one with the two materials
    # swapped: exactly at k = 0, and up to the cell phase exp(-ikn) at k != 0
    profile = HoppingProfile(47, 71, -20, 33, 52)
    swapped = HoppingProfile(71, 47, 33, -20, 52)
    N = 9
    site = (6 * np.arange(2 * N + 1)[::-1, None] + [2, 1, 0, 5, 4, 3]).ravel()

    def pair(k):
        image = chain_operator(InterfaceKind.TYPE_I, swapped, -N - 1, N - 1, k)
        return chain_operator(InterfaceKind.TYPE_I, profile, -N, N, k), image[np.ix_(site, site)]

    H, image = pair(0.0)
    assert np.array_equal(H, image)
    k = 0.37
    H, image = pair(k)
    phase = np.repeat(np.exp(-1j * k * np.arange(-N, N + 1)), 6)
    assert np.abs(H - phase[:, None] * image * phase.conj()).max() < 1e-13 * np.abs(H).max()
    assert np.abs(H - image).max() > 1.0  # the phase is needed


def _first_order_id(value):
    """Name a Bloch operator in a test id together with its first-order
    term H^(1) = dH/dk at k = 0, e.g. bloch_h1-h1_first_order."""
    if value in (bloch_h1, bloch_h2):
        return f"{value.__name__}-h{value.__name__[-1]}_first_order"
    return None


@pytest.mark.parametrize("build", [bloch_h1, bloch_h2], ids=_first_order_id)
def test_first_order_is_k_derivative(build):
    N = 6
    H1 = _derivative(InterfaceKind.TYPE_I if build is bloch_h1 else InterfaceKind.TYPE_II, N)
    assert np.abs(H1 - H1.conj().T).max() == 0.0
    k = 1e-4
    fd = (build(MIXED, k, N).matrix - build(MIXED, 0.0, N).matrix) / k
    # Taylor remainder is O(k) with the hopping scale as prefactor
    assert np.abs(fd - H1).max() < 10 * k * 90


def test_first_order_zero_rows():
    N = 5
    for kind in InterfaceKind:
        H1 = _derivative(kind, N)
        for n in range(-N, N + 1):
            assert np.abs(H1[_site(n, 3, N)]).max() == 0.0
            assert np.abs(H1[_site(n, 4, N)]).max() == 0.0


def test_h2_first_order_row5_entry():
    N = 6
    H1 = _derivative(InterfaceKind.TYPE_II, N)
    for n in (-2, 0, 1):
        row = coeffs_type2(MIXED, n)
        assert H1[_site(n, 5, N), _site(n + 2, 2, N)] == 1j * row.d


@pytest.mark.parametrize("kind,build", [(InterfaceKind.TYPE_I, bloch_h1),
                                        (InterfaceKind.TYPE_II, bloch_h2)], ids=_first_order_id)
@pytest.mark.parametrize("k", [0.0])
def test_chain_apply_matches_dense_operator(kind, build, k):
    # matrix-free products of H(0) and dH/dk on a gappy support (zero rows at
    # -2, 1, 3, 4) against the dense window operators; the support and its
    # two-cell bond reach stay inside [-N, N]
    N, lo = 10, -3
    rng = np.random.default_rng(23)
    cells = np.zeros((9, 6), dtype=complex)
    cells[[n - lo for n in (-3, -1, 0, 2, 5)]] = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
    v = np.zeros((2 * N + 1, 6), dtype=complex)
    v[lo + N:lo + N + len(cells)] = cells
    v = v.ravel()
    # the image covers cells [lo - 2, lo + len(cells) + 1] = [-5, 7]
    window = slice((lo - 2 + N) * 6, (lo + len(cells) + 2 + N) * 6)
    scale = 90 * np.abs(v).max()

    image = chain_apply(kind, MIXED, lo, cells)
    assert image.shape == (len(cells) + 4, 6)
    expected = build(MIXED, k, N).matrix @ v
    assert np.abs(image.ravel() - expected[window]).max() < 1e-13 * scale
    assert not expected[:window.start].any() and not expected[window.stop:].any()

    image1 = chain_apply_first_order(kind, MIXED, lo, cells)
    expected1 = _derivative(kind, N) @ v
    assert np.abs(image1.ravel() - expected1[window]).max() < 1e-13 * scale


def _random_profile(rng):
    b_plus, b_minus = rng.uniform(1.0, 100.0, size=2)
    return HoppingProfile(b_plus, b_minus, rng.uniform(-0.9, 2.0) * b_plus,
                          rng.uniform(-0.9, 2.0) * b_minus, rng.uniform(0.1, 100.0))


def _random_window(rng, case):
    """lo and length of a window: wholly in the n < 0 bulk (image included),
    wholly in the n >= 0 bulk, straddling the interface, or one cell."""
    length = 1 if case % 4 == 3 else int(rng.integers(1, 351))
    lo = [-length - int(rng.integers(5, 40)), int(rng.integers(5, 40)),
          int(rng.integers(-length - 2, 3)), int(rng.integers(-6, 7))][case % 4]
    return lo, length


def _random_cells(rng, case, length):
    cells = rng.normal(size=(length, 6))
    if case % 3:
        cells = cells + 1j * rng.normal(size=(length, 6))  # else real-valued
    if case % 5 < 2:
        cells[:, rng.random(6) < 0.5] = 0.0  # zero sublattice columns
    return cells


_KS = (0.0, 0.3, -2.1, np.pi)


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_chain_apply_is_bitwise_the_slice_add_oracle(kind):
    rng = np.random.default_rng(16 if kind is InterfaceKind.TYPE_I else 61)
    for case in range(120):
        profile = _random_profile(rng)
        lo, length = _random_window(rng, case)
        cells = _random_cells(rng, case, length)
        derivative = case % 2 == 1
        expected = chain_oracle.chain_apply(kind, profile, lo, cells, 0.0, derivative)
        image = (chain_apply_first_order(kind, profile, lo, cells) if derivative
                 else chain_apply(kind, profile, lo, cells))
        assert image.shape == expected.shape and image.dtype == complex
        assert image.tobytes() == expected.tobytes(), (case, profile, lo, length, derivative)


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_chain_operator_is_bitwise_the_per_cell_oracle(kind):
    rng = np.random.default_rng(17 if kind is InterfaceKind.TYPE_I else 71)
    for case in range(100):
        profile = _random_profile(rng)
        lo, length = _random_window(rng, case)
        length = min(length, 40)
        k = _KS[case % 4] if case % 7 else float(rng.uniform(-np.pi, np.pi))
        H = chain_operator(kind, profile, lo, lo + length - 1, k)
        expected = chain_oracle.chain_operator(kind, profile, lo, lo + length - 1, k)
        assert H.tobytes() == expected.tobytes(), (case, profile, lo, length, k)


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_bond_table_is_cached_read_only_and_keeps_the_bits(kind):
    # the chain operators ask for few distinct (kind, profile, k, derivative)
    # keys; a repeated key reuses its read-only arrays, and H(k), H(0) and
    # dH/dk read the same bits from a cold and a warm cache
    hamiltonian._bond_tables.cache_clear()
    rng = np.random.default_rng(29)
    cells = _random_cells(rng, 1, 9)
    for k, derivative in [(0.3, False), (0.0, False), (-0.0, False), (0.0, True)] * 2:
        table = hamiltonian._bond_table(kind, MIXED, k, derivative)
        assert hamiltonian._bond_table(kind, MIXED, k, derivative) is table
        for array in table:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0
        if derivative:
            image = chain_apply_first_order(kind, MIXED, -3, cells)
            expected = chain_oracle.chain_apply(kind, MIXED, -3, cells, 0.0, True)
        else:
            H = chain_operator(kind, MIXED, -3, 5, k)
            assert H.tobytes() == chain_oracle.chain_operator(kind, MIXED, -3, 5, k).tobytes()
            image = chain_apply(kind, MIXED, -3, cells)  # H(0): the key (0.0, False)
            expected = chain_oracle.chain_apply(kind, MIXED, -3, cells)
        assert image.tobytes() == expected.tobytes()
    # -0.0 and 0.0 are two keys, since exp(i k dm) keeps the sign of a zero
    assert (hamiltonian._bond_table(kind, MIXED, -0.0, False)
            is not hamiltonian._bond_table(kind, MIXED, 0.0, False))
    info = hamiltonian._bond_tables.cache_info()
    assert (info.currsize, info.misses) == (4, 4) and info.maxsize <= 64


def test_chain_operator_allocates_before_building_entries(monkeypatch):
    # 3.6e6 sites: the dense matrix cannot exist, and no bond value is built
    calls = []
    monkeypatch.setattr(hamiltonian, "_bond_table", lambda *args: calls.append(args))
    with pytest.raises(MemoryError):
        chain_operator(InterfaceKind.TYPE_II, MIXED, -300000, 300000)
    assert calls == []


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_bulk_cell_blocks_fourier_sum_to_the_2d_bulk_hamiltonian(kind):
    # rows 5 and 0 are the cells n >= 2 and n <= -3, whose bonds stay in one
    # material: sum_d T_d(K.v_a) exp(i d K.v_b) is that material's bulk H(K)
    from edgelab.bulk import bulk_h
    from edgelab.lattice import frame_vectors

    v_a, v_b = frame_vectors(kind)
    rng = np.random.default_rng(22 if kind is InterfaceKind.TYPE_I else 220)
    worst = 0.0
    for _ in range(100):
        profile = _random_profile(rng)
        K = rng.uniform(-8.0, 8.0, size=2)
        T = hamiltonian._cell_blocks(kind, profile, float(K @ v_a))
        phases = np.exp(1j * np.arange(-2, 3) * (K @ v_b))
        for row, b, delta in ((5, profile.b_plus, profile.delta_plus),
                              (0, profile.b_minus, profile.delta_minus)):
            H = bulk_h(b, delta, K)
            summed = np.tensordot(phases, T[row], axes=1)
            worst = max(worst, np.abs(summed - H).max() / np.abs(H).max())
    assert worst < 1e-14
