import os

import numpy as np
import pytest

from edgelab.dynamics import (
    DomainSpec,
    build_domain,
    evolve,
    initial_wavepacket,
    interface_mass,
    make_bend_partition,
    rho_bound,
    transmission,
    WavepacketState,
)
from edgelab.errors import StepTooLarge
from edgelab.hamiltonian import HoppingProfile
from edgelab.lattice import InterfaceKind
from edgelab.spectrum import perturbation_m0
from edgelab.transfer import matching_c_star

from domain_oracle import coo_hamiltonian, site_index

MIXED = HoppingProfile(60, 60, 30, -30, 50.0)


def small_domain(kind=InterfaceKind.TYPE_II, bend=None, extent=(24, 24), profile=MIXED):
    return build_domain(DomainSpec(kind, extent, profile, bend=bend))


def test_extent_validation():
    with pytest.raises(ValueError):
        build_domain(DomainSpec(InterfaceKind.TYPE_I, (10, 30), MIXED))


def test_domain_matrix_real_symmetric_and_bond_weights():
    dom = small_domain(InterfaceKind.TYPE_I, extent=(24, 24))
    H = dom.hamiltonian
    assert (abs(H - H.T)).max() == 0.0
    assert np.iscomplexobj(H.data) and np.abs(H.data.imag).max() == 0.0
    # intracell bond (1, cell)-(5, cell) deep in the + material
    m, n = 3, 5
    assert H[site_index(dom, m, n, 1), site_index(dom, m, n, 5)] == -60.0
    # intercell d-bond within + material: (2, cell) couples across v_a
    assert H[site_index(dom, m, n, 2), site_index(dom, m + 1, n, 5)] == -(60.0 + 30.0)
    # crossing c-bond between rows n = -1 and n = 0: weight -c
    assert H[site_index(dom, m, 0, 4), site_index(dom, m, -1, 3)] == -50.0
    # minus-side intercell bond
    assert H[site_index(dom, m, -4, 2), site_index(dom, m + 1, -4, 5)] == -(60.0 - 30.0)


def _loop_domain_hamiltonian(dom):
    # site-by-site reference assembly from the neighbor table and the bond
    # rule written out per bond
    from edgelab.lattice import SiteIndex, cell_to_frame, frame_to_cell, neighbors

    spec, prof = dom.spec, dom.spec.profile
    entries = {}
    for m in dom.m_range:
        for n in dom.n_range:
            s1 = spec.material(int(m), int(n))
            cell = frame_to_cell(spec.kind, int(m), int(n))
            for j in range(1, 7):
                for nb in neighbors(SiteIndex(j, cell)):
                    m2, n2 = cell_to_frame(spec.kind, *nb.cell)
                    if not (dom.m_range[0] <= m2 <= dom.m_range[-1]
                            and dom.n_range[0] <= n2 <= dom.n_range[-1]):
                        continue
                    s2 = spec.material(m2, n2)
                    if s1 != s2:
                        w = prof.c
                    elif nb.cell == cell:
                        w = prof.b_plus if s1 > 0 else prof.b_minus
                    elif s1 > 0:
                        w = prof.b_plus + prof.delta_plus
                    else:
                        w = prof.b_minus + prof.delta_minus
                    entries[site_index(dom, int(m), int(n), j), site_index(dom, m2, n2, nb.j)] = -w
    return entries


@pytest.mark.parametrize("kind", [InterfaceKind.TYPE_I, InterfaceKind.TYPE_II])
@pytest.mark.parametrize("bend", [None, (2, 1), (2, -1)])
def test_domain_matches_site_loop_reference(kind, bend):
    profile = HoppingProfile(57.3, 64.1, 28.9, -31.7, 47.2)
    dom = build_domain(DomainSpec(kind, (20, 21), profile, bend=bend))
    H = dom.hamiltonian.tocoo()
    assert dict(zip(zip(H.row.tolist(), H.col.tolist()), H.data.tolist())) == (
        _loop_domain_hamiltonian(dom))


@pytest.mark.parametrize("kind", [InterfaceKind.TYPE_I, InterfaceKind.TYPE_II])
@pytest.mark.parametrize("extent", [(20, 20), (30, 40), (57, 33), (80, 80)])
def test_domain_csr_matches_coo_assembly(kind, extent):
    profile = HoppingProfile(57.3, 64.1, 28.9, -31.7, 47.2)
    for bend in (None, (2, 1), (-3, -1)):
        for origin in (None, (-7, -13)):
            spec = DomainSpec(kind, extent, profile, bend=bend, origin=origin)
            H, ref = build_domain(spec).hamiltonian, coo_hamiltonian(spec)
            assert H.shape == ref.shape and H.has_sorted_indices
            # complex entries: the oracle's real ones, bit for bit, and +0.0
            assert H.data.dtype == np.complex128 and ref.data.dtype == np.float64
            assert H.data.real.tobytes() == ref.data.tobytes(), (bend, origin)
            assert H.data.imag.tobytes() == bytes(8 * ref.nnz), (bend, origin)
            for name in ("indices", "indptr"):
                got, want = getattr(H, name), getattr(ref, name)
                assert got.dtype == want.dtype, (bend, origin, name)
                assert got.tobytes() == want.tobytes(), (bend, origin, name)


def _brute_force_interface_dist(dom):
    # interface cells from the neighbor table and the material map, cell
    # centers as the mean of their six site positions, then the minimum over
    # all pairs of cells
    from edgelab.lattice import SiteIndex, cell_to_frame, frame_to_cell, neighbors

    spec = dom.spec
    at_interface = []
    for m in dom.m_range:
        for n in dom.n_range:
            cell = frame_to_cell(spec.kind, int(m), int(n))
            partners = [cell_to_frame(spec.kind, *nb.cell)
                        for j in range(1, 7) for nb in neighbors(SiteIndex(j, cell))]
            at_interface.append(any(
                dom.m_range[0] <= m2 <= dom.m_range[-1]
                and dom.n_range[0] <= n2 <= dom.n_range[-1]
                and spec.material(m2, n2) != spec.material(int(m), int(n))
                for m2, n2 in partners))
    centers = dom.positions.reshape(-1, 6, 2).mean(axis=1)
    if not any(at_interface):
        return np.full(len(centers), np.inf)
    diff = centers[:, None, :] - centers[np.array(at_interface)][None, :, :]
    return np.sqrt((diff**2).sum(axis=2)).min(axis=1)


# (extent, origin, fewest interface cells): centered; off-centre origin;
# non-square with the interface two rows above the lower edge, which a
# downward bend leg leaves within a few rows; the interface two rows below
# the upper edge
_DIST_GEOMETRIES = [((20, 21), None, 20), ((20, 21), (-7, -13), 20),
                    ((21, 34), (-4, -2), 5), ((34, 20), (-20, -18), 20)]


@pytest.mark.parametrize("kind", [InterfaceKind.TYPE_I, InterfaceKind.TYPE_II])
@pytest.mark.parametrize("bend", [None, (2, 1), (-3, -1)])
def test_cell_interface_dist_matches_all_pairs_minimum(kind, bend):
    for extent, origin, fewest in _DIST_GEOMETRIES:
        dom = build_domain(DomainSpec(kind, extent, MIXED, bend=bend, origin=origin))
        ref = _brute_force_interface_dist(dom)
        assert dom.cell_interface_dist.shape == ref.shape
        assert np.abs(dom.cell_interface_dist - ref).max() < 1e-12, (extent, origin)
        assert np.sum(ref < 1e-12) > fewest  # interface cells sit at distance zero
    # far below and left of every leg, all cells are of one material
    dom = build_domain(DomainSpec(kind, (20, 20), MIXED, bend=bend, origin=(-60, -30)))
    assert np.all(_brute_force_interface_dist(dom) == np.inf)
    assert np.all(dom.cell_interface_dist == np.inf)


@pytest.mark.parametrize("kind", [InterfaceKind.TYPE_I, InterfaceKind.TYPE_II])
@pytest.mark.parametrize("bend", [None, (0, 1), (0, -1), (-5, -1)])
def test_interface_cells_read_exactly_zero(kind, bend):
    # interface cells are the ends of the Hamiltonian's material-crossing bonds
    dom = build_domain(DomainSpec(kind, (24, 24), MIXED, bend=bend))
    H = dom.hamiltonian.tocoo()
    sigma = dom.sigma.reshape(-1)
    crossing = sigma[H.row // 6] != sigma[H.col // 6]
    at_interface = np.zeros(len(sigma), dtype=bool)
    at_interface[H.row[crossing] // 6] = True
    assert at_interface.sum() > 20
    assert np.all(dom.cell_interface_dist[at_interface] == 0.0)
    assert np.all(dom.cell_interface_dist[~at_interface] > 0.5)


def test_build_domain_peak_memory_is_linear_in_cells():
    # a cells x interface-cells table would make the larger domain's traced
    # peak per cell several times the smaller one's
    import tracemalloc

    def peak_per_cell(M):
        tracemalloc.start()
        try:
            build_domain(DomainSpec(InterfaceKind.TYPE_II, (M, M), MIXED, bend=(0, 1)))
            return tracemalloc.get_traced_memory()[1] / M**2
        finally:
            tracemalloc.stop()

    peak_per_cell(60)  # import and cache warm-up outside the measurement
    assert peak_per_cell(180) <= 1.2 * peak_per_cell(60)


def _traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_domain_peak_memory_per_cell_is_bounded():
    # the bonds go into CSR one column at a time: 632 B/cell with complex
    # entries (489 with real ones), against 1,575 when all 18 bonds of every
    # cell went through COO at once
    _traced_peak(small_domain)  # import and cache warm-up
    spec = DomainSpec(InterfaceKind.TYPE_II, (180, 180), MIXED, bend=(0, 1))
    assert _traced_peak(lambda: build_domain(spec)) <= 800 * 180**2


def test_record_run_peak_memory_per_site_is_bounded(tmp_path):
    # no copy of the complex entries, row sums without a matrix copy, and
    # one row template per block: 127 B/site, against 175 with a complex
    # copy of the entries per run and 241 with a copy of H per product and
    # a str per site
    from edgelab.dynamics import record_run

    dom = build_domain(DomainSpec(InterfaceKind.TYPE_II, (120, 120), MIXED, bend=(0, 1)))
    st = initial_wavepacket(dom, MIXED, center_m=-10.0, width=5.0, direction=+1)
    dt = 0.1 / rho_bound(dom.hamiltonian)
    peak = _traced_peak(lambda: record_run(dom, st, 2.5 * dt, tmp_path, stride=1))
    assert len(list(tmp_path.glob("snapshot_*.csv"))) == 4
    assert peak <= 200 * len(dom.positions)


def test_row_degree_at_most_three():
    dom = small_domain()
    degree = np.diff(dom.hamiltonian.indptr)
    assert degree.max() <= 3


def test_evolve_trivial_cases():
    dom = small_domain()
    rng = np.random.default_rng(5)
    amps = rng.normal(size=dom.positions.shape[0]) + 0j
    amps /= np.linalg.norm(amps)
    state = WavepacketState(domain=dom, amplitudes=amps)
    frozen = evolve(state, 0.0 * dom.hamiltonian, 0.01, 50)
    assert np.abs(frozen.amplitudes - amps).max() == 0.0

    E = 3.7
    one = WavepacketState(domain=dom, amplitudes=np.array([1.0 + 0j]))
    out = evolve(one, np.array([[E]]), 1e-3, 1000)
    assert abs(out.amplitudes[0] - np.exp(-1j * E * 1.0)) < 1e-10


def test_rho_bound_reduces_each_rows_stored_entries():
    import scipy.sparse as sp

    rng = np.random.default_rng(31)
    for n_rows, n_cols, empty in ((10, 7, [0, 3, 8]), (10, 7, [9]), (200, 200, [5, 120, 199])):
        # up to three entries per row, of either sign, some rows empty
        dense = np.zeros((n_rows, n_cols))
        for row in set(range(n_rows)) - set(empty):
            cols = rng.choice(n_cols, size=rng.integers(1, 4), replace=False)
            dense[row, cols] = rng.normal(size=len(cols)) * 10 ** rng.uniform(-3, 3)
        H = sp.csr_matrix(dense)
        assert np.diff(H.indptr)[empty].max() == 0
        got = rho_bound(H)
        # the bound before, from scipy's row sums of a copy: the same bits
        assert got == float(np.max(np.abs(H).sum(axis=1)))
        # numpy may associate a dense row's three terms the other way
        assert rho_bound(dense) == pytest.approx(got, rel=1e-15)
    assert rho_bound(sp.csr_matrix((3, 3))) == 0.0
    H = small_domain().hamiltonian
    assert rho_bound(H) == float(np.max(np.abs(H).sum(axis=1)))


def test_step_rule_enforced():
    dom = small_domain()
    state = WavepacketState(domain=dom, amplitudes=np.zeros(dom.positions.shape[0], dtype=complex))
    rho = rho_bound(dom.hamiltonian)
    with pytest.raises(StepTooLarge):
        evolve(state, dom.hamiltonian, 0.6 / rho, 1)


def test_initial_packet_norm_localization_and_velocity():
    dom = build_domain(DomainSpec(InterfaceKind.TYPE_II, (48, 30), MIXED))
    st = initial_wavepacket(dom, MIXED, center_m=-6.0, width=8.0, direction=+1)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)
    assert interface_mass(st, 5.0) >= 0.90

    m0 = perturbation_m0(InterfaceKind.TYPE_II, MIXED)
    slope = abs(m0[0, 1].imag)
    H = dom.hamiltonian
    dt = 0.1 / rho_bound(H)
    T = 0.4
    out = evolve(st, H, dt, int(round(T / dt)))

    def com_m(state):
        mass = state.domain.cell_mass(state.amplitudes)
        mm = np.repeat(state.domain.m_range, len(state.domain.n_range))
        return float((mass * mm).sum() / mass.sum())

    v = (com_m(out) - com_m(st)) / out.time
    assert v > 0
    assert v == pytest.approx(slope, rel=0.10)


def test_norm_energy_conservation_and_reversibility():
    dom = build_domain(DomainSpec(InterfaceKind.TYPE_II, (40, 26), MIXED))
    st = initial_wavepacket(dom, MIXED, center_m=-4.0, width=6.0, direction=+1)
    H = dom.hamiltonian
    dt = 0.1 / rho_bound(H)
    steps = int(round(1.0 / dt))
    fwd = evolve(st, H, dt, steps)
    assert abs(fwd.norm() - 1.0) < 1e-6
    assert abs(fwd.energy() - st.energy()) < 1e-6 * max(1.0, abs(st.energy()) + 60.0)
    back = evolve(fwd, H, -dt, steps)
    assert np.abs(back.amplitudes - st.amplitudes).max() < 1e-5


def test_interface_mass_bounds():
    dom = small_domain()
    uniform = np.ones(dom.positions.shape[0], dtype=complex)
    st = WavepacketState(domain=dom, amplitudes=uniform)
    assert interface_mass(st, 1e6) == pytest.approx(1.0)
    frac0 = interface_mass(st, 0.0)
    assert 0.0 < frac0 < 1.0


def test_material_maps_for_bends():
    spec = DomainSpec(InterfaceKind.TYPE_II, (30, 30), MIXED, bend=(4, +1))
    # straight part keeps the half-space split; past the bend line it flips
    assert spec.material(-10, 0) == 1
    assert spec.material(-10, -1) == -1
    assert spec.material(10, 0) == -1  # beyond the 60-degree line
    assert spec.material(2, 3) == 1
    spec_i = DomainSpec(InterfaceKind.TYPE_I, (30, 30), MIXED, bend=(4, +1))
    assert spec_i.material(-10, -3) == -1
    assert spec_i.material(6, -3) == 1  # second leg side
    assert spec_i.material(-10, 2) == 1


def test_transmission_partition_and_sum_rule():
    prof = MIXED
    dom = build_domain(DomainSpec(InterfaceKind.TYPE_II, (40, 40), prof, bend=(8, +1)))
    st = initial_wavepacket(dom, prof, center_m=-8.0, width=5.0, direction=+1)
    part = make_bend_partition(dom)
    tr, rf, rs = transmission(st, part)
    assert tr == pytest.approx(0.0, abs=5e-3)  # packet starts on the incoming leg
    assert tr + rf + rs == pytest.approx(1.0, abs=1e-9)
    H = dom.hamiltonian
    dt = 0.1 / rho_bound(H)
    state = st
    for _ in range(3):
        state = evolve(state, H, dt, 200)
        tr, rf, rs = transmission(state, part)
        assert tr + rf + rs == pytest.approx(1.0, abs=1e-9)


def test_partition_requires_bend():
    dom = small_domain()
    with pytest.raises(ValueError):
        make_bend_partition(dom)


def test_record_run_writes_artifacts(tmp_path):
    dom = build_domain(DomainSpec(InterfaceKind.TYPE_II, (30, 24), MIXED))
    st = initial_wavepacket(dom, MIXED, center_m=0.0, width=5.0, direction=+1)
    from edgelab.dynamics import record_run

    manifest = record_run(dom, st, t_final=0.05, out_dir=tmp_path, stride=100,
                          config={"label": "smoke"})
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "snapshot_0000.csv").exists()
    series = manifest["series"]
    assert abs(series["norm"][-1] - 1.0) < 1e-8
    assert len(series["time"]) == len(series["interface_mass"])


def test_record_run_rejects_zero_stride(tmp_path):
    dom = small_domain()
    amps = np.zeros(dom.positions.shape[0], dtype=complex)
    amps[0] = 1.0
    from edgelab.dynamics import record_run

    with pytest.raises(ValueError):
        record_run(dom, WavepacketState(domain=dom, amplitudes=amps), 0.01, tmp_path, stride=0)


@pytest.mark.parametrize("kind", [InterfaceKind.TYPE_I, InterfaceKind.TYPE_II])
@pytest.mark.parametrize("k", [0.0, 0.83])
def test_bloch_reduction_consistency(kind, k):
    # a k-quasiperiodic state on the 2D domain must reproduce the reduced
    # chain operator on interior cells: H_full (e^{ikm} phi_n) = e^{ikm} (H(k) phi)_n
    from edgelab.hamiltonian import bloch_h1, bloch_h2

    dom = build_domain(DomainSpec(kind, (26, 26), MIXED))
    N = 12
    build = bloch_h1 if kind is InterfaceKind.TYPE_I else bloch_h2
    Hk = build(MIXED, k, N).matrix

    rng = np.random.default_rng(17)
    phi = rng.normal(size=(2 * N + 1, 6)) + 1j * rng.normal(size=(2 * N + 1, 6))
    chain_out = (Hk @ phi.reshape(-1)).reshape(2 * N + 1, 6)

    amps = np.zeros(dom.positions.shape[0], dtype=complex)
    for m in dom.m_range:
        for n in dom.n_range:
            amps[site_index(dom, int(m), int(n), 1):site_index(dom, int(m), int(n), 1) + 6] = (
                np.exp(1j * k * m) * phi[n + N])
    out = dom.hamiltonian @ amps
    for m in dom.m_range[3:-3]:
        for n in dom.n_range[3:-3]:
            i = site_index(dom, int(m), int(n), 1)
            expected = np.exp(1j * k * m) * chain_out[int(n) + N]
            assert np.abs(out[i:i + 6] - expected).max() < 1e-10 * np.abs(Hk).max()


def test_type1_domain_packet_moves(tmp_path):
    tuned = HoppingProfile(60, 60, 30, 30, 50.0)
    tuned = tuned.with_c(matching_c_star(tuned))
    dom = build_domain(DomainSpec(InterfaceKind.TYPE_I, (48, 26), tuned))
    st = initial_wavepacket(dom, tuned, center_m=-8.0, width=6.0, direction=+1)
    assert interface_mass(st, 5.0) > 0.9
    H = dom.hamiltonian
    dt = 0.1 / rho_bound(H)
    out = evolve(st, H, dt, int(round(0.25 / dt)))
    mass = out.domain.cell_mass(out.amplitudes)
    mm = np.repeat(out.domain.m_range, len(out.domain.n_range))
    assert (mass * mm).sum() > -7.0  # moved toward +m


def _packet_domain():
    dom = build_domain(DomainSpec(InterfaceKind.TYPE_II, (30, 24), MIXED, bend=(2, 1)))
    return dom, initial_wavepacket(dom, MIXED, center_m=-3.0, width=4.0, direction=+1)


@pytest.mark.parametrize("t", [0.7, 0.05, 1e-4, -1e-4, -0.3])
def test_propagate_matches_expm_multiply(t):
    from scipy.sparse.linalg import expm_multiply

    from edgelab.dynamics import propagate

    dom, st = _packet_domain()
    H = dom.hamiltonian
    ref = expm_multiply(-1j * t * H, st.amplitudes)
    got = propagate(st.amplitudes, H, t, rho_bound(H))
    assert np.abs(got - ref).max() < 1e-10
    # a real H gives the same state
    assert np.abs(propagate(st.amplitudes, H.real, t, rho_bound(H)) - got).max() < 1e-14


def test_propagate_agrees_with_rk4_within_its_error():
    from scipy.sparse.linalg import expm_multiply

    from edgelab.dynamics import propagate

    dom, st = _packet_domain()
    H = dom.hamiltonian
    dt = 0.1 / rho_bound(H)
    rk4 = evolve(st, H, dt, 400)
    ref = expm_multiply(-1j * rk4.time * H, st.amplitudes)
    rk4_err = np.abs(rk4.amplitudes - ref).max()
    assert 0 < rk4_err < 1e-5
    got = propagate(st.amplitudes, H, rk4.time, rho_bound(H))
    assert np.abs(got - rk4.amplitudes).max() <= rk4_err + 1e-12


def test_propagate_preserves_norm():
    from edgelab.dynamics import propagate

    dom = small_domain()
    rng = np.random.default_rng(11)
    amps = rng.normal(size=dom.positions.shape[0]) + 1j * rng.normal(size=dom.positions.shape[0])
    amps /= np.linalg.norm(amps)
    H = dom.hamiltonian
    for t in (0.01, 1.0, 4.0):
        out = propagate(amps, H, t, rho_bound(H))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_propagate_trivial_cases():
    from edgelab.dynamics import propagate

    dom = small_domain()
    rng = np.random.default_rng(5)
    amps = rng.normal(size=dom.positions.shape[0]) + 0j
    zero = 0.0 * dom.hamiltonian
    assert np.array_equal(propagate(amps, zero, 1.0, rho_bound(zero)), amps)
    assert np.abs(propagate(amps, zero, 1.0, 1.0) - amps).max() < 1e-14
    assert np.array_equal(propagate(amps, dom.hamiltonian, 0.0, 1.0), amps)

    E = 3.7
    for t in (1.0, -2.0, 25.0):
        out = propagate(np.array([1.0 + 0j]), np.array([[E]]), t, abs(E))
        assert abs(out[0] - np.exp(-1j * E * t)) < 1e-13


def _csv_writer_snapshot(path, positions, amplitudes):
    # the snapshot format as csv.writer writes it, element by element
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "abs2"])
        for pos, amp in zip(positions, amplitudes):
            w.writerow([f"{pos[0]:.17g}", f"{pos[1]:.17g}", f"{abs(amp)**2:.17g}"])
    return path.read_bytes()


def test_record_run_schedule_snapshots_and_rerun(tmp_path):
    from edgelab.dynamics import propagate, record_run

    dom, st = _packet_domain()
    H = dom.hamiltonian
    dt = 0.1 / rho_bound(H)
    manifest = record_run(dom, st, t_final=25.5 * dt, out_dir=tmp_path / "a", stride=10)
    assert manifest["steps"] == 26
    # sample times accumulate dt * chunk, as the RK4 runs did
    assert manifest["series"]["time"] == [0.0, dt * 10, dt * 10 + dt * 10,
                                          dt * 10 + dt * 10 + dt * 6]
    ref = tmp_path / "reference.csv"
    assert (tmp_path / "a" / "snapshot_0000.csv").read_bytes() == (
        _csv_writer_snapshot(ref, dom.positions, st.amplitudes))
    amps = st.amplitudes
    for chunk in (10, 10, 6):
        amps = propagate(amps, H, dt * chunk, rho_bound(H))
    assert (tmp_path / "a" / "snapshot_0003.csv").read_bytes() == (
        _csv_writer_snapshot(ref, dom.positions, amps))

    record_run(dom, st, t_final=25.5 * dt, out_dir=tmp_path / "b", stride=10)
    for a in sorted((tmp_path / "a").iterdir()):
        assert a.read_bytes() == (tmp_path / "b" / a.name).read_bytes()


def test_manifest_energy_is_the_state_energy(tmp_path):
    from edgelab.dynamics import propagate, record_run

    dom, st = _packet_domain()
    H = dom.hamiltonian
    dt = 0.1 / rho_bound(H)
    manifest = record_run(dom, st, t_final=25.5 * dt, out_dir=tmp_path, stride=10)
    amps, energies = st.amplitudes, [st.energy()]
    for chunk in (10, 10, 6):
        amps = propagate(amps, H, dt * chunk, rho_bound(H))
        energies.append(WavepacketState(domain=dom, amplitudes=amps).energy())
    assert manifest["series"]["energy"] == energies  # bit for bit


def test_snapshot_blocks_match_csv_writer(tmp_path):
    from edgelab.dynamics import record_run
    from edgelab.output import BLOCK_ROWS

    dom = build_domain(DomainSpec(InterfaceKind.TYPE_II, (40, 40), MIXED, bend=(0, -1)))
    n_rows = len(dom.positions)
    assert n_rows > 2 * BLOCK_ROWS and n_rows % BLOCK_ROWS
    rng = np.random.default_rng(12)
    amps = rng.normal(size=n_rows) + 1j * rng.normal(size=n_rows)
    amps[::7] = 0.0
    amps[BLOCK_ROWS - 1:BLOCK_ROWS + 1] = 0.0  # across a block boundary
    amps[5] = 1e-160  # abs2 1e-320 is subnormal
    amps[-1] = -3e-162j
    st = WavepacketState(domain=dom, amplitudes=amps)
    record_run(dom, st, t_final=1e-4, out_dir=tmp_path / "o", stride=1000)
    assert (tmp_path / "o" / "snapshot_0000.csv").read_bytes() == (
        _csv_writer_snapshot(tmp_path / "ref.csv", dom.positions, amps))


def _counted_forks(monkeypatch, cores=None):
    """Count os.fork calls; with ``cores`` set, the usable-core count reads it."""
    from edgelab import _platform

    forks = []
    fork = os.fork

    def counting():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    if cores is not None:
        monkeypatch.setattr(_platform, "usable_cores", lambda: cores)
    return forks


def _files(where):
    return {path.name: path.read_bytes() for path in sorted(where.iterdir())}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _random_state(dom, seed=3):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=len(dom.positions)) + 1j * rng.normal(size=len(dom.positions))
    return WavepacketState(domain=dom, amplitudes=amps / np.linalg.norm(amps))


@pytest.mark.parametrize("kind, bend", [(InterfaceKind.TYPE_I, None),
                                        (InterfaceKind.TYPE_II, (0, 1))])
def test_writer_process_and_in_process_write_the_same_bytes(tmp_path, monkeypatch, kind, bend):
    from edgelab.dynamics import record_run
    from edgelab._platform import usable_cores

    # 9,600 sites: a snapshot's 76,800 bytes are more than a pipe holds
    dom = small_domain(kind, bend=bend, extent=(40, 40))
    st = _random_state(dom)
    dt = 0.1 / rho_bound(dom.hamiltonian)
    routes = {}
    for cores in (None, 1):
        forks = _counted_forks(monkeypatch, cores)
        where = tmp_path / str(cores)
        record_run(dom, st, t_final=9.5 * dt, out_dir=where, stride=2, dt=dt)
        assert len(forks) == (1 if cores is None and usable_cores() >= 2 else 0)
        _no_child_left()
        routes[cores] = _files(where)
    assert len(routes[1]) == 7 and routes[None] == routes[1]


def test_an_exception_mid_run_leaves_the_sent_snapshots_whole(tmp_path, monkeypatch):
    from edgelab import dynamics
    from edgelab._platform import usable_cores

    dom = small_domain(InterfaceKind.TYPE_II, bend=(0, 1), extent=(40, 40))
    st = _random_state(dom)
    propagate = dynamics.propagate
    routes = {}
    for cores in (None, 1):
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise FloatingPointError("second interval")
            return propagate(*args)

        monkeypatch.setattr(dynamics, "propagate", failing)
        forks = _counted_forks(monkeypatch, cores)
        with pytest.raises(FloatingPointError, match="second interval"):
            dynamics.record_run(dom, st, t_final=0.01, out_dir=tmp_path / str(cores), stride=1)
        assert len(forks) == (1 if cores is None and usable_cores() >= 2 else 0)
        _no_child_left()
        routes[cores] = _files(tmp_path / str(cores))
    # snapshots 0 and 1 were sent before the second interval; no manifest
    assert sorted(routes[1]) == ["snapshot_0000.csv", "snapshot_0001.csv"]
    assert routes[None] == routes[1]


@pytest.mark.parametrize("kwargs", [
    {"t_final": -1.0}, {"t_final": 0.0}, {"t_final": float("nan")}, {"t_final": float("inf")},
    {"t_final": 0.01, "dt": -1e-4}, {"t_final": 0.01, "dt": 0.0},
])
def test_record_run_rejects_non_positive_times(tmp_path, kwargs):
    from edgelab.dynamics import record_run

    dom, st = _packet_domain()
    with pytest.raises(ValueError):
        record_run(dom, st, out_dir=tmp_path / "o", **kwargs)
    assert not (tmp_path / "o").exists()


def test_record_run_keeps_step_rule(tmp_path):
    from edgelab.dynamics import record_run

    dom, st = _packet_domain()
    with pytest.raises(StepTooLarge):
        record_run(dom, st, 0.01, tmp_path, dt=0.6 / rho_bound(dom.hamiltonian))


def test_record_run_caps_snapshot_count(tmp_path):
    from edgelab.dynamics import record_run

    dom, st = _packet_domain()
    dt = 0.1 / rho_bound(dom.hamiltonian)
    # 1 + ceil(29998 / 3) = 10,001 snapshots, one more than four digits name
    with pytest.raises(ValueError, match="snapshots"):
        record_run(dom, st, 29_998 * dt, tmp_path / "o", stride=3, dt=dt)
    assert not (tmp_path / "o").exists()


def test_initial_packet_off_domain_raises():
    dom = small_domain()
    with pytest.raises(ValueError):
        initial_wavepacket(dom, MIXED, center_m=1000.0, width=4.0, direction=+1)


def _random_finite_parts(rng, n, bound=1e150):
    # random float64 bit patterns, both signs, subnormals included
    bits = rng.integers(0, 2**64, size=4 * n, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    return x[np.isfinite(x) & (np.abs(x) < bound)][:n]


def _random_amplitudes(rng, n):
    amps = np.empty(n, dtype=complex)
    amps.real, amps.imag = _random_finite_parts(rng, n), _random_finite_parts(rng, n)
    amps[1::11] *= 1e-160 / np.abs(amps[1::11]).clip(1e-300)  # |a|^2 near 1e-320, subnormal
    amps.real[2::13], amps.imag[3::13] = 0.0, -0.0
    amps[4::17] = complex(-0.0, -0.0)
    return amps


def test_snapshot_abs2_is_python_abs_squared_bit_for_bit():
    # record_run's array pass: libm hypot, then libm pow by 2.0, as Python's
    # abs(a) ** 2 does per element; np.abs and a squaring product do not
    rng = np.random.default_rng(20)
    amps = _random_amplitudes(rng, 200_000)
    reference = np.array([abs(a) ** 2 for a in amps.tolist()])
    for part, expected in ((amps, reference), (amps[5:-3], reference[5:-3]),
                           (amps[::3], reference[::3]), (amps[1::2].copy(), reference[1::2])):
        abs2 = np.hypot(part.real, part.imag)
        np.float_power(abs2, 2.0, out=abs2)
        assert abs2.tobytes() == expected.tobytes()
    assert np.count_nonzero((reference > 0) & (reference < np.finfo(float).tiny)) > 1000
    # the look-alikes really differ, so the check above can fail
    square = np.square(np.hypot(amps.real, amps.imag))
    assert square.tobytes() != reference.tobytes()


def test_snapshot_of_random_bit_patterns_matches_csv_writer(tmp_path):
    # the exact layout record_run formats: the state's own complex array,
    # written block by block, against csv.writer fed abs(a) ** 2
    from edgelab.dynamics import record_run

    dom = build_domain(DomainSpec(InterfaceKind.TYPE_II, (40, 40), MIXED, bend=(0, 1)))
    amps = _random_amplitudes(np.random.default_rng(21), len(dom.positions))
    st = WavepacketState(domain=dom, amplitudes=amps)
    record_run(dom, st, t_final=1e-4, out_dir=tmp_path / "o", stride=1000)
    assert (tmp_path / "o" / "snapshot_0000.csv").read_bytes() == (
        _csv_writer_snapshot(tmp_path / "ref.csv", dom.positions, amps))


def _object_array_templates(positions):
    # the row templates as x + y + "%.17g\r\n" on object arrays of the
    # distinct coordinates' text, gathered per block
    from edgelab.output import BLOCK_ROWS

    columns = []
    for col in np.ascontiguousarray(positions.T):
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        text = [f"{v:.17g}," for v in bits.view(np.float64).tolist()]
        columns.append((np.array(text, dtype=object), inverse))
    (x, ix), (y, iy) = columns
    return ["".join(x[ix[lo:lo + BLOCK_ROWS]] + y[iy[lo:lo + BLOCK_ROWS]] + "%.17g\r\n")
            for lo in range(0, len(positions), BLOCK_ROWS)]


@pytest.mark.parametrize("kind", list(InterfaceKind))
@pytest.mark.parametrize("bend", [None, (2, 1), (-3, -1)])
@pytest.mark.parametrize("origin", [None, (-17, -9)])
def test_snapshot_templates_match_object_array_oracle(kind, bend, origin):
    from edgelab.dynamics import _snapshot_templates
    from edgelab.output import BLOCK_ROWS

    dom = build_domain(DomainSpec(kind, (30, 28), MIXED, bend=bend, origin=origin))
    assert len(dom.positions) > BLOCK_ROWS and len(dom.positions) % BLOCK_ROWS
    templates = _snapshot_templates(dom.positions)
    assert templates == _object_array_templates(dom.positions)
    assert [t.count("\r\n") for t in templates] == [BLOCK_ROWS, len(dom.positions) - BLOCK_ROWS]
