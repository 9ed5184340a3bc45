import itertools

import numpy as np
import pytest

from edgelab.lattice import (
    InterfaceKind,
    SiteIndex,
    cell_site_positions,
    cell_to_frame,
    frame_bonds,
    frame_to_cell,
    material_sign,
    neighbors,
)

SQ3 = np.sqrt(3.0)


def _positions(sites):
    """Cartesian positions of ``sites``, from the cells' six-site positions."""
    p, q = np.array([s.cell for s in sites]).T
    return cell_site_positions(p, q)[np.arange(len(sites)), [s.j - 1 for s in sites]]


def test_site_position_examples():
    x1, x6, x3 = _positions([SiteIndex(1), SiteIndex(6), SiteIndex(3, (1, 0))])
    assert np.allclose(x1, [-SQ3 / 6, 1 / 6])
    assert np.allclose(x6, [SQ3 / 6, -1 / 6])
    assert np.allclose(x3, [SQ3 / 6 + SQ3 / 2, 1 / 6 - 1 / 2])


def test_site_index_validation():
    with pytest.raises(ValueError):
        SiteIndex(0)
    with pytest.raises(ValueError):
        SiteIndex(7)


def test_neighbor_rows_match_defining_display():
    assert neighbors(SiteIndex(1, (0, 0))) == [
        SiteIndex(4, (0, 0)), SiteIndex(5, (0, 0)), SiteIndex(6, (-1, 0))]
    assert neighbors(SiteIndex(4, (0, 0))) == [
        SiteIndex(1, (0, 0)), SiteIndex(2, (0, 0)), SiteIndex(3, (0, -1))]
    assert neighbors(SiteIndex(6, (2, 3))) == [
        SiteIndex(1, (3, 3)), SiteIndex(2, (2, 3)), SiteIndex(3, (2, 3))]


def test_classify_neighbors():
    # the intracell column of frame_bonds, which the bond rule reads: two
    # bonds of each site stay in its cell, one leaves it
    for kind in InterfaceKind:
        bonds = frame_bonds(kind)
        for j, j2, dm, dn, intracell in bonds.tolist():
            assert intracell == ((dm, dn) == (0, 0))
        assert bonds[:, 4].reshape(6, 3).sum(axis=1).tolist() == [2] * 6
        inter = {j: (j2, frame_to_cell(kind, dm, dn))
                 for j, j2, dm, dn, intracell in bonds.tolist() if not intracell}
        assert inter[2] == (5, (1, -1)) and inter[5] == (2, (-1, 1))
        assert bonds[3:6][bonds[3:6, 4] == 1, 1].tolist() == [4, 6]  # site 2's partners in its cell


def test_neighbor_mutuality_on_patch():
    for j, p, q in itertools.product(range(1, 7), range(10), range(10)):
        s = SiteIndex(j, (p, q))
        for t in neighbors(s):
            assert s in neighbors(t)


def test_bipartiteness():
    for j in range(1, 7):
        partners = {t.j for t in neighbors(SiteIndex(j, (0, 0)))}
        if j <= 3:
            assert partners <= {4, 5, 6}
        else:
            assert partners <= {1, 2, 3}


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_frame_bonds_join_the_two_sublattice_blocks(kind):
    # the spectrum solver's chiral block decomposition rests on this
    bonds = frame_bonds(kind)
    assert len(bonds) == 18
    for j, j2 in bonds[:, :2]:
        assert {j, j2} & {1, 2, 3} and {j, j2} & {4, 5, 6}


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_frame_bonds_are_one_read_only_table_site_by_site(kind):
    # the grouped chain product takes the bonds of site j from rows 3j-3..3j-1
    bonds = frame_bonds(kind)
    assert bonds is frame_bonds(kind) and not bonds.flags.writeable
    assert bonds[:, 0].tolist() == [j for j in range(1, 7) for _ in range(3)]


def test_equal_bond_length():
    pairs = [(s, t) for j, p, q in itertools.product(range(1, 7), range(-2, 3), range(-2, 3))
             for s in [SiteIndex(j, (p, q))] for t in neighbors(s)]
    ends, partners = zip(*pairs)
    lengths = np.linalg.norm(_positions(ends) - _positions(partners), axis=1)
    assert np.ptp(lengths) < 1e-14
    assert abs(lengths[0] - 1 / 3) < 1e-14  # nearest-neighbor distance in these units


def test_interface_frames():
    # v_a and v_b in lattice coordinates, read from the one frame table
    assert frame_to_cell(InterfaceKind.TYPE_I, 1, 0) == (1, -1)
    assert frame_to_cell(InterfaceKind.TYPE_I, 0, 1) == (0, 1)
    assert frame_to_cell(InterfaceKind.TYPE_II, 1, 0) == (1, 1)
    assert frame_to_cell(InterfaceKind.TYPE_II, 0, 1) == (0, 1)


def test_frame_relabeling_is_bijective():
    for kind in InterfaceKind:
        seen = set()
        for m, n in itertools.product(range(-5, 5), range(-5, 5)):
            cell = frame_to_cell(kind, m, n)
            assert cell_to_frame(kind, *cell) == (m, n)
            seen.add(cell)
        assert len(seen) == 100


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_frame_changes_work_elementwise_on_arrays(kind):
    # build_domain passes whole columns of cells; each frame is unimodular,
    # so both directions stay exact integer arithmetic
    (a1, a2), (b1, b2) = frame_to_cell(kind, 1, 0), frame_to_cell(kind, 0, 1)
    assert a1 * b2 - a2 * b1 == 1
    m, n = np.meshgrid(np.arange(-7, 8), np.arange(-6, 9), indexing="ij")
    p, q = frame_to_cell(kind, m, n)
    assert p.dtype.kind == q.dtype.kind == "i"
    assert [(int(x), int(y)) for x, y in zip(p.flat, q.flat)] == [
        frame_to_cell(kind, int(x), int(y)) for x, y in zip(m.flat, n.flat)]
    back = cell_to_frame(kind, p, q)
    assert np.array_equal(back[0], m) and np.array_equal(back[1], n)


def test_material_sign():
    assert material_sign(0) == 1
    assert material_sign(-1) == -1
    assert material_sign(7) == 1
