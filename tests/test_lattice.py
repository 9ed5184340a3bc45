import itertools

import numpy as np
import pytest

from edgelab.lattice import (
    InterfaceKind,
    SiteIndex,
    cell_to_frame,
    classify_neighbors,
    frame_bonds,
    frame_to_cell,
    interface_frame,
    material_sign,
    neighbors,
    site_position,
)

SQ3 = np.sqrt(3.0)


def test_site_position_examples():
    assert np.allclose(site_position(SiteIndex(1)), [-SQ3 / 6, 1 / 6])
    assert np.allclose(site_position(SiteIndex(6)), [SQ3 / 6, -1 / 6])
    assert np.allclose(site_position(SiteIndex(3, (1, 0))), [SQ3 / 6 + SQ3 / 2, 1 / 6 - 1 / 2])


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
    intra, inter = classify_neighbors(SiteIndex(2, (0, 0)))
    assert intra == [SiteIndex(4, (0, 0)), SiteIndex(6, (0, 0))]
    assert inter == [SiteIndex(5, (1, -1))]
    intra, inter = classify_neighbors(SiteIndex(5, (0, 0)))
    assert inter == [SiteIndex(2, (-1, 1))]
    for j in range(1, 7):
        intra, inter = classify_neighbors(SiteIndex(j, (3, -2)))
        assert len(intra) == 2 and len(inter) == 1


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
    lengths = []
    for j, p, q in itertools.product(range(1, 7), range(-2, 3), range(-2, 3)):
        s = SiteIndex(j, (p, q))
        for t in neighbors(s):
            lengths.append(np.linalg.norm(site_position(s) - site_position(t)))
    lengths = np.array(lengths)
    assert np.ptp(lengths) < 1e-14
    assert abs(lengths[0] - 1 / 3) < 1e-14  # nearest-neighbor distance in these units


def test_interface_frames():
    assert interface_frame(InterfaceKind.TYPE_I) == ((1, -1), (0, 1))
    assert interface_frame(InterfaceKind.TYPE_II) == ((1, 1), (0, 1))


def test_frame_relabeling_is_bijective():
    for kind in InterfaceKind:
        seen = set()
        for m, n in itertools.product(range(-5, 5), range(-5, 5)):
            cell = frame_to_cell(kind, m, n)
            assert cell_to_frame(kind, *cell) == (m, n)
            seen.add(cell)
        assert len(seen) == 100


def test_material_sign():
    assert material_sign(InterfaceKind.TYPE_I, 5, 0) == 1
    assert material_sign(InterfaceKind.TYPE_II, 0, -1) == -1
    assert material_sign(InterfaceKind.TYPE_I, -3, 7) == 1
