"""Exact Voronoi cells: construction, volumes, tessellation, minimal search."""

from fractions import Fraction

import pytest

from hc3.admissibility import Configuration
from hc3.catalog import build_layered, known_sublattice, scaled_basis
from hc3.lattice import (
    apply_symmetry,
    lattice_contains,
    lattice_index,
    quotient,
    symmetry_group,
)
from hc3.voronoi import (
    _cut_cell,
    cell_volume,
    min_cell_search,
    tessellation_check,
    voronoi_cell,
)

DIAG2 = ((2, 0, 0), (0, 2, 0), (0, 0, 2))

VOLUME_TABLE = {2: 2, 3: 4, 4: 8, 5: 9, 6: 12, 8: 16, 9: 20, 10: 26, 12: 32}


def sublattice_config(d2, variant=None):
    basis = known_sublattice(d2, variant)
    return Configuration(quotient(basis), d2, frozenset({(0, 0, 0)}))


def test_cube_cell_of_2z3():
    corner = (Fraction(1), Fraction(1), Fraction(1))
    for d2 in (1, 2, 3, 4):
        c = Configuration(quotient(DIAG2), d2, frozenset({(0, 0, 0)}))
        cell = voronoi_cell(c, (0, 0, 0))
        assert cell.n_facets == 6
        assert cell.n_vertices == 8
        assert cell_volume(cell) == 8
        assert all(tuple(abs(x) for x in v) == corner for v in cell.vertices)


def test_fcc_cell_is_rhombic_dodecahedron():
    cell = voronoi_cell(sublattice_config(2), (0, 0, 0))
    assert cell.n_facets == 12
    assert cell.n_vertices == 14
    assert cell_volume(cell) == 2


def test_bcc_cell_is_truncated_octahedron():
    cell = voronoi_cell(sublattice_config(3), (0, 0, 0))
    assert cell.n_facets == 14
    assert cell.n_vertices == 24
    assert cell_volume(cell) == 4


def test_catalog_volumes_match_inverse_density():
    for d2, want in VOLUME_TABLE.items():
        cell = voronoi_cell(sublattice_config(d2), (0, 0, 0))
        vol = cell_volume(cell)
        assert vol == want
        assert vol == lattice_index(known_sublattice(d2))


def test_tessellation_on_catalog():
    for d2 in VOLUME_TABLE:
        assert tessellation_check(sublattice_config(d2))


def test_tessellation_on_multiparticle_configuration():
    dhcp = build_layered(5, "ST")
    assert tessellation_check(dhcp)


def test_cell_respects_stabilizer_symmetries():
    for d2 in (2, 3):
        cell = voronoi_cell(sublattice_config(d2), (0, 0, 0))
        basis = known_sublattice(d2)
        verts = set(cell.vertices)
        for op in symmetry_group():
            if all(lattice_contains(basis, apply_symmetry(op, g)) for g in basis):
                mapped = {
                    tuple(
                        sum(Fraction(op[i][j]) * v[j] for j in range(3))
                        for i in range(3)
                    )
                    for v in verts
                }
                assert mapped == verts


def test_doubling_cutoff_idempotent():
    for d2 in (2, 3, 5, 9):
        c = sublattice_config(d2)
        cell = voronoi_cell(c, (0, 0, 0))
        r = 4 * (2 * _ceil_sqrt(d2))
        neighbors = []
        for o in sorted(c.occupied):
            neighbors.extend(
                p for p in c.domain.images_near(o, (0, 0, 0), r * r) if p != (0, 0, 0)
            )
        bigger = _cut_cell((0, 0, 0), r, neighbors)
        assert set(bigger.freeze().vertices) == set(cell.vertices)
        assert bigger.volume() == cell_volume(cell)


def _ceil_sqrt(n):
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else r + 1


def test_slab_cell_certifies_beyond_eight_doublings():
    # the cell is a 360 x 360 x 1 box; certifying it needs cutoff 512, nine
    # doublings of the starting cutoff 2
    q = quotient(((360, 0, 0), (0, 360, 0), (0, 0, 1)))
    c = Configuration(q, 1, frozenset({(0, 0, 0)}))
    assert cell_volume(voronoi_cell(c, (0, 0, 0))) == q.index


def test_volume_additivity_on_doubled_cells():
    for d2 in (2, 3, 5):
        basis = known_sublattice(d2)
        q = quotient(scaled_basis(basis, 2))
        occupied = frozenset(x for x in q.reps if lattice_contains(basis, x))
        assert len(occupied) == 8
        c = Configuration(q, d2, occupied)
        volumes = [cell_volume(voronoi_cell(c, x)) for x in sorted(occupied)]
        assert len(set(volumes)) == 1
        assert sum(volumes) == 8 * lattice_index(basis)


def test_voronoi_requires_occupied_site():
    c = sublattice_config(2)
    with pytest.raises(ValueError):
        voronoi_cell(c, (1, 0, 0))


def test_min_cell_search_rediscovers_fcc():
    result = min_cell_search(2, 3, node_budget=50_000)
    assert result.completed
    assert result.certified
    assert result.volume == 2
    # the witness neighborhood contains the full first FCC shell
    shell = {v for v in result.neighborhood if sum(x * x for x in v) == 2}
    assert len(shell) == 12


def test_min_cell_search_rediscovers_bcc():
    result = min_cell_search(3, 3, node_budget=50_000)
    assert result.completed
    assert result.certified
    assert result.volume == 4


def test_min_cell_search_partial_flag():
    result = min_cell_search(5, 3, node_budget=40)
    assert not result.completed
    assert result.volume is None or result.volume >= 9


def test_min_cell_search_rejects_small_radius():
    with pytest.raises(ValueError):
        min_cell_search(9, 2)
