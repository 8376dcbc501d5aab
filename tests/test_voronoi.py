"""Exact Voronoi cells: construction, volumes, tessellation, minimal search."""

import functools
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hc3.admissibility import Configuration, conflict_masks
from hc3.catalog import build_layered, known_sublattice, known_sublattice_keys
from hc3.lattice import (
    UNIT_BASIS,
    Window,
    add,
    apply_symmetry,
    cross,
    dot,
    hnf,
    in_lattice,
    lattice_from_generators,
    lattice_index,
    lattice_points,
    quotient,
    sq_norm,
    sub,
    symmetry_group,
)
from hc3.search import BudgetExhaustedError, NodeBudget, include_first, members
from hc3.voronoi import (
    Facet,
    MinCellResult,
    RationalPolytope,
    _cut_cell,
    cell_volume,
    min_cell_search,
    tessellation_check,
    voronoi_cell,
)
from test_perturbations import dhcp_doubled, sublattice_on_scaled_torus

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
        lat = lattice_from_generators(basis)
        verts = set(cell.vertices)
        for op in symmetry_group():
            if all(in_lattice(lat, apply_symmetry(op, g)) for g in basis):
                assert {apply_symmetry(op, v) for v in verts} == verts


def test_doubling_cutoff_idempotent():
    for d2 in (2, 3, 5, 9):
        c = sublattice_config(d2)
        cell = voronoi_cell(c, (0, 0, 0))
        r = 4 * (2 * _ceil_sqrt(d2))
        neighbors = []
        for o in sorted(c.occupied):
            neighbors.extend(
                p for p in lattice_points(c.domain.reduced, o, r * r) if p != (0, 0, 0)
            )
        bigger = _cut_cell((0, 0, 0), r, keyed((0, 0, 0), neighbors))
        assert set(bigger.freeze().vertices) == set(cell.vertices)
        assert bigger.volume() == cell_volume(cell)


def keyed(center, neighbors):
    """The (|y - center|^2, y) pairs that ``_cut_cell`` takes."""
    return [(sq_norm(sub(y, center)), y) for y in neighbors]


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
        c = sublattice_on_scaled_torus(d2)
        assert len(c.occupied) == 8
        volumes = [cell_volume(voronoi_cell(c, x)) for x in sorted(c.occupied)]
        assert len(set(volumes)) == 1
        assert sum(volumes) == 8 * lattice_index(known_sublattice(d2))


def test_facet_cycles_are_counterclockwise_from_the_least_vertex():
    configs = [sublattice_config(d2, variant) for d2, variant in known_sublattice_keys()]
    configs += [sublattice_on_scaled_torus(d2) for d2 in (2, 3, 5)]
    for c in configs:
        for x in sorted(c.occupied):
            cell = voronoi_cell(c, x)
            for f in cell.facets:
                cycle = f.vertices
                pts = [cell.vertices[i] for i in cycle]
                assert cycle[0] == min(cycle)
                assert all(dot(f.normal, p) == f.offset for p in pts)
                for k in range(len(pts)):
                    p0, p1, p2 = pts[k - 2], pts[k - 1], pts[k]
                    assert dot(cross(sub(p1, p0), sub(p2, p1)), f.normal) > 0


@pytest.mark.parametrize("occupied", [frozenset(), frozenset({(0, 0, 0)})])
def test_tessellation_check_rejects_a_window(occupied):
    c = Configuration(Window((-2, -2, -2), (2, 2, 2)), 2, occupied)
    with pytest.raises(ValueError, match="require a periodic configuration"):
        tessellation_check(c)


@pytest.mark.parametrize(
    "config",
    [
        lambda: sublattice_on_scaled_torus(5),
        lambda: sublattice_on_scaled_torus(9),
        dhcp_doubled,
        lambda: build_layered(6, "SSSTU", family="I"),
    ],
    ids=["doubled-d2-5", "doubled-d2-9", "doubled-dhcp", "6-I-SSSTU"],
)
def test_cell_is_cut_about_the_site_as_given(config):
    # a site outside the HNF box gets the cell of its coset, translated to it:
    # every vertex moves by p and every facet offset by n.p, in the same order
    c = config()
    b0, b1, b2 = c.domain.reduced
    for s in sorted(c.occupied):
        cell = voronoi_cell(c, s)
        for p in (b0, b1, b2, tuple(-(u + v + w) for u, v, w in zip(b0, b1, b2))):
            moved = voronoi_cell(c, add(s, p))
            assert moved.vertices == tuple(
                tuple(v[k] + p[k] for k in range(3)) for v in cell.vertices
            )
            assert moved.facets == tuple(
                Facet(f.normal, f.offset + dot(f.normal, p), f.vertices)
                for f in cell.facets
            )


def test_voronoi_requires_occupied_site():
    c = sublattice_config(2)
    with pytest.raises(ValueError):
        voronoi_cell(c, (1, 0, 0))


@pytest.mark.parametrize("radius,nodes", [(3, 69), (4, 109)], ids=["r=3", "r=4"])
def test_min_cell_search_rediscovers_fcc(radius, nodes):
    result = min_cell_search(2, radius, node_budget=50_000)
    assert result.completed
    assert result.certified
    assert result.volume == 2
    assert result.nodes == nodes
    # the witness neighborhood contains the full first FCC shell
    shell = {v for v in result.neighborhood if sum(x * x for x in v) == 2}
    assert len(shell) == 12


@pytest.mark.parametrize("radius,nodes", [(3, 29), (4, 53)], ids=["r=3", "r=4"])
def test_min_cell_search_rediscovers_bcc(radius, nodes):
    result = min_cell_search(3, radius, node_budget=50_000)
    assert result.completed
    assert result.certified
    assert result.volume == 4
    assert result.nodes == nodes


def test_min_cell_search_partial_flag():
    result = min_cell_search(5, 3, node_budget=40)
    assert not result.completed
    assert result.nodes == 40
    assert result.volume is None or result.volume >= 9


def recutting_min_cell_search(d2, radius, node_budget):
    """``min_cell_search`` with a drop that cuts the cell of every node from
    scratch: the reference for its reuse of an ancestor's cell."""
    ball = lattice_points(UNIT_BASIS, (0, 0, 0), radius * radius)
    pairs = sorted(
        ((sq_norm(v), v) for v in ball if v != (0, 0, 0) and d2 <= sq_norm(v)),
        reverse=True,
    )
    cands = [v for _, v in pairs]
    budget = NodeBudget(node_budget)
    best_volume, best_mask, uncertified = None, 0, False
    poly = vol = None

    def drop(chosen, cand, bound):
        nonlocal poly, vol
        poly = _cut_cell((0, 0, 0), radius, members(pairs, chosen | cand))
        vol = poly.volume()
        return best_volume is not None and vol >= best_volume

    completed = True
    try:
        for chosen in include_first(
            conflict_masks(cands, d2), 0, (1 << len(cands)) - 1, drop, budget,
            lambda v, _: (v,), [0],
        ):
            if poly.inside((0, 0, 0), radius):
                best_volume, best_mask = vol, chosen
            else:
                uncertified = True
    except BudgetExhaustedError:
        completed = False
    return MinCellResult(
        volume=best_volume,
        neighborhood=tuple(reversed(members(cands, best_mask))),
        completed=completed,
        certified=best_volume is not None and not uncertified,
        nodes=budget.nodes,
    )


@pytest.mark.parametrize(
    "d2,radius,node_budget",
    [
        (2, 3, None),
        (3, 3, None),
        (2, 4, None),
        (3, 4, None),
        (4, 3, 300),
        (5, 3, 300),
        # a cell cut in an earlier subtree has its facet points in a later
        # node's set, which also holds points outside that cell's set
        (4, 4, 50),
    ],
)
def test_min_cell_search_matches_recutting_every_node(d2, radius, node_budget):
    want = recutting_min_cell_search(d2, radius, node_budget)
    assert min_cell_search(d2, radius, node_budget) == want


def test_min_cell_search_rejects_small_radius():
    with pytest.raises(ValueError):
        min_cell_search(9, 2)


# ---------------------------------------------------------------------------
# reference cutter: every vertex an exact Fraction triple, every neighbor cut


def reference_cell(center, r, neighbors):
    """The cell cut from the cube of half-side r around center by the
    bisector of every neighbor, in Fraction arithmetic, and its volume."""
    corners = [
        tuple(Fraction(center[k] + s[k] * r) for k in range(3))
        for s in ((sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1))
    ]
    facets = []
    for axis in range(3):
        for sign in (-1, 1):
            normal = tuple(sign if i == axis else 0 for i in range(3))
            offset = sign * center[axis] + r
            members = {i for i, v in enumerate(corners) if dot(normal, v) == offset}
            facets.append((normal, offset, members))
    verts = corners
    c_sq = sq_norm(center)
    for y in sorted(neighbors, key=lambda y: (sq_norm(sub(y, center)), y)):
        normal = tuple(2 * (y[k] - center[k]) for k in range(3))
        verts, facets = _reference_cut(verts, facets, normal, sq_norm(y) - c_sq)
    cycles = [_reference_cycle(verts, sorted(m), a) for a, _, m in facets]
    volume = Fraction(0)
    for cycle in cycles:
        for i in range(1, len(cycle) - 1):
            p0, p1, p2 = verts[cycle[0]], verts[cycle[i]], verts[cycle[i + 1]]
            volume += dot(cross(p0, p1), p2)
    frozen = sorted(
        (Facet(a, b, c) for (a, b, _), c in zip(facets, cycles)),
        key=lambda f: (f.normal, f.offset),
    )
    return RationalPolytope(tuple(verts), tuple(frozen)), abs(volume) / 6


def _reference_cut(verts, facets, normal, offset):
    s = [dot(normal, v) - offset for v in verts]
    pos = [i for i, si in enumerate(s) if si > 0]
    if not pos:
        return verts, facets
    keep = [i for i, si in enumerate(s) if si <= 0]
    vfac = {i: {fi for fi, f in enumerate(facets) if i in f[2]} for i in range(len(verts))}
    new_pts, new_facsets = [], []
    for i in keep:
        if s[i] == 0:
            continue
        for j in pos:
            common = vfac[i] & vfac[j]
            if len(common) < 2:
                continue
            t = s[i] / (s[i] - s[j])
            pt = tuple(verts[i][k] + t * (verts[j][k] - verts[i][k]) for k in range(3))
            if pt in new_pts:
                new_facsets[new_pts.index(pt)] |= common
            else:
                new_pts.append(pt)
                new_facsets.append(set(common))
    index_map = {old: n for n, old in enumerate(keep)}
    base = len(keep)
    out = []
    for fi, (a, b, members) in enumerate(facets):
        kept = {index_map[i] for i in members if i in index_map}
        kept |= {base + k for k, fs in enumerate(new_facsets) if fi in fs}
        if len(kept) >= 3:
            out.append((a, b, kept))
    cut_members = {index_map[i] for i in keep if s[i] == 0}
    cut_members |= set(range(base, base + len(new_pts)))
    if len(cut_members) >= 3:
        out.append((normal, offset, cut_members))
    return [verts[i] for i in keep] + new_pts, out


def _reference_cycle(verts, members, normal):
    k = len(members)
    c = [sum(verts[i][a] for i in members) / k for a in range(3)]
    rel = {i: tuple(verts[i][a] - c[a] for a in range(3)) for i in members}
    ref = rel[members[0]]

    def half(w):
        d = dot(cross(ref, w), normal)
        return 0 if d > 0 or (d == 0 and dot(ref, w) > 0) else 1

    def cmp(i, j):
        hi, hj = half(rel[i]), half(rel[j])
        if hi != hj:
            return -1 if hi < hj else 1
        d = dot(cross(rel[i], rel[j]), normal)
        return -1 if d > 0 else (1 if d < 0 else 0)

    return tuple(sorted(members, key=functools.cmp_to_key(cmp)))


@st.composite
def cut_inputs(draw):
    center = draw(st.tuples(*[st.integers(-3, 3)] * 3))
    r = draw(st.integers(1, 4))
    offsets = st.tuples(*[st.integers(-2 * r, 2 * r)] * 3).filter(
        lambda v: v != (0, 0, 0)
    )
    neighbors = draw(st.lists(offsets, max_size=16))
    return center, r, [tuple(c + o for c, o in zip(center, v)) for v in neighbors]


# the 12 neighbours (+-1, +-1, 0) and their coordinate permutations
RHOMBIC_SHELL = [v for v in product((-1, 0, 1), repeat=3) if sq_norm(v) == 2]


@settings(max_examples=120, deadline=None)
@given(cut_inputs())
# x + y <= 2 passes exactly through the corners (1, 1, +-1) of the cube
@example(((0, 0, 0), 1, [(2, 2, 0)]))
# the rhombic dodecahedron: its fourfold vertices lie on four planes
@example(((0, 0, 0), 2, RHOMBIC_SHELL))
def test_cut_cell_matches_fraction_reference(inputs):
    center, r, neighbors = inputs
    cell = _cut_cell(center, r, keyed(center, neighbors)).freeze()
    want, volume = reference_cell(center, r, neighbors)
    assert cell == want
    assert cell_volume(cell) == volume


def facet_points(center, poly):
    """The neighbours whose bisectors carry a facet of the cut cell: the
    plane 2(y - center).z <= ... of each facet past the six cube planes."""
    _, _, cycles = poly._facets()
    return {
        add(center, tuple(a // 2 for a in poly.planes[p][0])) for p in cycles if p >= 6
    }


@settings(max_examples=120, deadline=None)
@given(cut_inputs(), st.lists(st.booleans(), min_size=1, max_size=16))
# (2, 0, 0) only touches the fourfold vertex (1, 0, 0); every shell point
# carries a facet, and the cell grows when any one of them is dropped
@example(((0, 0, 0), 2, RHOMBIC_SHELL + [(2, 0, 0), (0, 2, 2)]), [False])
# x <= 1/2 carries a facet; x <= 1 is the cube's face and never cuts
@example(((0, 0, 0), 1, [(1, 0, 0), (2, 0, 0)]), [True])
def test_cell_of_a_set_between_its_facet_points_and_itself(inputs, keep):
    # the reuse lemma of min_cell_search: for F(S) <= S' <= S the cell of S'
    # is the cell of S, and dropping a facet point changes the cell
    center, r, neighbors = inputs
    points = sorted(set(neighbors))
    poly = _cut_cell(center, r, keyed(center, points))
    cell, volume = set(poly.freeze().vertices), poly.volume()
    facets = facet_points(center, poly)
    assert facets <= set(points)
    rest = [y for y in points if y not in facets]
    kept = sorted(facets) + [y for i, y in enumerate(rest) if keep[i % len(keep)]]
    between = _cut_cell(center, r, keyed(center, kept))
    assert set(between.freeze().vertices) == cell
    assert between.volume() == volume
    want, want_volume = reference_cell(center, r, kept)
    assert set(want.vertices) == cell
    assert want_volume == volume
    for y in facets:
        less = [z for z in points if z != y]
        assert _cut_cell(center, r, keyed(center, less)).volume() > volume


@settings(max_examples=60, deadline=None)
@given(cut_inputs(), st.data())
def test_neighbors_beyond_twice_the_cell_radius_do_not_cut(inputs, data):
    center, r, neighbors = inputs
    cell = _cut_cell(center, r, keyed(center, neighbors)).freeze()
    r_sq = max(sq_norm(tuple(v[k] - center[k] for k in range(3))) for v in cell.vertices)
    far = data.draw(
        st.lists(st.tuples(*[st.integers(-6 * r, 6 * r)] * 3), min_size=1, max_size=8)
    )
    far = [y for y in (tuple(c + o for c, o in zip(center, v)) for v in far)
           if sq_norm(sub(y, center)) > 4 * r_sq]
    assume(far)
    assert _cut_cell(center, r, keyed(center, neighbors + far)).freeze() == cell
    assert reference_cell(center, r, neighbors + far)[0] == cell


@st.composite
def skewed_configurations(draw):
    """A non-diagonal HNF period of index <= 64, a d2 no larger than its
    shortest vector, and a greedy admissible set over randomly ordered sites."""
    a = draw(st.integers(1, 8))
    c = draw(st.integers(1, 64 // a))
    f = draw(st.integers(1, 64 // (a * c)))
    b, d = draw(st.integers(0, a - 1)), draw(st.integers(0, a - 1))
    e = draw(st.integers(0, c - 1))
    assume((b, d, e) != (0, 0, 0))
    q = quotient(hnf(((a, 0, 0), (b, c, 0), (d, e, f))))
    d2 = draw(st.integers(1, min(q.min_period_sq_norm(), 12)))
    occupied = []
    for x in draw(st.permutations(sorted(q.reps))):
        if all(q.pair_sq_distance(x, y) >= d2 for y in occupied):
            occupied.append(x)
    return Configuration(q, d2, frozenset(occupied))


@settings(max_examples=40, deadline=None)
@given(skewed_configurations())
def test_tessellation_on_random_skewed_periods(c):
    assert tessellation_check(c)
