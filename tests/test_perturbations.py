"""Excitations (insertions with forced removals) and sliding detection."""

import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hc3.admissibility import Configuration, SitesOutsideWindowError
from hc3.catalog import (
    LineSelector,
    PlaneSelector,
    SelectorEmptyError,
    build_layered,
    known_sublattice,
    layered_quotient,
    mesh_shift,
    scaled_basis,
)
from hc3.lattice import (
    IDENTITY_OP,
    Quotient,
    Window,
    add,
    hnf,
    lattice_contains,
    lattice_points,
    quotient,
    sq_norm,
    sub,
)
from hc3.perturbations import (
    _DIRECTIONS,
    SlidingMove,
    enumerate_excitations,
    find_sliding,
    insertion_conflicts,
    min_insertion_order,
    revalidate_excitation,
    standard_selectors,
    standard_shifts,
)

DIAG2 = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
DIAG4 = ((4, 0, 0), (0, 4, 0), (0, 0, 4))


def sublattice_on_scaled_torus(d2, variant=None, scale=2):
    basis = known_sublattice(d2, variant)
    q = quotient(scaled_basis(basis, scale))
    occupied = frozenset(x for x in q.reps if lattice_contains(basis, x))
    return Configuration(q, d2, occupied)


def dfcc_doubled():
    q = quotient(scaled_basis(layered_quotient(5, "S").period, 2))
    return build_layered(5, "SS", on=q)


def dhcp_doubled():
    q = quotient(scaled_basis(layered_quotient(5, "ST").period, 2))
    return build_layered(5, "STST", on=q)


def test_insertion_conflicts_fcc():
    a3 = Configuration(
        quotient(DIAG2), 2, frozenset({(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)})
    )
    conflicts = insertion_conflicts(a3, (1, 0, 0))
    # the six unit neighbors of (1,0,0) all belong to the FCC structure
    assert len(conflicts) == 6
    assert all(sq_norm(sub(p, (1, 0, 0))) == 1 for p in conflicts)


def test_insertion_conflicts_empty_configuration():
    empty = Configuration(quotient(DIAG2), 2, frozenset())
    assert insertion_conflicts(empty, (0, 0, 0)) == []


def test_insertion_conflicts_requires_unoccupied():
    a3 = Configuration(
        quotient(DIAG2), 2, frozenset({(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)})
    )
    with pytest.raises(ValueError):
        insertion_conflicts(a3, (2, 0, 0))  # coset of the origin


def reference_insertion_conflicts(c, x):
    """Every periodic image of every particle strictly closer than the
    exclusion distance to x, found particle by particle; plain distances in
    a window."""
    if isinstance(c.domain, Quotient):
        out = []
        for o in sorted(c.occupied):
            out.extend(c.domain.images_near(o, x, c.d2 - 1))
        return sorted(out)
    return sorted(o for o in c.occupied if sq_norm(sub(o, x)) < c.d2)


small = st.integers(-6, 6)


@st.composite
def configurations_and_sites(draw):
    """A random occupied set (not necessarily admissible) on a skewed HNF
    torus of index <= 64 or in a small window, and an unoccupied site, on a
    torus anywhere in its coset."""
    d2 = draw(st.integers(1, 12))
    if draw(st.booleans()):
        a = draw(st.integers(1, 8))
        c = draw(st.integers(1, 64 // a))
        f = draw(st.integers(1, 64 // (a * c)))
        b, d = draw(st.integers(0, a - 1)), draw(st.integers(0, a - 1))
        e = draw(st.integers(0, c - 1))
        q = quotient(hnf(((a, 0, 0), (b, c, 0), (d, e, f))))
        assume(q.min_period_sq_norm() >= d2)
        occupied = draw(st.sets(st.sampled_from(q.reps)))
        x = draw(st.sampled_from(q.reps))
        assume(x not in occupied)
        x = add(x, add(q.period[0], q.period[draw(st.integers(0, 2))]))
        return Configuration(q, d2, frozenset(occupied)), x
    lo = draw(st.tuples(small, small, small))
    hi = tuple(v + draw(st.integers(0, 4)) for v in lo)
    w = Window(lo, hi)
    occupied = draw(st.sets(st.sampled_from(w.sites())))
    x = draw(st.tuples(small, small, small))
    assume(x not in occupied)
    return Configuration(w, d2, frozenset(occupied)), x


@settings(max_examples=150, deadline=None)
@given(configurations_and_sites())
def test_insertion_conflicts_match_image_loop(case):
    c, x = case
    assert insertion_conflicts(c, x) == reference_insertion_conflicts(c, x)


def test_dhcp_face_center_has_exactly_three_conflicts():
    dhcp = dhcp_doubled()
    conflicts = insertion_conflicts(dhcp, (0, 1, -1))
    assert len(conflicts) == 3
    assert all(sq_norm(sub(p, (0, 1, -1))) == 2 for p in conflicts)


def test_min_insertion_orders_distinguish_stackings():
    order_fcc, _ = min_insertion_order(dfcc_doubled())
    order_hcp, argmin = min_insertion_order(dhcp_doubled())
    assert order_hcp == 2
    assert order_fcc >= 3
    assert order_hcp < order_fcc
    assert argmin  # the face-center sites


def test_min_insertion_order_regression_2z3():
    c = sublattice_on_scaled_torus(4)
    order, _ = min_insertion_order(c)
    assert order == 1  # unit-offset sites conflict with exactly two particles


def test_min_insertion_order_on_single_cell_torus():
    # conflicts count periodic image particles, so the scan works even on the
    # sublattice's own quotient (one particle, 8 unoccupied cosets)
    c = Configuration(
        quotient(known_sublattice(5)), 5, frozenset({(0, 0, 0)})
    )
    order, _ = min_insertion_order(c)
    assert order >= 3


def test_excitations_dichotomy_at_d2_5():
    dhcp = dhcp_doubled()
    scan = enumerate_excitations(dhcp, 2, 2, budget=200_000)
    assert scan.complete
    assert scan.excitations
    for e in scan.excitations:
        assert e.order == 2
        assert len(e.added) == 1
        assert len(e.removed) == 3
        assert revalidate_excitation(dhcp, e)
    dfcc = dfcc_doubled()
    scan_fcc = enumerate_excitations(dfcc, 2, 2, budget=200_000)
    assert scan_fcc.complete
    assert scan_fcc.excitations == ()


def test_excitations_max_order_zero_empty():
    for c in (dfcc_doubled(), dhcp_doubled()):
        scan = enumerate_excitations(c, 0, 2, budget=200_000)
        assert scan.complete
        assert scan.excitations == ()


def test_excitations_of_the_empty_torus():
    """Every translation fixes the empty configuration, so its excitations
    are the nonempty admissible added sets up to every translation, with
    nothing removed.  The node counts are pinned."""
    c = Configuration(quotient(((3, 0, 0), (0, 3, 0), (0, 0, 3))), 2)
    ball = lattice_points(IDENTITY_OP, (0, 0, 0), 1)
    classes = {
        min(tuple(sorted(sub(x, a) for x in added)) for a in added)
        for k in range(1, len(ball) + 1)
        for added in itertools.combinations(ball, k)
        if all(sq_norm(sub(x, y)) >= 2 for x, y in itertools.combinations(added, 2))
    }
    scan = enumerate_excitations(c, 1, 1)
    assert (scan.complete, scan.nodes) == (True, 326)
    assert sorted(e.added for e in scan.excitations) == sorted(classes)
    assert all(e.removed == () and e.order == -len(e.added) for e in scan.excitations)
    partial = enumerate_excitations(c, 5, 3, budget=300)
    assert (partial.complete, partial.nodes) == (False, 300)
    assert len(partial.excitations) == 63


def test_excitations_budget_partial():
    dhcp = dhcp_doubled()
    scan = enumerate_excitations(dhcp, 2, 3, budget=2_000)
    assert not scan.complete
    assert scan.nodes == 2_000


def test_sliding_witness_2z3():
    c = sublattice_on_scaled_torus(4)
    moves = find_sliding(c)
    assert moves
    line_moves = [m for m in moves if isinstance(m.selector, LineSelector)]
    assert line_moves
    assert all(m.min_pair_sq_distance >= 4 for m in moves)


def test_sliding_witness_bcc_at_d2_11():
    c = sublattice_on_scaled_torus(11)
    sel = LineSelector((0, 0, 0), (1, 1, 1))
    moves = find_sliding(c, selectors=[sel], shifts=[(1, 1, 1)])
    assert len(moves) == 1
    assert moves[0].min_pair_sq_distance == 11


def test_same_shift_rejected_at_d2_12():
    c = sublattice_on_scaled_torus(12)
    sel = LineSelector((0, 0, 0), (1, 1, 1))
    assert find_sliding(c, selectors=[sel], shifts=[(1, 1, 1)]) == []


def test_no_sliding_on_rigid_catalog_structures():
    for d2 in (2, 3, 5, 8, 9, 10, 12):
        c = sublattice_on_scaled_torus(d2)
        assert find_sliding(c) == [], f"unexpected sliding at d2={d2}"


def test_sliding_in_a_window_skips_shifts_leaving_it():
    w = Window((0, 0, 0), (3, 3, 3))
    c = Configuration(w, 2, frozenset({(0, 0, 0), (1, 1, 0), (2, 0, 0), (0, 2, 0)}))
    line = LineSelector((0, 0, 0), (1, 0, 0))
    assert find_sliding(c, selectors=[line], shifts=[(5, 0, 0), (-1, 0, 0)]) == []
    moves = find_sliding(c)
    assert moves
    for m in moves:
        assert all(w.contains(add(x, m.shift)) for x in m.selector.select(c))


def test_standard_shifts():
    shifts = standard_shifts(2)
    assert len(shifts) == 18
    assert all(0 < sq_norm(t) <= 2 for t in shifts)
    assert (0, 0, 0) not in shifts


def reference_sliding(c, selectors, shifts):
    """Sliding by one mesh_shift per shift, then the count, movement and
    admissibility checks, plus the rule that a whole-configuration selection
    is a global translation."""
    moves = []
    for sel in selectors:
        if sel.select(c) == c.occupied:
            continue
        for t in shifts:
            try:
                shifted = mesh_shift(c, sel, t)
            except (SelectorEmptyError, SitesOutsideWindowError):
                continue
            if len(shifted.occupied) != len(c.occupied):
                continue
            if shifted.occupied == c.occupied or not shifted.is_admissible()[0]:
                continue
            moves.append(SlidingMove(sel, t, shifted.min_pair_sq_distance()))
    moves.sort(key=lambda m: (m.selector.describe(), m.shift))
    return moves


def reference_selectors(c):
    """Standard selectors deduplicated by a set of (kind, direction,
    selection) keys, one select per anchor."""
    selectors, seen = [], set()
    for d in _DIRECTIONS:
        for kind in (LineSelector, PlaneSelector):
            for anchor in sorted(c.occupied):
                sel = kind(anchor, d)
                selected = sel.select(c)
                key = (kind, d, selected)
                if not selected or selected == c.occupied or key in seen:
                    continue
                seen.add(key)
                selectors.append(sel)
    return selectors


nonzero = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)


@st.composite
def sliding_cases(draw):
    """A small admissible set on a skewed HNF torus of index <= 64 or in a
    window (often one or a few collinear sites, so whole-configuration
    selections occur), line and plane selectors through random sites, and
    random shifts (zero included)."""
    d2 = draw(st.integers(1, 4))
    if draw(st.booleans()):
        a = draw(st.integers(1, 8))
        c = draw(st.integers(1, 64 // a))
        f = draw(st.integers(1, 64 // (a * c)))
        b, d = draw(st.integers(0, a - 1)), draw(st.integers(0, a - 1))
        e = draw(st.integers(0, c - 1))
        domain = quotient(hnf(((a, 0, 0), (b, c, 0), (d, e, f))))
        assume(domain.min_period_sq_norm() >= d2)
        sites = list(domain.reps)
    else:
        lo = draw(st.tuples(small, small, small))
        domain = Window(lo, tuple(v + draw(st.integers(0, 3)) for v in lo))
        sites = list(domain.sites())
    occupied: list = []
    for x in draw(st.permutations(sites)):
        if all(domain.pair_sq_distance(x, y) >= d2 for y in occupied):
            occupied.append(x)
    occupied = occupied[: draw(st.integers(1, 6))]
    anchors = st.sampled_from(occupied + sites[:4])
    selectors = draw(
        st.lists(
            st.builds(LineSelector, anchors, nonzero)
            | st.builds(PlaneSelector, anchors, nonzero),
            max_size=4,
        )
    )
    shifts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), max_size=6))
    return Configuration(domain, d2, frozenset(occupied)), selectors, shifts


@settings(max_examples=100, deadline=None)
@given(sliding_cases())
@example(  # every site on one line: shifting the line is a global translation
    (
        Configuration(Window((0, 0, 0), (3, 0, 0)), 2, frozenset({(0, 0, 0), (2, 0, 0)})),
        [LineSelector((0, 0, 0), (1, 0, 0))],
        [(1, 0, 0)],
    )
)
def test_find_sliding_matches_per_shift_reference(case):
    c, selectors, shifts = case
    assert standard_selectors(c) == reference_selectors(c)
    assert find_sliding(c, selectors, shifts) == reference_sliding(c, selectors, shifts)
    assert find_sliding(c) == reference_sliding(
        c, reference_selectors(c), standard_shifts(2)
    )

