"""Excitations (insertions with forced removals) and sliding detection."""

import itertools
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hc3.admissibility import Configuration, SitesOutsideWindowError, conflict_masks
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
    UNIT_BASIS,
    Quotient,
    Window,
    add,
    hnf,
    in_lattice,
    lattice_from_generators,
    lattice_points,
    quotient,
    sq_norm,
    sub,
)
from hc3.perturbations import (
    _DIRECTIONS,
    Excitation,
    ExcitationScan,
    SlidingMove,
    enumerate_excitations,
    find_sliding,
    insertion_conflicts,
    min_insertion_order,
    standard_selectors,
    standard_shifts,
)
from hc3.search import BudgetExhaustedError, NodeBudget
from test_admissibility import pairwise_admissible

DIAG2 = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
DIAG4 = ((4, 0, 0), (0, 4, 0), (0, 0, 4))


def sublattice_on_scaled_torus(d2, variant=None, scale=2):
    basis = known_sublattice(d2, variant)
    lat = lattice_from_generators(basis)
    q = quotient(scaled_basis(basis, scale))
    occupied = frozenset(x for x in q.reps if in_lattice(lat, x))
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
            out.extend(
                add(v, x) for v in lattice_points(c.domain.reduced, sub(o, x), c.d2 - 1)
            )
        return sorted(out)
    return sorted(o for o in c.occupied if sq_norm(sub(o, x)) < c.d2)


def revalidate_excitation(c: Configuration, exc: Excitation) -> bool:
    """Re-check an excitation against the periodic extension: added points
    pairwise admissible, removed exactly the conflict set, and no remaining
    configuration point too close to an added one."""
    d2 = c.d2
    added = exc.added
    for i, a in enumerate(added):
        for b in added[i + 1 :]:
            if sq_norm(sub(a, b)) < d2:
                return False
    removed = set()
    for a in added:
        removed.update(insertion_conflicts(c, a))
    return removed == set(exc.removed)


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


# a large d2 in a small window, with x inside the window, just outside it
# and 999 sites away: a window has no images, so the conflicts are found
# among its occupied sites, in no time at any distance
WIDE = Configuration(
    Window((0, 0, 0), (3, 0, 0)), 10**6, frozenset({(0, 0, 0), (3, 0, 0)})
)


@settings(max_examples=150, deadline=None)
@given(configurations_and_sites())
@example((WIDE, (1, 0, 0)))
@example((WIDE, (5, 1, -1)))
@example((WIDE, (999, 0, 0)))
@example((WIDE, (0, -1001, 0)))
def test_insertion_conflicts_match_image_loop(case):
    c, x = case
    assert insertion_conflicts(c, x) == reference_insertion_conflicts(c, x)


def reference_min_insertion_order(c):
    """The per-site scan: the conflicts of every unoccupied site of the
    domain, in order."""
    best, argmin = None, []
    for x in c.domain.sites():
        if x in c.occupied:
            continue
        order = len(insertion_conflicts(c, x)) - 1
        if best is None or order < best:
            best, argmin = order, [x]
        elif order == best:
            argmin.append(x)
    if best is None:
        raise ValueError("the domain has no unoccupied site")
    return best, argmin


@settings(max_examples=100, deadline=None)
@given(configurations_and_sites())
def test_min_insertion_order_matches_per_site_scan(case):
    c, _ = case
    full = Configuration(c.domain, c.d2, frozenset(c.domain.sites()))
    for config in (c, full):
        try:
            want = reference_min_insertion_order(config)
        except ValueError:
            with pytest.raises(ValueError, match="no unoccupied site"):
                min_insertion_order(config)
        else:
            assert min_insertion_order(config) == want


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


def reference_excitations(c, max_order, radius, budget=100_000):
    """The excitation scan by iterative deepening: round k walks every
    pairwise-admissible added set of size <= k again, with frozensets."""
    dom = c.domain
    candidates = [
        x
        for x in lattice_points(UNIT_BASIS, (0, 0, 0), radius * radius)
        if dom.reduce(x) not in c.occupied
    ]
    candidates.sort(key=lambda x: (sq_norm(x), x))
    conflict = conflict_masks(candidates, c.d2)
    conflict_points = {x: frozenset(insertion_conflicts(c, x)) for x in candidates}
    mask = sum(1 << dom.index_of(x) for x in c.occupied)
    stab_q = Quotient(lattice_from_generators([*dom.period, *dom.stabiliser(mask)]))
    found = {}
    counter = NodeBudget(budget)

    def canon(added, removed):
        shifts = {sub(stab_q.reduce(a), a) for a in added}
        return min(
            (
                tuple(sorted(add(x, t) for x in added)),
                tuple(sorted(add(x, t) for x in removed)),
            )
            for t in shifts
        )

    def dfs(start, added_mask, added, removed, cap):
        counter.spend()
        if added and len(removed) - len(added) <= max_order:
            found.setdefault(canon(added, removed))
        if len(added) == cap:
            return True
        hit_cap = False
        for i in range(start, len(candidates)):
            if added_mask & conflict[i]:
                continue
            x = candidates[i]
            hit_cap |= dfs(
                i + 1, added_mask | 1 << i, added | {x}, removed | conflict_points[x], cap
            )
        return hit_cap

    complete, cap = True, 1
    try:
        while dfs(0, 0, frozenset(), frozenset(), cap):
            cap += 1
    except BudgetExhaustedError:
        complete = False
    excitations = sorted(
        (Excitation(added=a, removed=r, order=len(r) - len(a)) for a, r in found),
        key=lambda e: (e.order, e.added, e.removed),
    )
    return ExcitationScan(tuple(excitations), complete, counter.nodes)


def admissible_added_sets(c, radius):
    """Every nonempty set of unoccupied ball points at pairwise squared
    distance >= d2, each extended point by point in ball order."""
    ball = [
        x
        for x in lattice_points(UNIT_BASIS, (0, 0, 0), radius * radius)
        if c.domain.reduce(x) not in c.occupied
    ]
    sets = []

    def extend(chosen, start):
        for i in range(start, len(ball)):
            if all(sq_norm(sub(ball[i], y)) >= c.d2 for y in chosen):
                sets.append((*chosen, ball[i]))
                extend(sets[-1], i + 1)

    extend((), 0)
    return sets


def test_excitations_of_the_empty_torus():
    """Every translation fixes the empty configuration, so its excitations
    are the nonempty admissible added sets up to every translation, with
    nothing removed.  A complete scan spends one node per such set."""
    c = Configuration(quotient(((3, 0, 0), (0, 3, 0), (0, 0, 3))), 2)
    ball = lattice_points(UNIT_BASIS, (0, 0, 0), 1)
    sets = [
        added
        for k in range(1, len(ball) + 1)
        for added in itertools.combinations(ball, k)
        if all(sq_norm(sub(x, y)) >= 2 for x, y in itertools.combinations(added, 2))
    ]
    classes = {min(tuple(sorted(sub(x, a) for x in added)) for a in added) for added in sets}
    scan = enumerate_excitations(c, 1, 1)
    assert (scan.complete, scan.nodes) == (True, len(sets))
    assert len(sets) == 64  # the origin alone, or any nonempty set of unit vectors
    assert sorted(e.added for e in scan.excitations) == sorted(classes)
    assert all(e.removed == () and e.order == -len(e.added) for e in scan.excitations)
    partial = enumerate_excitations(c, 5, 3, budget=300)
    assert (partial.complete, partial.nodes) == (False, 300)
    assert len(partial.excitations) == 63


@st.composite
def excitation_cases(draw):
    """An admissible site set on a skewed HNF torus of index <= 27 with
    d2 in 2..5, a radius of 1 or 2 and a maximum order in -3..3."""
    d2 = draw(st.integers(2, 5))
    a = draw(st.integers(2, 9))
    c = draw(st.integers(1, 27 // a))
    f = draw(st.integers(1, 27 // (a * c)))
    b, d = draw(st.integers(0, a - 1)), draw(st.integers(0, a - 1))
    e = draw(st.integers(0, c - 1))
    q = quotient(hnf(((a, 0, 0), (b, c, 0), (d, e, f))))
    assume(q.min_period_sq_norm() >= d2)
    occupied: list = []
    keep = draw(st.integers(0, 8))
    for x in draw(st.permutations(q.reps)):
        if keep and all(q.pair_sq_distance(x, y) >= d2 for y in occupied):
            occupied.append(x)
            keep -= 1
    radius, max_order = draw(st.integers(1, 2)), draw(st.integers(-3, 3))
    return Configuration(q, d2, frozenset(occupied)), radius, max_order


@settings(max_examples=80, deadline=None)
@given(excitation_cases())
def test_level_walk_matches_iterative_deepening(case):
    c, radius, max_order = case
    # from d2 = 4 on, enough for the reference to finish radius 2
    budget = 3_000 if c.d2 < 4 else 25_000
    ref = reference_excitations(c, max_order, radius, budget=budget)
    scan = enumerate_excitations(c, max_order, radius, budget=budget)
    if ref.complete:
        assert (scan.excitations, scan.complete) == (ref.excitations, True)
    else:
        # the reference finished every size below its largest recorded one,
        # on more nodes than the walk spends on those sizes
        k = max((len(e.added) for e in ref.excitations), default=1) - 1
        assert [e for e in scan.excitations if len(e.added) <= k] == [
            e for e in ref.excitations if len(e.added) <= k
        ]
    if scan.complete:
        assert scan.nodes == len(admissible_added_sets(c, radius))


def test_budget_stop_lists_every_smaller_excitation():
    """A budget of the number of admissible added sets of size <= k lets the
    scan finish level k: it lists every class with at most k added points."""
    empty = Configuration(quotient(((3, 0, 0), (0, 3, 0), (0, 0, 3))), 2)
    for c, max_order, radius in ((dhcp_doubled(), 4, 2), (empty, 1, 1)):
        sizes = Counter(map(len, admissible_added_sets(c, radius)))
        full = enumerate_excitations(c, max_order, radius, budget=sizes.total())
        assert full.complete
        for k in sorted(sizes):
            budget = sum(n for size, n in sizes.items() if size <= k)
            scan = enumerate_excitations(c, max_order, radius, budget=budget)
            assert scan.nodes == budget
            assert scan.complete == (k == max(sizes))
            assert scan.excitations == tuple(
                e for e in full.excitations if len(e.added) <= k
            )


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
    assert shifts == sorted(shifts)


def reference_sliding(c, selectors, shifts):
    """Sliding by one mesh_shift per shift, then the count, movement and
    pairwise admissibility checks, plus the rule that a whole-configuration
    selection is a global translation."""
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
            if shifted.occupied == c.occupied or not pairwise_admissible(shifted)[0]:
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
WINDOW_4X4 = Window((0, 0, 0), (3, 3, 0))


@st.composite
def sliding_cases(draw):
    """A small set on a skewed HNF torus of index <= 64 or in a window (often
    one or a few collinear sites, so whole-configuration selections occur),
    admissible but for a drawn number of sites that violate d2, line and
    plane selectors through random sites, and random shifts (zero
    included)."""
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
    keep, violating = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    for x in draw(st.permutations(sites)):
        if all(domain.pair_sq_distance(x, y) >= d2 for y in occupied):
            if keep:
                occupied.append(x)
                keep -= 1
        elif violating:
            occupied.append(x)
            violating -= 1
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
@example(  # the selected line holds a conflicting pair, which moves along
    (
        Configuration(WINDOW_4X4, 2, frozenset({(0, 0, 0), (1, 0, 0), (3, 3, 0)})),
        [LineSelector((0, 0, 0), (1, 0, 0))],
        [(0, 1, 0), (0, 2, 0)],
    )
)
@example(  # the conflicting pair stays behind in the rest
    (
        Configuration(WINDOW_4X4, 2, frozenset({(0, 0, 0), (1, 0, 0), (3, 3, 0)})),
        [LineSelector((3, 3, 0), (1, 0, 0))],
        [(0, -1, 0), (0, -2, 0)],
    )
)
@example(  # the shift (2, 0, 0) lands the moved site on the unmoved one
    (
        Configuration(Window((0, 0, 0), (3, 0, 0)), 2, frozenset({(0, 0, 0), (2, 0, 0)})),
        [PlaneSelector((0, 0, 0), (1, 0, 0))],
        [(2, 0, 0), (3, 0, 0)],
    )
)
def test_find_sliding_matches_per_shift_reference(case):
    c, selectors, shifts = case
    assert standard_selectors(c) == reference_selectors(c)
    assert find_sliding(c, selectors, shifts) == reference_sliding(c, selectors, shifts)
    assert find_sliding(c) == reference_sliding(
        c, reference_selectors(c), standard_shifts(2)
    )

