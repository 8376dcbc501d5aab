"""Configurations, the exclusion constraint, and exclusion graphs."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hc3.admissibility import (
    Configuration,
    PeriodTooShortError,
    SitesOutsideWindowError,
    build_exclusion_graph,
    conflict_masks,
    offsets_closer_than,
)
from hc3.catalog import known_sublattice
from hc3.lattice import Window, add, quotient, sq_norm, sub
from test_lattice import hnf_periods, sheared_periods
from test_solver import periods_and_d2

DIAG2 = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
DIAG4 = ((4, 0, 0), (0, 4, 0), (0, 0, 4))

A3_ON_DIAG2 = frozenset({(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)})


def a3_diag2(d2=2):
    return Configuration(quotient(DIAG2), d2, A3_ON_DIAG2)


def test_admissible_examples():
    ok, pair = a3_diag2().is_admissible()
    assert ok and pair is None

    c = Configuration(quotient(DIAG4), 2, frozenset({(0, 0, 0), (1, 0, 0)}))
    ok, pair = c.is_admissible()
    assert not ok
    assert pair == ((0, 0, 0), (1, 0, 0))
    assert c.pair_sq_distance(*pair) == 1

    bcc = Configuration(quotient(DIAG2), 3, frozenset({(0, 0, 0), (1, 1, 1)}))
    assert bcc.is_admissible() == (True, None)


def test_period_too_short_is_constructor_error():
    with pytest.raises(PeriodTooShortError):
        Configuration(quotient(DIAG2), 5, frozenset({(0, 0, 0)}))
    with pytest.raises(PeriodTooShortError):
        build_exclusion_graph(quotient(DIAG2), 5)


def test_density_examples():
    assert a3_diag2().density() == Fraction(1, 2)
    bcc = Configuration(
        quotient(DIAG4), 12, frozenset({(0, 0, 0), (2, 2, 2)})
    )
    assert bcc.density() == Fraction(1, 32)
    empty = Configuration(quotient(DIAG2), 2, frozenset())
    assert empty.density() == 0


def test_min_pair_sq_distance_examples():
    # imported here: test_perturbations imports this module
    from test_perturbations import sublattice_on_scaled_torus

    # all cosets of the d2=5 sublattice inside the doubled torus
    c = sublattice_on_scaled_torus(5)
    assert len(c.occupied) == 8
    assert c.min_pair_sq_distance() == 5

    c9 = sublattice_on_scaled_torus(9)
    assert c9.min_pair_sq_distance() == 9

    two_z3 = Configuration(
        quotient(DIAG4),
        4,
        frozenset((x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)),
    )
    assert two_z3.min_pair_sq_distance() == 4


def test_min_pair_includes_period_for_single_particle():
    c = Configuration(quotient(known_sublattice(5)), 5, frozenset({(0, 0, 0)}))
    assert c.min_pair_sq_distance() == 5


def test_min_pair_requires_particles():
    # no pair: an empty torus, or a window with fewer than two sites
    assert Configuration(quotient(DIAG2), 2, frozenset()).min_pair_sq_distance() is None
    w = Window((0, 0, 0), (3, 3, 3))
    assert Configuration(w, 2, frozenset()).min_pair_sq_distance() is None
    assert Configuration(w, 2, frozenset({(0, 0, 0)})).min_pair_sq_distance() is None
    pair = frozenset({(0, 0, 0), (3, 1, 0)})
    assert Configuration(w, 2, pair).min_pair_sq_distance() == 10


def test_insertion_candidates():
    assert a3_diag2().insertion_candidates() == []
    empty = Configuration(quotient(DIAG2), 2, frozenset())
    assert len(empty.insertion_candidates()) == 8
    bcc = Configuration(quotient(DIAG4), 12, frozenset({(0, 0, 0), (2, 2, 2)}))
    assert bcc.insertion_candidates() == []


def test_insertion_preserves_admissibility():
    empty = Configuration(quotient(DIAG4), 4, frozenset())
    c = empty
    for _ in range(4):
        cands = c.insertion_candidates()
        if not cands:
            break
        c = c.with_sites(c.occupied | {cands[0]})
        assert c.is_admissible()[0]


@st.composite
def sheared_periods_and_d2(draw):
    """An HNF period with nonzero shear and a d2 up to min(13, its shortest
    squared norm)."""
    period = draw(sheared_periods())
    return period, draw(st.integers(1, min(13, quotient(period).min_period_sq_norm())))


@settings(max_examples=60, deadline=None)
@given(sheared_periods_and_d2())
@example((DIAG2, 1))
@example((DIAG2, 2))
@example((DIAG2, 3))
@example((DIAG2, 4))
@example((((12, 0, 0), (7, 2, 0), (9, 1, 1)), 5))  # shortest squared norm 5
def test_exclusion_graph_degrees_match_bruteforce(case):
    period, d2 = case
    q = quotient(period)
    g = build_exclusion_graph(q, d2)
    for i, a in enumerate(q.reps):
        brute = {
            j
            for j, b in enumerate(q.reps)
            if j != i and 0 < q.pair_sq_distance(a, b) < d2
        }
        assert g.adjacency[i] == sum(1 << j for j in brute)
    # vertex transitivity: constant degree
    assert len({m.bit_count() for m in g.adjacency}) == 1


def per_offset_graph(q, d2):
    """Reference build: every row from the conflict offsets, each neighbour
    by the position of its reduced coset in `reps`."""
    index = {r: i for i, r in enumerate(q.reps)}
    offsets = offsets_closer_than(d2)
    return tuple(
        sum(1 << j for j in {index[q.reduce(add(a, v))] for v in offsets})
        for a in q.reps
    )


def test_exclusion_graph_matches_per_offset_build_on_small_periods():
    # row 0 from the offsets and every other row by translation, against
    # every row from the offsets, on every HNF period of index <= 16
    cases = 0
    for period in hnf_periods(16):
        q = quotient(period)
        for d2 in range(1, min(13, q.min_period_sq_norm()) + 1):
            assert build_exclusion_graph(q, d2).adjacency == per_offset_graph(q, d2)
            cases += 1
    assert cases > 1000


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-4, 4)] * 3), max_size=40, unique=True),
    st.integers(1, 14),
)
def test_conflict_masks_match_pairwise(points, d2):
    brute = [
        sum(
            1 << j
            for j, b in enumerate(points)
            if j != i and sq_norm(sub(a, b)) < d2
        )
        for i, a in enumerate(points)
    ]
    assert conflict_masks(points, d2) == brute


def test_exclusion_graph_degree_values():
    # on the 2-torus: d2=2 excludes squared distance 1 (3 neighbors),
    # d2=3 also excludes squared distance 2 (6 neighbors),
    # d2=4 also excludes 3 (7 neighbors: the full graph)
    degs = {
        d2: build_exclusion_graph(quotient(DIAG2), d2).adjacency[0].bit_count()
        for d2 in (1, 2, 3, 4)
    }
    assert degs == {1: 0, 2: 3, 3: 6, 4: 7}


@settings(max_examples=200, deadline=None)
@given(periods_and_d2())
@example((((12, 0, 0), (7, 2, 0), (9, 1, 1)), 5))
def test_exclusion_graph_matches_pairwise_and_rotates(case):
    period, d2 = case
    q = quotient(period)
    reps = q.reps
    adj = build_exclusion_graph(q, d2).adjacency
    assert adj == tuple(
        sum(
            1 << j
            for j, b in enumerate(reps)
            if j != i and 0 < q.pair_sq_distance(a, b) < d2
        )
        for i, a in enumerate(reps)
    )
    # the translation by (1, 0, 0) shifts every index by one block
    n = q.index
    step = n // q.period[0][0]
    full = (1 << n) - 1
    for i, row in enumerate(adj):
        s = i // step * step
        base = adj[i % step]
        assert row == ((base << s) | (base >> (n - s))) & full


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(sorted(quotient(DIAG2).reps)), max_size=8), st.sampled_from([2, 3, 4]))
def test_admissible_iff_independent(occupied, d2):
    q = quotient(DIAG2)
    g = build_exclusion_graph(q, d2)
    c = Configuration(q, d2, frozenset(occupied))
    index = {r: i for i, r in enumerate(q.reps)}
    mask = sum(1 << index[x] for x in occupied)
    independent = all(not g.adjacency[index[x]] & mask for x in occupied)
    assert c.is_admissible()[0] == independent


def pairwise_admissible(c):
    """The O(n^2) oracle for `is_admissible`: every pair of sorted sites by
    its minimum-image (torus) or plain (window) distance; on failure the
    first violating pair."""
    sites = c.sorted_sites()
    for i, a in enumerate(sites):
        for b in sites[i + 1 :]:
            if c.pair_sq_distance(a, b) < c.d2:
                return False, (a, b)
    return True, None


@st.composite
def site_sets(draw):
    """Any set of sites (often inadmissible) on a skewed HNF torus of index
    <= 64 or in a small window, whose d2 may exceed its diagonal."""
    if draw(st.booleans()):
        period, d2 = draw(periods_and_d2())
        domain = quotient(period)
    else:
        lo = draw(st.tuples(*[st.integers(-3, 3)] * 3))
        domain = Window(lo, tuple(v + draw(st.integers(0, 3)) for v in lo))
        d2 = draw(st.integers(1, 40))
    occupied = draw(st.sets(st.sampled_from(domain.sites()), max_size=12))
    return Configuration(domain, d2, frozenset(occupied))


@settings(max_examples=150, deadline=None)
@given(site_sets())
@example(  # far beyond the window's diagonal: every pair conflicts
    Configuration(Window((0, 0, 0), (3, 0, 0)), 10**6, frozenset({(0, 0, 0), (3, 0, 0)}))
)
def test_conflicting_pairs_match_pairwise_oracle(c):
    sites = c.sorted_sites()
    assert list(c.conflicting_pairs()) == [
        (a, b)
        for i, a in enumerate(sites)
        for b in sites[i + 1 :]
        if c.pair_sq_distance(a, b) < c.d2
    ]
    assert c.is_admissible() == pairwise_admissible(c)


@settings(max_examples=300, deadline=None)
@given(sheared_periods(), st.data())
def test_torus_conflicting_pairs_match_pairwise_on_sheared_periods(period, data):
    # the torus pairs come from one translated offset row per site, whose
    # wraps all cross the shear here
    q = quotient(period)
    d2 = data.draw(st.integers(1, q.min_period_sq_norm()))
    occupied = data.draw(st.sets(st.sampled_from(q.reps), max_size=16))
    c = Configuration(q, d2, frozenset(occupied))
    sites = c.sorted_sites()
    assert list(c.conflicting_pairs()) == [
        (a, b)
        for i, a in enumerate(sites)
        for b in sites[i + 1 :]
        if q.pair_sq_distance(a, b) < d2
    ]


def test_window_admissibility_is_free_boundary():
    w = Window((0, 0, 0), (4, 4, 0))
    c = Configuration(w, 4, frozenset({(0, 0, 0), (4, 0, 0), (0, 4, 0)}))
    assert c.is_admissible()[0]
    assert c.density() == Fraction(3, 25)
    bad = Configuration(w, 4, frozenset({(0, 0, 0), (1, 0, 0)}))
    ok, pair = bad.is_admissible()
    assert not ok and pair == ((0, 0, 0), (1, 0, 0))


def test_window_rejects_outside_sites():
    w = Window((0, 0, 0), (2, 2, 2))
    with pytest.raises(SitesOutsideWindowError) as err:
        Configuration(w, 2, frozenset({(5, 0, 0), (1, 1, 1), (0, 0, -1)}))
    assert err.value.sites == [(0, 0, -1), (5, 0, 0)]
