"""The shared search pieces: both enumerators against brute force, the
include-first node bound and isolated candidates against reference scans,
orbit multiplicities, the node budget, and search depth beyond the recursion
limit."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hc3.lattice import quotient
from hc3.search import (
    BudgetExhaustedError,
    NodeBudget,
    colour_classes,
    include_first,
    multiplicity,
    orbit,
)
from hc3.solver import max_packing
from hc3.voronoi import min_cell_search


@st.composite
def graphs(draw, max_n=9):
    """A random conflict graph as symmetric adjacency masks."""
    n = draw(st.integers(0, max_n))
    adj = [0] * n
    for v in range(n):
        for u in range(v + 1, n):
            if draw(st.booleans()):
                adj[v] |= 1 << u
                adj[u] |= 1 << v
    return tuple(adj)


def brute_force_maximal_sets(adj):
    """Every maximal independent set, as a mask, from a scan of all subsets."""
    n = len(adj)
    everything = (1 << n) - 1
    out = []
    for mask in range(1 << n):
        if any(mask >> v & 1 and adj[v] & mask for v in range(n)):
            continue
        blocked = mask
        for v in range(n):
            if mask >> v & 1:
                blocked |= adj[v]
        if blocked == everything:
            out.append(mask)
    return out


def isolated(cand, adj):
    """Reference scan: the mask of the candidates with no remaining
    conflict."""
    found, m = 0, cand
    while m:
        low = m & -m
        m ^= low
        if not adj[low.bit_length() - 1] & cand:
            found |= low
    return found


def max_independent_size(cand, adj):
    """The size of the largest independent subset of the candidates, from a
    scan of all their subsets."""
    best, sub = 0, cand
    while sub:
        if sub.bit_count() > best and not any(adj[v] & sub for v in indices(sub)):
            best = sub.bit_count()
        sub = (sub - 1) & cand
    return best


def never(chosen, cand, bound):
    """The drop that drops no node."""
    return False


def indices(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def reflected(mask, n):
    """The sort key of include_first's leaf order: the sorted indices of the
    mask under the reflection v -> n - 1 - v."""
    return tuple(sorted(n - 1 - v for v in indices(mask)))


def identity(v, group):
    return (v,)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data())
def test_include_first_matches_bruteforce(adj, data):
    n = len(adj)
    budget = NodeBudget(None)
    leaves = list(include_first(adj, 0, (1 << n) - 1, never, budget, identity, [0]))
    for mask in leaves:
        assert not any(mask >> v & 1 and adj[v] & mask for v in range(n))
    # highest candidate first: lexicographic order of the reflected sorted
    # index tuples, each leaf once
    keys = [reflected(m, n) for m in leaves]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # every maximal set is a leaf (a leaf need not be maximal)
    assert set(brute_force_maximal_sets(adj)) <= set(leaves)
    # a budget below the full search stops it after exactly that many nodes
    limit = data.draw(st.integers(0, budget.nodes))
    stopped = NodeBudget(limit)
    search = include_first(adj, 0, (1 << n) - 1, never, stopped, identity, [0])
    if limit < budget.nodes:
        with pytest.raises(BudgetExhaustedError):
            list(search)
    else:
        assert list(search) == leaves
    assert stopped.nodes == limit


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10), st.data())
def test_include_first_bound_and_isolated_candidates(adj, data):
    # at every node the bound is at least the MIS size of the candidates,
    # and exactly the reference scan's isolated candidates move into the
    # chosen set: the include child, which runs next, or the leaf carries them
    n = len(adj)
    expected = []

    def drop(chosen, cand, bound):
        if expected:
            assert chosen == expected.pop()
        assert bound >= max_independent_size(cand, adj)
        if data.draw(st.booleans()):
            return True
        free = isolated(cand, adj)
        top = 1 << (cand ^ free).bit_length() >> 1  # 0 if no candidate is left
        expected.append(chosen | free | top)
        return False

    budget = NodeBudget(None)
    for mask in include_first(adj, 0, (1 << n) - 1, drop, budget, identity, [0]):
        assert mask == expected.pop()
    assert not expected


def rotations(v, group):
    """The images of a vertex of the 6-cycle under the rotations by the
    amounts in the group."""
    return [(v + r) % 6 for r in group]


def test_orbit_is_stabiliser_and_orbit_mask():
    assert orbit(rotations, list(range(6)), 2) == ([0], 0b111111)
    # the subgroup {0, 3} of the half turn: orbits are antipodal pairs
    assert orbit(rotations, [0, 3], 1) == ([0], 0b010010)
    assert orbit(identity, [0], 4) == ([0], 0b10000)
    # only the group's own images are computed
    asked = []
    orbit(lambda v, group: asked.append(group) or rotations(v, group), [0, 3], 1)
    assert asked == [[0, 3]]


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10), st.data())
def test_colour_classes_match_bruteforce(adj, data):
    # under the identity, a floor that rises to each leaf finds the maximum
    # size k, and the floor k - 1 yields every maximum set once, each with
    # multiplicity 1
    everything = (1 << len(adj)) - 1
    k = max(map(int.bit_count, brute_force_maximal_sets(adj)))
    best, budget = 0, NodeBudget(None)
    rising = colour_classes(adj, 0, everything, lambda: best, budget, identity, [0])
    for mask, _ in rising:
        assert mask.bit_count() > best
        best = mask.bit_count()
    assert best == k
    full = NodeBudget(None)
    pairs = list(colour_classes(adj, 0, everything, lambda: k - 1, full, identity, [0]))
    leaves = [mask for mask, _ in pairs]
    assert len(set(leaves)) == len(leaves)
    maximum = {m for m in brute_force_maximal_sets(adj) if m.bit_count() == k}
    assert set(leaves) == maximum
    assert all(multiplicity(mask, path) == 1 for mask, path in pairs)
    # a budget below the full search stops it after exactly that many nodes
    limit = data.draw(st.integers(0, full.nodes))
    stopped = NodeBudget(limit)
    search = colour_classes(adj, 0, everything, lambda: k - 1, stopped, identity, [0])
    if limit < full.nodes:
        with pytest.raises(BudgetExhaustedError):
            list(search)
    else:
        assert list(search) == pairs
    assert stopped.nodes == limit


def test_rotations_of_a_cycle_weight_each_maximal_set():
    # the 6-cycle under its rotations: include_first cut to the maximal
    # independent sets {0,2,4}, {1,3,5}, {0,3}, {1,4} and {2,5} keeps its
    # first leaf, and the colour-class leaves of the maximum size 3 carry
    # multiplicities that add up to the 2 maximum sets
    adj = tuple((1 << (v + 1) % 6) | (1 << (v - 1) % 6) for v in range(6))

    def not_maximal(chosen, cand, bound):
        free = isolated(cand, adj)
        blocked = chosen | free
        for v in indices(blocked):
            blocked |= adj[v]
        return cand == free and blocked != 63

    def leaves(images, group):
        budget = NodeBudget(None)
        return list(include_first(adj, 0, 63, not_maximal, budget, images, group))

    plain = leaves(identity, [0])
    assert sorted(plain) == brute_force_maximal_sets(adj)
    # the least in reflected order: {1, 3, 5} reflects to {0, 2, 4}
    assert leaves(rotations, list(range(6)))[0] == plain[0] == 0b101010

    def maximum(budget, images, group):
        return list(colour_classes(adj, 0, 63, lambda: 2, budget, images, group))

    plain_budget, budget = NodeBudget(None), NodeBudget(None)
    assert sorted(mask for mask, _ in maximum(plain_budget, identity, [0])) == [
        0b010101,
        0b101010,
    ]
    orbital = maximum(budget, rotations, list(range(6)))
    assert sum(multiplicity(mask, path) for mask, path in orbital) == 2
    assert budget.nodes < plain_budget.nodes


def test_search_depth_is_not_bounded_by_the_call_stack():
    # the 8^3 FCC optimum has 256 sites, so a search that took one call
    # frame per chosen vertex would pass a limit 60 frames above the caller
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        packing = max_packing(quotient(((8, 0, 0), (0, 8, 0), (0, 0, 8))), 2, count=True)
        cell = min_cell_search(3, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert (packing.optimum, packing.count) == (256, 2)
    assert cell.volume == 4
