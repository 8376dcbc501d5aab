"""The shared search pieces: the include-first enumerator against brute
force, its node bound and isolated candidates against reference scans, the
node budget, and search depth beyond the recursion limit."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hc3.lattice import quotient
from hc3.search import BudgetExhaustedError, NodeBudget, include_first, orbit
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
    pairs = list(include_first(adj, 0, (1 << n) - 1, never, budget, identity, [0]))
    # under the identity group every leaf has multiplicity 1
    assert all(mult == 1 for _, mult in pairs)
    leaves = [mask for mask, _ in pairs]
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
        assert list(search) == pairs
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
    for mask, _ in include_first(adj, 0, (1 << n) - 1, drop, budget, identity, [0]):
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


def test_rotations_of_a_cycle_weight_each_maximal_set():
    # the 6-cycle under its rotations, cut to the maximal independent sets
    # {0,2,4}, {1,3,5}, {0,3}, {1,4} and {2,5}: the multiplicities of the
    # orbital leaves add up to their number, and the first leaf is the same
    adj = tuple((1 << (v + 1) % 6) | (1 << (v - 1) % 6) for v in range(6))

    def not_maximal(chosen, cand, bound):
        free = isolated(cand, adj)
        blocked = chosen | free
        for v in indices(blocked):
            blocked |= adj[v]
        return cand == free and blocked != 63

    def leaves(budget, images, group):
        return list(include_first(adj, 0, 63, not_maximal, budget, images, group))

    plain_budget, budget = NodeBudget(None), NodeBudget(None)
    plain = leaves(plain_budget, identity, [0])
    assert sorted(mask for mask, _ in plain) == brute_force_maximal_sets(adj)
    assert len(plain) == 5
    orbital = leaves(budget, rotations, list(range(6)))
    # the least in reflected order: {1, 3, 5} reflects to {0, 2, 4}
    assert orbital[0][0] == plain[0][0] == 0b101010
    assert sum(mult for _, mult in orbital) == 5
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
