"""The shared search pieces: the include-first enumerator against brute
force, and the node budget."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hc3.search import BudgetExhaustedError, NodeBudget, include_first


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


def never(chosen, cand):
    return False


def indices(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data())
def test_include_first_matches_bruteforce(adj, data):
    n = len(adj)
    budget = NodeBudget(None)
    leaves = list(include_first(adj, 0, (1 << n) - 1, never, budget))
    for mask in leaves:
        assert not any(mask >> v & 1 and adj[v] & mask for v in range(n))
    # lexicographic order of sorted index tuples, each leaf once
    keys = [indices(m) for m in leaves]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # every maximal set is a leaf (a leaf need not be maximal)
    assert set(brute_force_maximal_sets(adj)) <= set(leaves)
    # a budget below the full search stops it after exactly that many nodes
    limit = data.draw(st.integers(0, budget.nodes))
    stopped = NodeBudget(limit)
    if limit < budget.nodes:
        with pytest.raises(BudgetExhaustedError):
            list(include_first(adj, 0, (1 << n) - 1, never, stopped))
    else:
        assert list(include_first(adj, 0, (1 << n) - 1, never, stopped)) == leaves
    assert stopped.nodes == limit
