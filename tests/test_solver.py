"""Exact packing solver: oracle equivalence, counts, determinism, bounds."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hc3.admissibility import build_exclusion_graph
from hc3.catalog import known_sublattice, known_sublattice_keys, scaled_basis
from hc3.lattice import IDENTITY_OP, add, apply_symmetry, hnf, quotient, symmetry_group
from hc3.solver import (
    BudgetExhaustedError,
    _coset_images,
    _Counter,
    _greedy_clique_cover,
    _optima,
    _point_group,
    _prove_optimum,
    max_packing,
)

DIAG2 = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
DIAG4 = ((4, 0, 0), (0, 4, 0), (0, 0, 4))


def brute_force_optima(q, d2):
    """Independent oracle: every maximum independent set of the exclusion
    graph, as bitmasks, from a scan of all subsets."""
    g = build_exclusion_graph(q, d2)
    n = g.n
    adj = g.adjacency
    best = 0
    optima = []
    for mask in range(1 << n):
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if adj[v] & mask:
                ok = False
                break
        if not ok:
            continue
        size = mask.bit_count()
        if size > best:
            best, optima = size, [mask]
        elif size == best:
            optima.append(mask)
    return best, optima


def brute_force_optimum_and_count(q, d2):
    best, optima = brute_force_optima(q, d2)
    return best, len(optima)


def brute_force_orbit_count(q, masks):
    """Translation orbits of the given sets, each canonicalised over all n
    translations of the torus."""
    reps = q.reps
    perms = [[q.rep_index[q.reduce(add(r, t))] for r in reps] for t in reps]
    canon = set()
    for mask in masks:
        verts = [v for v in range(len(reps)) if mask >> v & 1]
        canon.add(min(sum(1 << p[v] for v in verts) for p in perms))
    return len(canon)


# quotients with at most 16 cosets that tolerate d2 up to 5
ORACLE_QUOTIENTS = [
    (DIAG2, (2, 3, 4)),
    (((2, 0, 0), (0, 2, 0), (0, 0, 4)), (2, 3, 4)),
    (((2, 0, 0), (0, 4, 0), (0, 0, 2)), (2, 3, 4)),
    (known_sublattice(5), (2, 3, 4, 5)),
    (known_sublattice(8), (2, 3, 4, 5)),
    (known_sublattice(6, "I"), (2, 3, 4, 5)),
    (((2, 0, 0), (0, 2, 0), (1, 1, 1)), (2, 3)),
    # optima that are not lattice cosets: some translation orbits meet
    # vertex 0 in more than one set
    (((2, 0, 0), (0, 2, 0), (0, 0, 3)), (2, 3)),
    (((2, 0, 0), (1, 2, 0), (0, 1, 3)), (2,)),
]


@pytest.mark.parametrize("period,d2s", ORACLE_QUOTIENTS)
def test_solver_matches_bruteforce(period, d2s):
    q = quotient(period)
    assert q.index <= 16
    for d2 in d2s:
        want_opt, want_count = brute_force_optimum_and_count(q, d2)
        got = max_packing(q, d2, count=True)
        assert got.optimum == want_opt
        assert got.count == want_count
        ok, _ = got.witness.is_admissible()
        assert ok and len(got.witness.occupied) == want_opt


@pytest.mark.parametrize("period,d2s", ORACLE_QUOTIENTS)
def test_orbit_count_matches_bruteforce(period, d2s):
    q = quotient(period)
    for d2 in d2s:
        _, optima = brute_force_optima(q, d2)
        want = brute_force_orbit_count(q, optima)
        assert max_packing(q, d2, mod_translations=True).count == want


@st.composite
def periods_and_d2(draw, max_index=64):
    """An HNF period of index <= max_index, skewed or a box, and a d2 up to
    its shortest squared norm."""
    d0 = draw(st.integers(1, 8))
    d1 = draw(st.integers(1, max_index // d0))
    d2 = draw(st.integers(1, max_index // (d0 * d1)))
    if draw(st.booleans()):
        period = ((d0, 0, 0), (0, d1, 0), (0, 0, d2))
    else:
        m10, m20 = draw(st.integers(0, d0 - 1)), draw(st.integers(0, d0 - 1))
        m21 = draw(st.integers(0, d1 - 1))
        period = ((d0, 0, 0), (m10, d1, 0), (m20, m21, d2))
    return period, draw(st.integers(1, quotient(period).min_period_sq_norm()))


@settings(max_examples=100, deadline=None)
@given(periods_and_d2(max_index=16))
def test_random_periods_match_bruteforce(case):
    period, d2 = case
    q = quotient(period)
    want_opt, optima = brute_force_optima(q, d2)
    got = max_packing(q, d2, count=True)
    assert (got.optimum, got.count) == (want_opt, len(optima))
    # the witness is the least optimum in lexicographic order of indices
    assert tuple(sorted(q.rep_index[s] for s in got.witness.occupied)) == min(
        tuple(v for v in range(q.index) if m >> v & 1) for m in optima
    )
    assert max_packing(q, d2, mod_translations=True).count == brute_force_orbit_count(
        q, optima
    )


def _phase1(graph, ops):
    counter = _Counter(None)
    return _prove_optimum(graph, ops, counter), counter.nodes


@settings(max_examples=300, deadline=None)
@given(periods_and_d2())
@example((((4, 0, 0), (0, 4, 0), (0, 0, 5)), 5))
@example((((2, 0, 0), (0, 3, 0), (0, 0, 3)), 2))
def test_orbital_branching_matches_plain_search(case):
    period, d2 = case
    q = quotient(period)
    graph = build_exclusion_graph(q, d2)
    adj = graph.adjacency
    ops = _point_group(q)
    # the group is the signed permutations with hnf(op . period) == period
    assert ops == [
        op for op in symmetry_group()
        if hnf(tuple(apply_symmetry(op, g) for g in q.period)) == q.period
    ]
    images = _coset_images(q, ops)
    for p in zip(*(images(v) for v in range(graph.n))):
        assert p[0] == 0
        assert sorted(p) == list(range(graph.n))
        for v in range(graph.n):
            neighbors = (u for u in range(graph.n) if adj[v] >> u & 1)
            assert sum(1 << p[u] for u in neighbors) == adj[p[v]]
    assert _phase1(graph, ops)[0] == _phase1(graph, [IDENTITY_OP])[0]


@settings(max_examples=300, deadline=None)
@given(periods_and_d2())
@example((((4, 0, 0), (0, 4, 0), (0, 0, 4)), 2))
def test_phase1_optimum_matches_phase2_search(case):
    # phase 2 shares no branching rule with phase 1: it finds a set of the
    # proven size k and none of any size from k + 1 up to the root cover
    # bound (a maximum set is a leaf of the search whose target is its size)
    period, d2 = case
    q = quotient(period)
    graph = build_exclusion_graph(q, d2)
    adj = graph.adjacency
    k = _phase1(graph, _point_group(q))[0]
    root = ((1 << graph.n) - 1) & ~adj[0] & ~1
    assert next(_optima(adj, root, 1, 1, k, _Counter(None)), None) is not None
    bound = 1 + len(_greedy_clique_cover(root, adj, graph.n))
    for target in range(k + 1, bound + 1):
        assert next(_optima(adj, root, 1, 1, target, _Counter(None)), None) is None


@pytest.mark.parametrize(
    "period,d2,count,nodes",
    [
        (((5, 0, 0), (0, 5, 0), (0, 0, 5)), 3, None, 626),
        (((6, 0, 0), (0, 6, 0), (0, 0, 6)), 8, None, 3157),
        (((5, 0, 0), (0, 5, 0), (0, 0, 5)), 5, None, 624),
        (((4, 0, 0), (1, 4, 0), (2, 1, 5)), 5, 160, 645),
        (((8, 0, 0), (0, 8, 0), (0, 0, 8)), 2, None, 384),
        (((6, 0, 0), (0, 6, 0), (0, 0, 6)), 6, None, 2017),
    ],
    # ids without the count, so that a re-pin keeps the test names
    ids=["diag5-d2=3", "diag6-d2=8", "diag5-d2=5", "skewed-d2=5-count",
         "diag8-d2=2", "diag6-d2=6"],
)
def test_node_counts_are_pinned(period, d2, count, nodes):
    # node counts are part of the determinism contract: a change to the
    # branching rule or the scan order shows here even when answers agree
    got = max_packing(quotient(period), d2, count=count is not None)
    assert (got.count, got.nodes) == (count, nodes)


def test_orbital_branching_cuts_nodes():
    # a point group that silently shrank to the identity would pass every
    # correctness oracle; the node count would not
    q = quotient(((5, 0, 0), (0, 5, 0), (0, 0, 5)))
    _, plain_nodes = _phase1(build_exclusion_graph(q, 5), [IDENTITY_OP])
    assert 4 * max_packing(q, 5).nodes <= plain_nodes


def list_scan_clique_cover(cand, adj):
    """Reference greedy cover, as vertex masks: scan candidates in index
    order and put each into the first clique whose common neighborhood
    holds it."""
    cliques = []  # [members, common neighborhood]
    for v in range(len(adj)):
        if not cand >> v & 1:
            continue
        for clique in cliques:
            if clique[1] >> v & 1:
                clique[0] |= 1 << v
                clique[1] &= adj[v]
                break
        else:
            cliques.append([1 << v, adj[v] & cand])
    return [members for members, _ in cliques]


COVER_GRAPHS = [
    build_exclusion_graph(quotient(DIAG4), 4).adjacency,
    build_exclusion_graph(quotient(((4, 0, 0), (1, 4, 0), (2, 1, 5))), 5).adjacency,
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(COVER_GRAPHS), st.data())
def test_clique_cover_matches_list_scan(adj, data):
    cand = data.draw(st.integers(0, (1 << len(adj)) - 1))
    cap = data.draw(st.integers(-2, len(adj)))
    cover = list_scan_clique_cover(cand, adj)
    assert _greedy_clique_cover(cand, adj, len(adj)) == cover
    # a negative cap is exceeded by the first clique
    assert _greedy_clique_cover(cand, adj, cap) == cover[: max(cap, 0) + 1]


def test_density_cardinality_table_small():
    q2 = quotient(DIAG2)
    for d2, opt, cnt in ((2, 4, 2), (3, 2, 4), (4, 1, 8)):
        r = max_packing(q2, d2, count=True)
        assert (r.optimum, r.count) == (opt, cnt)


def test_witness_is_lexicographically_least():
    q2 = quotient(DIAG2)
    r = max_packing(q2, 2)
    assert r.witness.sorted_sites() == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    r3 = max_packing(q2, 3)
    assert r3.witness.sorted_sites() == [(0, 0, 0), (1, 1, 1)]


def test_determinism_across_runs():
    q = quotient(DIAG4)
    results = [max_packing(q, 4, count=True) for _ in range(3)]
    base = results[0]
    for r in results[1:]:
        assert r.optimum == base.optimum
        assert r.count == base.count
        assert r.witness.occupied == base.witness.occupied


def test_count_modulo_translations():
    q2 = quotient(DIAG2)
    # the 4 BCC optima on the 2-torus form a single translation orbit
    assert max_packing(q2, 3, count=True).count == 4
    # mod_translations implies a count without count=True
    assert max_packing(q2, 3, mod_translations=True).count == 1
    assert max_packing(q2, 3, count=True, mod_translations=True).count == 1
    # the two FCC optima are also one orbit (they are shifts of each other)
    assert max_packing(q2, 2, mod_translations=True).count == 1


def test_one_particle_per_cell_on_catalog():
    for d2, variant in known_sublattice_keys():
        if d2 == 4:
            continue  # 2Z^3 is covered by the density table tests
        q = quotient(known_sublattice(d2, variant))
        assert max_packing(q, d2).optimum == 1


def test_monotonicity_in_d2():
    q = quotient(DIAG4)
    previous = None
    for d2 in (1, 2, 3, 4, 5, 6, 8, 9, 11, 12):
        if q.min_period_sq_norm() < d2:
            break
        opt = max_packing(q, d2).optimum
        if previous is not None:
            assert opt <= previous
        previous = opt


def test_budget_exhaustion_is_hard_error():
    q = quotient(scaled_basis(known_sublattice(5), 2))
    with pytest.raises(BudgetExhaustedError):
        max_packing(q, 5, node_budget=3)
    # a search that needs exactly the budget passes; one node less raises
    nodes = max_packing(q, 5).nodes
    assert max_packing(q, 5, node_budget=nodes).nodes == nodes
    with pytest.raises(BudgetExhaustedError):
        max_packing(q, 5, node_budget=nodes - 1)


def test_stats_populated():
    r = max_packing(quotient(DIAG2), 2)
    assert r.nodes > 0
    assert r.wall_time >= 0.0
