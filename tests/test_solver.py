"""Exact packing solver: oracle equivalence, counts, determinism, bounds."""

import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hc3.admissibility import build_exclusion_graph
from hc3.catalog import known_sublattice, known_sublattice_keys, scaled_basis
from hc3.lattice import (
    IDENTITY_OP,
    add,
    apply_symmetry,
    dot,
    hnf,
    quotient,
    sub,
    symmetry_group,
)
from hc3.search import (
    BudgetExhaustedError,
    NodeBudget,
    bit_rows,
    clique_cover,
    colour_classes,
    include_first,
    multiplicity,
)
from hc3.solver import _coset_images, _point_group, _prove_optimum, max_packing
from test_lattice import hnf_periods
from test_search import graphs, indices, isolated

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
    index = {r: i for i, r in enumerate(reps)}
    perms = [[index[q.reduce(add(r, t))] for r in reps] for t in reps]
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
    index = {r: i for i, r in enumerate(q.reps)}
    assert tuple(sorted(index[s] for s in got.witness.occupied)) == min(
        tuple(v for v in range(q.index) if m >> v & 1) for m in optima
    )
    assert max_packing(q, d2, mod_translations=True).count == brute_force_orbit_count(
        q, optima
    )


def _root(graph):
    """The root candidates of both phases: every label but n - 1 (vertex 0)
    and its neighbours."""
    return ((1 << graph.n - 1) - 1) & ~graph.adjacency[-1]


def _phase1(graph, ops):
    counter = NodeBudget(None)
    images = _coset_images(graph.quotient)
    optimum = _prove_optimum(graph.adjacency, _root(graph), images, ops, counter)
    return optimum, counter.nodes


def short_of(k):
    """Phase 2's drop: the chosen set plus the bound falls short of k."""
    return lambda chosen, cand, bound: chosen.bit_count() + bound < k


def _stream(graph, ops, drop, budget):
    """The include-first stream of the sets through vertex 0 (label n - 1)
    that `drop` keeps, branching on the orbits of `ops`: the witness phase."""
    adj, top = graph.adjacency, 1 << graph.n - 1
    images = _coset_images(graph.quotient)
    return include_first(adj, top, _root(graph), drop, budget, images, ops)


def _count_leaves(graph, ops, k, budget):
    """The count phase: the colour-class leaves of size k through vertex 0,
    branching on the orbits of `ops`, as (mask, multiplicity)."""
    adj, top = graph.adjacency, 1 << graph.n - 1
    images = _coset_images(graph.quotient)
    leaves = colour_classes(adj, top, _root(graph), lambda: k - 1, budget, images, ops)
    return [(mask, multiplicity(mask, path)) for mask, path in leaves]


@given(st.tuples(*[st.integers(-50, 50)] * 3))
def test_signed_permutations_are_the_matrices_in_order(v):
    # group positions fix the orbit order, and with it the pinned node counts
    # and the seeded benchmark inputs: op p acts as the p-th of the 48 signed
    # permutation matrices in lexicographic order
    matrices = sorted(
        tuple(
            tuple(signs[i] if j == perm[i] else 0 for j in range(3)) for i in range(3)
        )
        for perm in itertools.permutations(range(3))
        for signs in itertools.product((1, -1), repeat=3)
    )
    ops = symmetry_group()
    assert len(ops) == len(matrices) == 48
    for op, m in zip(ops, matrices):
        assert apply_symmetry(op, v) == tuple(dot(row, v) for row in m)


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
        op
        for op in symmetry_group()
        if hnf(tuple(apply_symmetry(op, g) for g in q.period)) == q.period
    ]
    # label v is coset n - 1 - v, and op acts on labels as on cosets
    images, n = _coset_images(q), graph.n
    for v in range(n):
        r = q.reps[n - 1 - v]
        assert images(v, ops) == [
            n - 1 - q.index_of(apply_symmetry(op, r)) for op in ops
        ]
    for p in zip(*(images(v, ops) for v in range(n))):
        assert p[n - 1] == n - 1
        assert sorted(p) == list(range(n))
        for v in range(graph.n):
            neighbors = (u for u in range(graph.n) if adj[v] >> u & 1)
            assert sum(1 << p[u] for u in neighbors) == adj[p[v]]
    assert _phase1(graph, ops)[0] == _phase1(graph, [IDENTITY_OP])[0]


@settings(max_examples=300, deadline=None)
@given(periods_and_d2())
@example((((4, 0, 0), (1, 4, 0), (2, 1, 5)), 5))
def test_box_reflection_reverses_labels_and_adjacency(case):
    # the identity both phases rest on: r -> c - r, c the far corner of the
    # HNF box, sends coset i to n - 1 - i and is an automorphism of the
    # exclusion graph, so a search over the labels n - 1 - i that takes the
    # highest vertex makes the same steps as one over i that takes the lowest
    period, d2 = case
    q = quotient(period)
    adj, n = build_exclusion_graph(q, d2).adjacency, q.index
    c = tuple(q.period[i][i] - 1 for i in range(3))
    for i, r in enumerate(q.reps):
        assert q.index_of(sub(c, r)) == n - 1 - i
    for v in range(n):
        assert adj[n - 1 - v] == int(format(adj[v], f"0{n}b")[::-1], 2)


@settings(max_examples=300, deadline=None)
@given(periods_and_d2())
@example((((4, 0, 0), (0, 4, 0), (0, 0, 4)), 2))
def test_phase1_optimum_matches_phase2_search(case):
    # phase 2 under the identity shares no branching rule with phase 1: it
    # finds a set of the proven size k and none of any size from k + 1 up to
    # the root cover bound (a maximum set is a leaf of the search whose
    # target is its size)
    period, d2 = case
    q = quotient(period)
    graph = build_exclusion_graph(q, d2)
    adj = graph.adjacency
    k = _phase1(graph, _point_group(q))[0]

    def optima(target):
        return _stream(graph, [IDENTITY_OP], short_of(target), NodeBudget(None))

    assert next(optima(k), None) is not None
    cliques, free = clique_cover(_root(graph), bit_rows(adj))
    bound = 1 + len(cliques) + free.bit_count()
    for target in range(k + 1, bound + 1):
        assert next(optima(target), None) is None


@pytest.mark.parametrize(
    "period,d2,count,nodes",
    [
        (((5, 0, 0), (0, 5, 0), (0, 0, 5)), 3, None, 626),
        (((6, 0, 0), (0, 6, 0), (0, 0, 6)), 8, None, 985),
        (((5, 0, 0), (0, 5, 0), (0, 0, 5)), 5, None, 624),
        (((4, 0, 0), (1, 4, 0), (2, 1, 5)), 5, 160, 297),
        (((8, 0, 0), (0, 8, 0), (0, 0, 8)), 2, None, 384),
        (((6, 0, 0), (0, 6, 0), (0, 0, 6)), 6, None, 2017),
        (((4, 0, 0), (0, 4, 0), (0, 0, 5)), 5, 14000, 260),
        (((6, 0, 0), (0, 6, 0), (0, 0, 6)), 12, 23490, 57),
        (((8, 0, 0), (0, 8, 0), (0, 0, 8)), 8, None, 5438),
    ],
    # ids without the count, so that a re-pin keeps the test names
    ids=["diag5-d2=3", "diag6-d2=8", "diag5-d2=5", "skewed-d2=5-count",
         "diag8-d2=2", "diag6-d2=6", "diag445-d2=5-count", "diag6-d2=12-count",
         "diag8-d2=8"],
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


@settings(max_examples=100, deadline=None)
@given(periods_and_d2())
@example((((4, 0, 0), (0, 4, 0), (0, 0, 5)), 5))
@example((((2, 0, 0), (0, 3, 0), (0, 0, 3)), 2))
def test_orbital_stream_matches_plain_stream(case):
    # branching on point-group orbits keeps the first optimum of the
    # include-first stream, and the colour-class count keeps, through the
    # leaf multiplicities, every weighted sum of a weight the point group
    # leaves invariant: the number of cosets and the size of the
    # translation stabiliser
    period, d2 = case
    q = quotient(period)
    graph = build_exclusion_graph(q, d2)
    k = _phase1(graph, _point_group(q))[0]
    # the plain stream is the oracle; thin periods such as
    # ((3,0,0),(2,1,0),(2,0,21)) at d2=2 have 699,051 optima through vertex
    # 0, which it cannot list in test time
    try:
        plain = list(_stream(graph, [IDENTITY_OP], short_of(k), NodeBudget(20_000)))
    except BudgetExhaustedError:
        assume(False)
    orbital = _stream(graph, _point_group(q), short_of(k), NodeBudget(None))
    assert next(orbital) == plain[0]
    counted = _count_leaves(graph, _point_group(q), k, NodeBudget(None))
    assert_count_matches(q, plain, counted)


def assert_count_matches(q, plain, counted):
    """The weighted colour-class leaves give the plain stream's number of
    optima and its sum of translation stabiliser sizes."""

    def stabiliser(mask):
        return len(q.stabiliser(mask))

    assert sum(mult for _, mult in counted) == len(plain)
    assert sum(stabiliser(m) * mult for m, mult in counted) == sum(
        stabiliser(m) for m in plain
    )


def test_count_matches_plain_stream_on_small_periods():
    # the colour-class count under the point group against the plain
    # include-first stream, on every HNF period of index <= 16 at every
    # admissible d2 up to 13
    cases = 0
    for period in hnf_periods(16):
        q = quotient(period)
        for d2 in range(1, min(13, q.min_period_sq_norm()) + 1):
            graph = build_exclusion_graph(q, d2)
            ops = _point_group(q)
            k = _phase1(graph, ops)[0]
            plain = list(_stream(graph, [IDENTITY_OP], short_of(k), NodeBudget(None)))
            counted = _count_leaves(graph, ops, k, NodeBudget(None))
            assert_count_matches(q, plain, counted)
            cases += 1
    assert cases > 1000


def test_phase2_orbital_branching_cuts_nodes():
    # a count whose point group silently shrank to the identity would pass
    # every correctness oracle; its node count would not
    q = quotient(((4, 0, 0), (0, 4, 0), (0, 0, 5)))
    graph = build_exclusion_graph(q, 5)
    k = _phase1(graph, _point_group(q))[0]
    nodes = {}
    for name, ops in (("point group", _point_group(q)), ("identity", [IDENTITY_OP])):
        budget = NodeBudget(None)
        _count_leaves(graph, ops, k, budget)
        nodes[name] = budget.nodes
    assert 4 * nodes["point group"] <= nodes["identity"]


def list_scan_clique_cover(cand, adj):
    """Reference greedy cover, as vertex masks: scan candidates in
    descending index order and put each into the first clique whose common
    neighborhood holds it."""
    cliques = []  # [members, common neighborhood]
    for v in reversed(range(len(adj))):
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


def candidates(data, adj):
    """A random candidate mask over the graph, the AND of one to four
    uniform masks, so that sparse ones with isolated candidates are common."""
    cand = (1 << len(adj)) - 1
    for _ in range(data.draw(st.integers(1, 4))):
        cand &= data.draw(st.integers(0, (1 << len(adj)) - 1))
    return cand


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(COVER_GRAPHS), st.data())
def test_clique_cover_matches_list_scan(adj, data):
    cand = candidates(data, adj)
    cliques, free = clique_cover(cand, bit_rows(adj))
    # the scan's cover of all the candidates is the cliques, in order, with
    # the isolated candidates as singletons among them
    cover = list_scan_clique_cover(cand, adj)
    assert [c for c in cover if not c & free] == cliques
    assert [c for c in cover if c & free] == [1 << v for v in indices(free)[::-1]]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(COVER_GRAPHS), graphs(max_n=12)), st.data())
def test_clique_cover_hands_back_the_isolated_candidates(adj, data):
    # the identity the solver rests on: an isolated candidate is a clique of
    # its own in the greedy cover, so the cover of the candidates is the
    # cover without them plus one singleton each
    cand = candidates(data, adj)
    cliques, free = clique_cover(cand, bit_rows(adj))
    assert free == isolated(cand, adj)
    assert cliques == list_scan_clique_cover(cand & ~free, adj)


def checked_short_of(adj, k):
    """Phase 2's drop, checking that the bound it is given is the isolated
    candidates of a reference scan plus the list-scan cover of the rest."""

    def drop(chosen, cand, bound):
        free = isolated(cand, adj)
        rest = cand & ~free
        assert bound == free.bit_count() + len(list_scan_clique_cover(rest, adj))
        return chosen.bit_count() + bound < k

    return drop


@settings(max_examples=100, deadline=None)
@given(periods_and_d2())
@example((((4, 0, 0), (0, 4, 0), (0, 0, 5)), 5))
def test_short_of_matches_isolated_then_cover(case):
    # every node of the witness stream under the point group is bounded by
    # its isolated candidates plus the list-scan cover of the rest; phase 1,
    # the witness up to its first leaf and the count spend the solver's
    # nodes, and the count's weighted leaves give its count
    period, d2 = case
    q = quotient(period)
    graph = build_exclusion_graph(q, d2)
    ops = _point_group(q)
    k, phase1_nodes = _phase1(graph, ops)
    witness, count = NodeBudget(None), NodeBudget(None)
    next(_stream(graph, ops, checked_short_of(graph.adjacency, k), witness))
    leaves = _count_leaves(graph, ops, k, count)
    got = max_packing(q, d2, count=True)
    assert graph.n * sum(mult for _, mult in leaves) == got.count * k
    assert phase1_nodes + witness.nodes + count.nodes == got.nodes


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
