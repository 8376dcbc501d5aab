"""Exact maximum-density packing on a quotient.

The optimum packing is the maximum independent set (MIS) of the exclusion
graph.  The search is a bitmask branch-and-bound: candidates are Python-int
bitmasks (arbitrary width), the upper bound is a greedy clique cover of the
candidate subgraph, and branching follows the highest-degree rule for the
optimum phase and lexicographic include-first order for the witness/count
phase, which makes the reported witness the lexicographically least optimal
set under the fixed coset order.

Torus translations act transitively on the cosets, so both phases search
only the sets that contain vertex 0.  The lexicographically least optimum
contains vertex 0, and double counting gives the number of optima as
n * c0 / k, where c0 of them contain vertex 0 and k is the optimum.  The
translation orbit of an optimal set S meets the sets through vertex 0 in the
k translates S - s (s in S), the least of which is the orbit's canonical
form.

The optimum phase also uses the point group of the torus: the signed
permutations that map the period lattice onto itself fix vertex 0 and are
automorphisms of the exclusion graph.  It branches on orbits (orbital
branching, Ostrowski, Linderoth, Rossi & Smriglio 2011): each node carries
the subgroup that maps its candidates onto themselves; the include child
takes v with the stabiliser of v, the exclude child drops the whole orbit of
v and keeps the group.  Any optimum that meets the orbit has an image through
v, so the optimum is the same as without symmetry, in far fewer nodes.  The
witness/count phase and the orbit count do not use the point group.

Determinism contract: the search is one sequential depth-first pass, so
optimum, witness, count and the node count of each phase depend only on the
input.  The ``threads`` argument is accepted for compatibility and has no
effect.  The search never returns an unproven optimum: exceeding the node
budget raises instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import isqrt
from typing import Callable

from .admissibility import (
    Configuration,
    ExclusionGraph,
    PeriodTooShortError,
    build_exclusion_graph,
)
from .lattice import Quotient, SymmetryOp, apply_symmetry, sub, symmetry_group

__all__ = [
    "PackingResult",
    "BudgetExhaustedError",
    "max_packing",
    "count_optima",
    "clique_cover_bound",
]


class BudgetExhaustedError(RuntimeError):
    """The node budget ran out before the search proved its result."""


@dataclass(frozen=True)
class PackingResult:
    optimum: int
    witness: Configuration
    count: int | None
    nodes: int
    wall_time: float


class _Counter:
    """The node budget of a search (the packing solver, the excitation scan
    and the minimal-cell search): spend() counts one node, or raises once the
    count would pass the budget, so a search stopped by a budget b >= 0 has
    counted exactly b nodes."""

    __slots__ = ("nodes", "budget")

    def __init__(self, budget: int | None):
        self.nodes = 0
        self.budget = budget

    def spend(self) -> None:
        if self.budget is not None and self.nodes >= self.budget:
            raise BudgetExhaustedError(f"node budget {self.budget} exhausted")
        self.nodes += 1


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _greedy_clique_cover(cand: int, adj: tuple[int, ...], cap: int) -> int:
    """Number of cliques in a greedy cover of the candidate subgraph.

    Clique i is the chain of lowest bits in the common neighborhood of what
    cliques 0..i-1 left, which is the partition a scan of the candidates in
    index order makes when it puts each one into the first clique it extends.
    An independent set picks at most one vertex per clique, so this is an
    upper bound on the MIS size of the candidates.  The count stops as soon
    as it exceeds `cap`: the result is min(cover, max(cap, 0) + 1).
    """
    rest = cand
    n_cliques = 0
    while rest:
        n_cliques += 1
        if n_cliques > cap:
            break
        common = rest
        while common:
            low = common & -common
            rest ^= low
            common &= adj[low.bit_length() - 1]
    return n_cliques


def _isolated(cand: int, adj: tuple[int, ...]) -> int:
    """Mask of the candidates with no remaining conflicts.

    Such vertices belong to every maximal (hence every maximum) extension,
    so the searches move them into the chosen set.
    """
    isolated = 0
    m = cand
    while m:
        low = m & -m
        m ^= low
        if not (adj[low.bit_length() - 1] & cand):
            isolated |= low
    return isolated


_SIGNED_PERMUTATIONS = symmetry_group()


def _point_group(q: Quotient) -> list[SymmetryOp]:
    """The signed permutations op with op . L == L for the period lattice L
    (hnf(op . period) == period).  op . L has the index of L, so it is L
    exactly when op maps each period generator into L.  Each such op fixes
    vertex 0, permutes the cosets and keeps minimum-image distances: it is an
    automorphism of every exclusion graph of q."""
    reduce = q.reduce
    return [
        op
        for op in _SIGNED_PERMUTATIONS
        if all(reduce(apply_symmetry(op, g)) == (0, 0, 0) for g in q.period)
    ]


def _coset_images(
    q: Quotient, ops: list[SymmetryOp]
) -> Callable[[int], tuple[int, ...]]:
    """v -> the coset indices of op(v) over `ops`: column v of each coset
    permutation.  A column is built on first use, so a search pays only for
    the vertices it branches on."""
    reduce, index, reps = q.reduce, q.rep_index, q.reps
    columns: dict[int, tuple[int, ...]] = {}

    def images(v: int) -> tuple[int, ...]:
        col = columns.get(v)
        if col is None:
            col = columns[v] = tuple(
                index[reduce(apply_symmetry(op, reps[v]))] for op in ops
            )
        return col

    return images


def _search_optimum(
    adj: tuple[int, ...],
    cand: int,
    size: int,
    best: int,
    group: list[int],
    images: Callable[[int], tuple[int, ...]],
    counter: _Counter,
) -> int:
    """The larger of `best` and the largest independent set that adds
    candidates to `size` chosen vertices.

    `group` holds the positions, in the columns of `images`, of a group of
    coset permutations that fix the chosen set and map the candidates onto
    themselves.  With the identity alone this is a plain branch-and-bound.
    """
    counter.spend()
    isolated = _isolated(cand, adj)
    cand ^= isolated
    size += isolated.bit_count()
    if not cand:
        return max(best, size)
    if size + _greedy_clique_cover(cand, adj, best - size) <= best:
        return best
    # branch on the highest-degree candidate (ties to the lowest index)
    v, v_deg = -1, -1
    m = cand
    while m:
        low = m & -m
        m ^= low
        u = low.bit_length() - 1
        d = (adj[u] & cand).bit_count()
        if d > v_deg:
            v, v_deg = u, d
    # include v under its stabiliser, or exclude the whole orbit of v
    col = images(v)
    orbit = 0
    for p in group:
        orbit |= 1 << col[p]
    stabiliser = [p for p in group if col[p] == v]
    best = _search_optimum(
        adj, cand & ~adj[v] & ~(1 << v), size + 1, best, stabiliser, images, counter
    )
    return _search_optimum(adj, cand & ~orbit, size, best, group, images, counter)


def _prove_optimum(
    graph: ExclusionGraph, ops: list[SymmetryOp], counter: _Counter
) -> int:
    """Phase 1: the optimum over the sets through vertex 0, branching on the
    orbits of `ops`, a group of automorphisms of the graph that fix vertex 0."""
    adj = graph.adjacency
    root_cand = ((1 << graph.n) - 1) & ~adj[0] & ~1
    images = _coset_images(graph.quotient, ops)
    return _search_optimum(adj, root_cand, 1, 0, list(range(len(ops))), images, counter)


@dataclass
class _EnumState:
    count: int = 0
    witness: int | None = None  # chosen mask of the first solution found
    solutions: list[int] | None = None  # chosen masks, when orbits are needed
    stop_at_first: bool = False


def _search_enumerate(
    adj: tuple[int, ...],
    cand: int,
    chosen: int,
    size: int,
    optimum: int,
    state: _EnumState,
    counter: _Counter,
) -> None:
    """Visit every independent set of size == optimum extending `chosen`.

    Branches on the lowest candidate, include-first, so the first solution
    found is the lexicographically least one in this subtree.
    """
    if state.stop_at_first and state.witness is not None:
        return
    counter.spend()
    isolated = _isolated(cand, adj)
    cand ^= isolated
    size += isolated.bit_count()
    chosen |= isolated
    if not cand:
        if size == optimum:
            state.count += 1
            if state.witness is None:
                state.witness = chosen
            if state.solutions is not None:
                state.solutions.append(chosen)
        return
    if size + _greedy_clique_cover(cand, adj, optimum - size) < optimum:
        return
    v = _lowest_bit(cand)
    _search_enumerate(
        adj, cand & ~adj[v] & ~(1 << v), chosen | 1 << v, size + 1, optimum, state, counter
    )
    _search_enumerate(adj, cand & ~(1 << v), chosen, size, optimum, state, counter)


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append(_lowest_bit(mask))
        mask &= mask - 1
    return tuple(out)


def _solve(
    graph: ExclusionGraph,
    *,
    count: bool,
    mod_translations: bool,
    node_budget: int | None,
) -> tuple[int, tuple[int, ...], int | None, int]:
    adj = graph.adjacency
    n = graph.n
    counter = _Counter(node_budget)
    # Both phases start from the root that holds vertex 0 (module docstring).
    root_cand = ((1 << n) - 1) & ~adj[0] & ~1

    # Phase 1: the optimum value, by orbits of the point group.
    optimum = _prove_optimum(graph, _point_group(graph.quotient), counter)

    # Phase 2: lexicographically least witness, plus exact count on request.
    state = _EnumState(
        solutions=[] if count and mod_translations else None,
        stop_at_first=not count,
    )
    _search_enumerate(adj, root_cand, 1, 1, optimum, state, counter)
    if state.witness is None:
        raise AssertionError("optimum proven but no witness enumerated")

    reported: int | None = None
    if count:
        if mod_translations:
            assert state.solutions is not None
            reported = _count_orbits(graph.quotient, state.solutions)
        else:
            # every vertex lies in state.count optima: n * c0 = count * k
            if n * state.count % optimum:
                raise AssertionError("n * c0 is not a multiple of the optimum")
            reported = n * state.count // optimum
    return optimum, _mask_to_tuple(state.witness), reported, counter.nodes


def _count_orbits(q: Quotient, solutions: list[int]) -> int:
    """Number of translation orbits of optimal sets, given every optimal set
    that contains vertex 0: the orbit of S is named by the least of its
    translates S - s, s in S, the sets of the orbit through vertex 0."""
    reps = q.reps
    index_of = q.rep_index
    occurring = 0
    for mask in solutions:
        occurring |= mask
    # s -> the permutation v -> v - s, for the vertices s that occur
    shift_by = {
        s: tuple(index_of[q.reduce(sub(r, reps[s]))] for r in reps)
        for s in _mask_to_tuple(occurring)
    }
    canon: set[tuple[int, ...]] = set()
    for mask in solutions:
        verts = _mask_to_tuple(mask)
        canon.add(min(tuple(sorted(shift_by[s][v] for v in verts)) for s in verts))
    return len(canon)


def max_packing(
    q: Quotient,
    d2: int,
    *,
    count: bool = False,
    mod_translations: bool = False,
    threads: int = 1,
    node_budget: int | None = None,
) -> PackingResult:
    """Exact maximum packing of the torus at squared exclusion distance d2.

    The witness is the lexicographically least optimal set of coset
    representatives; with count=True the exact number of optimal
    configurations is reported (orbits under torus translations when
    mod_translations is set).  `threads` must be positive and has no effect:
    the search is sequential (module docstring).
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    t0 = time.perf_counter()
    graph = build_exclusion_graph(q, d2)
    optimum, witness_idx, counted, nodes = _solve(
        graph,
        count=count,
        mod_translations=mod_translations,
        node_budget=node_budget,
    )
    witness = Configuration(q, d2, frozenset(q.reps[i] for i in witness_idx))
    return PackingResult(
        optimum=optimum,
        witness=witness,
        count=counted,
        nodes=nodes,
        wall_time=time.perf_counter() - t0,
    )


def count_optima(
    q: Quotient,
    d2: int,
    mod_translations: bool = False,
    *,
    threads: int = 1,
    node_budget: int | None = None,
) -> int:
    """Exact number of maximum packings of the torus (or of their
    translation orbits)."""
    result = max_packing(
        q,
        d2,
        count=True,
        mod_translations=mod_translations,
        threads=threads,
        node_budget=node_budget,
    )
    assert result.count is not None
    return result.count


def clique_cover_bound(q: Quotient, d2: int) -> int:
    """Upper bound on the optimum from a geometric clique cover.

    The fundamental box is tiled with axis-aligned boxes of side s chosen so
    that 3*(s-1)^2 < d2: any two cosets inside one box are strictly closer
    than the exclusion distance, hence pairwise conflicting, and an
    admissible configuration holds at most one site per box.
    """
    if q.min_period_sq_norm() < d2:
        raise PeriodTooShortError(
            f"period min squared norm {q.min_period_sq_norm()} < d2 = {d2}"
        )
    side = isqrt((d2 - 1) // 3) + 1
    bound = 1
    for i in range(3):
        d = q.period[i][i]
        bound *= -(-d // side)
    return bound
