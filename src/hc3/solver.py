"""Exact maximum-density packing on a quotient.

The optimum packing is the maximum independent set (MIS) of the exclusion
graph.  The search is a bitmask branch-and-bound: candidates are Python-int
bitmasks (arbitrary width), the upper bound is a greedy clique cover of the
candidate subgraph, and branching follows the highest-degree rule for the
optimum phase and lexicographic include-first order for the witness/count
phase, which makes the reported witness the lexicographically least optimal
set under the fixed coset order.  Both phases move the candidates with no
remaining conflict into the chosen set; the optimum phase finds them and its
branching vertex in one scan of the candidates per node.

Torus translations act transitively on the cosets, so both phases search
only the sets that contain vertex 0.  The lexicographically least optimum
contains vertex 0.  Phase 2 is one stream of the optima through vertex 0 in
lexicographic order: the witness is its first set, and a count is the
weighted sum  sum_S w(S) / k  over the stream, where k is the optimum and
the sum must divide exactly.  With w = n it is the number of optima (each
vertex lies in as many optima as vertex 0, so n * c0 = count * k).  With
w(S) = |Stab(S)|, the number of translations that map S onto itself
(``Quotient.stabiliser``), it is the number of translation orbits: an orbit
whose stabiliser is T has n/|T| sets, meets vertex 0 in k/|T| of them, and
so adds exactly k to the sum.

The optimum phase also uses the point group of the torus: the signed
permutations that map the period lattice onto itself fix vertex 0 and are
automorphisms of the exclusion graph.  It branches on orbits (orbital
branching, Ostrowski, Linderoth, Rossi & Smriglio 2011): each node carries
the subgroup that maps its candidates onto themselves; the include child
takes v with the stabiliser of v, the exclude child drops the whole orbit of
v and keeps the group.  Any optimum that meets the orbit has an image through
v, so the optimum is the same as without symmetry, in far fewer nodes.
Phase 2 does not use the point group.

Determinism contract: the search is one sequential depth-first pass, so
optimum, witness, count and the node count of each phase depend only on the
input.  The search never returns an unproven optimum: exceeding the node
budget raises instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .admissibility import Configuration, ExclusionGraph, build_exclusion_graph
from .lattice import Quotient, Site, SymmetryOp, apply_symmetry, symmetry_group

__all__ = ["PackingResult", "BudgetExhaustedError", "max_packing"]


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
    # one scan: isolated candidates join the set (as in `_isolated`), the
    # others compete for the highest degree (ties to the lowest index); an
    # isolated vertex has no edge into cand, so it changes no degree
    isolated = 0
    v, v_deg = -1, 0
    m = cand
    while m:
        low = m & -m
        m ^= low
        u = low.bit_length() - 1
        d = (adj[u] & cand).bit_count()
        if not d:
            isolated |= low
        elif d > v_deg:
            v, v_deg = u, d
    cand ^= isolated
    size += isolated.bit_count()
    if not cand:
        return max(best, size)
    if size + _greedy_clique_cover(cand, adj, best - size) <= best:
        return best
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


def _optima(
    adj: tuple[int, ...],
    cand: int,
    chosen: int,
    size: int,
    optimum: int,
    counter: _Counter,
) -> Iterator[int]:
    """The chosen masks of every independent set of size `optimum` that
    extends `chosen` by candidates, in lexicographic order.

    Branches on the lowest candidate, include-first, so the first set
    yielded is the lexicographically least one.  Nodes are spent only while
    the generator runs: one that is never resumed searches no further.
    """
    counter.spend()
    isolated = _isolated(cand, adj)
    cand ^= isolated
    size += isolated.bit_count()
    chosen |= isolated
    if not cand:
        if size == optimum:
            yield chosen
        return
    if size + _greedy_clique_cover(cand, adj, optimum - size) < optimum:
        return
    v = _lowest_bit(cand)
    yield from _optima(
        adj, cand & ~adj[v] & ~(1 << v), chosen | 1 << v, size + 1, optimum, counter
    )
    yield from _optima(adj, cand & ~(1 << v), chosen, size, optimum, counter)


def _mask_sites(q: Quotient, mask: int) -> frozenset[Site]:
    """The coset representatives of the vertices in the mask."""
    sites = []
    while mask:
        sites.append(q.reps[_lowest_bit(mask)])
        mask &= mask - 1
    return frozenset(sites)


def max_packing(
    q: Quotient,
    d2: int,
    *,
    count: bool = False,
    mod_translations: bool = False,
    node_budget: int | None = None,
) -> PackingResult:
    """Exact maximum packing of the torus at squared exclusion distance d2.

    The witness is the lexicographically least optimal set of coset
    representatives; with count=True the exact number of optimal
    configurations is reported, and with mod_translations=True (which
    implies a count) the number of their orbits under torus translations.
    """
    t0 = time.perf_counter()
    graph = build_exclusion_graph(q, d2)
    adj, n = graph.adjacency, graph.n
    counter = _Counter(node_budget)
    # Phase 1: the optimum value, by orbits of the point group.
    optimum = _prove_optimum(graph, _point_group(q), counter)
    # Phase 2: the optima through vertex 0 (module docstring), least first.
    root_cand = ((1 << n) - 1) & ~adj[0] & ~1
    optima = _optima(adj, root_cand, 1, 1, optimum, counter)
    first = next(optima, None)
    if first is None:
        raise AssertionError("optimum proven but no witness enumerated")
    counted: int | None = None
    if count or mod_translations:

        def weight(mask: int) -> int:
            return len(q.stabiliser(_mask_sites(q, mask))) if mod_translations else n

        total = weight(first) + sum(map(weight, optima))
        if total % optimum:
            raise AssertionError("the weighted sum of optima is not a multiple of k")
        counted = total // optimum
    witness = Configuration(q, d2, _mask_sites(q, first))
    return PackingResult(
        optimum=optimum,
        witness=witness,
        count=counted,
        nodes=counter.nodes,
        wall_time=time.perf_counter() - t0,
    )
