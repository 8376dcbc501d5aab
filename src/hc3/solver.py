"""Exact maximum-density packing on a quotient.

The optimum packing is the maximum independent set (MIS) of the exclusion
graph.  The search is a bitmask branch-and-bound: candidates are Python-int
bitmasks (arbitrary width) and the upper bound is the greedy clique cover
of the candidate subgraph, ``search.clique_cover``.  Both phases move the
candidates with no remaining conflict into the chosen set, and the cover
finds them: such a candidate is always a clique of its own, so each node
walks its candidates once.

Phase 1 finds the optimum, and phase 2 the witness and, when asked, the
count.  Phase 1 and the count both run ``search.colour_classes``, the
colour-class rule of MCQ/BBMC (Tomita & Seki 2003; San Segundo,
Rodriguez-Losada & Jimenez 2011), with the cover's cliques in place of
colour classes (a clique cover of the graph is a colouring of its
complement).  A node takes the cliques from the last one down and branches
on their vertices in turn, each child including one vertex, and stops once
the cliques left could not lift the chosen set above a floor.  A set larger
than the floor must take a vertex from a clique with index >= floor - size,
so only those cliques are branched on, and the depth is at most the
optimum.  Phase 1 raises the floor to each set the loop finds, so its last
set is an optimum; the count holds the floor at k - 1, k the optimum, and
gets the optima.  The witness runs ``search.include_first``, which
branches on the lowest candidate (the highest label, below), include
first, and drops a node whose chosen set plus the cover's bound falls short
of the optimum: the reported witness is its first set, the
lexicographically least optimal set under the fixed coset order.

Both phases search the reflected torus, label v for coset n - 1 - v: the
box reflection r -> c - r, c = (d0 - 1, d1 - 1, d2 - 1), sends coset i to
n - 1 - i and is an automorphism of every exclusion graph (a negation and a
translation), so the adjacency reads the same over labels, and a search
that takes the highest label makes the same steps as one that takes the
lowest coset; the witness is decoded through reps[n - 1 - v].  The rest of
this docstring speaks of cosets.  ``int.bit_length()`` finds the highest
bit in one call, where the lowest needs ``x & -x``, two new ints.

Torus translations act transitively on the cosets, so both phases search
only the sets that contain vertex 0.  The lexicographically least optimum
contains vertex 0.  A count is the weighted sum  sum_S w(S) / k  over the
optima through vertex 0, where the sum must divide exactly.  With w = n it
is the number of optima (each vertex lies in as many optima as vertex 0,
so n * c0 = count * k).  With w(S) = |Stab(S)|, the number of translations
that map S onto itself (``Quotient.stabiliser`` on the bitmask of S, as the
count finds it), it is the number of translation orbits: an orbit whose
stabiliser is T has n/|T| sets, meets vertex 0 in k/|T| of them, and so
adds exactly k to the sum.

Both phases also use the point group of the torus: the signed permutations
that map the period lattice onto itself fix vertex 0, map the root
candidates onto themselves and are automorphisms of the exclusion graph.
Each is a ``lattice.SymmetryOp``, op(v)_i = sign_i * v[perm_i], and one
inline back-substitution labels its images: of the period generators, all
coset 0 for an op of the group, and of a branched vertex, under the ops of
the node's own group only (``search.Images``).  Most groups below the root
are small, and a node under the trivial group computes no image.
``hc3.search`` gives the rest: the phases branch on orbits under the
group, each optimum S the count finds carries a multiplicity mult(S), so
that a count is the exact sum  sum_S w(S) * mult(S) / k  for any weight w
the group leaves invariant, and the first set of the witness stream is
still the lexicographically least optimum.  Both weights are invariant:
w = n trivially, and w = |Stab(S)| because the point group normalises the
translations.

Determinism contract: phase 1, the witness and the count are each one
sequential depth-first loop over an explicit stack, so optimum, witness,
count and the node count of each depend only on the input, and the depth
(up to the optimum) is limited by memory only.  The search never returns an
unproven optimum: exceeding the node budget (one ``search.NodeBudget`` for
all three, whose nodes add up) raises instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .admissibility import Configuration, build_exclusion_graph
from .lattice import Quotient, Site, SymmetryOp, symmetry_group
from .search import (
    Images,
    NodeBudget,
    colour_classes,
    include_first,
    members,
    multiplicity,
)

__all__ = ["PackingResult", "max_packing"]


@dataclass(frozen=True)
class PackingResult:
    optimum: int
    witness: Configuration
    count: int | None
    nodes: int
    wall_time: float


# the 48 signed permutations of Z^3
_ALL_OPS = symmetry_group()


def _image_labels(q: Quotient) -> Callable[[Site, list[SymmetryOp]], list[int]]:
    """(r, ops) -> the labels n - 1 - index_of(op(r)) of the images of the
    point r over `ops` (module docstring), by the back-substitution of
    `Quotient.index_of`, inline (one `index_of` call per op is slower)."""
    (d0, _, _), (a, d1, _), (b, c, d2) = q.period
    top = q.index - 1

    def labels(r: Site, ops: list[SymmetryOp]) -> list[int]:
        out = []
        for (i, si), (j, sj), (k, sk) in ops:
            qz, z = divmod(sk * r[k], d2)
            qy, y = divmod(sj * r[j] - qz * c, d1)
            x = (si * r[i] - qz * b - qy * a) % d0
            out.append(top - (x * d1 + y) * d2 - z)
        return out

    return labels


def _point_group(q: Quotient) -> list[SymmetryOp]:
    """The signed permutations op with op . L == L for the period lattice L.
    op . L has the index of L, so it is L exactly when op maps each period
    generator into L, to label n - 1.  Each such op fixes vertex 0, permutes
    the cosets and keeps minimum-image distances: it is an automorphism of
    every exclusion graph of q."""
    columns = map(_image_labels(q), q.period, [_ALL_OPS] * 3)
    return [op for op, *g in zip(_ALL_OPS, *columns) if g == [q.index - 1] * 3]


def _coset_images(q: Quotient) -> Images:
    """(v, ops) -> the labels of the images of label v over `ops`: label v
    is the coset of reps[n - 1 - v]."""
    labels, reps, top = _image_labels(q), q.reps, q.index - 1
    return lambda v, ops: labels(reps[top - v], ops)


def _prove_optimum(
    adj: tuple[int, ...], cand: int, images: Images, group: list, counter: NodeBudget
) -> int:
    """Phase 1: the optimum over the sets through vertex 0 (label n - 1),
    whose other vertices lie in the candidates `cand`, branching on the
    orbits of `group`, automorphisms of the graph that fix vertex 0 and map
    `cand` onto itself (as `images` reads them).  The colour-class loop
    yields only sets larger than its floor, the best set found so far."""
    best, root = 0, 1 << len(adj) - 1
    leaves = colour_classes(adj, root, cand, lambda: best, counter, images, group)
    for chosen, _ in leaves:
        best = chosen.bit_count()
    return best


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
    counter = NodeBudget(node_budget)
    # one point group for both phases: every op fixes vertex 0 and maps the
    # root candidates onto themselves
    group = _point_group(q)
    images = _coset_images(q)
    # both phases search the sets through vertex 0 (label n - 1)
    root_cand = ((1 << n - 1) - 1) & ~adj[n - 1]
    # Phase 1: the optimum value, by orbits of the point group.
    optimum = _prove_optimum(adj, root_cand, images, group, counter)

    # Phase 2: the least optimum is the first set of the include-first
    # stream; a node whose chosen set cannot reach the optimum is dropped.
    def short(chosen: int, cand: int, bound: int) -> bool:
        return chosen.bit_count() + bound < optimum

    root = 1 << n - 1
    first = next(
        include_first(adj, root, root_cand, short, counter, images, group), None
    )
    if first is None:
        raise AssertionError("optimum proven but no witness enumerated")
    counted: int | None = None
    if count or mod_translations:

        def weight(mask: int) -> int:
            if not mod_translations:
                return n
            # the reflection c - S of S has the stabiliser of S, negated
            return len(q.stabiliser(mask))

        # the optima through vertex 0 up to the point group, by phase 1's
        # loop held at the floor optimum - 1 (module docstring)
        optima = colour_classes(
            adj, root, root_cand, lambda: optimum - 1, counter, images, group
        )
        total = sum(weight(mask) * multiplicity(mask, path) for mask, path in optima)
        if total % optimum:
            raise AssertionError("the weighted sum of optima is not a multiple of k")
        counted = total // optimum
    witness = Configuration(q, d2, frozenset(members(q.reps[::-1], first)))
    return PackingResult(
        optimum=optimum,
        witness=witness,
        count=counted,
        nodes=counter.nodes,
        wall_time=time.perf_counter() - t0,
    )
