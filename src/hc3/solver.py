"""Exact maximum-density packing on a quotient.

The optimum packing is the maximum independent set (MIS) of the exclusion
graph.  The search is a bitmask branch-and-bound: candidates are Python-int
bitmasks (arbitrary width) and the upper bound is the greedy clique cover
of the candidate subgraph, ``search.clique_cover``.  Both phases move the
candidates with no remaining conflict into the chosen set, and the cover
finds them: such a candidate is always a clique of its own, so each node
walks its candidates once.

The optimum phase branches by the colour-class rule of MCQ/BBMC (Tomita &
Seki 2003; San Segundo, Rodriguez-Losada & Jimenez 2011), with the cover's
cliques in place of colour classes (a clique cover of the graph is a
colouring of its complement).  A node takes the cliques from the last one
down and branches on their vertices in turn, each child including one
vertex, and stops once the cliques left could not beat the best set found.
A set larger than `best` must take a vertex from a clique with index
>= best - size, so only those cliques are branched on, and the depth is at
most the optimum.  A node is a frame on an explicit stack that pushes
itself back, without the branched orbit, under its include child.  The
witness/count phase runs ``search.include_first``, which branches on the
lowest candidate (the highest label, below), include first, and drops a
node whose chosen set plus the cover's bound falls short of the optimum:
the reported witness is the lexicographically least optimal set under the
fixed coset order.

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
contains vertex 0.  Phase 2 is one stream of optima through vertex 0 in
lexicographic order: the witness is its first set, and a count is the
weighted sum  sum_S w(S) / k  over all the optima through vertex 0, where k
is the optimum and the sum must divide exactly.  With w = n it is the
number of optima (each vertex lies in as many optima as vertex 0, so
n * c0 = count * k).  With w(S) = |Stab(S)|, the number of translations
that map S onto itself (``Quotient.stabiliser`` on the bitmask of S, as the
stream yields it), it is the number of translation orbits: an orbit whose
stabiliser is T has n/|T| sets, meets vertex 0 in k/|T| of them, and so
adds exactly k to the sum.

Both phases also use the point group of the torus: the signed permutations
that map the period lattice onto itself fix vertex 0, map the root
candidates onto themselves and are automorphisms of the exclusion graph.
Each is a ``lattice.SymmetryOp``, op(v)_i = sign_i * v[perm_i], and one
inline back-substitution labels its images: of the period generators, all
coset 0 for an op of the group, and of a branched vertex, under the ops of
the node's own group only (``search.Images``).  Most groups below the root
are small, and a node under the trivial group computes no image.  The
phases branch on orbits (orbital branching, Ostrowski, Linderoth, Rossi &
Smriglio 2011; ``search.orbit``): each node carries the subgroup, as a list
of ops, that maps its candidates onto themselves; the child that includes v
takes the stabiliser of v, and the node then drops the whole orbit of v from
its candidates and keeps the group.  Any optimum that meets the orbit has
an image through v, so the optimum is the same as without symmetry, in far
fewer nodes.  In phase 2 each optimum S of the stream comes with the
multiplicity  mult(S) = prod |O| / |S & O|  over the include edges on its
path, O the orbit dropped after that edge, and a count is the exact sum
sum_S w(S) * mult(S) / k: the group maps the optima through v onto the
optima through each u of O, so the optima that meet O carry |O| times the
weight of those through v, each divided by |S & O|.  Both weights are
invariant under the group: w = n trivially, and w = |Stab(S)| because the
point group normalises the translations.  The first optimum of the stream
is still the lexicographically least: had it met a dropped orbit at u != v,
its image through v under the node's group would agree with it below v and
contain v, and so come first.  So a ``pack`` without a count runs the same
stream and stops at its first set.

Determinism contract: each phase is one sequential depth-first loop over an
explicit stack, so optimum, witness, count and the node count of each phase
depend only on the input, and the depth (up to the optimum) is limited by
memory only.  The search never returns an unproven optimum: exceeding the
node budget (one ``search.NodeBudget`` for both phases) raises instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable

from .admissibility import Configuration, build_exclusion_graph
from .lattice import Quotient, Site, SymmetryOp, symmetry_group
from .search import Images, NodeBudget, clique_cover, include_first, members, orbit

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
    `cand` onto itself (as `images` reads them).

    A frame (cand, size, group, cliques, i) has `size` chosen vertices, and
    `group` maps its candidates onto themselves; `cliques is None` until the
    frame is expanded, and then it branches next in clique i of its cover.
    """
    best = 0
    stack = [(cand, 1, group, None, 0)]
    while stack:
        cand, size, group, cliques, i = stack.pop()
        if cliques is None:
            counter.spend()
            cliques, free = clique_cover(cand, adj)
            cand ^= free
            size += free.bit_count()
            if not cand:
                best = max(best, size)
                continue
            i = len(cliques) - 1
        # every vertex of cliques i+1.. has been branched on or dropped, so
        # the candidates left lie in cliques 0..i and add at most i + 1
        while i >= 0 and not cliques[i] & cand:
            i -= 1
        if i < 0 or size + i + 1 <= best:
            continue
        v = (cliques[i] & cand).bit_length() - 1
        # include v under its stabiliser, then drop the whole orbit of v
        stabiliser, orb = orbit(images, group, v)
        stack.append((cand & ~orb, size, group, cliques, i))
        stack.append(((cand & ~adj[v]) ^ (1 << v), size + 1, stabiliser, None, 0))
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

    # Phase 2: the optima up to the point group (module docstring), least
    # first; a node whose chosen set cannot reach the optimum is dropped.
    def short(chosen: int, cand: int, bound: int) -> bool:
        return chosen.bit_count() + bound < optimum

    optima = include_first(adj, 1 << n - 1, root_cand, short, counter, images, group)
    first = next(optima, None)
    if first is None:
        raise AssertionError("optimum proven but no witness enumerated")
    counted: int | None = None
    if count or mod_translations:

        def weight(mask: int) -> int:
            if not mod_translations:
                return n
            # the reflection c - S of S has the stabiliser of S, negated
            return len(q.stabiliser(mask))

        total = sum(weight(mask) * mult for mask, mult in chain([first], optima))
        if total % optimum:
            raise AssertionError("the weighted sum of optima is not a multiple of k")
        counted = total // optimum
    witness = Configuration(q, d2, frozenset(members(q.reps[::-1], first[0])))
    return PackingResult(
        optimum=optimum,
        witness=witness,
        count=counted,
        nodes=counter.nodes,
        wall_time=time.perf_counter() - t0,
    )
