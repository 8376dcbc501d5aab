"""What the exhaustive searches share: the node budget, the greedy clique
cover, the orbit step, the include-first enumerator and the bitmask decoder.
Vertex sets are int bitmasks over a conflict graph, `adj[v]` the mask of the
vertices that conflict with v.  ``include_first`` covers the candidates of
each node once: the cover bounds what they add and hands back the isolated
ones, and a search only says, from that bound, which nodes to drop.

A symmetry group of the graph is a list of automorphisms, in any form its
`images` function reads: images(v, group) is the list of the images of v
under the automorphisms of `group`, in order, so a node computes the images
under its own group only, and none under a group of one element.
``include_first`` branches on orbits under it (orbital branching,
Ostrowski, Linderoth, Rossi & Smriglio 2011): each node carries a group that
maps its chosen set and its candidates onto themselves; the child that
includes the highest candidate v takes the stabiliser of v, and the exclude
child drops the whole orbit O of v and keeps the group.  A leaf S comes with
the multiplicity  mult(S) = prod |O| / |S & O|  over the include edges on
its path.

Leaves come in top-down order: S before T when the highest vertex in which
they differ lies in S (the lexicographic order of the sorted labels
n - 1 - v).  Let F be a family of maximal independent sets that the group
maps onto itself, and let `drop` drop only nodes with no set of F below
them and keep exactly the leaves in F (phase 2 of the solver: the maximum
sets).  Then for any weight w that the group leaves invariant,
sum w(S) * mult(S) over the leaves is sum w(S) over the sets of F that
extend the root: the group maps the sets through v onto the sets through
each u of O, so the sets that meet O carry |O| times the weight of the sets
through v, each divided by |S & O|.  The first leaf is the first set of F
in top-down order, as without symmetry: had it met a dropped orbit at
u != v, its image through v under the node's group would agree with it
above v and contain v, and so come first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Sequence, TypeVar

__all__ = [
    "BudgetExhaustedError",
    "NodeBudget",
    "Drop",
    "Images",
    "clique_cover",
    "orbit",
    "include_first",
    "members",
]

# drop(chosen, cand, bound): True to drop a node's subtree; bound is the
# clique cover's bound on what the candidates add to the chosen set
Drop = Callable[[int, int, int], bool]
# (v, group) -> the images of vertex v under the graph automorphisms in group
Images = Callable[[int, list], Sequence[int]]
T = TypeVar("T")


class BudgetExhaustedError(RuntimeError):
    """The node budget ran out before the search proved its result."""


class NodeBudget:
    """spend() counts one node, or raises once the count would pass the
    budget (None: no limit), so a search stopped by a budget b >= 0 has
    spent exactly b nodes."""

    __slots__ = ("nodes", "budget")

    def __init__(self, budget: int | None):
        self.nodes, self.budget = 0, budget

    def spend(self) -> None:
        if self.budget is not None and self.nodes >= self.budget:
            raise BudgetExhaustedError(f"node budget {self.budget} exhausted")
        self.nodes += 1


def members(points: Sequence[T], mask: int) -> list[T]:
    """The points at the set bits of the mask, in index order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(points[low.bit_length() - 1])
        mask ^= low
    return out


def clique_cover(cand: int, adj: tuple[int, ...]) -> tuple[list[int], int]:
    """The cliques, as vertex masks, of a greedy cover of the candidate
    subgraph less its isolated candidates, and the mask of those.

    Clique i is the chain of highest bits in the common neighborhood of what
    cliques 0..i-1 left: the partition a scan of the candidates from the top
    makes when it puts each one into the first clique it extends.  An
    independent set picks at most one vertex per clique, so the number of
    cliques plus the isolated candidates bounds the MIS size of `cand` (the
    colour-class bound of MCQ/BBMC, Tomita & Seki 2003; San Segundo et al.
    2011).  An isolated v is a clique {v} of the cover: it starts one as the
    highest bit left, and joins none that another u starts: its members lie
    in adj[u].  The isolated candidates belong to every maximal extension.
    """
    rest, free = cand, 0
    cliques: list[int] = []
    while rest:
        v = rest.bit_length() - 1
        clique = top = 1 << v
        common = rest & adj[v]
        while common:
            u = common.bit_length() - 1
            clique |= 1 << u
            common &= adj[u]
        rest ^= clique
        if clique == top and not adj[v] & cand:
            free |= top
        else:
            cliques.append(clique)
    return cliques, free


def orbit(images: Images, group: list, v: int) -> tuple[list, int]:
    """The stabiliser of v in the group, as a sublist, and the mask of the
    orbit of v."""
    if len(group) == 1:  # the identity: v is its own orbit
        return group, 1 << v
    col = images(v, group)
    stabiliser = [op for op, u in zip(group, col) if u == v]
    mask = 0
    for u in col:
        mask |= 1 << u
    return stabiliser, mask


_ONE = Fraction(1)


def include_first(
    adj: tuple[int, ...],
    chosen: int,
    cand: int,
    drop: Drop,
    budget: NodeBudget,
    images: Images,
    group: list,
) -> Iterator[tuple[int, Fraction]]:
    """The chosen masks at the leaves of the include/exclude tree extending
    the independent set `chosen` by the candidates `cand`, in top-down
    order, each once, with their orbit multiplicities (module docstring; 1
    under the identity group).  A node spends one node and covers its
    candidates (``clique_cover``); it is dropped when drop(chosen, cand,
    bound) is true, bound the number of cliques plus isolated candidates,
    at least the size of any independent subset of `cand`.  Otherwise the
    isolated candidates move into `chosen`, and the node yields `chosen` if
    no candidates are left, or branches on the highest candidate v, include
    first, then excludes the orbit of v.  `group` must map `chosen` and
    `cand` onto themselves.  With a drop that drops nothing and under the
    identity, the leaves contain every maximal independent extension, but
    not only those: an excluded vertex can end up with no chosen neighbour.
    `drop` may read state the consumer changes between yields; a generator
    that is not resumed searches no further.

    Nodes are frames (chosen, cand, group, path) on an explicit stack, so
    the depth is limited by memory only.  `path` links (orb, parent) the
    non-trivial orbits dropped after the include edges above the frame; a
    leaf S yields prod |O| / |S & O| over it.
    """
    stack = [(chosen, cand, group, None)]
    while stack:
        chosen, cand, group, path = stack.pop()
        budget.spend()
        cliques, free = clique_cover(cand, adj)
        if drop(chosen, cand, len(cliques) + free.bit_count()):
            continue
        chosen |= free
        cand ^= free
        if not cand:
            mult = _ONE
            while path:
                orb, path = path
                mult *= Fraction(orb.bit_count(), (chosen & orb).bit_count())
            yield chosen, mult
            continue
        v = cand.bit_length() - 1
        top = 1 << v
        stabiliser, orb = orbit(images, group, v)
        # exclude below include: the include subtree runs first
        stack.append((chosen, cand & ~orb, group, path))
        if orb != top:
            path = (orb, path)
        stack.append((chosen | top, (cand & ~adj[v]) ^ top, stabiliser, path))
