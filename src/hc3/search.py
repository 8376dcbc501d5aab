"""What the exhaustive searches share: the node budget, the bit table, the
greedy clique cover, the orbit step, the two enumerators and the bitmask
decoder.  Vertex sets are int bitmasks over a conflict graph, `adj[v]` the
mask of the vertices that conflict with v.  Each search builds the graph's
bit table once (``bit_rows``), so that a step to the highest vertex of a
mask x is one lookup, rows[x.bit_length()], of its bit and its adjacency.
Both enumerators cover the candidates of each node once: the cover bounds
what they add and hands back the isolated ones, which move into the chosen
set.

A symmetry group of the graph is a list of automorphisms, in any form its
`images` function reads: images(v, group) is the list of the images of v
under the automorphisms of `group`, in order, so a node computes the images
under its own group only, and none under a group of one element.  Both
enumerators branch on orbits under it (orbital branching, Ostrowski,
Linderoth, Rossi & Smriglio 2011): each node carries a group that maps its
chosen set and its candidates onto themselves; the child that includes a
candidate v takes the stabiliser of v, and the node then drops the whole
orbit O of v from its candidates and keeps the group.

``include_first`` branches on the highest candidate and yields its leaves
in top-down order: S before T when the highest vertex in which they differ
lies in S (the lexicographic order of the sorted labels n - 1 - v).  Its
first leaf kept by a `drop` is the first such set in top-down order, as
without symmetry: had it met a dropped orbit at u != v, its image through v
under the node's group would agree with it above v and contain v, and so
come first.

``colour_classes`` branches by the colour-class rule of MCQ/BBMC (Tomita &
Seki 2003; San Segundo, Rodriguez-Losada & Jimenez 2011) and yields the
leaves larger than a floor, each with the orbit path of its include edges.
Let k be the largest size of an independent set that extends the root, F
the sets of that size, which the group maps onto itself, and let the floor
be k - 1, so that a frame ends only when no set of F lies below it.  Then
for any weight w that the group leaves invariant, sum w(S) * mult(S) over
the leaves is sum w(S) over F, where  mult(S) = prod |O| / |S & O|  over
the orbits on the path of S (``multiplicity``): the group maps the sets
through v onto the sets through each u of O, so the sets that meet O carry
|O| times the weight of the sets through v, each divided by |S & O|.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, TypeVar

__all__ = [
    "BudgetExhaustedError",
    "NodeBudget",
    "Drop",
    "Images",
    "Path",
    "bit_rows",
    "clique_cover",
    "orbit",
    "include_first",
    "colour_classes",
    "multiplicity",
    "members",
]

# drop(chosen, cand, bound): True to drop a node's subtree; bound is the
# clique cover's bound on what the candidates add to the chosen set
Drop = Callable[[int, int, int], bool]
# (v, group) -> the images of vertex v under the graph automorphisms in group
Images = Callable[[int, list], Sequence[int]]
# the non-trivial orbit masks dropped after the include edges above a node,
# innermost first, as a linked list (orbit, rest); None when there is none
Path = Optional[tuple]
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


def bit_rows(adj: Sequence[int]) -> list[tuple[int, int]]:
    """The bit table of the graph: rows[v + 1] = (1 << v, adj[v]), so the
    highest vertex of a nonzero mask x has the row rows[x.bit_length()]."""
    return [(0, 0)] + [(1 << v, a) for v, a in enumerate(adj)]


def clique_cover(cand: int, rows: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """The cliques, as vertex masks, of a greedy cover of the candidate
    subgraph less its isolated candidates, and the mask of those; `rows` is
    the graph's ``bit_rows``.

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
        top, near = rows[rest.bit_length()]
        clique, common = top, rest & near
        while common:
            bit, row = rows[common.bit_length()]
            clique |= bit
            common &= row
        rest ^= clique
        if clique == top and not near & cand:
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


def include_first(
    adj: tuple[int, ...],
    chosen: int,
    cand: int,
    drop: Drop,
    budget: NodeBudget,
    images: Images,
    group: list,
) -> Iterator[int]:
    """The chosen masks at the leaves of the include/exclude tree extending
    the independent set `chosen` by the candidates `cand`, in top-down
    order, each once (module docstring).  A node spends one node and covers
    its candidates (``clique_cover``); it is dropped when drop(chosen, cand,
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

    Nodes are frames (chosen, cand, group) on an explicit stack, so the
    depth is limited by memory only.
    """
    rows = bit_rows(adj)
    stack = [(chosen, cand, group)]
    while stack:
        chosen, cand, group = stack.pop()
        budget.spend()
        cliques, free = clique_cover(cand, rows)
        if drop(chosen, cand, len(cliques) + free.bit_count()):
            continue
        chosen |= free
        cand ^= free
        if not cand:
            yield chosen
            continue
        high = cand.bit_length()
        top, near = rows[high]
        stabiliser, orb = orbit(images, group, high - 1)
        # exclude below include: the include subtree runs first
        stack.append((chosen, cand & ~orb, group))
        stack.append((chosen | top, (cand & ~near) ^ top, stabiliser))


def colour_classes(
    adj: tuple[int, ...],
    chosen: int,
    cand: int,
    floor: Callable[[], int],
    budget: NodeBudget,
    images: Images,
    group: list,
) -> Iterator[tuple[int, Path]]:
    """The leaves of the colour-class search extending the independent set
    `chosen` by the candidates `cand` that are larger than floor(), each
    with its orbit path (module docstring).  `group` must map `chosen` and
    `cand` onto themselves.  floor() is read at the start and again after
    each yield, so a consumer that raises it to each leaf's size finds the
    maximum (phase 1 of the solver), and one that holds it at k - 1 gets
    the sets of size k up to the group, with their paths (the count).

    A frame (chosen, cand, size, group, cliques, i, path) has `size` chosen
    vertices, `group` maps its candidates onto themselves, and `path` holds
    the non-trivial orbits dropped after the include edges above it;
    `cliques is None` until the frame is expanded: it spends one node,
    covers its candidates (``clique_cover``) and moves the isolated ones
    into `chosen`.  It then branches next in clique i of its cover: every
    vertex of cliques i+1.. has been branched on or dropped, so the
    candidates left lie in cliques 0..i and add at most i + 1, and the
    frame ends once size + i + 1 <= floor.  Otherwise it takes the highest
    candidate v of clique i, pushes itself back without the orbit of v, and
    above it the child that includes v under its stabiliser.  Frames live
    on an explicit stack, so the depth is limited by memory only.
    """
    rows = bit_rows(adj)
    least = floor()
    stack = [(chosen, cand, chosen.bit_count(), group, None, 0, None)]
    while stack:
        chosen, cand, size, group, cliques, i, path = stack.pop()
        if cliques is None:
            budget.spend()
            cliques, free = clique_cover(cand, rows)
            chosen |= free
            cand ^= free
            size += free.bit_count()
            if not cand:
                if size > least:
                    yield chosen, path
                    least = floor()
                continue
            i = len(cliques) - 1
        while i >= 0 and not cliques[i] & cand:
            i -= 1
        if i < 0 or size + i + 1 <= least:
            continue
        high = (cliques[i] & cand).bit_length()
        top, near = rows[high]
        stabiliser, orb = orbit(images, group, high - 1)
        stack.append((chosen, cand & ~orb, size, group, cliques, i, path))
        if orb != top:
            path = (orb, path)
        cand = (cand & ~near) ^ top
        stack.append((chosen | top, cand, size + 1, stabiliser, None, 0, path))


_ONE = Fraction(1)


def multiplicity(chosen: int, path: Path) -> Fraction:
    """mult(S) = prod |O| / |S & O| over the orbits O on the path of the
    leaf S = `chosen` (module docstring); 1 under the identity group."""
    mult = _ONE
    while path:
        orb, path = path
        mult *= Fraction(orb.bit_count(), (chosen & orb).bit_count())
    return mult
