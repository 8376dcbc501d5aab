"""What the exhaustive searches share: the node budget, the isolated-candidate
scan, the orbit step, the include-first enumerator and the bitmask decoder.
Vertex sets are int bitmasks over a conflict graph, `adj[v]` the mask of the
vertices that conflict with v.  A search's cut both prunes a node and hands
back its isolated candidates, so a node walks its candidates once.

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
maps onto itself, and let the cut drop only nodes with no set of F below
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
    "Cut",
    "Images",
    "isolated",
    "orbit",
    "include_first",
    "members",
]

# cut(chosen, cand): None to drop a node's subtree, else the mask of its
# candidates with no remaining conflict, which move into the chosen set
Cut = Callable[[int, int], int | None]
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


def isolated(cand: int, adj: tuple[int, ...]) -> int:
    """Mask of the candidates with no remaining conflicts: they belong to
    every maximal extension, so the searches move them into the chosen set."""
    found, m = 0, cand
    while m:
        low = m & -m
        m ^= low
        if not adj[low.bit_length() - 1] & cand:
            found |= low
    return found


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
    cut: Cut,
    budget: NodeBudget,
    images: Images,
    group: list,
) -> Iterator[tuple[int, Fraction]]:
    """The chosen masks at the leaves of the include/exclude tree extending
    the independent set `chosen` by the candidates `cand`, in top-down
    order, each once, with their orbit multiplicities (module docstring; 1
    under the identity group).  A node spends one node and is dropped when
    cut(chosen, cand) is None; otherwise the cut's mask, which must be
    ``isolated(cand, adj)``, moves into `chosen`, and the node yields
    `chosen` if no candidates are left, or branches on the highest
    candidate v, include first, then excludes the orbit of v.  `group` must
    map `chosen` and `cand` onto themselves.  With a cut that drops nothing
    and under the identity, the leaves contain every maximal independent
    extension, but not only those: an excluded vertex can end up with no
    chosen neighbour.  `cut` may read state the consumer changes between
    yields; a generator that is not resumed searches no further.

    Nodes are frames (chosen, cand, group, path) on an explicit stack, so
    the depth is limited by memory only.  `path` links (orb, parent) the
    non-trivial orbits dropped after the include edges above the frame; a
    leaf S yields prod |O| / |S & O| over it.
    """
    stack = [(chosen, cand, group, None)]
    while stack:
        chosen, cand, group, path = stack.pop()
        budget.spend()
        free = cut(chosen, cand)
        if free is None:
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
