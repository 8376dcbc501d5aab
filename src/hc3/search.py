"""What the exhaustive searches share: the node budget, the isolated-candidate
step, the include-first enumerator and the bitmask decoder.  Vertex sets are
int bitmasks over a conflict graph, `adj[v]` the mask of the vertices that
conflict with v.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence, TypeVar

__all__ = [
    "BudgetExhaustedError",
    "NodeBudget",
    "Cut",
    "isolated",
    "include_first",
    "members",
]

# cut(chosen, cand): whether a node's subtree can be dropped
Cut = Callable[[int, int], bool]
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


def include_first(
    adj: tuple[int, ...], chosen: int, cand: int, cut: Cut, budget: NodeBudget
) -> Iterator[int]:
    """The chosen masks at the leaves of the include/exclude tree extending
    the independent set `chosen` by the candidates `cand`, in lexicographic
    order of their sorted index tuples, each once.  A node spends one node,
    moves its isolated candidates into `chosen` and is dropped when
    cut(chosen, cand) holds; otherwise it yields `chosen` if no candidates
    are left, or branches on the lowest candidate, include first.  Uncut,
    the leaves contain every maximal independent extension, but not only
    those: an excluded vertex can end up with no chosen neighbour.  `cut`
    may read state the consumer changes between yields; a generator that is
    not resumed searches no further.
    """
    budget.spend()
    free = isolated(cand, adj)
    chosen |= free
    cand ^= free
    if cut(chosen, cand):
        return
    if not cand:
        yield chosen
        return
    low = cand & -cand
    v = low.bit_length() - 1
    yield from include_first(adj, chosen | low, cand & ~adj[v] & ~low, cut, budget)
    yield from include_first(adj, chosen, cand ^ low, cut, budget)
