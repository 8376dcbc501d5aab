"""Local excitations and sliding moves of packed configurations.

An excitation inserts particles and removes exactly the particles they
conflict with; its order is the net particle loss.  Insertion conflicts are
counted against the periodic extension (actual lattice points, images
included), which is what makes the order meaningful on small tori as well;
they are the points x + v, v a conflict offset, whose coset is occupied.
The excitation scan spends the solver's node budget and deduplicates by the
translations that fix the configuration (``Quotient.stabiliser``).
``find_sliding`` alone decides which shifts of line or plane sub-meshes are
slides; shifting every occupied site is a global translation, not a slide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .admissibility import (
    Configuration,
    SitesOutsideWindowError,
    _conflict_offsets,
    conflict_masks,
)
from .catalog import LineSelector, PlaneSelector, Selector
from .lattice import (
    IDENTITY_OP,
    Quotient,
    Site,
    add,
    lattice_from_generators,
    lattice_points,
    sq_norm,
    sub,
)
from .solver import BudgetExhaustedError, _Counter

__all__ = [
    "Excitation",
    "ExcitationScan",
    "SlidingMove",
    "insertion_conflicts",
    "min_insertion_order",
    "enumerate_excitations",
    "find_sliding",
    "standard_selectors",
    "standard_shifts",
]

# line directions / plane normals probed by the standard sliding scan
_DIRECTIONS: tuple[Site, ...] = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 1),
    (1, 1, -1),
    (1, -1, 1),
    (-1, 1, 1),
)


def insertion_conflicts(c: Configuration, x: Site) -> list[Site]:
    """Particles of the (periodic) configuration at squared distance < d2
    from the unoccupied site x, as actual lattice points near x."""
    reduce = c.domain.reduce
    if reduce(x) in c.occupied:
        raise ValueError(f"site {x} is occupied")
    near = (add(x, v) for v in _conflict_offsets(c.d2))
    return sorted(p for p in near if reduce(p) in c.occupied)


def min_insertion_order(c: Configuration) -> tuple[int, list[Site]]:
    """Minimum over the unoccupied sites of the domain of (number of
    conflicts - 1), with all attaining sites in sorted order."""
    best: int | None = None
    argmin: list[Site] = []
    for x in c.domain.sites():
        if x in c.occupied:
            continue
        order = len(insertion_conflicts(c, x)) - 1
        if best is None or order < best:
            best = order
            argmin = [x]
        elif order == best:
            argmin.append(x)
    if best is None:
        raise ValueError("the domain has no unoccupied site")
    return best, argmin


@dataclass(frozen=True)
class Excitation:
    """A local modification of the periodic configuration: `added` are
    inserted lattice points, `removed` exactly the configuration points they
    repel (the minimality convention), order the net particle loss.

    One entry per translation class of the configuration's own period, so
    each listed excitation occurs exactly once per fundamental domain;
    classes related by point symmetries are listed separately."""

    added: tuple[Site, ...]
    removed: tuple[Site, ...]
    order: int


@dataclass(frozen=True)
class ExcitationScan:
    excitations: tuple[Excitation, ...]
    complete: bool
    nodes: int


def _stabilizer_lattice(c: Configuration) -> Quotient:
    """Quotient by the full translation lattice of the configuration (the
    torus period extended by every torus translation fixing the occupied
    set)."""
    assert isinstance(c.domain, Quotient)
    stab = c.domain.stabiliser(c.occupied)
    return Quotient(lattice_from_generators([*c.domain.period, *stab]))


def enumerate_excitations(
    c: Configuration, max_order: int, radius: int, budget: int = 100_000
) -> ExcitationScan:
    """All excitations of order <= max_order whose added points lie within
    the given radius of the origin, up to translations fixing c.

    Everything is computed in the periodic extension: added candidates are
    actual lattice points of the ball, pairwise admissibility uses plain
    distances, and the removed set collects conflict points.  DFS over
    pairwise-admissible added sets; the budget bounds the number of visited
    nodes and a partial scan is flagged.
    """
    if not isinstance(c.domain, Quotient):
        raise ValueError("excitation enumeration requires a periodic configuration")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    dom = c.domain
    candidates = []
    for x in lattice_points(IDENTITY_OP, (0, 0, 0), radius * radius):
        if dom.reduce(x) not in c.occupied:
            candidates.append(x)
    candidates.sort(key=lambda x: (sq_norm(x), x))
    conflict = conflict_masks(candidates, c.d2)
    conflict_points = {
        x: frozenset(insertion_conflicts(c, x)) for x in candidates
    }

    stab_q = _stabilizer_lattice(c)
    found: dict[tuple, None] = {}
    counter = _Counter(budget)

    def canon(added: frozenset, removed: frozenset):
        shifts = {sub(stab_q.reduce(a), a) for a in added}
        return min(
            (
                tuple(sorted(add(x, t) for x in added)),
                tuple(sorted(add(x, t) for x in removed)),
            )
            for t in shifts
        )

    def dfs(
        start: int, added_mask: int, added: frozenset, removed: frozenset, cap: int
    ) -> bool:
        """Record the excitations below this node; True when some added set
        reached the size cap."""
        counter.spend()
        if added and len(removed) - len(added) <= max_order:
            found.setdefault(canon(added, removed))
        if len(added) == cap:
            return True
        hit_cap = False
        for i in range(start, len(candidates)):
            if added_mask & conflict[i]:
                continue  # conflicts with an already added point
            x = candidates[i]
            hit_cap |= dfs(
                i + 1,
                added_mask | 1 << i,
                added | {x},
                removed | conflict_points[x],
                cap,
            )
        return hit_cap

    # Iterative deepening on the added-set size keeps small excitations
    # ahead of the combinatorial tail, so a budget-truncated scan still
    # reports every excitation up to the last completed size.
    complete = True
    cap = 1
    try:
        while dfs(0, 0, frozenset(), frozenset(), cap):
            cap += 1
    except BudgetExhaustedError:
        complete = False

    excitations = [
        Excitation(added=a, removed=r, order=len(r) - len(a))
        for a, r in sorted(found)
    ]
    excitations.sort(key=lambda e: (e.order, e.added, e.removed))
    return ExcitationScan(tuple(excitations), complete, counter.nodes)


def revalidate_excitation(c: Configuration, exc: Excitation) -> bool:
    """Re-check an excitation against the periodic extension: added points
    pairwise admissible, removed exactly the conflict set, and no remaining
    configuration point too close to an added one."""
    d2 = c.d2
    added = exc.added
    for i, a in enumerate(added):
        for b in added[i + 1 :]:
            if sq_norm(sub(a, b)) < d2:
                return False
    removed = set()
    for a in added:
        removed.update(insertion_conflicts(c, a))
    return removed == set(exc.removed)


@dataclass(frozen=True)
class SlidingMove:
    selector: Selector
    shift: Site
    min_pair_sq_distance: int


def standard_shifts(max_sq_norm: int = 2) -> list[Site]:
    """All nonzero integer shifts up to the given squared norm."""
    ball = lattice_points(IDENTITY_OP, (0, 0, 0), max_sq_norm)
    return sorted(v for v in ball if any(v))


def standard_selectors(c: Configuration) -> list[Selector]:
    """Line and plane selectors through the occupied sites in the coordinate
    and main-diagonal directions, one per selected set (the selections of
    one kind and direction partition the occupied sites, so covered anchors
    are skipped).  Whole-configuration selections are dropped: shifting one
    is a global translation, not a slide.
    """
    selectors: list[Selector] = []
    occupied = sorted(c.occupied)
    for d in _DIRECTIONS:
        for kind in (LineSelector, PlaneSelector):
            covered: set[Site] = set()
            for anchor in occupied:
                if anchor in covered:
                    continue
                sel = kind(anchor, d)
                selected = sel.select(c)
                covered |= selected
                if selected != c.occupied:
                    selectors.append(sel)
    return selectors


def find_sliding(
    c: Configuration,
    selectors: list[Selector] | None = None,
    shifts: list[Site] | None = None,
) -> list[SlidingMove]:
    """Density-preserving admissible shifts of sub-meshes of c.

    A slide shifts a selection that is neither empty nor the whole
    configuration (a global translation) so that something moves, nothing
    lands on an unmoved site, every site stays in a window domain and the
    result is admissible.  An empty list means none was found.
    """
    if selectors is None:
        selectors = standard_selectors(c)
    if shifts is None:
        shifts = standard_shifts(2)
    reduce = c.domain.reduce
    moves = []
    for sel in selectors:
        selected = sel.select(c)
        if not selected or selected == c.occupied:
            continue
        rest = c.occupied - selected
        for t in shifts:
            moved = {reduce(add(x, t)) for x in selected}
            if moved == selected or not moved.isdisjoint(rest):
                continue
            try:
                shifted = c.with_sites(rest | moved)
            except SitesOutsideWindowError:
                continue
            # is_admissible stops at its first violation: the cheap filter
            if shifted.is_admissible()[0]:
                moves.append(SlidingMove(sel, t, shifted.min_pair_sq_distance()))
    moves.sort(key=lambda m: (m.selector.describe(), m.shift))
    return moves
