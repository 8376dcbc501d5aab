"""Local excitations and sliding moves of packed configurations.

An excitation inserts particles and removes exactly the particles they
conflict with; its order is the net particle loss.  Insertion conflicts are
counted against the periodic extension (actual lattice points, images
included), which is what makes the order meaningful on small tori as well;
they are the points x + v, v a conflict offset, whose coset is occupied.
The excitation scan walks the pairwise-admissible added sets level by level,
each once, as bitmasks; it spends a ``search.NodeBudget`` and deduplicates by
the translations that fix the configuration (``Quotient.stabiliser``).
``find_sliding`` alone decides which shifts of line or plane sub-meshes are
slides; shifting every occupied site is a global translation, not a slide.
A translation keeps every distance inside the selection and inside the
rest, so a slide is checked on the new pairs only, moved against unmoved
sites, through the conflict offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .admissibility import (
    Configuration,
    SitesOutsideWindowError,
    conflict_masks,
    offsets_closer_than,
)
from .catalog import LineSelector, PlaneSelector, Selector
from .lattice import (
    UNIT_BASIS,
    Quotient,
    Site,
    add,
    lattice_from_generators,
    lattice_points,
    sq_norm,
    sub,
)
from .search import BudgetExhaustedError, NodeBudget, members

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
    if not isinstance(c.domain, Quotient):  # a window has no images
        return sorted(p for p in c.occupied if sq_norm(sub(p, x)) < c.d2)
    near = (add(x, v) for v in offsets_closer_than(c.d2))
    return sorted(p for p in near if reduce(p) in c.occupied)


def min_insertion_order(c: Configuration) -> tuple[int, list[Site]]:
    """Minimum over the unoccupied sites of the domain of (number of
    conflicts - 1), ``Configuration.insertion_orders``, with all attaining
    sites in sorted order."""
    orders = c.insertion_orders()
    if not orders:
        raise ValueError("the domain has no unoccupied site")
    best = min(orders.values())
    return best, [x for x, k in orders.items() if k == best]


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
    stab = c.domain.stabiliser(sum(1 << c.domain.index_of(x) for x in c.occupied))
    return Quotient(lattice_from_generators([*c.domain.period, *stab]))


def enumerate_excitations(
    c: Configuration, max_order: int, radius: int, budget: int = 100_000
) -> ExcitationScan:
    """All excitations of order <= max_order whose added points lie within
    the given radius of the origin, up to translations fixing c.

    Everything is computed in the periodic extension: added candidates are
    actual lattice points of the ball, pairwise admissibility uses plain
    distances, and the removed set collects conflict points.  The scan visits
    every pairwise-admissible added set once, level by level: level k + 1
    extends each set of level k by one higher-index candidate that conflicts
    with none of its points.  Each visited set spends one node of the budget;
    a scan stopped by the budget is flagged incomplete and still lists every
    excitation with no more added points than the last completed level.
    """
    if not isinstance(c.domain, Quotient):
        raise ValueError("excitation enumeration requires a periodic configuration")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    ball = lattice_points(UNIT_BASIS, (0, 0, 0), radius * radius)
    candidates = sorted(
        (x for x in ball if c.domain.reduce(x) not in c.occupied),
        key=lambda x: (sq_norm(x), x),
    )
    conflict = conflict_masks(candidates, c.d2)
    # removed points are bitmasks over the points near the candidates, in
    # the order first met; canon sorts what it decodes
    bit: dict[Site, int] = {}
    removes = [
        sum(bit.setdefault(p, 1 << len(bit)) for p in insertion_conflicts(c, x))
        for x in candidates
    ]
    near = list(bit)

    stab_q = _stabilizer_lattice(c)
    found: dict[tuple, None] = {}
    counter = NodeBudget(budget)

    def canon(added_mask: int, removed_mask: int):
        added = members(candidates, added_mask)
        removed = members(near, removed_mask)
        shifts = {sub(stab_q.reduce(a), a) for a in added}
        return min(
            (
                tuple(sorted(add(x, t) for x in added)),
                tuple(sorted(add(x, t) for x in removed)),
            )
            for t in shifts
        )

    # a level holds (added mask, removed mask) pairs; the next candidate
    # index is one past the highest added bit, added.bit_length()
    complete = True
    level = [(0, 0)]
    try:
        while level:
            deeper = []
            for added, removed in level:
                for i in range(added.bit_length(), len(candidates)):
                    if added & conflict[i]:
                        continue  # conflicts with an already added point
                    counter.spend()
                    a, r = added | 1 << i, removed | removes[i]
                    if r.bit_count() - a.bit_count() <= max_order:
                        found.setdefault(canon(a, r))
                    deeper.append((a, r))
            level = deeper
    except BudgetExhaustedError:
        complete = False

    excitations = [
        Excitation(added=a, removed=r, order=len(r) - len(a)) for a, r in found
    ]
    excitations.sort(key=lambda e: (e.order, e.added, e.removed))
    return ExcitationScan(tuple(excitations), complete, counter.nodes)


@dataclass(frozen=True)
class SlidingMove:
    selector: Selector
    shift: Site
    min_pair_sq_distance: int


def standard_shifts(max_sq_norm: int = 2) -> list[Site]:
    """All nonzero integer shifts of squared norm <= max_sq_norm, sorted."""
    return list(offsets_closer_than(max_sq_norm + 1))


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

    A conflicting pair of c inside the selection or inside the rest keeps
    its distance, so a selection passes only if it splits every such pair.
    The new pairs are the moved s + t against the unmoved r: s + t lands on
    or conflicts with r exactly when t - (r - s) is congruent to 0 or to a
    conflict offset.  So each difference of two sites is tabulated once with
    the shifts it bars, and a shift passes a selection when no difference
    r - s of a selected s and an unmoved r bars it.  Only the shifts that
    pass are built, for their minimum pair distance.
    """
    if selectors is None:
        selectors = standard_selectors(c)
    if shifts is None:
        shifts = standard_shifts(2)
    reduce = c.domain.reduce
    near = {reduce(w) for w in ((0, 0, 0), *c.conflict_offsets())}
    conflicts = list(c.conflicting_pairs())
    # difference of two sites -> bitmask (by shift index) of the shifts it bars
    bars = {
        d: sum(1 << i for i, t in enumerate(shifts) if reduce(sub(t, d)) in near)
        for d in {reduce(sub(r, s)) for s in c.occupied for r in c.occupied if r != s}
    }
    moves = []
    for sel in selectors:
        selected = sel.select(c)
        if not selected or selected == c.occupied:
            continue
        if any((a in selected) == (b in selected) for a, b in conflicts):
            continue
        rest = c.occupied - selected
        mask = 0
        for d in {reduce(sub(r, s)) for s in selected for r in rest}:
            mask |= bars[d]
        for i, t in enumerate(shifts):
            if mask >> i & 1:
                continue
            moved = {reduce(add(x, t)) for x in selected}
            if moved == selected:
                continue
            try:
                shifted = c.with_sites(rest | moved)
            except SitesOutsideWindowError:
                continue
            moves.append(SlidingMove(sel, t, shifted.min_pair_sq_distance()))
    moves.sort(key=lambda m: (m.selector.describe(), m.shift))
    return moves
