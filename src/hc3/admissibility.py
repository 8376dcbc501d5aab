"""Configurations with a hard-core exclusion constraint, on tori or windows.

A configuration is a set of occupied sites together with the squared
exclusion distance ``d2``: it is admissible when every pair of distinct
occupied sites (minimum-image distance on a torus, plain distance in a
window) is at squared distance >= d2.  Equality at d2 is allowed; only
strictly closer pairs conflict.

A quotient too small for d2 (some nonzero period vector shorter than the
exclusion distance) is rejected at construction time: on such a torus a
particle would conflict with its own periodic images.

Every conflict test rests on the conflict offsets {v : 0 < |v|^2 < d2},
one lattice ball: the conflicting pairs and with them `is_admissible`,
insertion candidates, the exclusion graph and `conflict_masks` (the
conflict bitmasks of a list of points).  In a window no two sites are
farther apart than its diagonal, so the ball there is clipped to the
diagonal's squared length.

On a torus the offsets are looked up for row 0 only, the cosets that
conflict with coset 0: a torus is a group and u, v conflict exactly when
u - v is an offset, so row a is row 0 translated by a, a few shifts of its
bitmask (`Quotient.translate`).  The conflicting pairs translate row 0 by
each occupied site and mask it with the occupied cosets.  The exclusion
graph builds its first block of n/h0 rows so, h0 the first HNF diagonal
entry, and each later block is the first one with its row bitmasks rotated
(`build_exclusion_graph`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, combinations

from .lattice import UNIT_BASIS, Quotient, Site, Window, add, lattice_points
from .search import members

Domain = Quotient | Window


class PeriodTooShortError(ValueError):
    """The period lattice has a nonzero vector shorter than the exclusion distance."""


def _check_period(q: Quotient, d2: int) -> None:
    if q.min_period_sq_norm() < d2:
        raise PeriodTooShortError(
            f"period min squared norm {q.min_period_sq_norm()} < d2 = {d2}"
        )


class SitesOutsideWindowError(ValueError):
    """Some occupied sites of a window configuration lie outside the window."""

    def __init__(self, sites: list[Site]):
        super().__init__(f"sites outside window: {sites[:3]}")
        self.sites = sites


@cache
def offsets_closer_than(d2: int) -> tuple[Site, ...]:
    """All offsets v with 0 < |v|^2 < d2.  Two distinct sites conflict
    exactly when their difference is congruent to one of these offsets.
    Built once per d2 and shared by every caller."""
    return tuple(v for v in lattice_points(UNIT_BASIS, (0, 0, 0), d2 - 1) if any(v))


def _offset_row(q: Quotient, d2: int) -> int:
    """The mask of the cosets of the conflict offsets: the sites that
    conflict with coset 0, row 0 of the exclusion graph."""
    index_of = q.index_of
    return sum(1 << j for j in {index_of(v) for v in offsets_closer_than(d2)})


def conflict_masks(points: list[Site], d2: int) -> list[int]:
    """For each of the distinct points, the bitmask (by list index) of the
    points strictly closer than the exclusion distance, plain distances."""
    index = {p: i for i, p in enumerate(points)}
    offsets = offsets_closer_than(d2)
    return [
        sum(1 << index[q] for v in offsets if (q := add(p, v)) in index)
        for p in points
    ]


@dataclass(frozen=True)
class Configuration:
    """An immutable set of occupied sites on a quotient or window."""

    domain: Domain
    d2: int
    occupied: frozenset[Site] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.d2 < 1:
            raise ValueError(f"d2 must be a positive integer, got {self.d2}")
        if isinstance(self.domain, Quotient):
            _check_period(self.domain, self.d2)
            object.__setattr__(
                self,
                "occupied",
                frozenset(self.domain.reduce(x) for x in self.occupied),
            )
        else:
            bad = sorted(x for x in self.occupied if not self.domain.contains(x))
            if bad:
                raise SitesOutsideWindowError(bad)

    # -- basic queries ------------------------------------------------------

    def sorted_sites(self) -> list[Site]:
        return sorted(self.occupied)

    def pair_sq_distance(self, a: Site, b: Site) -> int:
        return self.domain.pair_sq_distance(a, b)

    def conflict_offsets(self) -> tuple[Site, ...]:
        """The conflict offsets that can join two sites of the domain."""
        d2, w = self.d2, self.domain
        if isinstance(w, Window):  # lo and hi are its farthest-apart sites
            d2 = min(d2, sum((b - a) ** 2 for a, b in zip(w.lo, w.hi)) + 1)
        return offsets_closer_than(d2)

    def conflicting_pairs(self) -> Iterator[tuple[Site, Site]]:
        """Every pair a < b of occupied sites closer than the exclusion
        distance, in sorted order.  On a torus the sites conflicting with a
        are the offset row of coset 0 translated by a (``_offset_row``), and
        the reps are in sorted order, so the partners b > a are the occupied
        bits above a's index; in a window b is a + v, v an offset."""
        w = self.domain
        if isinstance(w, Quotient):
            row0, reps = _offset_row(w, self.d2), w.reps
            rest = sum(1 << w.index_of(a) for a in self.occupied)
            while rest:
                low = rest & -rest
                rest ^= low
                a = reps[low.bit_length() - 1]
                yield from ((a, b) for b in members(reps, w.translate(row0, a) & rest))
            return
        offsets = self.conflict_offsets()
        for a in self.sorted_sites():
            near = {add(a, v) for v in offsets} & self.occupied
            yield from ((a, b) for b in sorted(near) if b > a)

    def is_admissible(self) -> tuple[bool, tuple[Site, Site] | None]:
        """No conflicting pair; on failure also the first one in sorted
        order."""
        pair = next(self.conflicting_pairs(), None)
        return pair is None, pair

    def density(self) -> Fraction:
        """Occupied fraction of the domain, exact."""
        return Fraction(len(self.occupied), self.domain.size)

    def min_pair_sq_distance(self) -> int | None:
        """Exact minimum over occupied pairs, including periodic self-images
        on a torus (the self-image term is the period's shortest vector).
        None when there is no pair: an empty torus, or a window with fewer
        than two sites."""
        dist = self.domain.pair_sq_distance
        # pairwise: on an admissible configuration the minimum is d2 or
        # more, beyond the conflict offsets
        pairs = (dist(a, b) for a, b in combinations(self.occupied, 2))
        if self.occupied and isinstance(self.domain, Quotient):
            pairs = chain(pairs, [self.domain.min_period_sq_norm()])
        return min(pairs, default=None)

    # -- local moves --------------------------------------------------------

    def insertion_candidates(self) -> list[Site]:
        """All unoccupied domain sites insertable without violation.

        Empty list <=> the configuration is saturated.
        """
        reduce = self.domain.reduce
        offsets = self.conflict_offsets()
        blocked = set(self.occupied)
        for o in self.occupied:
            blocked.update(reduce(add(o, v)) for v in offsets)
        return [x for x in self.domain.sites() if x not in blocked]

    def with_sites(self, occupied) -> "Configuration":
        return Configuration(self.domain, self.d2, frozenset(occupied))


@dataclass(frozen=True)
class ExclusionGraph:
    """Conflict graph of a quotient: vertices are the coset representatives
    in their fixed order, edges join cosets at minimum-image squared distance
    strictly between 0 and d2.  Adjacency is stored as per-vertex bitmasks."""

    quotient: Quotient
    d2: int
    adjacency: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.adjacency)


def build_exclusion_graph(q: Quotient, d2: int) -> ExclusionGraph:
    """Exclusion graph of the torus at squared distance d2.

    The neighbors of a are the cosets of a + v over the conflict offsets v.
    None of them is a itself, because no period vector is shorter than d2.

    Only row 0 is built from the offsets, by `Quotient.index_of`.  The
    graph is a Cayley graph of the torus, so row a is row 0 translated by a
    (`Quotient.translate`), and the first step = h1*h2 rows (HNF diagonal
    (h0, h1, h2)) are built so.  The translation by (1, 0, 0) maps vertex i
    to i + step mod n, because the representatives are the HNF box in
    lexicographic order and (h0, 0, 0) is a period vector, so row
    i + k*step is row i rotated left by k*step bits.
    """
    _check_period(q, d2)
    row0, n = _offset_row(q, d2), q.index
    step = n // q.period[0][0]
    block = [q.translate(row0, a) for a in q.reps[:step]]
    full = (1 << n) - 1
    adj = tuple(
        ((m << s) | (m >> (n - s))) & full for s in range(0, n, step) for m in block
    )
    return ExclusionGraph(q, d2, adj)
