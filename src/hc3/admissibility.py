"""Configurations with a hard-core exclusion constraint, on tori or windows.

A configuration is a set of occupied sites together with the squared
exclusion distance ``d2``: it is admissible when every pair of distinct
occupied sites (minimum-image distance on a torus, plain distance in a
window) is at squared distance >= d2.  Equality at d2 is allowed; only
strictly closer pairs conflict.

A quotient too small for d2 (some nonzero period vector shorter than the
exclusion distance) is rejected at construction time: on such a torus a
particle would conflict with its own periodic images.

Conflicts are found from the conflict offsets {v : 0 < |v|^2 < d2}, one
lattice ball, by set or dict lookups: insertion candidates, the exclusion
graph and `conflict_masks` (the conflict bitmasks of a list of points) all
use them.  Only `is_admissible` stays pairwise over the cached minimum-image
distances, which is faster on the many small configurations of a sliding
scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .lattice import IDENTITY_OP, Quotient, Site, Window, add, lattice_points

Domain = Quotient | Window


class PeriodTooShortError(ValueError):
    """The period lattice has a nonzero vector shorter than the exclusion distance."""


class SitesOutsideWindowError(ValueError):
    """Some occupied sites of a window configuration lie outside the window."""

    def __init__(self, sites: list[Site]):
        super().__init__(f"sites outside window: {sites[:3]}")
        self.sites = sites


@cache
def _conflict_offsets(d2: int) -> tuple[Site, ...]:
    """All offsets v with 0 < |v|^2 < d2.  Two distinct sites conflict
    exactly when their difference is congruent to one of these offsets.
    Built once per d2 and shared by every caller."""
    return tuple(v for v in lattice_points(IDENTITY_OP, (0, 0, 0), d2 - 1) if any(v))


def conflict_masks(points: list[Site], d2: int) -> list[int]:
    """For each of the distinct points, the bitmask (by list index) of the
    points strictly closer than the exclusion distance, plain distances."""
    index = {p: i for i, p in enumerate(points)}
    offsets = _conflict_offsets(d2)
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
            if self.domain.min_period_sq_norm() < self.d2:
                raise PeriodTooShortError(
                    f"period min squared norm {self.domain.min_period_sq_norm()}"
                    f" < d2 = {self.d2}"
                )
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

    def is_admissible(self) -> tuple[bool, tuple[Site, Site] | None]:
        """Check all pairs; on failure return the first violating pair
        (in sorted site order)."""
        sites = self.sorted_sites()
        d2 = self.d2
        dist = self.domain.pair_sq_distance
        for i, a in enumerate(sites):
            for b in sites[i + 1 :]:
                if dist(a, b) < d2:
                    return False, (a, b)
        return True, None

    def density(self) -> Fraction:
        """Occupied fraction of the domain, exact."""
        return Fraction(len(self.occupied), self.domain.size)

    def min_pair_sq_distance(self) -> int:
        """Exact minimum over occupied pairs, including periodic self-images
        on a torus (the self-image term is the period's shortest vector)."""
        if len(self.occupied) < 2 and not isinstance(self.domain, Quotient):
            raise ValueError("need at least 2 occupied sites")
        sites = self.sorted_sites()
        dist = self.domain.pair_sq_distance
        best = None
        for i, a in enumerate(sites):
            for b in sites[i + 1 :]:
                d = dist(a, b)
                if best is None or d < best:
                    best = d
        if isinstance(self.domain, Quotient) and self.occupied:
            p = self.domain.min_period_sq_norm()
            best = p if best is None else min(best, p)
        if best is None:
            raise ValueError("need at least 2 occupied sites")
        return best

    # -- local moves --------------------------------------------------------

    def insertion_candidates(self) -> list[Site]:
        """All unoccupied domain sites insertable without violation.

        Empty list <=> the configuration is saturated.
        """
        reduce = self.domain.reduce
        offsets = _conflict_offsets(self.d2)
        blocked = set(self.occupied)
        for o in self.occupied:
            blocked.update(reduce(add(o, v)) for v in offsets)
        return [x for x in self.domain.sites() if x not in blocked]

    def with_sites(self, occupied) -> "Configuration":
        return Configuration(self.domain, self.d2, frozenset(occupied))

    def insert(self, x: Site) -> "Configuration":
        return self.with_sites(self.occupied | {self.domain.reduce(x)})


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

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def neighbors(self, i: int) -> list[int]:
        mask = self.adjacency[i]
        return [j for j in range(self.n) if mask >> j & 1]

    def is_independent(self, vertices) -> bool:
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return all(not (self.adjacency[v] & mask) for v in range(self.n) if mask >> v & 1)


def build_exclusion_graph(q: Quotient, d2: int) -> ExclusionGraph:
    """Exclusion graph of the torus at squared distance d2.

    The neighbors of a are the cosets of a + v over the conflict offsets v.
    None of them is a itself, because no period vector is shorter than d2.
    """
    if q.min_period_sq_norm() < d2:
        raise PeriodTooShortError(
            f"period min squared norm {q.min_period_sq_norm()} < d2 = {d2}"
        )
    offsets = _conflict_offsets(d2)
    index = q.rep_index
    reduce = q.reduce
    adj = []
    for a in q.reps:
        neighbors = {index[reduce(add(a, v))] for v in offsets}
        adj.append(sum(1 << j for j in neighbors))
    return ExclusionGraph(q, d2, tuple(adj))
