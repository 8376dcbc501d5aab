"""Exact rational Voronoi cells of periodic configurations.

One private routine builds the certified cell of a site x, cut about x as
given (not about its coset representative): a bounding cube cut by the
perpendicular bisector half-space of every sufficiently close periodic
neighbor x + p, p in the ball of ``lattice_points`` about x; the bisector of
integer points x and y is the integer half-space 2(y-x).z <= |y|^2 - |x|^2.
While cutting, a vertex is a homogeneous integer 4-tuple (X, Y, Z, W) with
W > 0 and gcd 1, standing for (X/W, Y/W, Z/W): the side test of a vertex and
the new vertex on a cut edge are pure integer arithmetic, and equal points
are equal tuples.  Neighbors are cut in distance order, and cutting stops at
the first neighbor y with |y-x|^2 > 4R^2, R the largest vertex distance from
x: that bisector and every later one leave each vertex strictly inside.  The
cutoff radius r doubles until 4R^2 < r^2, which certifies that no neighbor
beyond the cutoff can touch the cell.  ``voronoi_cell`` freezes the
certified cell into Fraction vertices once; ``tessellation_check`` never
does, and sums the cell volumes in integers.

The cutter keeps one vertex-plane incidence table: for each vertex, the
bitmask of the planes it lies on (bit k for plane k).  A cut sets the new
plane's bit on the vertices that lie on it and gives each new vertex the
two or more planes its edge lies on (a mask c with c & (c - 1) nonzero);
planes are never removed.  The facets are the planes with at least three
vertices, and each facet cycle is walked from its least vertex to the
neighbour on a second common plane, counterclockwise about the outward
normal.

Volumes are exact rationals obtained from an outward-oriented fan
triangulation of the facet cycles, summed in integers over a common
denominator.

The minimal-cell search runs ``search.include_first``, under the identity
group, over the admissible neighbourhoods of the origin in a ball; it drops
a node whose chosen and candidate points S leave a cell no smaller than the
best, and a leaf reuses that cell.  The cut cell is the cube cut by every
bisector of S (the stop at twice the cell radius is exact), so a bisector
that carries no facet is redundant: for every S' with F(S) <= S' <= S, F(S)
the points whose planes carry a facet, the cell of S' is the cell of S.  A
child's set lies inside its parent's, so the search keeps the cut cells of
a chain of ancestors, each set inside the one before, and a node whose set
holds the facet points of one of them takes that cell instead of cutting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .admissibility import Configuration, conflict_masks
from .lattice import (
    UNIT_BASIS,
    Quotient,
    Site,
    add,
    ceil_sqrt,
    cross,
    dot,
    lattice_points,
    sq_norm,
    sub,
)
from .search import BudgetExhaustedError, NodeBudget, include_first, members

__all__ = [
    "RationalPolytope",
    "Facet",
    "voronoi_cell",
    "cell_volume",
    "tessellation_check",
    "min_cell_search",
    "MinCellResult",
    "SiteNotOccupiedError",
]

FVec = tuple[Fraction, Fraction, Fraction]
HVec = tuple[int, int, int, int]

@dataclass(frozen=True)
class Facet:
    """Supporting half-space normal.z <= offset with its vertex cycle
    (indices into the polytope vertex list, ordered outward-ccw)."""

    normal: Site
    offset: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class RationalPolytope:
    vertices: tuple[FVec, ...]
    facets: tuple[Facet, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.facets)


class _Poly:
    """Mutable vertex/half-space intersection used during cutting.

    Vertices are homogeneous integer 4-tuples (X, Y, Z, W), W > 0, gcd 1;
    planes are (normal, offset) pairs, and tight[i] is the bitmask of the
    planes that vertex i lies on (bit k for plane k).  Every stored plane
    supports the polytope, so two vertices on two common planes span an
    edge.
    """

    __slots__ = ("verts", "planes", "tight")

    def __init__(
        self,
        verts: list[HVec],
        planes: list[tuple[Site, int]],
        tight: list[int],
    ):
        self.verts = verts
        self.planes = planes
        self.tight = tight

    @classmethod
    def cube(cls, center: Site, r: int) -> "_Poly":
        cx, cy, cz = center
        corners = []
        for sx in (-1, 1):
            for sy in (-1, 1):
                for sz in (-1, 1):
                    corners.append((cx + sx * r, cy + sy * r, cz + sz * r, 1))
        planes = []
        for axis in range(3):
            for sign in (-1, 1):
                normal = tuple(sign if i == axis else 0 for i in range(3))
                planes.append((normal, sign * center[axis] + r))
        tight = [
            sum(1 << k for k, (a, b) in enumerate(planes) if dot(a, v) == b)
            for v in corners
        ]
        return cls(corners, planes, tight)

    def cut(self, normal: Site, offset: int) -> bool:
        """Intersect with normal.z <= offset; returns True when changed."""
        a0, a1, a2 = normal
        # W times (normal.v - offset): the side of v, in integers since W > 0
        s = [a0 * x + a1 * y + a2 * z - offset * w for x, y, z, w in self.verts]
        pos = [i for i, si in enumerate(s) if si > 0]
        if not pos:
            return False
        bit = 1 << len(self.planes)
        self.planes.append((normal, offset))
        verts, tight = self.verts, self.tight
        keep = [i for i, si in enumerate(s) if si <= 0]
        self.verts = [verts[i] for i in keep]
        self.tight = [tight[i] | bit if s[i] == 0 else tight[i] for i in keep]
        for i in keep:
            si = s[i]
            if si == 0:
                continue
            for j in pos:
                common = tight[i] & tight[j]
                # fewer than two common planes: no edge
                if not common & (common - 1):
                    continue
                # s_j v_i - s_i v_j lies on the plane, and its W is positive
                vi, sj, vj = verts[i], s[j], verts[j]
                h = [sj * vi[m] - si * vj[m] for m in range(4)]
                g = gcd(*h)
                self.verts.append((h[0] // g, h[1] // g, h[2] // g, h[3] // g))
                self.tight.append(common | bit)
        return True

    def sq_radius(self, center: Site) -> tuple[int, int]:
        """The largest squared vertex distance from center, as a pair
        (numerator, denominator)."""
        cx, cy, cz = center
        num, den = 0, 1
        for x, y, z, w in self.verts:
            n = (x - cx * w) ** 2 + (y - cy * w) ** 2 + (z - cz * w) ** 2
            if n * den > num * w * w:
                num, den = n, w * w
        return num, den

    def inside(self, center: Site, r: int) -> bool:
        """Whether every vertex lies strictly inside half the cutoff r."""
        num, den = self.sq_radius(center)
        return 4 * num < r * r * den

    def _facets(self) -> tuple[list[Site], int, dict[int, tuple[int, ...]]]:
        """The scaled vertices, their scale, and the cycle of every facet (a
        plane with at least three vertices) by plane index."""
        pts, scale = _scaled(self.verts)
        members: list[list[int]] = [[] for _ in self.planes]
        for i, t in enumerate(self.tight):
            while t:
                low = t & -t
                members[low.bit_length() - 1].append(i)
                t ^= low
        cycles = {
            p: _facet_cycle(pts, self.tight, m, p, self.planes[p][0])
            for p, m in enumerate(members)
            if len(m) >= 3
        }
        return pts, scale, cycles

    def freeze(self) -> RationalPolytope:
        _, _, cycles = self._facets()
        facets = [Facet(*self.planes[p], c) for p, c in cycles.items()]
        facets.sort(key=lambda f: (f.normal, f.offset))
        verts = tuple(
            (Fraction(x, w), Fraction(y, w), Fraction(z, w))
            for x, y, z, w in self.verts
        )
        return RationalPolytope(verts, tuple(facets))

    def volume(self) -> Fraction:
        pts, scale, cycles = self._facets()
        return _fan_volume(pts, scale, cycles.values())


def _scaled(verts: list[HVec]) -> tuple[list[Site], int]:
    """The homogeneous vertices over their least common denominator: integer
    points p with vertex = p / scale, and the scale."""
    scale = lcm(*(v[3] for v in verts))
    pts = []
    for x, y, z, w in verts:
        m = scale // w
        pts.append((x * m, y * m, z * m))
    return pts, scale


def _fan_volume(pts: list[Site], scale: int, cycles) -> Fraction:
    """Exact volume of the polytope with vertices pts / scale and the given
    outward-oriented facet cycles, as a sum of fan triple products."""
    total = 0
    for cycle in cycles:
        p0 = pts[cycle[0]]
        for i in range(1, len(cycle) - 1):
            total += dot(cross(p0, pts[cycle[i]]), pts[cycle[i + 1]])
    return Fraction(abs(total), 6 * scale**3)


def _facet_cycle(
    pts: list[Site], tight: list[int], members: list[int], plane: int, normal: Site
) -> tuple[int, ...]:
    """The vertices of the facet on plane index `plane`, counterclockwise
    around the outward normal from the least index: each step goes to the
    neighbour on a second common plane.  pts are the vertices over a common
    positive denominator."""
    others = ~(1 << plane)

    def neighbours(v: int) -> list[int]:
        second = tight[v] & others
        return [u for u in members if u != v and tight[u] & second]

    first = members[0]
    a, b = neighbours(first)
    p0 = pts[first]
    if dot(cross(sub(pts[a], p0), sub(pts[b], p0)), normal) < 0:
        a = b
    cycle = [first]
    prev, cur = first, a
    while cur != first:
        cycle.append(cur)
        u, w = neighbours(cur)
        prev, cur = cur, w if u == prev else u
    return tuple(cycle)


def _cut_cell(center: Site, r: int, near: list[tuple[int, Site]]) -> _Poly:
    poly = _Poly.cube(center, r)
    # near holds (|y-x|^2, y) pairs, popped in order from a heap made in
    # place, because cutting stops at twice the cell radius, well inside the ball
    heapq.heapify(near)
    c_sq = sq_norm(center)
    num, den = poly.sq_radius(center)
    while near:
        d_sq, y = heapq.heappop(near)
        # |y-x|^2 > 4R^2: this bisector and every later one miss the cell
        if d_sq * den > 4 * num:
            break
        d = sub(y, center)
        if poly.cut((2 * d[0], 2 * d[1], 2 * d[2]), sq_norm(y) - c_sq):
            num, den = poly.sq_radius(center)
    return poly


class SiteNotOccupiedError(ValueError):
    """The Voronoi cell was asked for at a site the configuration leaves empty."""


def _certified_cell(c: Configuration, x: Site) -> _Poly:
    """The cell of the site x, cut about x as given and certified against
    every periodic neighbour.

    The cutoff starts at twice the exclusion distance (rounded up) and
    doubles until every vertex lies strictly inside half the cutoff.
    """
    q = c.domain
    if not isinstance(q, Quotient):
        raise ValueError("Voronoi cells require a periodic configuration")
    if q.reduce(x) not in c.occupied:
        raise SiteNotOccupiedError(f"site {q.reduce(x)} is not occupied")
    # The doubling ends by the first r > sqrt(sum |b_i|^2) over the reduced
    # basis b: that is at least twice the covering radius of the period
    # lattice, so every Voronoi-relevant image x + p is cut and every vertex
    # lies within the covering radius of x, inside r/2.
    r = 2 * ceil_sqrt(c.d2)
    while True:
        near = [
            (sq_norm(p), add(x, p))
            for o in c.occupied
            for p in lattice_points(q.reduced, sub(o, x), r * r)
            if any(p)
        ]
        poly = _cut_cell(x, r, near)
        if poly.inside(x, r):
            return poly
        r *= 2


def voronoi_cell(c: Configuration, x: Site) -> RationalPolytope:
    """Exact Voronoi cell of the occupied site x in the periodic configuration.

    The one certified cell, cut about x as given: a site outside the HNF box
    gives the cell of its coset translated to it.
    """
    return _certified_cell(c, x).freeze()


def cell_volume(p: RationalPolytope) -> Fraction:
    """Exact volume via outward-oriented fans over the facet cycles."""
    scale = lcm(*(x.denominator for v in p.vertices for x in v))
    pts = [tuple(x.numerator * (scale // x.denominator) for x in v) for v in p.vertices]
    return _fan_volume(pts, scale, [f.vertices for f in p.facets])


def tessellation_check(c: Configuration) -> bool:
    """Exact check that the per-particle cell volumes of one fundamental
    domain sum to the period index; each certified cell's volume is summed
    from its integer vertices, with no Fraction vertices."""
    if not isinstance(c.domain, Quotient):
        raise ValueError("Voronoi cells require a periodic configuration")
    return sum(_certified_cell(c, x).volume() for x in c.occupied) == c.domain.index


# ---------------------------------------------------------------------------
# bounded search for minimal-volume cells


@dataclass(frozen=True)
class MinCellResult:
    volume: Fraction | None
    neighborhood: tuple[Site, ...]
    completed: bool
    certified: bool
    nodes: int


def min_cell_search(d2: int, radius: int, node_budget: int = 100_000) -> MinCellResult:
    """Best-effort minimum Voronoi cell volume over admissible neighborhoods
    of the origin inside the given ball.

    ``search.include_first`` over insertion candidates, dropping a node
    whose cell cut by every still-possible candidate (chosen and candidate
    points) is no smaller than the best.  Candidates with no remaining
    conflicts are always included (they can only shrink the cell).  A leaf
    value counts only when its cell certifies (all vertices strictly inside
    radius/2), so the reported volume is a true cell volume of some
    admissible extension.
    NON-EXHAUSTIVE beyond the node budget: `completed` reports whether the
    search ran to the end.

    `certified` (a value was found and every leaf reached certified) is
    NOT a proof that no admissible neighbourhood has a smaller cell.  The
    drop is a lower bound only for cells that lie inside radius/2: where
    the cell of a node reaches beyond it, points outside the ball can cut
    the cells below that node smaller than the best, and the node is
    dropped all the same.
    """
    if radius < ceil_sqrt(d2):
        raise ValueError(f"radius {radius} below exclusion distance for d2={d2}")
    ball = lattice_points(UNIT_BASIS, (0, 0, 0), radius * radius)
    # nearest last: include_first branches on its highest candidate
    pairs = sorted(
        ((sq_norm(v), v) for v in ball if v != (0, 0, 0) and d2 <= sq_norm(v)),
        reverse=True,
    )
    cands = [v for _, v in pairs]
    conflict = conflict_masks(cands, d2)
    budget = NodeBudget(node_budget)
    # the candidate behind each bisector normal 2v, as a bit
    bit_of = {(2 * x, 2 * y, 2 * z): 1 << i for i, (x, y, z) in enumerate(cands)}
    best_volume: Fraction | None = None
    best_mask = 0
    uncertified = False
    vol = inside = None
    # (S, facet mask, volume, whether the cell lies inside radius/2) of the
    # cells cut at ancestors, each set inside the one before
    chain: list[tuple[int, int, Fraction, bool]] = []

    def drop(chosen: int, cand: int, bound: int) -> bool:
        # the cell of S = chosen | cand bounds the leaves below; a leaf reuses
        # it.  A cut cell of a superset of S whose facet points all lie in S
        # is the cell of S: the bisectors it drops support no facet.
        nonlocal vol, inside
        s = chosen | cand
        while chain and s & ~chain[-1][0]:
            chain.pop()
        for entry in reversed(chain):
            if not entry[1] & ~s:
                break
        else:
            cell = _cut_cell((0, 0, 0), radius, members(pairs, s))
            pts, scale, cycles = cell._facets()
            facets = sum(bit_of.get(cell.planes[p][0], 0) for p in cycles)
            volume = _fan_volume(pts, scale, cycles.values())
            entry = (s, facets, volume, cell.inside((0, 0, 0), radius))
            chain.append(entry)
        _, _, vol, inside = entry
        return best_volume is not None and vol >= best_volume

    completed = True
    try:
        for chosen in include_first(
            conflict, 0, (1 << len(cands)) - 1, drop, budget, lambda v, _: (v,), [0]
        ):
            if inside:
                best_volume, best_mask = vol, chosen
            else:
                uncertified = True
    except BudgetExhaustedError:
        completed = False
    return MinCellResult(
        volume=best_volume,
        neighborhood=tuple(reversed(members(cands, best_mask))),
        completed=completed,
        certified=best_volume is not None and not uncertified,
        nodes=budget.nodes,
    )
