"""Exact rational Voronoi cells of periodic configurations.

A cell is built by cutting a bounding cube with the perpendicular bisector
half-space of every sufficiently close periodic neighbor; the bisector of
integer points x and y is the integer half-space 2(y-x).z <= |y|^2 - |x|^2.
While cutting, a vertex is a homogeneous integer 4-tuple (X, Y, Z, W) with
W > 0 and gcd 1, standing for (X/W, Y/W, Z/W): the side test of a vertex and
the new vertex on a cut edge are pure integer arithmetic, and equal points
are equal tuples.  Neighbors are cut in distance order, and cutting stops at
the first neighbor y with |y-x|^2 > 4R^2, R the largest vertex distance from
x: that bisector and every later one leave each vertex strictly inside.  The
cutoff radius r doubles until 4R^2 < r^2, which certifies that no neighbor
beyond the cutoff can touch the cell.  Vertices become Fractions once, in
the finished polytope.

Volumes are exact rationals obtained from an outward-oriented fan
triangulation of the facet cycles, summed in integers over a common
denominator.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .admissibility import Configuration, conflict_masks
from .lattice import (
    IDENTITY_OP,
    Quotient,
    Site,
    ceil_sqrt,
    cross,
    dot,
    lattice_points,
    sq_norm,
    sub,
)
from .solver import BudgetExhaustedError, _Counter, _isolated

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

    Facets are (normal, offset, vertex index set); vertices are homogeneous
    integer 4-tuples (X, Y, Z, W), W > 0, gcd 1.
    """

    __slots__ = ("verts", "facets")

    def __init__(self, verts: list[HVec], facets):
        self.verts = verts
        self.facets = facets

    @classmethod
    def cube(cls, center: Site, r: int) -> "_Poly":
        cx, cy, cz = center
        corners = []
        for sx in (-1, 1):
            for sy in (-1, 1):
                for sz in (-1, 1):
                    corners.append((cx + sx * r, cy + sy * r, cz + sz * r, 1))
        faces = []
        for axis in range(3):
            for sign in (-1, 1):
                normal = tuple(sign if i == axis else 0 for i in range(3))
                offset = sign * center[axis] + r
                members = {
                    i for i, v in enumerate(corners) if dot(normal, v) == offset
                }
                faces.append((normal, offset, members))
        return cls(corners, faces)

    def cut(self, normal: Site, offset: int) -> bool:
        """Intersect with normal.z <= offset; returns True when changed."""
        a0, a1, a2 = normal
        # W times (normal.v - offset): the side of v, in integers since W > 0
        s = [a0 * x + a1 * y + a2 * z - offset * w for x, y, z, w in self.verts]
        pos = [i for i, si in enumerate(s) if si > 0]
        if not pos:
            return False
        keep = [i for i, si in enumerate(s) if si <= 0]
        vfac = {i: set() for i in range(len(self.verts))}
        for fi, (_, _, members) in enumerate(self.facets):
            for i in members:
                vfac[i].add(fi)
        new_pts: list[HVec] = []
        new_facsets: list[set[int]] = []
        for i in keep:
            si = s[i]
            if si == 0:
                continue
            vi = self.verts[i]
            for j in pos:
                common = vfac[i] & vfac[j]
                if len(common) < 2:
                    continue
                # s_j v_i - s_i v_j lies on the plane, and its W is positive
                sj, vj = s[j], self.verts[j]
                h = [sj * vi[k] - si * vj[k] for k in range(4)]
                g = gcd(*h)
                pt = (h[0] // g, h[1] // g, h[2] // g, h[3] // g)
                for k, q in enumerate(new_pts):
                    if q == pt:
                        new_facsets[k] |= common
                        break
                else:
                    new_pts.append(pt)
                    new_facsets.append(set(common))
        index_map = {old: n for n, old in enumerate(keep)}
        verts = [self.verts[i] for i in keep]
        base = len(verts)
        verts.extend(new_pts)
        facets = []
        for fi, (a, b, members) in enumerate(self.facets):
            kept = {index_map[i] for i in members if i in index_map}
            kept |= {base + k for k, fs in enumerate(new_facsets) if fi in fs}
            if len(kept) >= 3:
                facets.append((a, b, kept))
        cut_members = {index_map[i] for i in keep if s[i] == 0}
        cut_members |= {base + k for k in range(len(new_pts))}
        if len(cut_members) >= 3:
            facets.append((normal, offset, cut_members))
        self.verts = verts
        self.facets = facets
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

    def _scaled_cycles(self) -> tuple[list[Site], int, list[tuple[int, ...]]]:
        pts, scale = _scaled(self.verts)
        cycles = [_order_cycle(pts, sorted(m), a) for a, _, m in self.facets]
        return pts, scale, cycles

    def freeze(self) -> RationalPolytope:
        _, _, cycles = self._scaled_cycles()
        facets = [Facet(a, b, c) for (a, b, _), c in zip(self.facets, cycles)]
        facets.sort(key=lambda f: (f.normal, f.offset))
        verts = tuple(
            (Fraction(x, w), Fraction(y, w), Fraction(z, w))
            for x, y, z, w in self.verts
        )
        return RationalPolytope(verts, tuple(facets))

    def volume(self) -> Fraction:
        return _fan_volume(*self._scaled_cycles())


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


def _order_cycle(pts: list[Site], members: list[int], normal: Site) -> tuple[int, ...]:
    """Vertices of a facet ordered counterclockwise around the outward normal.

    pts are the vertices over a common positive denominator; the offsets from
    the centroid are scaled by k = len(members) as well, which changes no
    sign of a cross or dot product, so the order is that of the exact points.
    """
    k = len(members)
    sx = sum(pts[i][0] for i in members)
    sy = sum(pts[i][1] for i in members)
    sz = sum(pts[i][2] for i in members)
    rel = {
        i: (k * pts[i][0] - sx, k * pts[i][1] - sy, k * pts[i][2] - sz)
        for i in members
    }
    ref = rel[members[0]]

    def half(w) -> int:
        d = dot(cross(ref, w), normal)
        if d > 0:
            return 0
        if d < 0:
            return 1
        return 0 if dot(ref, w) > 0 else 1

    def cmp(i: int, j: int) -> int:
        wi, wj = rel[i], rel[j]
        hi, hj = half(wi), half(wj)
        if hi != hj:
            return -1 if hi < hj else 1
        d = dot(cross(wi, wj), normal)
        if d > 0:
            return -1
        if d < 0:
            return 1
        return 0

    return tuple(sorted(members, key=functools.cmp_to_key(cmp)))


def _cut_cell(center: Site, r: int, neighbors: list[Site]) -> _Poly:
    poly = _Poly.cube(center, r)
    # popped in (|y-x|^2, y) order: a heap, because cutting stops at twice
    # the cell radius, well inside the ball
    cx, cy, cz = center
    heap = [((y[0] - cx) ** 2 + (y[1] - cy) ** 2 + (y[2] - cz) ** 2, y) for y in neighbors]
    heapq.heapify(heap)
    c_sq = sq_norm(center)
    num, den = poly.sq_radius(center)
    while heap:
        d_sq, y = heapq.heappop(heap)
        # |y-x|^2 > 4R^2: this bisector and every later one miss the cell
        if d_sq * den > 4 * num:
            break
        d = sub(y, center)
        if poly.cut((2 * d[0], 2 * d[1], 2 * d[2]), sq_norm(y) - c_sq):
            num, den = poly.sq_radius(center)
    return poly


def _periodic_neighbors(c: Configuration, x: Site, r: int) -> list[Site]:
    assert isinstance(c.domain, Quotient)
    out = []
    for o in sorted(c.occupied):
        for p in c.domain.images_near(o, x, r * r):
            if p != x:
                out.append(p)
    return out


class SiteNotOccupiedError(ValueError):
    """The Voronoi cell was asked for at a site the configuration leaves empty."""


def voronoi_cell(c: Configuration, x: Site) -> RationalPolytope:
    """Exact Voronoi cell of the occupied site x in the periodic configuration.

    The cutoff starts at twice the exclusion distance (rounded up) and doubles
    until every vertex lies strictly inside half the cutoff, which certifies
    the cell against all remaining neighbors.
    """
    if not isinstance(c.domain, Quotient):
        raise ValueError("Voronoi cells require a periodic configuration")
    x = c.domain.reduce(x)
    if x not in c.occupied:
        raise SiteNotOccupiedError(f"site {x} is not occupied")
    # The doubling ends by the first r > sqrt(sum |b_i|^2) over the reduced
    # basis b: that is at least twice the covering radius of the period
    # lattice, so every Voronoi-relevant image x + p is cut and every vertex
    # lies within the covering radius of x, inside r/2.
    r = 2 * ceil_sqrt(c.d2)
    while True:
        poly = _cut_cell(x, r, _periodic_neighbors(c, x, r))
        if poly.inside(x, r):
            return poly.freeze()
        r *= 2


def cell_volume(p: RationalPolytope) -> Fraction:
    """Exact volume via outward-oriented fans over the facet cycles."""
    scale = lcm(*(x.denominator for v in p.vertices for x in v))
    pts = [tuple(x.numerator * (scale // x.denominator) for x in v) for v in p.vertices]
    return _fan_volume(pts, scale, [f.vertices for f in p.facets])


def tessellation_check(c: Configuration) -> bool:
    """Exact check that the per-particle cell volumes of one fundamental
    domain sum to the period index."""
    assert isinstance(c.domain, Quotient)
    total = Fraction(0)
    for x in sorted(c.occupied):
        total += cell_volume(voronoi_cell(c, x))
    return total == c.domain.index


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

    DFS over insertion candidates with a strong lower bound: the cell cut by
    every still-possible candidate.  Candidates with no remaining conflicts
    are always included (they can only shrink the cell).  A leaf value counts
    only when its cell certifies (all vertices strictly inside radius/2), so
    the reported volume is a true cell volume of some admissible extension.
    NON-EXHAUSTIVE beyond the node budget: `completed` reports whether the
    search ran to the end.
    """
    if radius < ceil_sqrt(d2):
        raise ValueError(f"radius {radius} below exclusion distance for d2={d2}")
    r_sq = radius * radius
    cands = sorted(
        (
            v
            for v in lattice_points(IDENTITY_OP, (0, 0, 0), r_sq)
            if v != (0, 0, 0) and d2 <= sq_norm(v)
        ),
        key=lambda v: (sq_norm(v), v),
    )
    conflict = conflict_masks(cands, d2)
    counter = _Counter(node_budget)
    best_volume: Fraction | None = None
    best_mask = 0
    uncertified = False

    def dfs(chosen: int, cand: int) -> None:
        nonlocal best_volume, best_mask, uncertified
        counter.spend()
        isolated = _isolated(cand, conflict)
        chosen |= isolated
        cand ^= isolated
        poly = _cut_cell((0, 0, 0), radius, _members(cands, chosen | cand))
        vol = poly.volume()
        if best_volume is not None and vol >= best_volume:
            return
        if not cand:
            if poly.inside((0, 0, 0), radius):
                best_volume, best_mask = vol, chosen
            else:
                uncertified = True
            return
        v = (cand & -cand).bit_length() - 1
        dfs(chosen | 1 << v, cand & ~conflict[v] & ~(1 << v))
        dfs(chosen, cand & ~(1 << v))

    completed = True
    try:
        dfs(0, (1 << len(cands)) - 1)
    except BudgetExhaustedError:
        completed = False
    return MinCellResult(
        volume=best_volume,
        neighborhood=tuple(_members(cands, best_mask)),
        completed=completed,
        certified=best_volume is not None and not uncertified,
        nodes=counter.nodes,
    )


def _members(points: list[Site], mask: int) -> list[Site]:
    return [p for i, p in enumerate(points) if mask >> i & 1]
