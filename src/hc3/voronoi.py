"""Exact rational Voronoi cells of periodic configurations.

A cell is built by cutting a bounding cube with the perpendicular bisector
half-space of every sufficiently close periodic neighbor; the bisector of
integer points x and y is the integer half-space 2(y-x).z <= |y|^2 - |x|^2,
so the whole computation stays in rational arithmetic.  The cutoff radius
doubles until every cell vertex lies strictly inside half the radius, which
certifies that no farther neighbor can touch the cell.

Volumes are exact rationals obtained from an outward-oriented fan
triangulation of the facet cycles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .admissibility import Configuration
from .lattice import (
    IDENTITY_OP,
    Quotient,
    Site,
    ceil_sqrt,
    lattice_points,
    sq_norm,
    sub,
)

__all__ = [
    "RationalPolytope",
    "Facet",
    "voronoi_cell",
    "cell_volume",
    "tessellation_check",
    "min_cell_search",
    "MinCellResult",
]

FVec = tuple[Fraction, Fraction, Fraction]

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


def _fdot(a: Site, v: FVec) -> Fraction:
    return a[0] * v[0] + a[1] * v[1] + a[2] * v[2]


def _fsub(a: FVec, b: FVec) -> FVec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _fcross(a, b) -> FVec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _fdot3(a, b) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


class _Poly:
    """Mutable vertex/half-space intersection used during cutting.

    Facets are (normal, offset, vertex index set); vertex coordinates are
    exact Fractions.
    """

    __slots__ = ("verts", "facets")

    def __init__(self, verts, facets):
        self.verts = verts
        self.facets = facets

    @classmethod
    def cube(cls, center: Site, r: int) -> "_Poly":
        cx, cy, cz = (Fraction(c) for c in center)
        corners = []
        for sx in (-1, 1):
            for sy in (-1, 1):
                for sz in (-1, 1):
                    corners.append((cx + sx * r, cy + sy * r, cz + sz * r))
        faces = []
        for axis in range(3):
            for sign in (-1, 1):
                normal = tuple(sign if i == axis else 0 for i in range(3))
                offset = sign * center[axis] + r
                members = {
                    i
                    for i, v in enumerate(corners)
                    if _fdot(normal, v) == offset
                }
                faces.append((normal, offset, members))
        return cls(corners, faces)

    def cut(self, normal: Site, offset: int) -> bool:
        """Intersect with normal.z <= offset; returns True when changed."""
        s = [_fdot(normal, v) - offset for v in self.verts]
        pos = [i for i, si in enumerate(s) if si > 0]
        if not pos:
            return False
        keep = [i for i, si in enumerate(s) if si <= 0]
        vfac = {i: set() for i in range(len(self.verts))}
        for fi, (_, _, members) in enumerate(self.facets):
            for i in members:
                vfac[i].add(fi)
        new_pts: list[FVec] = []
        new_facsets: list[set[int]] = []
        for i in keep:
            if s[i] == 0:
                continue
            for j in pos:
                common = vfac[i] & vfac[j]
                if len(common) < 2:
                    continue
                t = s[i] / (s[i] - s[j])
                vi, vj = self.verts[i], self.verts[j]
                pt = (
                    vi[0] + t * (vj[0] - vi[0]),
                    vi[1] + t * (vj[1] - vi[1]),
                    vi[2] + t * (vj[2] - vi[2]),
                )
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

    def max_sq_radius(self, center: Site) -> Fraction:
        cx, cy, cz = (Fraction(c) for c in center)
        best = Fraction(0)
        for v in self.verts:
            d = (v[0] - cx) ** 2 + (v[1] - cy) ** 2 + (v[2] - cz) ** 2
            if d > best:
                best = d
        return best

    def freeze(self) -> RationalPolytope:
        facets = []
        for a, b, members in self.facets:
            cycle = _order_cycle(self.verts, sorted(members), a)
            facets.append(Facet(a, b, cycle))
        facets.sort(key=lambda f: (f.normal, f.offset))
        return RationalPolytope(tuple(self.verts), tuple(facets))

    def volume(self) -> Fraction:
        total = Fraction(0)
        for a, _, members in self.facets:
            cycle = _order_cycle(self.verts, sorted(members), a)
            p0 = self.verts[cycle[0]]
            for i in range(1, len(cycle) - 1):
                p1, p2 = self.verts[cycle[i]], self.verts[cycle[i + 1]]
                total += _fdot3(_fcross(p0, p1), p2)
        return abs(total) / 6


def _order_cycle(verts, members: list[int], normal: Site) -> tuple[int, ...]:
    """Vertices of a facet ordered counterclockwise around the outward normal."""
    k = len(members)
    cx = sum(verts[i][0] for i in members) / k
    cy = sum(verts[i][1] for i in members) / k
    cz = sum(verts[i][2] for i in members) / k
    rel = {i: (verts[i][0] - cx, verts[i][1] - cy, verts[i][2] - cz) for i in members}
    ref = rel[members[0]]

    def half(w) -> int:
        c = _fcross(ref, w)
        d = _fdot3(c, normal)
        if d > 0:
            return 0
        if d < 0:
            return 1
        return 0 if _fdot3(ref, w) > 0 else 1

    def cmp(i: int, j: int) -> int:
        wi, wj = rel[i], rel[j]
        hi, hj = half(wi), half(wj)
        if hi != hj:
            return -1 if hi < hj else 1
        d = _fdot3(_fcross(wi, wj), normal)
        if d > 0:
            return -1
        if d < 0:
            return 1
        return 0

    return tuple(sorted(members, key=functools.cmp_to_key(cmp)))


def _cut_cell(center: Site, r: int, neighbors: list[Site]) -> _Poly:
    poly = _Poly.cube(center, r)
    ordered = sorted(neighbors, key=lambda y: (sq_norm(sub(y, center)), y))
    c_sq = sq_norm(center)
    for y in ordered:
        normal = tuple(2 * (y[k] - center[k]) for k in range(3))
        poly.cut(normal, sq_norm(y) - c_sq)
    return poly


def _periodic_neighbors(c: Configuration, x: Site, r: int) -> list[Site]:
    assert isinstance(c.domain, Quotient)
    out = []
    for o in sorted(c.occupied):
        for p in c.domain.images_near(o, x, r * r):
            if p != x:
                out.append(p)
    return out


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
        raise ValueError(f"site {x} is not occupied")
    # The doubling ends by the first r > sqrt(sum |b_i|^2) over the reduced
    # basis b: that is at least twice the covering radius of the period
    # lattice, so every Voronoi-relevant image x + p is cut and every vertex
    # lies within the covering radius of x, inside r/2.
    r = 2 * ceil_sqrt(c.d2)
    while True:
        poly = _cut_cell(x, r, _periodic_neighbors(c, x, r))
        if 4 * poly.max_sq_radius(x) < r * r:
            return poly.freeze()
        r *= 2


def cell_volume(p: RationalPolytope) -> Fraction:
    """Exact volume via outward-oriented fans over the facet cycles."""
    total = Fraction(0)
    for f in p.facets:
        p0 = p.vertices[f.vertices[0]]
        for i in range(1, len(f.vertices) - 1):
            p1 = p.vertices[f.vertices[i]]
            p2 = p.vertices[f.vertices[i + 1]]
            total += _fdot3(_fcross(p0, p1), p2)
    return abs(total) / 6


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
    n = len(cands)
    conflict = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if sq_norm(sub(cands[i], cands[j])) < d2:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i

    def cell_for(mask: int) -> _Poly:
        pts = [cands[i] for i in range(n) if mask >> i & 1]
        return _cut_cell((0, 0, 0), radius, pts)

    best: list = [None, None]  # volume, chosen mask
    state = {"nodes": 0, "complete": True, "uncertified": False}
    cert_limit = Fraction(r_sq, 4)

    def dfs(chosen: int, cand: int) -> None:
        if state["nodes"] >= node_budget:
            state["complete"] = False
            return
        state["nodes"] += 1
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if not (conflict[v] & cand):
                chosen |= 1 << v
                cand &= ~(1 << v)
        poly = cell_for(chosen | cand)
        vol = poly.volume()
        if best[0] is not None and vol >= best[0]:
            return
        if not cand:
            if poly.max_sq_radius((0, 0, 0)) < cert_limit:
                best[0], best[1] = vol, chosen
            else:
                state["uncertified"] = True
            return
        v = (cand & -cand).bit_length() - 1
        dfs(chosen | 1 << v, cand & ~conflict[v] & ~(1 << v))
        dfs(chosen, cand & ~(1 << v))

    dfs(0, (1 << n) - 1)
    neighborhood = tuple(
        cands[i] for i in range(n) if best[1] is not None and best[1] >> i & 1
    )
    return MinCellResult(
        volume=best[0],
        neighborhood=neighborhood,
        completed=state["complete"],
        certified=best[0] is not None and not state["uncertified"],
        nodes=state["nodes"],
    )
