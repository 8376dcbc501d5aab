"""Exact integer lattice geometry on Z^3.

Everything in this module is arbitrary-precision integer (or exact rational)
arithmetic: squared norms, the 48 signed coordinate permutations, echelon
bases and membership for sublattices of any rank, finite quotients (tori)
and certified minimum-image distances.  No floating point is used anywhere;
all distance comparisons are made on squared values.

Conventions
-----------
* A site is a plain ``(x, y, z)`` tuple of Python ints.
* A basis is a tuple of three generator sites.  Generators are the *rows*
  of the corresponding 3x3 matrix, so the lattice is ``{a*g1 + b*g2 + c*g3}``.
* ``lattice_from_generators`` is the one row reduction: any generators, of
  any rank, give the canonical echelon basis of their span, against which
  ``in_lattice`` tests membership.  For rank 3 it is the Hermite normal form
  used throughout: lower triangular with positive diagonal ``d0, d1, d2``
  and below-diagonal entries reduced into ``[0, d_j)`` for column ``j``.
  Equal HNF <=> equal lattice set.
* ``period`` of a domain generates the translations it identifies: three
  vectors for a ``Quotient``, none for a ``Window``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from math import gcd, isqrt

Site = tuple[int, int, int]
Basis = tuple[Site, Site, Site]


# ---------------------------------------------------------------------------
# elementary vector arithmetic


def add(a: Site, b: Site) -> Site:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a: Site, b: Site) -> Site:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def scale(k: int, a: Site) -> Site:
    return (k * a[0], k * a[1], k * a[2])


def dot(a: Site, b: Site) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Site, b: Site) -> Site:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def sq_norm(v: Site) -> int:
    """Squared Euclidean norm x^2 + y^2 + z^2."""
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2]


def det(basis: Basis) -> int:
    """Determinant of the matrix whose rows are the three generators."""
    g1, g2, g3 = basis
    return dot(g1, cross(g2, g3))


def primitive(v: Site) -> Site:
    """Divide out the gcd of the components (sign preserved)."""
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    if g <= 1:
        return v
    return (v[0] // g, v[1] // g, v[2] // g)


# ---------------------------------------------------------------------------
# the point symmetry group of Z^3 (48 signed permutations)

SymmetryOp = tuple[Site, Site, Site]  # rows of a signed permutation matrix


def apply_symmetry(op: SymmetryOp, v: Site) -> Site:
    """Matrix-vector product; preserves sq_norm."""
    return (dot(op[0], v), dot(op[1], v), dot(op[2], v))


def compose(op1: SymmetryOp, op2: SymmetryOp) -> SymmetryOp:
    """The op acting as op1 after op2 (matrix product op1 * op2)."""
    cols = tuple(zip(*op2))
    return tuple(
        tuple(dot(row, col) for col in cols) for row in op1
    )  # type: ignore[return-value]


def symmetry_group() -> list[SymmetryOp]:
    """All 48 signed permutation matrices, in a fixed deterministic order."""
    ops = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            rows = []
            for i in range(3):
                row = [0, 0, 0]
                row[perm[i]] = signs[i]
                rows.append(tuple(row))
            ops.append(tuple(rows))
    ops.sort()
    return ops  # type: ignore[return-value]


IDENTITY_OP: SymmetryOp = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class SingularBasisError(ValueError):
    """Raised when three generators fail to span a rank-3 lattice."""


# ---------------------------------------------------------------------------
# Hermite normal form and lattice membership


def lattice_from_generators(gens: Iterable[Site]) -> tuple[Site, ...]:
    """Canonical echelon basis of the lattice spanned by any number of
    generators, of any rank (zero and dependent generators are allowed).

    Each row's last nonzero entry is its pivot.  The rows have distinct pivot
    columns, in ascending order, and positive pivots; every entry of a row in
    an earlier row's pivot column lies in ``[0, pivot)``.  Equal bases <=>
    equal lattices.  For rank 3 this is the Hermite normal form.
    """
    rows = [tuple(g) for g in gens if any(g)]
    basis: list[Site] = []
    for col in (2, 1, 0):
        # Euclid on this column; rows whose entry reaches 0 stay for later
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p, *rest = live
            rest = [sub(r, scale(r[col] // p[col], p)) for r in rest]
            rows += [r for r in rest if not r[col]]
            live = [p, *(r for r in rest if r[col])]
        if live:
            p = live[0] if live[0][col] > 0 else scale(-1, live[0])
            # the rows found so far have higher pivots: reduce their entries
            # in this column (highest pivot column first, so a later
            # reduction, which touches lower columns only, keeps them)
            basis = [p, *(sub(r, scale(r[col] // p[col], p)) for r in basis)]
        rows = [r for r in rows if any(r)]
    return tuple(basis)


def in_lattice(basis: tuple[Site, ...], v: Site) -> bool:
    """True iff v lies in the lattice of an echelon ``basis`` (as returned by
    ``lattice_from_generators``): v reduces to 0 against the rows, highest
    pivot first."""
    x, y, z = v
    for row in reversed(basis):
        col = 2 if row[2] else 1 if row[1] else 0
        q = (x, y, z)[col] // row[col]
        x, y, z = x - q * row[0], y - q * row[1], z - q * row[2]
    return x == y == z == 0


def lattice_contains(gens: Iterable[Site], v: Site) -> bool:
    """True iff v is an integer combination of the generators (a one-off
    test; build the basis once with ``lattice_from_generators`` for many)."""
    return in_lattice(lattice_from_generators(gens), v)


def hnf(basis: Basis) -> Basis:
    """Canonical lower-triangular Hermite normal form of a rank-3 basis.

    Returns generators (rows) ``(d0,0,0), (m10,d1,0), (m20,m21,d2)`` with
    ``d_i > 0`` and ``0 <= m_ij < d_j``.  Two bases generate the same lattice
    iff their HNFs are equal.
    """
    if det(basis) == 0:
        raise SingularBasisError(f"generators are linearly dependent: {basis}")
    return lattice_from_generators(basis)  # type: ignore[return-value]


def lattice_index(basis: Basis) -> int:
    """Index of the sublattice in Z^3, i.e. |det| of the generator matrix."""
    d = det(basis)
    if d == 0:
        raise SingularBasisError(f"generators are linearly dependent: {basis}")
    return abs(d)


def ceil_sqrt(n: int) -> int:
    """Smallest integer r >= 0 with r*r >= n (n >= 0)."""
    r = isqrt(n)
    return r if r * r == n else r + 1


def lattice_points(
    basis: Basis | tuple[Site, Site], t: Site, r_sq: int
) -> list[Site]:
    """Every point t + c.B (c an integer vector) with squared norm <= r_sq.

    ``basis`` holds two or three independent integer generators; the points
    come in lexicographic order of c.  The coefficients lie in a box derived
    from the dual basis: c_i = (p - t) . d_i with d_i = sum_j A_ij b_j / D,
    where A is the adjugate and D the determinant of the Gram matrix, so
    |c_i + t . d_i| <= sqrt(r_sq * A_ii / D).  All bounds are exact integer
    roundings outward; the box is small when the basis is reduced.
    """
    k = len(basis)
    gram = [[dot(u, v) for v in basis] for u in basis]
    if k == 2:
        (a, b), (_, c) = gram
        adj = [[c, -b], [-b, a]]
    else:
        adj = [
            [
                gram[(j + 1) % 3][(i + 1) % 3] * gram[(j + 2) % 3][(i + 2) % 3]
                - gram[(j + 1) % 3][(i + 2) % 3] * gram[(j + 2) % 3][(i + 1) % 3]
                for j in range(3)
            ]
            for i in range(3)
        ]
    d = sum(gram[0][j] * adj[j][0] for j in range(k))
    if d == 0:
        raise SingularBasisError(f"generators are linearly dependent: {basis}")
    tb = [dot(t, g) for g in basis]
    points = [t]
    for i, (g0, g1, g2) in enumerate(basis):
        u = sum(adj[i][j] * tb[j] for j in range(k))  # D * (t . d_i)
        s = ceil_sqrt(r_sq * adj[i][i] * d)  # >= D * sqrt(r_sq) * |d_i|
        coeffs = range(-((u + s) // d), (s - u) // d + 1)
        points = [
            (x + c * g0, y + c * g1, z + c * g2) for x, y, z in points for c in coeffs
        ]
    return [p for p in points if sq_norm(p) <= r_sq]


def reduce_basis(basis: Basis) -> Basis:
    """A pairwise-reduced basis of the same lattice, shortest first.

    Repeatedly subtracts from each generator the nearest-integer multiple of
    another one while that makes it strictly shorter (exact rounding).  In
    dimension 3 this keeps the generators short and nearly orthogonal, which
    is what keeps the boxes of ``lattice_points`` small.
    """
    if det(basis) == 0:
        raise SingularBasisError(f"generators are linearly dependent: {basis}")
    b = list(basis)
    changed = True
    while changed:
        changed = False
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                gg = sq_norm(b[j])
                k = (2 * dot(b[i], b[j]) + gg) // (2 * gg)
                if k:
                    cand = sub(b[i], scale(k, b[j]))
                    if sq_norm(cand) < sq_norm(b[i]):
                        b[i] = cand
                        changed = True
    b.sort(key=lambda g: (sq_norm(g), g))
    return tuple(b)  # type: ignore[return-value]


def shortest_vectors(basis: Basis) -> tuple[int, list[Site]]:
    """Exact minimum nonzero squared norm of the lattice and all attaining vectors.

    Enumerates the ball whose radius is the shortest reduced generator.
    """
    reduced = reduce_basis(basis)
    vecs = [
        v for v in lattice_points(reduced, (0, 0, 0), sq_norm(reduced[0])) if any(v)
    ]
    best = min(sq_norm(v) for v in vecs)
    return best, sorted(v for v in vecs if sq_norm(v) == best)


def canonical_class_rep(basis: Basis) -> Basis:
    """Lexicographically least HNF of op . basis over the 48 symmetry ops.

    Two sublattices lie in the same Z^3-symmetry class iff their reps match.
    """
    best: Basis | None = None
    for op in symmetry_group():
        cand = hnf(tuple(apply_symmetry(op, g) for g in basis))  # type: ignore[arg-type]
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# quotients (tori)


class Quotient:
    """The finite torus Z^3 modulo a full-rank period sublattice.

    Representatives are the integer points of the HNF fundamental box
    ``[0,d0) x [0,d1) x [0,d2)`` in lexicographic order.  Lattice points are
    enumerated over ``reduced``, a reduced basis of the same period lattice.
    Minimum-image squared distances are exact and memoized per difference
    coset.
    """

    def __init__(self, period: Basis):
        self.period = hnf(period)
        self.index = lattice_index(self.period)
        self.reduced = reduce_basis(self.period)
        d0, d1, d2 = (self.period[i][i] for i in range(3))
        self.reps: tuple[Site, ...] = tuple(
            itertools.product(range(d0), range(d1), range(d2))
        )
        self.rep_index = {r: i for i, r in enumerate(self.reps)}
        self._min_norm: int | None = None
        self._dist_cache: dict[Site, int] = {(0, 0, 0): 0}
        # Babai's nearest-plane bound: every coset has a point of squared
        # norm <= sum |b_i*|^2 / 4 <= sum |b_i|^2 / 4.
        self._cover_sq = (sum(sq_norm(g) for g in self.reduced) + 3) // 4

    def __repr__(self) -> str:
        return f"Quotient(period={self.period}, index={self.index})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Quotient) and self.period == other.period

    def __hash__(self) -> int:
        return hash(self.period)

    @property
    def size(self) -> int:
        return self.index

    def min_period_sq_norm(self) -> int:
        """Shortest nonzero squared norm of the period lattice."""
        if self._min_norm is None:
            self._min_norm = shortest_vectors(self.reduced)[0]
        return self._min_norm

    def reduce(self, v: Site) -> Site:
        """Canonical representative of the coset of v."""
        x, y, z = v
        r0, r1, r2 = self.period
        if 0 <= x < r0[0] and 0 <= y < r1[1] and 0 <= z < r2[2]:
            return (x, y, z)  # already in the HNF box
        q = z // r2[2]
        x -= q * r2[0]
        y -= q * r2[1]
        z -= q * r2[2]
        q = y // r1[1]
        x -= q * r1[0]
        y -= q * r1[1]
        q = x // r0[0]
        x -= q * r0[0]
        return (x, y, z)

    def pair_sq_distance(self, a: Site, b: Site) -> int:
        """Exact minimum-image squared distance between the cosets of a and b."""
        t = self.reduce(sub(a, b))
        best = self._dist_cache.get(t)
        if best is None:
            best = min(map(sq_norm, lattice_points(self.reduced, t, self._cover_sq)))
            self._dist_cache[t] = best
        return best

    def sites(self) -> tuple[Site, ...]:
        return self.reps

    def stabiliser(self, sites: frozenset[Site]) -> list[Site]:
        """The torus translations t (as coset representatives) with S + t = S
        for a set S of coset representatives.  Each maps min S into S, so
        they are among the y - min S, y in S; every t fixes the empty set."""
        if not sites:
            return list(self.reps)
        reduce = self.reduce
        low = min(sites)
        shifts = (reduce(sub(y, low)) for y in sites)
        return [t for t in shifts if all(reduce(add(x, t)) in sites for x in sites)]

    def images_near(self, base: Site, center: Site, r_sq: int) -> list[Site]:
        """All points base + p (p in the period lattice) with
        |point - center|^2 <= r_sq, in the deterministic order of
        ``lattice_points``."""
        return [
            add(v, center)
            for v in lattice_points(self.reduced, sub(base, center), r_sq)
        ]


def quotient(period: Basis) -> Quotient:
    """Quotient of Z^3 by the lattice generated by the given period basis."""
    return Quotient(period)


def min_image_sq_distance(q: Quotient, a: Site, b: Site) -> int:
    """Exact minimum-image squared distance between the cosets of a and b."""
    return q.pair_sq_distance(a, b)


class Window:
    """A finite box of Z^3 with free boundary, lo..hi inclusive per axis.

    Used for layered builds whose stacking words do not close periodically;
    distances are plain squared Euclidean distances, with no images.  Its
    ``period`` is empty: a window identifies no translates.
    """

    period: tuple[Site, ...] = ()

    def __init__(self, lo: Site, hi: Site):
        if any(lo[i] > hi[i] for i in range(3)):
            raise ValueError(f"empty window: lo={lo} hi={hi}")
        self.lo = lo
        self.hi = hi
        self._sites: tuple[Site, ...] | None = None

    def __repr__(self) -> str:
        return f"Window(lo={self.lo}, hi={self.hi})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Window) and (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @property
    def size(self) -> int:
        return (
            (self.hi[0] - self.lo[0] + 1)
            * (self.hi[1] - self.lo[1] + 1)
            * (self.hi[2] - self.lo[2] + 1)
        )

    def contains(self, v: Site) -> bool:
        return all(self.lo[i] <= v[i] <= self.hi[i] for i in range(3))

    def reduce(self, v: Site) -> Site:
        return v

    def pair_sq_distance(self, a: Site, b: Site) -> int:
        return sq_norm(sub(a, b))

    def sites(self) -> tuple[Site, ...]:
        if self._sites is None:
            self._sites = tuple(
                itertools.product(
                    range(self.lo[0], self.hi[0] + 1),
                    range(self.lo[1], self.hi[1] + 1),
                    range(self.lo[2], self.hi[2] + 1),
                )
            )
        return self._sites
