"""Exact integer lattice geometry on Z^3.

Everything in this module is arbitrary-precision integer (or exact rational)
arithmetic: squared norms, the 48 signed coordinate permutations in their one
(perm, sign) form, echelon bases and membership for sublattices of any rank,
finite quotients (tori) and certified minimum-image distances.  No floating
point is used anywhere; all distance comparisons are made on squared values.

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
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt
from typing import ClassVar

from .search import members

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

# each row's (perm_i, sign_i) pair: op(v)_i = sign_i * v[perm_i]
SymmetryOp = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


def apply_symmetry(op: SymmetryOp, v: Site) -> Site:
    """The signed coordinate permutation op(v); preserves sq_norm."""
    (i, si), (j, sj), (k, sk) = op
    return (si * v[i], sj * v[j], sk * v[k])


def symmetry_group() -> list[SymmetryOp]:
    """All 48 signed permutations, in the lexicographic order of their
    matrices: a row with sign s in column j sorts as j if s < 0 else 5 - j."""
    ops = [
        tuple(zip(perm, signs))
        for perm in itertools.permutations(range(3))
        for signs in itertools.product((1, -1), repeat=3)
    ]
    ops.sort(key=lambda op: [j if s < 0 else 5 - j for j, s in op])
    return ops  # type: ignore[return-value]


IDENTITY_OP: SymmetryOp = ((0, 1), (1, 1), (2, 1))
UNIT_BASIS: Basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # balls about the origin


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
    _checked_det(basis)
    return lattice_from_generators(basis)  # type: ignore[return-value]


def lattice_index(basis: Basis) -> int:
    """Index of the sublattice in Z^3, i.e. |det| of the generator matrix."""
    return abs(_checked_det(basis))


def _checked_det(basis: Basis) -> int:
    """det(basis), or SingularBasisError when it is 0."""
    d = det(basis)
    if d == 0:
        raise SingularBasisError(f"generators are linearly dependent: {basis}")
    return d


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
    _checked_det(basis)
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


# ---------------------------------------------------------------------------
# quotients (tori)


class Quotient:
    """The finite torus Z^3 modulo a full-rank period sublattice.

    Representatives are the integer points of the HNF fundamental box
    ``[0,d0) x [0,d1) x [0,d2)`` in lexicographic order, so the coset index
    of the box point (x, y, z) is ``(x*d1 + y)*d2 + z`` (``index_of``), and
    a set of cosets is an int bitmask over these indices (``translate``).
    Lattice points are enumerated over ``reduced``, a reduced basis of the
    same period lattice.  Minimum-image squared distances are exact and
    memoized per difference coset.
    """

    def __init__(self, period: Basis):
        self.period = hnf(period)
        self.index = lattice_index(self.period)
        self.reduced = reduce_basis(self.period)
        d0, d1, d2 = (self.period[i][i] for i in range(3))
        self.reps: tuple[Site, ...] = tuple(
            itertools.product(range(d0), range(d1), range(d2))
        )
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
        return self.reps[self.index_of(v)]

    def index_of(self, v: Site) -> int:
        """The coset index of v, its representative's position in ``reps``:
        back-substitution against the HNF rows, z first, then y with the
        shear of the z row, then x mod d0."""
        x, y, z = v
        (d0, _, _), (a, d1, _), (b, c, d2) = self.period
        q, z = divmod(z, d2)
        x -= q * b
        q, y = divmod(y - q * c, d1)
        return (((x - q * a) % d0) * d1 + y) * d2 + z

    def translate(self, mask: int, t: Site) -> int:
        """The bitmask of S + t for the set S of coset indices in `mask`.

        With t reduced into the box, z + tz < d2 moves an index by tz and the
        rest of each block of d2 indices wraps through (0, 0, d2), which is
        (-b, -c, 0) mod L; then y + ty < d1 moves it by ty*d2 and the rest of
        each block of d1*d2 wraps through (0, d1, 0), which is (-a, 0, 0);
        x is a rotation of the whole mask by tx*d1*d2 bits, as (d0, 0, 0) is
        a period vector.  So S + t is a few shifts and masks.
        """
        tx, ty, tz = self.reduce(t)
        b, c, d2 = self.period[2]
        if not tz:
            return self._translate_xy(mask, tx, ty)
        keep = self._repunits[0] * ((1 << (d2 - tz)) - 1)  # z < d2 - tz
        low = mask & keep
        return self._translate_xy(low << tz, tx, ty) | self._translate_xy(
            (mask ^ low) >> (d2 - tz), tx - b, ty - c
        )

    @cached_property
    def _repunits(self) -> tuple[int, int]:
        """The masks with one bit at the start of each block of d2 indices
        (one z row) and of each block of d1*d2 (one x slab)."""
        full = (1 << self.index) - 1
        d1, d2 = self.period[1][1], self.period[2][2]
        return full // ((1 << d2) - 1), full // ((1 << d1 * d2) - 1)

    def _translate_xy(self, mask: int, tx: int, ty: int) -> int:
        """`translate` by (tx, ty, 0), for -d1 < ty < d1."""
        a, d1, _ = self.period[1]
        d2 = self.period[2][2]
        if ty < 0:
            tx, ty = tx + a, ty + d1  # add the period vector (a, d1, 0)
        if not ty:
            return self._rotate(mask, tx)
        keep = self._repunits[1] * ((1 << ((d1 - ty) * d2)) - 1)  # y < d1 - ty
        low = mask & keep
        return self._rotate(low << (ty * d2), tx) | self._rotate(
            (mask ^ low) >> ((d1 - ty) * d2), tx - a
        )

    def _rotate(self, mask: int, tx: int) -> int:
        """`translate` by (tx, 0, 0): a rotation by tx*d1*d2 bits."""
        n, d0 = self.index, self.period[0][0]
        s = (tx % d0) * (n // d0)
        if not s:
            return mask
        return ((mask << s) | (mask >> (n - s))) & ((1 << n) - 1)

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

    def stabiliser(self, mask: int) -> list[Site]:
        """The torus translations t (as coset representatives) with S + t = S
        for the set S of coset indices in `mask`.  Each maps min S into S, so
        they are among the y - min S, y in S; every t fixes the empty set."""
        if not mask:
            return list(self.reps)
        low = self.reps[(mask & -mask).bit_length() - 1]
        shifts = (self.reduce(sub(y, low)) for y in members(self.reps, mask))
        return [t for t in shifts if self.translate(mask, t) == mask]


def quotient(period: Basis) -> Quotient:
    """Quotient of Z^3 by the lattice generated by the given period basis."""
    return Quotient(period)


@dataclass(frozen=True)
class Window:
    """A finite box of Z^3 with free boundary, lo..hi inclusive per axis.

    Used for layered builds whose stacking words do not close periodically;
    distances are plain squared Euclidean distances, with no images.  Its
    ``period`` is empty: a window identifies no translates.
    """

    lo: Site
    hi: Site
    period: ClassVar[tuple[Site, ...]] = ()

    def __post_init__(self):
        if any(self.lo[i] > self.hi[i] for i in range(3)):
            raise ValueError(f"empty window: lo={self.lo} hi={self.hi}")

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

    @cached_property
    def _sites(self) -> tuple[Site, ...]:
        return tuple(
            itertools.product(
                range(self.lo[0], self.hi[0] + 1),
                range(self.lo[1], self.hi[1] + 1),
                range(self.lo[2], self.hi[2] + 1),
            )
        )

    def sites(self) -> tuple[Site, ...]:
        return self._sites
