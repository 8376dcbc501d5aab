"""Number-theoretic enumeration of scaled-FCC sublattices of Z^3.

A scaled copy of the face-centered cubic lattice with nearest squared
distance 2*ell^2 embeds into Z^3 exactly when three integer vectors of
squared norm 2*ell^2 have pairwise inner products ell^2 (the FCC Gram
matrix).  One search finds these triples, each unordered triple once.
From it this module enumerates all such sublattices, groups them into
orbits of the 48 signed coordinate permutations, and decides geometrically
whether an embedding admits the alternate (reflected) layer stacking - the
ingredient needed for layered close-packings.  The layer systems are the
face planes of one triple's tetrahedron; the layer shifts are probed in
one `lattice_points` ball of the layer's covering radius.  The arithmetic
criterion (ell divisible by 3) is deliberately NOT consulted: it serves as
the independent oracle in the tests.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import isqrt

from .lattice import (
    UNIT_BASIS,
    Basis,
    Site,
    add,
    cross,
    dot,
    hnf,
    in_lattice,
    lattice_from_generators,
    lattice_index,
    lattice_points,
    primitive,
    scale,
    shortest_vectors,
    sq_norm,
    sub,
    symmetry_group,
    apply_symmetry,
)

__all__ = [
    "EmbeddingClass",
    "NotAnFccEmbeddingError",
    "vectors_of_norm",
    "enumerate_fcc_embeddings",
    "embedding_classes",
    "admits_layered",
]


class NotAnFccEmbeddingError(ValueError):
    pass


def vectors_of_norm(n: int) -> list[Site]:
    """All integer triples of squared norm n, lexicographically ordered."""
    if n < 0:
        raise ValueError("squared norm must be nonnegative")
    r = isqrt(n)
    out = []
    for x in range(-r, r + 1):
        rest = n - x * x
        ry = isqrt(rest)
        for y in range(-ry, ry + 1):
            zz = rest - y * y
            z = isqrt(zz)
            if z * z == zz:
                if z == 0:
                    out.append((x, y, 0))
                else:
                    out.append((x, y, -z))
                    out.append((x, y, z))
    return out


def _fcc_triples(vecs: list[Site], ell: int) -> Iterator[Basis]:
    """Every generating triple v1 < v2 < v3 of the sorted `vecs` with the
    scaled FCC Gram matrix (pairwise inner products ell^2), each unordered
    triple once: with 0 they are the corners of a regular tetrahedron."""
    target = ell * ell
    for i, v1 in enumerate(vecs):
        partners = [w for w in vecs[i + 1 :] if dot(v1, w) == target]
        for j, v2 in enumerate(partners):
            for v3 in partners[j + 1 :]:
                if dot(v2, v3) == target:
                    yield v1, v2, v3


def enumerate_fcc_embeddings(ell: int) -> list[Basis]:
    """All sublattices generated by triples with the scaled FCC Gram matrix
    (diagonal 2*ell^2, off-diagonal ell^2), deduplicated by lattice set.

    Returned bases are HNFs, sorted; each has index 2*ell^3 and shortest
    squared norm 2*ell^2.
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    norm = 2 * ell * ell
    out = sorted({hnf(t) for t in _fcc_triples(vectors_of_norm(norm), ell)})
    for basis in out:
        assert lattice_index(basis) == 2 * ell**3
        assert shortest_vectors(basis)[0] == norm
    return out


@dataclass(frozen=True)
class EmbeddingClass:
    """An orbit of embeddings under the 48 signed coordinate permutations."""

    representative: Basis
    orbit_size: int
    members: tuple[Basis, ...]


def embedding_classes(ell: int) -> list[EmbeddingClass]:
    """Symmetry classes of the FCC embeddings at scale ell, sorted by
    canonical representative."""
    embeddings = enumerate_fcc_embeddings(ell)
    all_set = set(embeddings)
    ops = symmetry_group()
    classes = []
    classified: set[Basis] = set()
    # in sorted order, the first basis of each orbit is its least member
    for basis in embeddings:
        if basis in classified:
            continue
        orbit = {hnf(tuple(apply_symmetry(op, g) for g in basis)) for op in ops}
        assert orbit <= all_set, "orbit left the enumerated set"
        classified |= orbit
        classes.append(EmbeddingClass(basis, len(orbit), tuple(sorted(orbit))))
    return classes


def _fcc_shell(basis: Basis) -> tuple[int, list[Site], Basis]:
    """The scale ell, the 12 shortest vectors and the least generating
    triple of an FCC embedding; raises if the lattice is not one."""
    m, mins = shortest_vectors(basis)
    if m % 2:
        raise NotAnFccEmbeddingError(f"shortest norm {m} is odd")
    ell = isqrt(m // 2)
    if 2 * ell * ell != m or len(mins) != 12:
        raise NotAnFccEmbeddingError(
            f"shortest shell (norm {m}, {len(mins)} vectors) is not FCC"
        )
    if lattice_index(basis) != 2 * ell**3:
        raise NotAnFccEmbeddingError(
            f"index {lattice_index(basis)} != 2*ell^3 for ell={ell}"
        )
    triple = next(_fcc_triples(mins, ell), None)
    if triple is None:
        raise NotAnFccEmbeddingError("no generating triple with the FCC Gram matrix")
    return ell, mins, triple


def _min_dist_to_layer(t: Site, u1: Site, u2: Site) -> int:
    """Exact min over la in span(u1,u2) of |t + la|^2 (2D lattice CVP)."""
    return min(map(sq_norm, lattice_points((u1, u2), t, sq_norm(t))))


def admits_layered(basis: Basis) -> tuple[bool, dict | None]:
    """Whether the FCC embedding admits the alternate (reflected) stacking.

    For each of the four triangular-layer systems of the embedding, search
    the shifts s + w to the adjacent layer plane, s the step of the stack and
    w an integer point of the layer plane outside the layer lattice, for a
    second shift coset that keeps the stack admissible at the embedding's
    exclusion distance.  Returns the witness shift when found.
    """
    ell, mins, (v1, v2, v3) = _fcc_shell(basis)
    d2 = 2 * ell * ell
    # the four close-packed layer systems are the face planes of the
    # nearest-neighbour tetrahedron 0, v1, v2, v3 (Conway & Sloane, SPLAG)
    normals = []
    for a, b in ((v1, v2), (v1, v3), (v2, v3), (sub(v2, v1), sub(v3, v1))):
        nrm = primitive(cross(a, b))
        normals.append(nrm if nrm > (0, 0, 0) else scale(-1, nrm))
    normals.sort()

    # Every coset of a triangular layer lattice of minimum norm d2 in its
    # plane has a point within the covering radius sqrt(d2/3) (Conway &
    # Sloane, SPLAG ch. 4), so this ball meets every candidate shift coset.
    ball = lattice_points(UNIT_BASIS, (0, 0, 0), -(-d2 // 3))

    for n in normals:
        sextet = [w for w in mins if dot(n, w) == 0]
        u1 = sextet[0]
        u2 = next(w for w in sextet if cross(u1, w) != (0, 0, 0))
        off_plane = [w for w in mins if dot(n, w) != 0]
        step_height = min(abs(dot(n, w)) for w in off_plane)
        s = min(w for w in off_plane if abs(dot(n, w)) == step_height)
        if dot(n, s) < 0:
            s = tuple(-x for x in s)
        layer = lattice_from_generators([u1, u2])
        for w in ball:
            if dot(n, w) or in_lattice(layer, w):
                continue  # off the plane, or the same coset as the original step
            t = add(s, w)
            if _min_dist_to_layer(t, u1, u2) >= d2:
                return True, {"normal": n, "step": s, "alternate": t}
    return False, None
