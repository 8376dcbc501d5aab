"""FCC embeddings: enumeration, symmetry classes, layered criterion."""

import itertools
from fractions import Fraction
from math import isqrt

import pytest

from hc3.embeddings import (
    NotAnFccEmbeddingError,
    admits_layered,
    embedding_classes,
    enumerate_fcc_embeddings,
    vectors_of_norm,
)
from hc3.lattice import (
    apply_symmetry,
    cross,
    dot,
    hnf,
    lattice_index,
    primitive,
    shortest_vectors,
    sq_norm,
    sub,
    symmetry_group,
)


def brute_vectors_of_norm(n):
    r = 0
    while r * r < n:
        r += 1
    return sorted(
        (x, y, z)
        for x in range(-r, r + 1)
        for y in range(-r, r + 1)
        for z in range(-r, r + 1)
        if x * x + y * y + z * z == n
    )


def test_vectors_of_norm_examples():
    assert vectors_of_norm(0) == [(0, 0, 0)]
    v2 = vectors_of_norm(2)
    assert len(v2) == 12
    assert all(sorted(map(abs, v)) == [0, 1, 1] for v in v2)
    v9 = vectors_of_norm(9)
    assert len(v9) == 30
    assert sum(1 for v in v9 if sorted(map(abs, v)) == [0, 0, 3]) == 6
    assert sum(1 for v in v9 if sorted(map(abs, v)) == [1, 2, 2]) == 24


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 7, 8, 9, 12, 18, 25, 32, 50])
def test_vectors_of_norm_against_bruteforce(n):
    assert vectors_of_norm(n) == brute_vectors_of_norm(n)


def test_single_embedding_for_ell_1_and_2():
    embs = enumerate_fcc_embeddings(1)
    assert len(embs) == 1
    assert embs[0] == hnf(((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    embs2 = enumerate_fcc_embeddings(2)
    assert len(embs2) == 1
    assert embs2[0] == hnf(((2, 2, 0), (2, 0, 2), (0, 2, 2)))


def test_embedding_invariants_up_to_ell_5():
    for ell in range(1, 6):
        for basis in enumerate_fcc_embeddings(ell):
            assert lattice_index(basis) == 2 * ell**3
            m, mins = shortest_vectors(basis)
            assert m == 2 * ell * ell
            assert len(mins) == 12


def test_gram_triples_exist():
    for ell in (1, 2, 3):
        for basis in enumerate_fcc_embeddings(ell):
            target = ell * ell
            norm = 2 * target
            _, mins = shortest_vectors(basis)
            found = False
            for v1 in mins:
                for v2 in mins:
                    if dot(v1, v2) != target:
                        continue
                    for v3 in mins:
                        if dot(v1, v3) == target and dot(v2, v3) == target:
                            assert sq_norm(v1) == sq_norm(v2) == sq_norm(v3) == norm
                            found = True
            assert found


def ordered_fcc_triples(ell):
    """Every ordered triple of vectors of squared norm 2*ell^2 with pairwise
    inner products ell^2 (the enumeration searches each unordered one once)."""
    target = ell * ell
    vecs = vectors_of_norm(2 * target)
    return [
        (a, b, c)
        for a in vecs
        for b in vecs
        if dot(a, b) == target
        for c in vecs
        if dot(a, c) == target and dot(b, c) == target
    ]


@pytest.mark.parametrize("ell", range(1, 6))
def test_enumeration_matches_every_ordered_triple(ell):
    want = sorted({hnf(t) for t in ordered_fcc_triples(ell)})
    assert enumerate_fcc_embeddings(ell) == want


def test_class_counts():
    assert len(embedding_classes(1)) == 1
    assert len(embedding_classes(2)) == 1
    assert len(embedding_classes(4)) == 1
    assert len(embedding_classes(3)) >= 2
    assert len(embedding_classes(5)) >= 2
    assert len(embedding_classes(6)) >= 2  # multiples of 3 split as well


def test_orbit_sizes_divide_48():
    for ell in (1, 2, 3, 4, 5):
        for cls in embedding_classes(ell):
            assert 48 % cls.orbit_size == 0
            assert cls.representative == min(cls.members)
            assert len(set(cls.members)) == cls.orbit_size


def test_class_structure_invariant_under_conjugation():
    fixed = symmetry_group()[7]
    for ell in (2, 3):
        classes = embedding_classes(ell)
        class_of = {m: cls.representative for cls in classes for m in cls.members}
        conjugated = set()
        for basis in enumerate_fcc_embeddings(ell):
            rotated = hnf(tuple(apply_symmetry(fixed, g) for g in basis))
            assert class_of[rotated] == class_of[basis]
            conjugated.add(class_of[rotated])
        assert conjugated == {c.representative for c in classes}


def test_layered_criterion_matches_divisibility_by_3():
    for ell in range(1, 7):
        expected = ell % 3 == 0
        verdicts = set()
        for basis in enumerate_fcc_embeddings(ell):
            ok, witness = admits_layered(basis)
            verdicts.add(ok)
            if ok:
                assert witness is not None
                n, step, t = witness["normal"], witness["step"], witness["alternate"]
                assert all(isinstance(x, int) for x in t)
                assert dot(n, t) == dot(n, step)
                u1, u2 = layer_generators(basis, n)
                assert not in_layer_lattice(sub(t, step), u1, u2)
                assert brute_sq_distance_to_layer(t, u1, u2) >= 2 * ell * ell
        assert verdicts == {expected}


def layer_generators(basis, n):
    """Two independent shortest vectors of the embedding in the plane n.w = 0."""
    _, mins = shortest_vectors(basis)
    sextet = [w for w in mins if dot(n, w) == 0]
    u1 = sextet[0]
    u2 = next(w for w in sextet if cross(u1, w) != (0, 0, 0))
    return u1, u2


def in_layer_lattice(w, u1, u2):
    """Whether w = i*u1 + j*u2 for integers i, j (Cramer's rule on the Gram
    matrix, exact)."""
    g11, g12, g22 = dot(u1, u1), dot(u1, u2), dot(u2, u2)
    a, b = dot(w, u1), dot(w, u2)
    det = g11 * g22 - g12 * g12
    i, j = Fraction(a * g22 - b * g12, det), Fraction(b * g11 - a * g12, det)
    in_plane = tuple(i * x + j * y for x, y in zip(u1, u2)) == w
    return in_plane and i.denominator == j.denominator == 1


def brute_sq_distance_to_layer(t, u1, u2):
    """min |t + i*u1 + j*u2|^2 over a coefficient box that holds every
    point no farther than t: |u1| = |u2| at 60 degrees gives
    |i*u1 + j*u2|^2 >= |u1|^2 * max(|i|, |j|)^2 / 2, and a closer point
    needs that <= 4 |t|^2."""
    k = isqrt(8 * sq_norm(t) // sq_norm(u1)) + 1
    return min(
        sq_norm(tuple(t[c] + i * u1[c] + j * u2[c] for c in range(3)))
        for i in range(-k, k + 1)
        for j in range(-k, k + 1)
    )


def six_vector_plane_normals(basis):
    """Primitive normals, sign fixed, of the planes through 0 that hold six
    shortest vectors: crosses every pair of shortest vectors."""
    _, mins = shortest_vectors(basis)
    normals = set()
    for u, v in itertools.combinations(mins, 2):
        c = cross(u, v)
        if c == (0, 0, 0):
            continue
        n = primitive(c)
        if n < (0, 0, 0):
            n = tuple(-x for x in n)
        if sum(dot(n, w) == 0 for w in mins) == 6:
            normals.add(n)
    return normals


def test_witness_normals_are_close_packed_planes():
    for ell in range(1, 7):
        for basis in enumerate_fcc_embeddings(ell):
            normals = six_vector_plane_normals(basis)
            assert len(normals) == 4
            ok, witness = admits_layered(basis)
            assert not ok or witness["normal"] in normals


@pytest.mark.parametrize(
    "ell,representative,witness",
    [
        (3, ((6, 0, 0), (3, 3, 0), (3, 0, 3)),
         {"normal": (1, -1, -1), "step": (3, 0, -3), "alternate": (1, -1, -4)}),
        (3, ((18, 0, 0), (3, 3, 0), (7, 2, 1)),
         {"normal": (1, -1, 1), "step": (4, -1, 1), "alternate": (3, -3, 0)}),
        (6, ((12, 0, 0), (6, 6, 0), (6, 0, 6)),
         {"normal": (1, -1, -1), "step": (6, 0, -6), "alternate": (2, -2, -8)}),
        (6, ((36, 0, 0), (6, 6, 0), (14, 4, 2)),
         {"normal": (1, -1, 1), "step": (8, -2, 2), "alternate": (6, -6, 0)}),
    ],
)
def test_admits_layered_witness_of_class_representatives(ell, representative, witness):
    """The least normal, the least step at minimal height and the first
    alternate shift of the ball: pinned, so the search order stays fixed."""
    assert representative in {c.representative for c in embedding_classes(ell)}
    assert admits_layered(representative) == (True, witness)


def test_admits_layered_rejects_non_embeddings():
    with pytest.raises(NotAnFccEmbeddingError):
        admits_layered(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(NotAnFccEmbeddingError):
        admits_layered(((2, 0, 0), (0, 2, 0), (1, 1, 1)))
    # even shortest norms whose shells are not the 12 FCC vectors: norm 2
    # with 4 vectors, and 2Z^3, norm 4 with 6
    for basis in (
        ((1, 1, 0), (1, -1, 0), (0, 0, 2)),
        ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
    ):
        with pytest.raises(NotAnFccEmbeddingError, match="is not FCC"):
            admits_layered(basis)
