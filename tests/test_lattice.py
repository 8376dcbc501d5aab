"""Lattice-core: norms, symmetry group, HNF, quotients, minimum images."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hc3.lattice import (
    IDENTITY_OP,
    UNIT_BASIS,
    Quotient,
    SingularBasisError,
    add,
    apply_symmetry,
    det,
    cross,
    dot,
    hnf,
    in_lattice,
    lattice_contains,
    lattice_from_generators,
    lattice_index,
    lattice_points,
    quotient,
    scale,
    shortest_vectors,
    sq_norm,
    sub,
    symmetry_group,
)
from hc3.catalog import known_sublattice, known_sublattice_keys

A3 = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
BCC2 = ((2, 0, 0), (0, 2, 0), (1, 1, 1))
BCC4 = ((4, 0, 0), (0, 4, 0), (2, 2, 2))
SKEW = ((12, 0, 0), (7, 2, 0), (9, 1, 1))  # an HNF; reduced norms 5, 6, 20

coords = st.integers(min_value=-9, max_value=9)
sites = st.tuples(coords, coords, coords)


def nonsingular_bases():
    return st.tuples(sites, sites, sites).filter(lambda b: det(b) != 0)


def test_sq_norm_examples():
    assert sq_norm((0, 0, 0)) == 0
    assert sq_norm((1, -2, 1)) == 6
    assert sq_norm((2, 1, 2)) == 9


def test_apply_symmetry_examples():
    assert apply_symmetry(IDENTITY_OP, (1, 2, 3)) == (1, 2, 3)
    swap_xy = ((1, 1), (0, 1), (2, 1))
    assert apply_symmetry(swap_xy, (1, 2, 3)) == (2, 1, 3)
    negate_x = ((0, -1), (1, 1), (2, 1))
    assert apply_symmetry(negate_x, (1, 2, 3)) == (-1, 2, 3)


def test_symmetry_group_size_and_closure():
    ops = symmetry_group()
    assert len(ops) == 48
    assert len(set(ops)) == 48
    assert IDENTITY_OP in ops
    # a signed permutation is fixed by its image of (1, 2, 3)
    probe = (1, 2, 3)
    images = {apply_symmetry(op, probe) for op in ops}
    assert len(images) == 48
    for a in ops[:8]:
        for b in ops:
            assert apply_symmetry(a, apply_symmetry(b, probe)) in images
    for op in ops:
        # the rows of the transposed matrix are the images of the unit vectors
        d = det(tuple(apply_symmetry(op, e) for e in UNIT_BASIS))
        assert d in (-1, 1)


@given(st.sampled_from(symmetry_group()), sites)
def test_symmetry_preserves_norm(op, v):
    assert sq_norm(apply_symmetry(op, v)) == sq_norm(v)


def test_hnf_identity():
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert hnf(eye) == eye


def test_hnf_shape_and_dets():
    for basis, want in ((BCC2, 4), ((( 4, 0, 0), (0, 4, 0), (2, 2, 2)), 32)):
        h = hnf(basis)
        assert h[0][1] == h[0][2] == h[1][2] == 0
        assert h[0][0] > 0 and h[1][1] > 0 and h[2][2] > 0
        assert 0 <= h[1][0] < h[0][0]
        assert 0 <= h[2][0] < h[0][0]
        assert 0 <= h[2][1] < h[1][1]
        assert lattice_index(h) == lattice_index(basis) == want


def test_hnf_singular_rejected():
    with pytest.raises(SingularBasisError):
        hnf(((1, 2, 3), (2, 4, 6), (0, 0, 1)))


@settings(max_examples=150)
@given(nonsingular_bases())
def test_hnf_idempotent(basis):
    h = hnf(basis)
    assert hnf(h) == h


@settings(max_examples=60)
@given(nonsingular_bases(), st.lists(sites, min_size=1, max_size=8))
def test_hnf_preserves_lattice_set(basis, probes):
    h = hnf(basis)
    assert lattice_index(h) == lattice_index(basis)
    for v in probes:
        assert lattice_contains(basis, v) == lattice_contains(h, v)
    # generators themselves lie in both lattices
    for g in basis:
        assert lattice_contains(h, g)
    for g in h:
        assert lattice_contains(basis, g)


@given(nonsingular_bases(), st.sampled_from(symmetry_group()))
def test_det_invariant_under_symmetry_and_hnf(basis, op):
    rotated = tuple(apply_symmetry(op, g) for g in basis)
    assert lattice_index(rotated) == lattice_index(basis)
    assert lattice_index(hnf(basis)) == lattice_index(basis)


def test_lattice_index_examples():
    assert lattice_index(A3) == 2
    assert lattice_index(((0, 3, 1), (0, -1, 3), (2, 1, 2))) == 20
    assert lattice_index(((-1, -3, 4), (3, -4, 1), (0, 3, -1))) == 26


def test_lattice_contains_examples():
    assert lattice_contains(A3, (2, 0, 0))
    assert not lattice_contains(A3, (1, 0, 0))
    assert lattice_contains(BCC2, (0, 0, 2))


def brute_shortest(basis, box=6):
    best = None
    vecs = []
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            for c in range(-box, box + 1):
                if a == b == c == 0:
                    continue
                v = tuple(
                    a * basis[0][i] + b * basis[1][i] + c * basis[2][i]
                    for i in range(3)
                )
                n = sq_norm(v)
                if best is None or n < best:
                    best, vecs = n, [v]
                elif n == best:
                    vecs.append(v)
    return best, sorted(vecs)


def test_shortest_vectors_examples():
    m, vecs = shortest_vectors(A3)
    assert m == 2 and len(vecs) == 12
    m, vecs = shortest_vectors(BCC4)
    assert m == 12
    assert sorted(vecs) == sorted(
        (2 * sx, 2 * sy, 2 * sz)
        for sx in (-1, 1)
        for sy in (-1, 1)
        for sz in (-1, 1)
    )
    assert shortest_vectors(((0, 3, 1), (0, -1, 3), (2, 1, 2)))[0] == 9


def test_shortest_vectors_against_bruteforce_on_catalog():
    for d2, variant in known_sublattice_keys():
        basis = known_sublattice(d2, variant)
        assert shortest_vectors(basis) == brute_shortest(basis)


def test_quotient_representative_counts():
    assert len(quotient(((2, 0, 0), (0, 2, 0), (0, 0, 2))).reps) == 8
    assert len(quotient(((4, 0, 0), (0, 4, 0), (0, 0, 4))).reps) == 64
    assert len(quotient(known_sublattice(5)).reps) == 9


def test_quotient_reduce_is_canonical():
    q = quotient(BCC2)
    for rep in q.reps:
        assert q.reduce(rep) == rep
        for shift in (BCC2[0], BCC2[1], BCC2[2]):
            moved = tuple(rep[i] + shift[i] for i in range(3))
            assert q.reduce(moved) == rep


@st.composite
def sheared_periods(draw, max_index=60):
    """An HNF period of index <= max_index whose shear entries a, b, c of
    ((d0,0,0), (a,d1,0), (b,c,d2)) are all nonzero, so every wrap of a
    translation crosses the shear."""
    d0 = draw(st.integers(2, max_index // 2))
    d1 = draw(st.integers(2, max_index // d0))
    d2 = draw(st.integers(1, max_index // (d0 * d1)))
    a, b = draw(st.integers(1, d0 - 1)), draw(st.integers(1, d0 - 1))
    c = draw(st.integers(1, d1 - 1))
    return ((d0, 0, 0), (a, d1, 0), (b, c, d2))


def hnf_periods(max_index):
    """Every HNF period ((d0,0,0), (a,d1,0), (b,c,d2)) of index <= max_index."""
    for d0, d1, d2 in itertools.product(range(1, max_index + 1), repeat=3):
        if d0 * d1 * d2 <= max_index:
            for a, b, c in itertools.product(range(d0), range(d0), range(d1)):
                yield ((d0, 0, 0), (a, d1, 0), (b, c, d2))


far_sites = st.tuples(*[st.integers(-200, 200)] * 3)


@settings(max_examples=200, deadline=None)
@given(sheared_periods(), far_sites)
@example(((4, 0, 0), (1, 4, 0), (2, 1, 5)), (-1, -1, -1))
def test_index_of_is_position_of_reduced_coset(period, v):
    q = quotient(period)
    assert q.index_of(v) == q.reps.index(q.reduce(v))


@settings(max_examples=200, deadline=None)
@given(sheared_periods(), far_sites)
@example(((4, 0, 0), (1, 4, 0), (2, 1, 5)), (-1, -1, -1))
def test_reduce_lands_in_the_box_and_the_coset(period, v):
    # the row reduction of `in_lattice` shares no code with `index_of`
    q = quotient(period)
    r = q.reduce(v)
    assert all(0 <= r[i] < q.period[i][i] for i in range(3))
    assert in_lattice(q.period, sub(v, r))


@settings(max_examples=200, deadline=None)
@given(sheared_periods(), st.integers(0, 2**60), far_sites)
@example(((4, 0, 0), (1, 4, 0), (2, 1, 5)), 0b1011 | 1 << 79, (-5, 7, -3))
def test_translate_matches_per_bit_images(period, bits, t):
    # t may lie far outside the box; the empty and the full mask included
    q = quotient(period)
    full = (1 << q.index) - 1
    for mask in (0, full, bits & full):
        want = 0
        for i, r in enumerate(q.reps):
            if mask >> i & 1:
                want |= 1 << q.reps.index(q.reduce(add(r, t)))
        assert q.translate(mask, t) == want


def test_min_image_examples():
    q4 = quotient(((4, 0, 0), (0, 4, 0), (0, 0, 4)))
    assert q4.pair_sq_distance((0, 0, 0), (0, 0, 3)) == 1
    q2 = quotient(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    assert q2.pair_sq_distance((0, 0, 0), (1, 1, 1)) == 3
    assert q2.pair_sq_distance((1, 1, 1), (3, 3, 3)) == 0


def brute_min_image(q: Quotient, a, b, box=10):
    """Independent oracle: scan every integer point of a cube that is
    congruent to a-b modulo the period (membership by exact solve)."""
    t = tuple(a[i] - b[i] for i in range(3))
    best = None
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            for z in range(-box, box + 1):
                w = (x, y, z)
                if not lattice_contains(q.period, tuple(w[i] - t[i] for i in range(3))):
                    continue
                n = sq_norm(w)
                if best is None or n < best:
                    best = n
    return best


small_sites = st.tuples(
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)
)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(
        [BCC2, A3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)), known_sublattice(5), SKEW]
    ),
    small_sites,
    small_sites,
)
def test_min_image_matches_bruteforce(period, a, b):
    q = quotient(period)
    got = q.pair_sq_distance(a, b)
    # any in-coset cube point bounds the minimum from above, and the cube is
    # wide enough to contain the true minimum for these small periods
    assert got == brute_min_image(q, a, b)


@settings(max_examples=40)
@given(sites, sites, sites)
def test_min_image_metric_properties(a, b, c):
    q = quotient(((3, 0, 0), (1, 3, 0), (0, 1, 3)))
    dab = q.pair_sq_distance(a, b)
    dba = q.pair_sq_distance(b, a)
    assert dab == dba
    assert (dab == 0) == (q.reduce(a) == q.reduce(b))
    # triangle inequality on squared values: d(a,c) <= (sqrt(dab)+sqrt(dbc))^2,
    # checked entirely in integers
    dbc = q.pair_sq_distance(b, c)
    dac = q.pair_sq_distance(a, c)
    lhs = dac - dab - dbc
    assert lhs <= 0 or lhs * lhs <= 4 * dab * dbc


def test_images_near_finds_all_in_ball():
    q = quotient(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    pts = lattice_points(q.reduced, (0, 0, 0), 4)
    expected = sorted(
        (x, y, z)
        for x in range(-2, 3)
        for y in range(-2, 3)
        for z in range(-2, 3)
        if x % 2 == 0 and y % 2 == 0 and z % 2 == 0 and x * x + y * y + z * z <= 4
    )
    assert sorted(pts) == expected


small_coords = st.integers(-2, 2)
small_vectors = st.tuples(small_coords, small_coords, small_coords)


@st.composite
def enumeration_inputs(draw):
    """A rank-2 or rank-3 basis (raw small generators, or the skewed HNF of
    a random rank-3 basis), an offset t and a squared radius."""
    kind = draw(st.sampled_from(["plane", "raw", "hnf"]))
    if kind == "plane":
        basis = draw(
            st.tuples(small_vectors, small_vectors).filter(
                lambda b: cross(*b) != (0, 0, 0)
            )
        )
    elif kind == "raw":
        basis = draw(
            st.tuples(small_vectors, small_vectors, small_vectors).filter(
                lambda b: det(b) != 0
            )
        )
    else:
        basis = hnf(draw(nonsingular_bases()))
    return basis, draw(small_sites), draw(st.integers(0, 16))


@settings(max_examples=80, deadline=None)
@given(enumeration_inputs())
def test_lattice_points_matches_coordinate_box(inputs):
    basis, t, r_sq = inputs
    r = 4  # 4 * 4 >= every sampled r_sq
    brute = []
    for p in itertools.product(range(-r, r + 1), repeat=3):
        w = tuple(p[i] - t[i] for i in range(3))
        if lattice_contains(basis, w) and sq_norm(p) <= r_sq:
            brute.append(p)
    assert sorted(lattice_points(basis, t, r_sq)) == brute


# --- the echelon kernel against the membership rules it replaced -----------


def cramer_member(basis, v):
    """Cramer's rule: v = a*g1 + b*g2 + c*g3 with integer a, b, c
    (three independent generators)."""
    d = det(basis)
    g1, g2, g3 = basis
    nums = (dot(v, cross(g2, g3)), dot(g1, cross(v, g3)), dot(g1, cross(g2, v)))
    return all(n % d == 0 for n in nums)


def plane_member(g1, g2, w):
    """w = a*g1 + b*g2 with integer a, b (two independent generators)."""
    c = cross(g1, g2)
    cc = sq_norm(c)
    return (
        dot(c, w) == 0
        and dot(cross(w, g2), c) % cc == 0
        and dot(cross(g1, w), c) % cc == 0
    )


def line_member(d, w):
    """w = k*d with integer k: w is parallel to d and |d|^2 divides w.d."""
    return cross(w, d) == (0, 0, 0) and dot(w, d) % sq_norm(d) == 0


def reference_member(core, w):
    if len(core) == 1:
        return line_member(core[0], w)
    if len(core) == 2:
        return plane_member(*core, w)
    return cramer_member(core, w)


def rank(gens):
    gens = [g for g in gens if any(g)]
    if any(det(t) for t in itertools.combinations(gens, 3)):
        return 3
    if any(any(cross(a, b)) for a, b in itertools.combinations(gens, 2)):
        return 2
    return 1 if gens else 0


@st.composite
def generator_lists(draw):
    """1-5 small generators of rank 1-3 with a reference for their span.

    Either an independent core plus integer combinations of it (zero and
    dependent vectors among them), or integer multiples of one vector, whose
    span is the gcd multiple."""
    small = st.tuples(*[st.integers(-4, 4)] * 3)
    if draw(st.booleans()):
        d = draw(small.filter(any))
        ks = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5))
        g = 0
        for k in ks:
            g = math.gcd(g, k)
        gens = [scale(k, d) for k in ks]
        return gens, [scale(g, d)] if g else []
    r = draw(st.integers(1, 3))
    core = draw(
        st.lists(small, min_size=r, max_size=r).filter(lambda c: rank(c) == r)
    )
    coeffs = st.lists(st.integers(-2, 2), min_size=r, max_size=r)
    extra = draw(st.lists(coeffs, max_size=5 - r))
    gens = core + [
        tuple(sum(c * g[i] for c, g in zip(cs, core)) for i in range(3))
        for cs in extra
    ]
    return draw(st.permutations(gens)), core


@settings(max_examples=300, deadline=None)
@given(
    generator_lists(),
    st.lists(st.tuples(*[st.integers(-12, 12)] * 3), min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
def test_echelon_basis_membership_and_canonical_form(case, probes, rnd):
    gens, core = case
    basis = lattice_from_generators(gens)
    assert len(basis) == rank(gens) == len(core)
    for v in probes + [scale(2, g) for g in core] + gens:
        want = reference_member(core, v) if core else not any(v)
        assert in_lattice(basis, v) == lattice_contains(gens, v) == want
    # canonical: pivots ascend and are positive, earlier pivot columns of
    # later rows are reduced
    pivots = [max(i for i in range(3) if row[i]) for row in basis]
    assert pivots == sorted(set(pivots))
    for i, (row, c) in enumerate(zip(basis, pivots)):
        assert row[c] > 0
        assert all(0 <= later[c] < row[c] for later in basis[i + 1 :])
    if len(basis) == 3:  # the Hermite normal form
        assert pivots == [0, 1, 2] and hnf(basis) == basis == hnf(core)
    # the same basis after shuffling or a unimodular change of generators
    shuffled = list(gens)
    rnd.shuffle(shuffled)
    assert lattice_from_generators(shuffled) == basis
    i, j = rnd.randrange(len(gens)), rnd.randrange(len(gens))
    if i != j:
        k = rnd.randint(-3, 3)
        moved = list(gens)
        moved[j] = add(moved[j], scale(k, moved[i]))
        assert lattice_from_generators(moved) == basis


def test_hnf_reduces_from_the_highest_pivot_column_down():
    # reducing column 0 before column 1 leaves m20 outside [0, d0) here
    h = hnf(((-5, 9, -7), (-1, -6, 6), (5, 6, 3)))
    assert h == ((133, 0, 0), (24, 3, 0), (30, 0, 1))


@st.composite
def periods_and_site_sets(draw):
    """A torus of HNF period with index <= 64 and a set of its coset
    representatives: a random one (the empty set included), or the union of
    the cyclic orbits of a random translation, which it fixes."""
    a = draw(st.integers(1, 8))
    c = draw(st.integers(1, 64 // a))
    f = draw(st.integers(1, 64 // (a * c)))
    b, d = draw(st.integers(0, a - 1)), draw(st.integers(0, a - 1))
    e = draw(st.integers(0, c - 1))
    q = quotient(((a, 0, 0), (b, c, 0), (d, e, f)))
    sites = draw(st.sets(st.sampled_from(q.reps), max_size=8))
    if draw(st.booleans()):
        t = draw(st.sampled_from(q.reps))
        sites = {q.reduce(add(x, scale(k, t))) for x in sites for k in range(q.index)}
    return q, frozenset(sites)


@settings(max_examples=150, deadline=None)
@given(periods_and_site_sets())
@example((quotient(BCC4), frozenset()))
def test_stabiliser_matches_every_translation(case):
    q, sites = case
    want = {t for t in q.reps if {q.reduce(add(x, t)) for x in sites} == sites}
    got = q.stabiliser(sum(1 << q.index_of(x) for x in sites))
    assert len(got) == len(want) and set(got) == want
