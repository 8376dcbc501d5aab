"""Catalog structures: sublattices, meshes, layered stackings, mesh shifts."""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hc3.admissibility import Configuration
from hc3.catalog import (
    _FAMILIES,
    LineSelector,
    MeshSelector,
    MeshSpec,
    NotLayeredError,
    PlaneSelector,
    SelectorEmptyError,
    UnknownCatalogEntryError,
    WordClosureError,
    build_layered,
    classify_stacking,
    known_mesh,
    known_sublattice,
    layer_family,
    layered_quotient,
    mesh_shift,
    scaled_basis,
)
from hc3.lattice import (
    Window,
    add,
    cross,
    dot,
    hnf,
    in_lattice,
    lattice_from_generators,
    lattice_index,
    quotient,
    scale,
    shortest_vectors,
    sub,
)
from test_perturbations import dhcp_doubled, sublattice_on_scaled_torus

DENSITY_TABLE = {
    2: Fraction(1, 2),
    3: Fraction(1, 4),
    4: Fraction(1, 8),
    5: Fraction(1, 9),
    6: Fraction(1, 12),
    8: Fraction(1, 16),
    9: Fraction(1, 20),
    10: Fraction(1, 26),
    11: Fraction(1, 32),
    12: Fraction(1, 32),
}


def test_sublattice_density_table():
    for d2, density in DENSITY_TABLE.items():
        basis = known_sublattice(d2)
        assert Fraction(1, lattice_index(basis)) == density


def test_sublattice_minimum_norms():
    for d2 in DENSITY_TABLE:
        m = shortest_vectors(known_sublattice(d2))[0]
        if d2 == 11:
            assert m == 12
        else:
            assert m == d2


def test_sublattice_examples():
    assert known_sublattice(2) == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert known_sublattice(9, "1") == ((0, 3, 1), (0, -1, 3), (2, 1, 2))
    assert known_sublattice(10, "1") == ((-1, -3, 4), (3, -4, 1), (0, 3, -1))
    s = known_sublattice(5)
    assert s[:2] == ((1, -2, 1), (-1, -1, 2))
    assert lattice_index(s) == 9
    assert shortest_vectors(s)[0] == 5
    # the corrected stacking generator keeps the layer-plane increment at 3
    assert dot(s[2], (1, 1, 1)) == 3


def test_deformed_fcc_neighbor_shells_at_d2_5():
    # 6 nearest lattice vectors at squared norm 5 and 6 more at squared
    # norm 6: the deformation of the FCC kissing arrangement
    basis = known_sublattice(5)
    m, mins = shortest_vectors(basis)
    assert (m, len(mins)) == (5, 6)
    from hc3.lattice import sq_norm

    six = [
        v
        for v in _lattice_vectors_in_box(basis, 4)
        if sq_norm(v) == 6
    ]
    assert len(six) == 6


def _lattice_vectors_in_box(basis, box):
    out = []
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            for c in range(-box, box + 1):
                if a == b == c == 0:
                    continue
                out.append(
                    tuple(
                        a * basis[0][i] + b * basis[1][i] + c * basis[2][i]
                        for i in range(3)
                    )
                )
    return out


def test_congruent_sublattice_orbit_sizes():
    # the d2=6 structure comes in 12 congruent sublattices, the d2=9 one in 6
    # and the d2=10 one in 8; each second variant is one of them
    from hc3.lattice import apply_symmetry, symmetry_group

    for d2, variant, want in ((6, "II", 12), (9, "2", 6), (10, "2", 8)):
        basis = known_sublattice(d2)
        orbit = {
            hnf(tuple(apply_symmetry(op, g) for g in basis))
            for op in symmetry_group()
        }
        assert len(orbit) == want
        assert hnf(known_sublattice(d2, variant)) in orbit


def test_sublattice_variants():
    for d2, variants in ((6, ("I", "II")), (9, ("1", "2")), (10, ("1", "2"))):
        bases = [known_sublattice(d2, v) for v in variants]
        assert bases[0] != bases[1]
        for b in bases:
            assert Fraction(1, lattice_index(b)) == DENSITY_TABLE[d2]
            assert shortest_vectors(b)[0] == d2
    with pytest.raises(UnknownCatalogEntryError):
        known_sublattice(7)
    with pytest.raises(UnknownCatalogEntryError):
        known_sublattice(9, "3")


def test_known_mesh_examples():
    tau6 = known_mesh("triangular-6")
    assert tau6.generators == ((1, -2, 1), (-1, -1, 2))
    assert tau6.normal == (1, 1, 1)
    z10 = known_mesh("square-10", "1")
    assert z10.generators == ((0, 3, 1), (0, -1, 3))
    assert z10.normal == (1, 0, 0)
    rh = known_mesh("rhombic-8-16")
    assert rh.generators == ((1, 1, 2), (1, 1, -2))
    assert rh.normal == (1, -1, 0)
    with pytest.raises(UnknownCatalogEntryError):
        known_mesh("hexagonal-7")


def test_meshes_are_orthogonal_to_normals():
    for name, variant in (
        ("triangular-2", "main"),
        ("square-4", "main"),
        ("triangular-6", "main"),
        ("square-10", "1"),
        ("square-10", "2"),
        ("triangular-26", "1"),
        ("triangular-26", "2"),
        ("rhombic-8-16", "main"),
    ):
        mesh = known_mesh(name, variant)
        for g in mesh.generators:
            assert dot(g, mesh.normal) == 0


def test_constant_word_rebuilds_the_sublattice():
    dfcc = build_layered(5, "S")
    assert isinstance(dfcc.domain.period, tuple)
    assert dfcc.domain.period == hnf(known_sublattice(5))
    assert dfcc.occupied == {(0, 0, 0)}
    assert dfcc.density() == Fraction(1, 9)
    assert dfcc.min_pair_sq_distance() == 5


def test_alternating_word_is_hcp_like():
    dhcp = build_layered(5, "ST")
    assert dhcp.density() == Fraction(1, 9)
    assert dhcp.min_pair_sq_distance() == 5
    assert len(dhcp.occupied) == 2
    assert classify_stacking(dhcp, (1, 1, 1)) == "ST"


def test_layered_families_and_densities():
    cases = [
        (5, None, "STS", Fraction(1, 9), 5),
        (6, "I", "STU", Fraction(1, 12), 6),
        (6, "I", "SSS", Fraction(1, 12), 6),
        (6, "II", "ST", Fraction(1, 12), 6),
        (9, None, "SS", Fraction(1, 20), 9),
    ]
    for d2, family, word, density, min_d2 in cases:
        c = build_layered(d2, word, family=family)
        assert c.density() == density
        assert c.min_pair_sq_distance() == min_d2
        assert c.is_admissible()[0]


def test_layered_builds_are_saturated():
    for d2, family, word in (
        (5, None, "S"),
        (5, None, "ST"),
        (6, "I", "ST"),
        (6, "II", "ST"),
        (9, None, "S"),
    ):
        c = build_layered(d2, word, family=family)
        assert c.insertion_candidates() == []


def _word_strategy(alphabet):
    return st.text(alphabet=sorted(alphabet), min_size=1, max_size=12)


@settings(max_examples=25, deadline=None)
@given(_word_strategy("ST"))
def test_random_words_d2_5(word):
    c = build_layered(5, word)
    assert c.is_admissible()[0]
    assert c.density() == Fraction(1, 9)
    assert classify_stacking(c, (1, 1, 1)) == word


@settings(max_examples=20, deadline=None)
@given(_word_strategy("STU"))
def test_random_words_d2_6_family_I(word):
    c = build_layered(6, word, family="I")
    assert c.is_admissible()[0]
    assert c.density() == Fraction(1, 12)
    assert classify_stacking(c, (1, 1, 1)) == word


@settings(max_examples=20, deadline=None)
@given(_word_strategy("ST"))
def test_random_words_d2_6_family_II(word):
    c = build_layered(6, word, family="II")
    assert c.is_admissible()[0]
    assert c.density() == Fraction(1, 12)
    assert classify_stacking(c, (1, -1, 0)) == word


def test_classify_a3_is_constant():
    q2 = quotient(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    a3 = Configuration(
        q2, 2, frozenset({(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)})
    )
    word = classify_stacking(a3, (1, 1, 1))
    assert set(word) == {"S"}


def test_classify_rejects_non_layered():
    q4 = quotient(((4, 0, 0), (0, 4, 0), (0, 0, 4)))
    c = Configuration(q4, 2, frozenset({(0, 0, 0), (1, 1, 0)}))
    with pytest.raises(NotLayeredError):
        classify_stacking(c, (1, 1, 1))


def _dhcp_bottom_layers():
    """The d2=5 ST stacking with its layers at plane value 3 (mod 6) dropped."""
    c = build_layered(5, "ST")
    return Configuration(
        c.domain, 5, frozenset(x for x in c.occupied if dot((1, 1, 1), x) % 6 == 0)
    )


def _d2_5_layers_stepped_off_the_cosets():
    """Two d2=5 layers in a window: the triangular-6 mesh through the origin
    and its translate by (1, 1, 1), which is in neither the S nor the T
    coset."""
    w = Window((-4, -4, -4), (4, 4, 4))
    mesh = lattice_from_generators(known_mesh("triangular-6").generators)
    on = {x for x in w.sites() if dot((1, 1, 1), x) == 0 and in_lattice(mesh, x)}
    on |= {
        x for x in w.sites() if dot((1, 1, 1), x) == 3 and in_lattice(mesh, sub(x, (1, 1, 1)))
    }
    return Configuration(w, 5, frozenset(on))


@pytest.mark.parametrize(
    "config, normal, prefix",
    [
        (lambda: build_layered(5, "ST"), (1, 0, 0), "no layered family for d2=5"),
        (
            lambda: Configuration(build_layered(5, "ST").domain, 5, frozenset()),
            (1, 1, 1),
            "empty configuration",
        ),
        (
            lambda: Configuration(quotient(((4, 0, 0), (0, 4, 0), (0, 0, 4))), 5,
                                  frozenset({(0, 0, 0)})),
            (1, 1, 1),
            "period incompatible with plane step 3",
        ),
        (
            _dhcp_bottom_layers,
            (1, 1, 1),
            "1 layers present, period demands 2",
        ),
        (
            lambda: Configuration(Window((0, 0, 0), (3, 3, 3)), 5, frozenset({(0, 0, 0)})),
            (1, 1, 1),
            "fewer than two layers in window",
        ),
        (
            lambda: Configuration(Window((0, 0, 0), (2, 2, 2)), 5,
                                  frozenset({(0, 0, 0), (2, 2, 2)})),
            (1, 1, 1),
            "layer planes [0, 6] are not spaced by 3",
        ),
        (
            _d2_5_layers_stepped_off_the_cosets,
            (1, 1, 1),
            "step (1, 1, 1) matches 0 shift cosets",
        ),
    ],
    ids=["no-family", "empty", "period-vs-step", "layer-count", "one-window-layer",
         "uneven-planes", "no-shift-coset"],
)
def test_classify_rejections(config, normal, prefix):
    with pytest.raises(NotLayeredError) as info:
        classify_stacking(config(), normal)
    assert str(info.value).startswith(prefix)


def test_word_closure_on_quotient():
    # an ST word on the pure-sublattice period does not close
    q_s = quotient(known_sublattice(5))
    with pytest.raises(WordClosureError):
        build_layered(5, "ST", on=q_s)
    # the doubled HCP period accepts STST but not STS
    c = dhcp_doubled()
    assert len(c.occupied) == 16
    with pytest.raises(WordClosureError):
        build_layered(5, "STS", on=c.domain)


def test_window_build_and_classify():
    w = Window((-9, -9, -9), (9, 9, 9))
    c = build_layered(5, "STS", on=w)
    assert c.occupied
    assert c.is_admissible()[0]
    assert classify_stacking(c, (1, 1, 1)) == "STS"


def test_mesh_shift_identity():
    c = sublattice_on_scaled_torus(4)  # 2Z^3 on the 4^3 torus
    sel = LineSelector((0, 0, 0), (0, 0, 1))
    assert mesh_shift(c, sel, (0, 0, 0)).occupied == c.occupied


def test_mesh_shift_line_slide_at_d2_4():
    c = sublattice_on_scaled_torus(4)  # 2Z^3 on the 4^3 torus
    sel = LineSelector((0, 0, 0), (0, 0, 1))
    assert sel.select(c) == {(0, 0, 0), (0, 0, 2)}
    shifted = mesh_shift(c, sel, (0, 0, 1))
    assert len(shifted.occupied) == len(c.occupied)
    assert shifted.is_admissible()[0]


def test_mesh_shift_square_mesh_violates_at_d2_3():
    # shifting a square 4-mesh of the BCC structure by a unit step collides
    # with the body-centered layer
    q4 = quotient(((4, 0, 0), (0, 4, 0), (0, 0, 4)))
    bcc2 = known_sublattice(3)
    lat = lattice_from_generators(bcc2)
    occupied = frozenset(x for x in q4.reps if in_lattice(lat, x))
    c = Configuration(q4, 3, occupied)
    assert c.is_admissible()[0]
    mesh = known_mesh("square-4")
    shifted = mesh_shift(c, MeshSelector(mesh), (1, 0, 0))
    ok, pair = shifted.is_admissible()
    assert not ok
    assert shifted.pair_sq_distance(*pair) < 3


def test_mesh_shift_empty_selector():
    q4 = quotient(((4, 0, 0), (0, 4, 0), (0, 0, 4)))
    c = Configuration(q4, 4, frozenset({(0, 0, 0)}))
    with pytest.raises(SelectorEmptyError):
        mesh_shift(c, LineSelector((1, 0, 0), (0, 0, 1)), (0, 0, 1))


def test_plane_selector_rejects_zero_normal():
    # a zero plane normal or line direction would select every site
    for selector in (PlaneSelector, LineSelector):
        with pytest.raises(ValueError):
            selector((0, 0, 0), (0, 0, 0))
    q4 = quotient(((4, 0, 0), (0, 4, 0), (0, 0, 4)))
    c = Configuration(q4, 4, frozenset({(0, 0, 0), (0, 0, 2), (2, 0, 0)}))
    assert PlaneSelector((0, 0, 0), (0, 0, 1)).select(c) == {(0, 0, 0), (2, 0, 0)}
    # a line selects anchor + Z*direction: integer multiples only, in a
    # window as on a torus
    line = LineSelector((0, 0, 0), (2, 0, 0))
    sites = frozenset({(0, 0, 0), (1, 0, 0), (2, 0, 0)})
    for domain in (Window((0, 0, 0), (3, 0, 0)), quotient(((4, 0, 0), (0, 1, 0), (0, 0, 1)))):
        assert line.select(Configuration(domain, 1, sites)) == {(0, 0, 0), (2, 0, 0)}


def test_layer_family_alphabets():
    assert layer_family(5).alphabet == "ST"
    assert layer_family(6, "I").alphabet == "STU"
    assert layer_family(6, "II").alphabet == "ST"
    assert layer_family(9).alphabet == "S"
    with pytest.raises(UnknownCatalogEntryError) as err:
        layer_family(8)
    assert str(err.value) == "no layered family for d2=8"


@st.composite
def selector_cases(draw):
    """A skewed HNF torus of index <= 64 or a small window, a random occupied
    set, an anchor and a line direction or a pair of mesh generators."""
    small = st.tuples(*[st.integers(-2, 2)] * 3)
    if draw(st.booleans()):
        d = [draw(st.integers(1, 4)) for _ in range(3)]
        a, b, c = (draw(st.integers(0, x - 1)) for x in (d[0], d[0], d[1]))
        domain = quotient(((d[0], 0, 0), (a, d[1], 0), (b, c, d[2])))
    else:
        lo, hi = draw(small), draw(small)
        domain = Window(tuple(map(min, lo, hi)), tuple(map(max, lo, hi)))
    sites = domain.sites()
    occupied = frozenset(
        draw(st.lists(st.sampled_from(sites), max_size=len(sites)))
    )
    gens = draw(
        st.one_of(
            small.filter(any).map(lambda g: (g,)),
            st.tuples(small, small).filter(lambda gs: any(cross(*gs))),
        )
    )
    return Configuration(domain, 1, occupied), draw(small), gens


@settings(max_examples=200, deadline=None)
@given(selector_cases())
def test_line_and_mesh_selectors_match_enumeration(case):
    c, anchor, gens = case
    if isinstance(c.domain, Window):
        # every window site lies within 7 of the anchor, and a combination
        # of these generators is at least max|k|/4 long (|g1 x g2| >= 1,
        # |g| <= sqrt 12)
        coeffs = range(-28, 29)
    else:
        coeffs = range(c.domain.index)

    def point(ks):
        v = anchor
        for k, g in zip(ks, gens):
            v = add(v, scale(k, g))
        return c.domain.reduce(v)

    expected = {point(ks) for ks in itertools.product(coeffs, repeat=len(gens))}
    expected &= c.occupied
    if len(gens) == 1:
        selector = LineSelector(anchor, gens[0])
    else:
        selector = MeshSelector(MeshSpec(gens, anchor, cross(*gens)))
    assert selector.select(c) == expected


_LAYERED_FAMILIES = [
    (2, "main"), (3, "main"), (5, "main"), (6, "I"), (6, "II"), (9, "1"), (9, "2")
]


@st.composite
def family_words(draw, max_size=6):
    d2, family = draw(st.sampled_from(_LAYERED_FAMILIES))
    alphabet = layer_family(d2, family).alphabet
    word = draw(st.text(alphabet=alphabet, min_size=1, max_size=max_size))
    return d2, family, word


@settings(max_examples=60, deadline=None)
@given(family_words())
def test_build_classify_round_trip_every_family(case):
    d2, family, word = case
    fam = layer_family(d2, family)
    n = fam.normal
    # the smallest cube that holds every layer 0..len(word)
    r = -(-fam.plane_step * len(word) // sum(map(abs, n))) + 1
    for on in (None, Window((-r, -r, -r), (r, r, r))):
        c = build_layered(d2, word, on=on, family=family)
        assert classify_stacking(c, n) == word


def footprint_classify(c, normal):
    """Reference classifier: each layer must equal the footprint of its least
    site's mesh coset (the span of the mesh and the period) among the
    domain's sites in its plane, and each anchor step must match one shift
    coset of the family."""
    fams = [f for (d, _), f in sorted(_FAMILIES.items()) if d == c.d2 and f.normal == normal]
    if not fams:
        raise NotLayeredError(f"no layered family for d2={c.d2} with normal {normal}")
    errors = []
    for fam in fams:
        try:
            return _footprint_classify_with(c, fam)
        except NotLayeredError as exc:
            errors.append(str(exc))
    raise NotLayeredError("; ".join(errors))


def _footprint_classify_with(c, fam):
    n, h = fam.normal, fam.plane_step
    if not c.occupied:
        raise NotLayeredError("empty configuration")
    domain = c.domain
    g = gcd(*(dot(n, p) for p in domain.period))
    if g % h:
        raise NotLayeredError(f"period incompatible with plane step {h}")

    def plane(x):
        return dot(n, x) % g if g else dot(n, x)

    values = sorted({plane(x) for x in c.occupied})
    length = g // h if g else len(values) - 1
    if g and len(values) != length:
        raise NotLayeredError(f"{len(values)} layers present, period demands {length}")
    if length < 1:
        raise NotLayeredError("fewer than two layers in window")
    mesh = lattice_from_generators([*fam.mesh.generators, *domain.period])
    if values != [values[0] + k * h for k in range(len(values))]:
        raise NotLayeredError(f"layer planes {values} are not spaced by {h}")
    anchors = []
    for v in values:
        layer = {x for x in c.occupied if plane(x) == v}
        anchor = min(layer)
        footprint = {
            x for x in domain.sites() if plane(x) == v and in_lattice(mesh, sub(x, anchor))
        }
        if layer != footprint:
            raise NotLayeredError(f"layer at plane value {v} is not a full mesh translate")
        anchors.append(anchor)
    word = ""
    for k in range(length):
        step = sub(anchors[(k + 1) % len(anchors)], anchors[k])
        letters = [
            letter
            for letter, vec in sorted(fam.steps.items())
            if in_lattice(mesh, sub(step, vec))
        ]
        if len(letters) != 1:
            raise NotLayeredError(f"step {step} matches {len(letters)} shift cosets")
        word += letters[0]
    return word


def _word_or_refusal(classify, c, normal):
    try:
        return classify(c, normal)
    except NotLayeredError:
        return NotLayeredError


@st.composite
def stacked_configurations(draw):
    """A random word of a random family, built on its natural period, on
    that period doubled (as the doubled word) or in a random window about
    the origin, then translated, with one site dropped or added, or cut
    to a random subset."""
    d2, family, word = draw(family_words(max_size=4))
    fam = layer_family(d2, family)
    n = fam.normal
    where = draw(st.sampled_from(["natural", "doubled", "window"]))
    if where == "natural":
        c = build_layered(d2, word, family=family)
    elif where == "doubled":
        q = quotient(scaled_basis(layered_quotient(d2, word, family).period, 2))
        c = build_layered(d2, word * 2, on=q, family=family)
    else:
        r = -(-fam.plane_step * len(word) // sum(map(abs, n))) + 1
        corner = st.tuples(*[st.integers(0, r)] * 3)
        lo, hi = draw(corner), draw(corner)
        c = build_layered(d2, word, on=Window(scale(-1, lo), hi), family=family)
    sites = c.domain.sites()
    change = draw(st.sampled_from(["translate", "drop", "add", "subset"]))
    if change == "translate":
        t = draw(st.tuples(*[st.integers(-3, 3)] * 3))
        domain = c.domain
        if isinstance(domain, Window):
            domain = Window(add(domain.lo, t), add(domain.hi, t))
        c = Configuration(domain, d2, frozenset(add(x, t) for x in c.occupied))
    elif change == "drop" and c.occupied:
        c = c.with_sites(c.occupied - {draw(st.sampled_from(sorted(c.occupied)))})
    elif change == "add":
        c = c.with_sites(c.occupied | {draw(st.sampled_from(sites))})
    elif change == "subset":
        c = c.with_sites(frozenset(draw(st.lists(st.sampled_from(sorted(c.occupied))))))
    return c, n


@settings(max_examples=150, deadline=None)
@given(stacked_configurations())
def test_classify_matches_the_footprint_reference(case):
    # the footprint reference and classify_stacking agree on every input
    # here, admissible or not: these periods meet each layer plane in the
    # layer mesh only, which is where the two rules coincide
    c, n = case
    assert _word_or_refusal(classify_stacking, c, n) == _word_or_refusal(
        footprint_classify, c, n
    )


def test_classify_refuses_a_word_the_period_does_not_close():
    # the period holds (0, 3, 0), an in-plane vector outside the square-4
    # mesh, so the three sites of the line x = z = 0 fill their layer's
    # footprint in the span of the mesh and the period; but the word S read
    # off them does not close on this period (and the sites, at squared
    # distance 1, are not admissible at d2 = 3)
    q = quotient(((2, 0, 0), (0, 3, 0), (1, 1, 1)))
    c = Configuration(q, 3, frozenset({(0, 0, 0), (0, 1, 0), (0, 2, 0)}))
    assert footprint_classify(c, (0, 0, 1)) == "S"
    with pytest.raises(NotLayeredError):
        classify_stacking(c, (0, 0, 1))
    with pytest.raises(WordClosureError):
        build_layered(3, "S", on=q)
