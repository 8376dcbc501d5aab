"""Named optimal-density structures and layered stackings.

This module holds the explicit generator data for the known densest
sublattices at squared exclusion distances 2..12, the two-dimensional meshes
their layers are built from, and constructors for layered configurations
described by a stacking word (one letter per layer step, each letter a
permitted shift coset).  A constant word gives the FCC-like structure, an
alternating word the HCP-like one.

The d2=5 sublattice is stored with stacking generator (2,1,0): together with
the two in-plane generators it has index 9 and shortest squared norm exactly
5, which the admissibility validator confirms mechanically.

Builds, classification and selectors treat tori and windows alike: a
layer, line or mesh is a coset of the lattice spanned by its generators
and the domain's ``period`` (empty on a window), built once with
``lattice_from_generators`` and tested with ``in_lattice``; planes n.x = v
are equal modulo gcd(n.p over the periods p), which is 0 on a window.

One rule states which sites a stacking word's layers hold: ``_stack``, the
periodic stack on a torus whose period the word closes on, or the layers
0..len(word) clipped to a window.  ``build_layered`` returns it, and
``classify_stacking`` reads a word off the least site of each layer and
accepts the configuration iff, moved so that its first anchor is the
origin, it is that word's stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd

from .admissibility import Configuration
from .lattice import (
    Basis,
    Quotient,
    Site,
    Window,
    add,
    cross,
    dot,
    in_lattice,
    lattice_from_generators,
    scale,
    sub,
)

__all__ = [
    "MeshSpec",
    "LayerFamily",
    "LineSelector",
    "PlaneSelector",
    "MeshSelector",
    "known_sublattice",
    "known_sublattice_keys",
    "known_mesh",
    "layer_family",
    "build_layered",
    "layered_quotient",
    "classify_stacking",
    "mesh_shift",
    "scaled_basis",
]


class UnknownCatalogEntryError(KeyError):
    def __str__(self) -> str:
        # the bare message: KeyError would print its repr
        return str(self.args[0])


class NotLayeredError(ValueError):
    pass


class WordClosureError(ValueError):
    pass


class SelectorEmptyError(ValueError):
    pass


@dataclass(frozen=True)
class MeshSpec:
    """A rank-2 sublattice in a plane: two generators, an anchor and the
    integer normal of the containing plane."""

    generators: tuple[Site, Site]
    anchor: Site
    normal: Site

    def __post_init__(self):
        g1, g2 = self.generators
        if cross(g1, g2) == (0, 0, 0):
            raise ValueError("mesh generators are collinear")
        if dot(g1, self.normal) or dot(g2, self.normal):
            raise ValueError("mesh generators must be orthogonal to the normal")


# --- sublattice table -------------------------------------------------------

_SUBLATTICES: dict[tuple[int, str], Basis] = {
    (2, "main"): ((1, 1, 0), (1, 0, 1), (0, 1, 1)),
    (3, "main"): ((2, 0, 0), (0, 2, 0), (1, 1, 1)),
    (4, "main"): ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
    # stacking generator corrected to keep the shortest squared norm at 5
    (5, "main"): ((1, -2, 1), (-1, -1, 2), (2, 1, 0)),
    (6, "I"): ((1, -2, 1), (-1, -1, 2), (2, 1, 1)),
    (6, "II"): ((1, 1, 2), (1, 1, -2), (2, -1, 1)),
    (8, "main"): ((2, 2, 0), (2, 0, 2), (0, 2, 2)),
    (9, "1"): ((0, 3, 1), (0, -1, 3), (2, 1, 2)),
    (9, "2"): ((0, 3, -1), (0, -1, -3), (2, 1, -2)),
    (10, "1"): ((-1, -3, 4), (3, -4, 1), (0, 3, -1)),
    (10, "2"): ((-1, 4, -3), (3, 1, -4), (0, -1, 3)),
    (11, "main"): ((4, 0, 0), (0, 4, 0), (2, 2, 2)),
    (12, "main"): ((4, 0, 0), (0, 4, 0), (2, 2, 2)),
}


def _entry(table, d2: int, name: str | None, kind: str, label: str):
    """The table's entry for (d2, name), where name None picks the least
    name stored for d2: a sublattice variant or a layer family."""
    names = [n for d, n in table if d == d2]
    if not names:
        raise UnknownCatalogEntryError(f"no {kind} for d2={d2}")
    key = (d2, min(names) if name is None else name)
    if key not in table:
        raise UnknownCatalogEntryError(f"unknown {label} {name!r} for d2={d2}")
    return table[key]


def known_sublattice(d2: int, variant: str | None = None) -> Basis:
    """Generators of the densest known sublattice at squared distance d2.

    Variants: "I"/"II" for d2=6, "1"/"2" for d2=9 and d2=10.
    """
    return _entry(_SUBLATTICES, d2, variant, "catalog sublattice", "variant")


def known_sublattice_keys() -> list[tuple[int, str]]:
    return sorted(_SUBLATTICES)


# --- mesh table -------------------------------------------------------------

_MESHES: dict[tuple[str, str], MeshSpec] = {
    ("triangular-2", "main"): MeshSpec(
        ((1, -1, 0), (1, 0, -1)), (0, 0, 0), (1, 1, 1)
    ),
    ("square-4", "main"): MeshSpec(((2, 0, 0), (0, 2, 0)), (0, 0, 0), (0, 0, 1)),
    ("triangular-6", "main"): MeshSpec(
        ((1, -2, 1), (-1, -1, 2)), (0, 0, 0), (1, 1, 1)
    ),
    ("square-10", "1"): MeshSpec(((0, 3, 1), (0, -1, 3)), (0, 0, 0), (1, 0, 0)),
    ("square-10", "2"): MeshSpec(((0, 3, -1), (0, -1, -3)), (0, 0, 0), (1, 0, 0)),
    ("triangular-26", "1"): MeshSpec(
        ((-1, -3, 4), (3, -4, 1)), (0, 0, 0), (1, 1, 1)
    ),
    ("triangular-26", "2"): MeshSpec(
        ((-1, 4, -3), (3, 1, -4)), (0, 0, 0), (1, 1, 1)
    ),
    ("rhombic-8-16", "main"): MeshSpec(
        ((1, 1, 2), (1, 1, -2)), (0, 0, 0), (1, -1, 0)
    ),
}


def known_mesh(name: str, variant: str = "main") -> MeshSpec:
    """Mesh of the given catalog name ("triangular-6", "square-10", ...)."""
    try:
        return _MESHES[(name, variant)]
    except KeyError:
        raise UnknownCatalogEntryError(f"unknown mesh {name!r} variant {variant!r}")


# --- layered families -------------------------------------------------------


@dataclass(frozen=True)
class LayerFamily:
    """A layered-packing family: a layer mesh, the plane increment between
    consecutive layers along the mesh normal, and the permitted per-step
    shift vectors keyed by word letter."""

    d2: int
    name: str
    mesh: MeshSpec
    plane_step: int
    steps: dict[str, Site]

    def __post_init__(self):
        for vec in self.steps.values():
            if dot(vec, self.normal) != self.plane_step:
                raise ValueError(f"bad step table for d2={self.d2} family {self.name}")

    @property
    def normal(self) -> Site:
        return self.mesh.normal

    @property
    def alphabet(self) -> str:
        return "".join(sorted(self.steps))


_FAMILIES: dict[tuple[int, str], LayerFamily] = {
    (f.d2, f.name): f
    for f in (
        LayerFamily(2, "main", known_mesh("triangular-2"), 2, {"S": (1, 1, 0)}),
        LayerFamily(3, "main", known_mesh("square-4"), 1, {"S": (1, 1, 1)}),
        LayerFamily(
            5, "main", known_mesh("triangular-6"), 3, {"S": (2, 1, 0), "T": (0, 1, 2)}
        ),
        LayerFamily(
            6,
            "I",
            known_mesh("triangular-6"),
            4,
            {"S": (2, 1, 1), "T": (1, 2, 1), "U": (1, 1, 2)},
        ),
        LayerFamily(
            6,
            "II",
            known_mesh("rhombic-8-16"),
            3,
            {"S": (2, -1, 1), "T": (1, -2, 1)},
        ),
        LayerFamily(9, "1", known_mesh("square-10", "1"), 2, {"S": (2, 1, 2)}),
        LayerFamily(9, "2", known_mesh("square-10", "2"), 2, {"S": (2, 1, -2)}),
    )
}


def layer_family(d2: int, family: str | None = None) -> LayerFamily:
    return _entry(_FAMILIES, d2, family, "layered family", "family")


def _closure(fam: LayerFamily, word: str) -> tuple[list[Site], tuple[Site, ...]]:
    """The word's layer offsets (offsets[k] is the sum of its first k steps)
    and its closure: the lattice spanned by the layer mesh and the total
    offset.  Layer k of the periodic stack is offsets[k mod len(word)] plus
    the closure, cut by its plane."""
    if not word:
        raise ValueError("stacking word must be nonempty")
    offsets = [(0, 0, 0)]
    for letter in word:
        if letter not in fam.steps:
            raise ValueError(
                f"letter {letter!r} not in alphabet {fam.alphabet!r}"
                f" of d2={fam.d2} family {fam.name}"
            )
        offsets.append(add(offsets[-1], fam.steps[letter]))
    return offsets, lattice_from_generators([*fam.mesh.generators, offsets[-1]])


def _stack(fam: LayerFamily, word: str, on: Quotient | Window) -> frozenset[Site]:
    """The sites of ``on`` that the word's layers hold: the periodic stack on
    a quotient, whose period the closure must contain, and the layers
    0..len(word) clipped to the box on a window."""
    offsets, closure = _closure(fam, word)
    for p in on.period:
        if not in_lattice(closure, p):
            raise WordClosureError(f"word {word!r} does not close on period {on.period}")
    n, h, length = fam.normal, fam.plane_step, len(word)

    def member(x: Site) -> bool:
        p = dot(n, x)
        return p % h == 0 and in_lattice(closure, sub(x, offsets[p // h % length]))

    sites = on.sites()
    if not on.period:  # a window holds the layers 0..len(word) only
        sites = [x for x in sites if 0 <= dot(n, x) <= h * length]
    return frozenset(filter(member, sites))


def layered_quotient(d2: int, word: str, family: str | None = None) -> Quotient:
    """The natural period of the layered configuration with this word:
    the lattice spanned by the layer mesh and the total word offset."""
    return Quotient(_closure(layer_family(d2, family), word)[1])


def build_layered(
    d2: int,
    word: str,
    on: Quotient | Window | None = None,
    family: str | None = None,
) -> Configuration:
    """Layered configuration for the given stacking word.

    On a quotient the word must close up: every period vector has to lie in
    the lattice spanned by the layer mesh and the total word offset.  With
    ``on=None`` the natural quotient of the word is used.  On a window the
    word produces len(word)+1 stacked layers clipped to the box.
    """
    if on is None:
        on = layered_quotient(d2, word, family)
    config = Configuration(on, d2, _stack(layer_family(d2, family), word, on))
    ok, pair = config.is_admissible()
    if not ok:
        raise AssertionError(f"layered build violated admissibility at {pair}")
    return config


def classify_stacking(c: Configuration, normal: Site) -> str:
    """Recover the stacking word of a layered configuration.

    Inverse of build_layered, up to translation: the least site of each
    layer anchors it, each anchor step is matched against the family's shift
    cosets, and the configuration, moved by minus the first anchor, must be
    the stack that build_layered makes of the word on the moved domain.
    """
    fams = [f for (d, _), f in sorted(_FAMILIES.items()) if d == c.d2 and f.normal == normal]
    if not fams:
        raise NotLayeredError(f"no layered family for d2={c.d2} with normal {normal}")
    errors = []
    for fam in fams:
        try:
            return _classify_with(c, fam)
        except NotLayeredError as exc:
            errors.append(str(exc))
    raise NotLayeredError("; ".join(errors))


def _classify_with(c: Configuration, fam: LayerFamily) -> str:
    n = fam.normal
    h = fam.plane_step
    g1, g2 = fam.mesh.generators
    if not c.occupied:
        raise NotLayeredError("empty configuration")
    domain = c.domain
    # planes n.x = v are identified modulo g on a torus; g = 0 on a window
    g = gcd(*(dot(n, p) for p in domain.period))
    if g % h:
        raise NotLayeredError(f"period incompatible with plane step {h}")

    least: dict[int, Site] = {}  # plane value -> the layer's anchor, its least site
    for x in sorted(c.occupied):
        least.setdefault(dot(n, x) % g if g else dot(n, x), x)
    values = sorted(least)
    length = g // h if g else len(values) - 1
    if g and len(values) != length:
        raise NotLayeredError(
            f"{len(values)} layers present, period demands {length}"
        )
    if length < 1:  # only on a window: g // h >= 1
        raise NotLayeredError("fewer than two layers in window")
    mesh = lattice_from_generators([g1, g2, *domain.period])

    v0 = values[0]
    if values != [v0 + k * h for k in range(len(values))]:
        raise NotLayeredError(f"layer planes {values} are not spaced by {h}")

    anchors = [least[v] for v in values]
    word = ""
    for k in range(length):
        a = anchors[k]
        b = anchors[(k + 1) % len(anchors)]
        step = sub(b, a)
        letters = [
            letter
            for letter, vec in sorted(fam.steps.items())
            if in_lattice(mesh, sub(step, vec))
        ]
        if len(letters) != 1:
            raise NotLayeredError(
                f"step {step} matches {len(letters)} shift cosets"
            )
        word += letters[0]

    # the word names the sites iff, moved by -anchor, they are its stack
    t = anchors[0]
    moved = frozenset(domain.reduce(sub(x, t)) for x in c.occupied)
    if isinstance(domain, Window):
        domain = Window(sub(domain.lo, t), sub(domain.hi, t))
    try:
        stack = _stack(fam, word, domain)
    except WordClosureError as exc:
        raise NotLayeredError(str(exc)) from None
    if moved != stack:
        raise NotLayeredError(f"sites are not the stack of word {word!r}")
    return word


# --- mesh selectors and sliding-style shifts --------------------------------


@dataclass(frozen=True)
class LineSelector:
    """Occupied sites on the (torus-wrapped) line anchor + Z*direction."""

    anchor: Site
    direction: Site

    def __post_init__(self) -> None:
        # a zero direction would select every site of a window: a global
        # translation, not a slide
        if self.direction == (0, 0, 0):
            raise ValueError("line direction must be nonzero")

    def describe(self) -> str:
        return f"line:{_fmt(self.anchor)}:{_fmt(self.direction)}"

    def select(self, c: Configuration) -> frozenset[Site]:
        return _select_coset(c, self.anchor, self.direction)


@dataclass(frozen=True)
class PlaneSelector:
    """Occupied sites in the (torus-wrapped) plane family through the anchor
    with the given integer normal."""

    anchor: Site
    normal: Site

    def __post_init__(self) -> None:
        # a zero normal would select every site: a global translation
        if self.normal == (0, 0, 0):
            raise ValueError("plane normal must be nonzero")

    def describe(self) -> str:
        return f"plane:{_fmt(self.anchor)}:{_fmt(self.normal)}"

    def select(self, c: Configuration) -> frozenset[Site]:
        n = self.normal
        base = dot(n, self.anchor)
        # g > 0 on a torus (a nonzero normal is orthogonal to at most two
        # periods); g = 0 on a window, which has one plane
        g = gcd(*(dot(n, p) for p in c.domain.period))
        if g == 0:
            return frozenset(x for x in c.occupied if dot(n, x) == base)
        return frozenset(x for x in c.occupied if (dot(n, x) - base) % g == 0)


@dataclass(frozen=True)
class MeshSelector:
    """Occupied sites on the translate of a rank-2 mesh through its anchor."""

    mesh: MeshSpec

    def describe(self) -> str:
        g1, g2 = self.mesh.generators
        return f"mesh:{_fmt(self.mesh.anchor)}:{_fmt(g1)}:{_fmt(g2)}"

    def select(self, c: Configuration) -> frozenset[Site]:
        return _select_coset(c, self.mesh.anchor, *self.mesh.generators)


Selector = LineSelector | PlaneSelector | MeshSelector


@cache
def _span(*gens: Site) -> tuple[Site, ...]:
    """The span of a selector's generators and the period, built once."""
    return lattice_from_generators(gens)


def _select_coset(c: Configuration, anchor: Site, *gens: Site) -> frozenset[Site]:
    """The occupied sites of anchor + the span of gens and the period."""
    lat = _span(*gens, *c.domain.period)
    return frozenset(x for x in c.occupied if in_lattice(lat, sub(x, anchor)))


def _fmt(v: Site) -> str:
    return ",".join(str(x) for x in v)


def mesh_shift(c: Configuration, selector: Selector, t: Site) -> Configuration:
    """Translate the selected occupied sites by t.

    Admissibility of the result is NOT guaranteed; the caller re-validates.
    Collisions with unmoved sites reduce the particle count.
    """
    selected = selector.select(c)
    if not selected:
        raise SelectorEmptyError(f"selector {selector.describe()} matches nothing")
    moved = {c.domain.reduce(add(x, t)) for x in selected}
    return c.with_sites((c.occupied - selected) | moved)


def scaled_basis(basis: Basis, k: int) -> Basis:
    """The basis scaled by an integer factor (index scales by k^3)."""
    return tuple(scale(k, g) for g in basis)  # type: ignore[return-value]
