"""The benchmark's workloads: seeded task lists with certified references.

Every task calls hc3's public API, wraps each call in a span named after
the module and function it enters, and returns a small answer dict that is
compared with the task's reference.  Building a workload is the benchmark's
set-up: it imports ``hc3`` and ``hc3.cli``, generates the seeded inputs and
builds the input configurations.  Tasks never reuse those objects; each one
constructs a fresh quotient from the recorded period, so every pass does the
same work from cold caches.

How the seed acts:

* ``pack``, ``count`` and ``cells`` map every period or catalog basis by one
  of the 48 signed permutations and take the HNF again.  That gives a
  congruent torus with a different coset order; optimum, count, cell volume,
  facet count, excitation classes and slides do not change under it, so the
  references still hold.  The seed picks only among the images whose HNF
  keeps the diagonal (as a multiset): the fundamental box keeps its shape and
  period skew stays a property of the ``stack`` workload alone.
* ``stack`` shuffles a fixed letter multiset per word.  The multiset fixes
  the word's natural period (its total offset), and so its skew; the seed
  changes the stacking itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import hc3.cli  # noqa: F401  (its import cost belongs to set-up)
from hc3 import (
    Configuration,
    LineSelector,
    admits_layered,
    apply_symmetry,
    build_exclusion_graph,
    build_layered,
    cell_volume,
    classify_stacking,
    embedding_classes,
    enumerate_excitations,
    find_sliding,
    hnf,
    known_sublattice,
    lattice_contains,
    lattice_index,
    layered_quotient,
    max_packing,
    min_cell_search,
    min_insertion_order,
    quotient,
    scaled_basis,
    sq_norm,
    symmetry_group,
    tessellation_check,
    voronoi_cell,
)
from hc3.catalog import known_sublattice_keys, layer_family
from hc3.documents import from_document, to_document
from hc3.perturbations import standard_selectors, standard_shifts

from tracing import Tracer

Answer = dict


@dataclass
class Task:
    id: str
    run: Callable[[Tracer], Answer]
    reference: Answer | Callable[[], Answer]
    source: str
    heavy: bool = False  # left out of the reduced workloads the tests run


@dataclass
class Workload:
    name: str
    seed: int
    tasks: list[Task] = field(default_factory=list)
    inputs: list[dict] = field(default_factory=list)  # recorded generated inputs

    def add(self, task: Task, **recorded) -> None:
        self.tasks.append(task)
        self.inputs.append({"task": task.id, **recorded})

    def resolve_references(self) -> None:
        """Compute the references that come from brute force (before timing)."""
        for t in self.tasks:
            if callable(t.reference):
                t.reference = t.reference()


# ---------------------------------------------------------------------------
# seeded inputs

_OPS = symmetry_group()


def _image(op, basis):
    return tuple(apply_symmetry(op, g) for g in basis)


def _diag(basis) -> tuple[int, ...]:
    return tuple(sorted(basis[i][i] for i in range(3)))


def _seeded_op(rng: random.Random, period):
    """A seeded signed permutation whose image of `period` keeps its HNF
    diagonal as a multiset."""
    want = _diag(hnf(period))
    ops = [op for op in _OPS if _diag(hnf(_image(op, period))) == want]
    return rng.choice(ops)


def _seeded_period(rng: random.Random, period):
    return hnf(_image(_seeded_op(rng, period), period))


def _as_list(basis) -> list[list[int]]:
    return [list(g) for g in basis]


def _input_config(period, d2: int, occupied=()) -> Configuration:
    """The input configuration of a task, built once at set-up; building it
    validates the period against d2."""
    q = quotient(period)
    return Configuration(q, d2, frozenset(q.reduce(x) for x in occupied))


def _mapped_config(rng: random.Random, c: Configuration) -> Configuration:
    """Seeded symmetry image of a periodic configuration."""
    op = _seeded_op(rng, c.domain.period)
    return _input_config(
        _image(op, c.domain.period),
        c.d2,
        [apply_symmetry(op, x) for x in c.occupied],
    )


def _doubled_catalog(rng: random.Random, d2: int, variant: str | None = None):
    """Seeded image of a catalog lattice on the torus of its doubled basis,
    with the symmetry op used."""
    basis = known_sublattice(d2, variant)
    op = _seeded_op(rng, scaled_basis(basis, 2))
    image = _image(op, basis)
    q = quotient(scaled_basis(image, 2))
    occupied = [x for x in q.reps if lattice_contains(image, x)]
    return op, _input_config(q.period, d2, occupied)


def _dhcp_doubled() -> Configuration:
    q = quotient(scaled_basis(layered_quotient(5, "ST").period, 2))
    return build_layered(5, "STST", on=q)


def _dfcc_doubled() -> Configuration:
    q = quotient(scaled_basis(layered_quotient(5, "S").period, 2))
    return build_layered(5, "SS", on=q)


# ---------------------------------------------------------------------------
# building blocks shared by the tasks


def _fresh_quotient(tr: Tracer, period):
    with tr.span("lattice.quotient"):
        q = quotient(period)
    with tr.span("lattice.shortest_vectors"):
        q.min_period_sq_norm()
    tr.maximum("lattice.period_max_sq_norm", max(sq_norm(g) for g in q.period))
    return q


def _fresh_config(tr: Tracer, c: Configuration) -> Configuration:
    return Configuration(_fresh_quotient(tr, c.domain.period), c.d2, c.occupied)


def _solve(tr: Tracer, q, d2: int, *, count=False, mod=False) -> Answer:
    """Exclusion graph, then max_packing on the same quotient, then the
    witness check."""
    with tr.span("admissibility.exclusion_graph"):
        g = build_exclusion_graph(q, d2)
    tr.count("admissibility.graph_edges", sum(a.bit_count() for a in g.adjacency) // 2)
    span = "solver.mod_translations" if mod else "solver.count" if count else "solver.max_packing"
    with tr.span(span):
        r = max_packing(q, d2, count=count, mod_translations=mod)
    tr.count("solver.nodes", r.nodes)
    if count and not mod:
        tr.count("solver.count_nodes", r.nodes)
        tr.count("solver.optima", r.count)
    with tr.span("admissibility.is_admissible"):
        admissible = r.witness.is_admissible()[0]
    return {
        "optimum": r.optimum,
        "count": r.count,
        "witness_size": len(r.witness.occupied),
        "witness_admissible": admissible,
    }


def _packing_reference(optimum: int, count: int | None = None) -> Answer:
    return {
        "optimum": optimum,
        "count": count,
        "witness_size": optimum,
        "witness_admissible": True,
    }


def brute_force(period, d2: int) -> tuple[int, int]:
    """Optimum and number of optimal sets by exhaustive search over every
    subset of the torus (at most 16 sites)."""
    g = build_exclusion_graph(quotient(period), d2)
    if g.n > 16:
        raise ValueError(f"brute force needs at most 16 sites, got {g.n}")
    adj = g.adjacency
    best, count = 0, 0
    for mask in range(1 << g.n):
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & mask:
                break
            m &= m - 1
        else:
            size = mask.bit_count()
            if size > best:
                best, count = size, 1
            elif size == best:
                count += 1
    return best, count


def _packing_task(
    wl: Workload,
    tid: str,
    period,
    d2: int,
    *,
    reference: tuple[int, int | None] | None,
    source: str = "",
    count=False,
    mod=False,
    heavy=False,
) -> None:
    """A packing task.  reference=None takes optimum and count from brute
    force over every subset (tori of at most 16 sites)."""

    def run(tr: Tracer) -> Answer:
        return _solve(tr, _fresh_quotient(tr, period), d2, count=count, mod=mod)

    if reference is None:

        def ref() -> Answer:
            best, n = brute_force(period, d2)
            return _packing_reference(best, n if count else None)

        expected: Answer | Callable[[], Answer] = ref
        source = "brute force over every subset"
    else:
        expected = _packing_reference(*reference)
    _input_config(period, d2)
    wl.add(Task(tid, run, expected, source, heavy), period=_as_list(period), d2=d2)


# ---------------------------------------------------------------------------
# pack: phase 1 of the solver (optimum and lexicographic witness)

_SEED_COMMIT = "seed commit's certified output, unchanged under the symmetry images"
_SKEWED = ((4, 0, 0), (1, 4, 0), (2, 1, 5))


def _diag_period(a: int, b: int, c: int):
    return ((a, 0, 0), (0, b, 0), (0, 0, c))


def _build_pack(wl: Workload, rng: random.Random) -> None:
    for n, d2, opt in ((5, 3, 20), (6, 8, 9), (5, 5, 10)):
        _packing_task(
            wl, f"pack/diag{n}-d2={d2}", _diag_period(n, n, n), d2,
            reference=(opt, None), source=_SEED_COMMIT, heavy=True,
        )
    _packing_task(
        wl, "pack/skewed-d2=5", _seeded_period(rng, _SKEWED), 5,
        reference=(7, None), source=_SEED_COMMIT,
    )
    for d2 in (2, 3, 5):
        period = _seeded_period(rng, scaled_basis(known_sublattice(d2), 2))
        small = lattice_index(period) <= 16
        _packing_task(
            wl, f"pack/doubled-catalog-d2={d2}", period, d2,
            reference=None if small else (8, None),
            source="acceptance criterion 3",
        )


# ---------------------------------------------------------------------------
# count: phase 2 of the solver (exhaustive enumeration) and orbit counting


def _build_count(wl: Workload, rng: random.Random) -> None:
    for d2 in (2, 3, 4):
        _packing_task(
            wl, f"count/diag2-d2={d2}", _diag_period(2, 2, 2), d2,
            reference=None, count=True,
        )
    table = ((8, 4, 16, "acceptance criterion 1"), (12, 2, 32, "acceptance criterion 1"),
             (4, 8, 744, "acceptance criterion 1 (count > 8); count: " + _SEED_COMMIT))
    for d2, opt, cnt, source in table:
        _packing_task(
            wl, f"count/diag4-d2={d2}", _diag_period(4, 4, 4), d2,
            reference=(opt, cnt), source=source, count=True,
        )
    _packing_task(
        wl, "count/diag445-d2=5", _seeded_period(rng, _diag_period(4, 4, 5)), 5,
        reference=(6, 14000), source=_SEED_COMMIT, count=True, heavy=True,
    )
    _packing_task(
        wl, "count/diag6-d2=12", _diag_period(6, 6, 6), 12,
        reference=(4, 23490), source=_SEED_COMMIT, count=True, heavy=True,
    )
    for tid, period, d2, opt, orbits, heavy in (
        ("count/mod/skewed-d2=5", _SKEWED, 5, 7, 2, True),
        ("count/mod/diag5-d2=9", _diag_period(5, 5, 5), 9, 3, 8, False),
    ):
        _packing_task(
            wl, tid, _seeded_period(rng, period), d2,
            reference=(opt, orbits), source=_SEED_COMMIT, count=True, mod=True,
            heavy=heavy,
        )


# ---------------------------------------------------------------------------
# stack: layered builds on the skewed HNF periods of seeded words

# (d2, family, letter multiset, also solve on the natural period, heavy).
# Each family has a low-skew and a high-skew multiset.
_WORDS = (
    (5, "main", "SSTT", True, False),
    (5, "main", "SSST", True, False),
    (6, "I", "SSSTU", False, True),
    (6, "I", "SSTTU", False, True),
    (6, "II", "SSTT", False, False),
    (6, "II", "SSST", False, False),
    (9, "1", "SSSSS", False, False),
)
# ell -> (classes, embeddings): acceptance criterion 6 for ell = 1..5 (class
# counts 1, 1, >=2, 1, >=2), the seed commit's output for the exact values
_EMBEDDINGS = {1: (1, 1), 2: (1, 1), 3: (2, 5), 4: (1, 1), 5: (2, 7),
               6: (2, 5), 7: (2, 9), 8: (1, 1)}


def _word_task(
    wl: Workload, d2: int, family: str, word: str, solve: bool, heavy: bool
) -> None:
    fam = layer_family(d2, family)
    density = Fraction(1, lattice_index(known_sublattice(d2, family)))

    def run(tr: Tracer) -> Answer:
        with tr.span("lattice.quotient"):
            q = layered_quotient(d2, word, family)
        with tr.span("lattice.shortest_vectors"):
            q.min_period_sq_norm()
        tr.maximum("lattice.period_max_sq_norm", max(sq_norm(g) for g in q.period))
        with tr.span("catalog.build_layered"):
            c = build_layered(d2, word, on=q, family=family)
        with tr.span("documents.roundtrip"):
            back = from_document(to_document(c), validate=True)
        with tr.span("admissibility.insertion_candidates"):
            candidates = c.insertion_candidates()
        with tr.span("catalog.classify_stacking"):
            classified = classify_stacking(c, fam.normal)
        with tr.span("voronoi.tessellation_check"):
            tiles = tessellation_check(c)
        tr.count("voronoi.cells", len(c.occupied))
        answer = {
            "roundtrip": back.occupied == c.occupied and back.domain == c.domain,
            "saturated": candidates == [],
            "classified": classified,
            "density": c.density(),
            "tessellation": tiles,
        }
        if solve:
            natural = _solve(tr, _fresh_quotient(tr, q.period), d2)
            answer["optimum_is_site_count"] = natural.pop("optimum") == len(c.occupied)
            answer.update(natural)
        return answer

    reference: Answer = {
        "roundtrip": True,
        "saturated": True,
        "classified": word,
        "density": density,
        "tessellation": True,
    }
    period = layered_quotient(d2, word, family).period
    if solve:
        reference.update(optimum_is_site_count=True, count=None,
                         witness_size=int(lattice_index(period) * density),
                         witness_admissible=True)
    wl.add(
        Task(f"stack/{d2}-{family}/{word}", run, reference,
             "identities: build/classify round trip, saturation, catalog density,"
             " tessellation, optimum = site count on the natural period", heavy),
        d2=d2, family=family, word=word,
        period=_as_list(period),
    )


def _embedding_task(wl: Workload, ell: int) -> None:
    def run(tr: Tracer) -> Answer:
        with tr.span("embeddings.embedding_classes"):
            classes = embedding_classes(ell)
        n = sum(c.orbit_size for c in classes)
        tr.count("embeddings.embeddings", n)
        with tr.span("embeddings.admits_layered"):
            verdicts = {admits_layered(c.representative)[0] for c in classes}
        return {"classes": len(classes), "embeddings": n, "layered": sorted(verdicts)}

    n_classes, n = _EMBEDDINGS[ell]
    wl.add(
        Task(f"stack/embed/ell={ell}", run,
             {"classes": n_classes, "embeddings": n, "layered": [ell % 3 == 0]},
             "identity: admits_layered <=> ell = 0 mod 3; counts: acceptance"
             " criterion 6 and " + _SEED_COMMIT, heavy=ell >= 6),
        ell=ell,
    )


def _build_stack(wl: Workload, rng: random.Random) -> None:
    for d2, family, letters, solve, heavy in _WORDS:
        shuffled = list(letters)
        rng.shuffle(shuffled)
        _word_task(wl, d2, family, "".join(shuffled), solve, heavy)
    for ell in _EMBEDDINGS:
        _embedding_task(wl, ell)


# ---------------------------------------------------------------------------
# cells: Voronoi cells and local moves on reduced catalog periods

# facet counts of the catalog cells (acceptance criterion 5 gives 12 and 14
# for d2 = 2 and 3; the rest is the seed commit's output)
_FACETS = {(2, "main"): 12, (3, "main"): 14, (4, "main"): 6, (5, "main"): 12,
           (6, "I"): 14, (6, "II"): 14, (8, "main"): 12, (9, "1"): 14,
           (9, "2"): 14, (10, "1"): 14, (10, "2"): 14, (11, "main"): 14,
           (12, "main"): 14}
_SLIDES = {4: 72, 2: 0, 3: 0, 5: 0, 8: 0, 9: 0, 12: 0}
_BUDGET_STOP = 5000


def _cell_task(wl: Workload, rng: random.Random, d2: int, variant: str) -> None:
    period = _seeded_period(rng, known_sublattice(d2, variant))
    c = _input_config(period, d2, [(0, 0, 0)])

    def run(tr: Tracer) -> Answer:
        fresh = _fresh_config(tr, c)
        with tr.span("voronoi.voronoi_cell"):
            cell = voronoi_cell(fresh, (0, 0, 0))
            volume = cell_volume(cell)
        tr.count("voronoi.cells", 1)
        return {"volume": volume, "facets": cell.n_facets}

    wl.add(
        Task(f"cells/voronoi/{d2}-{variant}", run,
             {"volume": Fraction(lattice_index(period)), "facets": _FACETS[(d2, variant)]},
             "tessellation identity (volume = index), acceptance criterion 5;"
             " facets: " + _SEED_COMMIT),
        d2=d2, variant=variant, period=_as_list(period),
    )


def _tessellation_task(wl: Workload, rng: random.Random, d2: int) -> None:
    _, c = _doubled_catalog(rng, d2)

    def run(tr: Tracer) -> Answer:
        fresh = _fresh_config(tr, c)
        with tr.span("voronoi.tessellation_check"):
            tiles = tessellation_check(fresh)
        tr.count("voronoi.cells", len(fresh.occupied))
        return {"tessellation": tiles}

    wl.add(
        Task(f"cells/tessellation/doubled-d2={d2}", run, {"tessellation": True},
             "tessellation identity", heavy=True),
        d2=d2, period=_as_list(c.domain.period),
    )


def _excitation_task(wl, tid, c, max_order, radius, budget, reference, source):
    def run(tr: Tracer) -> Answer:
        fresh = _fresh_config(tr, c)
        with tr.span("perturbations.enumerate_excitations"):
            scan = enumerate_excitations(fresh, max_order, radius, budget=budget)
        tr.count("perturbations.excitation_nodes", scan.nodes)
        answer = {"complete": scan.complete}
        if scan.complete:
            answer["shapes"] = sorted(
                {(len(e.added), len(e.removed)) for e in scan.excitations})
            answer["classes"] = len(scan.excitations)
        else:
            answer["nodes"] = scan.nodes
        return answer

    wl.add(Task(tid, run, reference, source), period=_as_list(c.domain.period),
           occupied=len(c.occupied))


def _insertion_task(wl, tid, c, order) -> None:
    def run(tr: Tracer) -> Answer:
        fresh = _fresh_config(tr, c)
        with tr.span("perturbations.min_insertion_order"):
            got, _ = min_insertion_order(fresh)
        return {"order": got}

    wl.add(Task(tid, run, {"order": order}, "acceptance criterion 8", heavy=True),
           period=_as_list(c.domain.period))


def _sliding_task(wl, rng, d2) -> None:
    _, c = _doubled_catalog(rng, d2)
    n_shifts = len(standard_shifts(2))

    def run(tr: Tracer) -> Answer:
        fresh = _fresh_config(tr, c)
        with tr.span("perturbations.standard_selectors"):
            selectors = standard_selectors(fresh)
        with tr.span("perturbations.find_sliding"):
            moves = find_sliding(fresh, selectors=selectors)
        tr.count("perturbations.slide_probes", len(selectors) * n_shifts)
        tr.count("perturbations.slide_moves", len(moves))
        return {"moves": len(moves)}

    wl.add(
        Task(f"cells/slide/doubled-d2={d2}", run, {"moves": _SLIDES[d2]},
             "acceptance criterion 9 (slides only at d2 = 4); count: " + _SEED_COMMIT),
        d2=d2, period=_as_list(c.domain.period),
    )


def _bcc_line_task(wl, rng, d2, moves, min_sq) -> None:
    op, c = _doubled_catalog(rng, d2)
    diagonal = apply_symmetry(op, (1, 1, 1))
    selector = LineSelector((0, 0, 0), diagonal)

    def run(tr: Tracer) -> Answer:
        fresh = _fresh_config(tr, c)
        with tr.span("perturbations.find_sliding"):
            found = find_sliding(fresh, selectors=[selector], shifts=[diagonal])
        tr.count("perturbations.slide_probes", 1)
        tr.count("perturbations.slide_moves", len(found))
        return {"moves": len(found), "min_sq": [m.min_pair_sq_distance for m in found]}

    wl.add(
        Task(f"cells/slide/bcc-line-d2={d2}", run,
             {"moves": moves, "min_sq": [min_sq] if moves else []},
             "acceptance criterion 9"),
        d2=d2, period=_as_list(c.domain.period), shift=list(diagonal),
    )


def _build_cells(wl: Workload, rng: random.Random) -> None:
    for d2, variant in known_sublattice_keys():
        _cell_task(wl, rng, d2, variant)
    for d2 in (2, 5):
        _tessellation_task(wl, rng, d2)

    def run_min_cell(tr: Tracer) -> Answer:
        with tr.span("voronoi.min_cell_search"):
            r = min_cell_search(3, 3)
        tr.count("voronoi.min_cell_nodes", r.nodes)
        return {"volume": r.volume, "completed": r.completed, "certified": r.certified}

    wl.add(
        Task("cells/min-cell/d2=3-r=3", run_min_cell,
             {"volume": Fraction(4), "completed": True, "certified": True},
             _SEED_COMMIT),
        d2=3, radius=3,
    )
    dhcp = _mapped_config(rng, _dhcp_doubled())
    dfcc = _mapped_config(rng, _dfcc_doubled())
    _excitation_task(
        wl, "cells/excite/dhcp", dhcp, 2, 2, 200_000,
        {"complete": True, "shapes": [(1, 3)], "classes": 1},
        "acceptance criterion 8; class count: " + _SEED_COMMIT,
    )
    _excitation_task(
        wl, "cells/excite/dfcc", dfcc, 2, 2, 200_000,
        {"complete": True, "shapes": [], "classes": 0}, "acceptance criterion 8",
    )
    _excitation_task(
        wl, "cells/excite/dhcp-budget-stop", dhcp, 3, 3, _BUDGET_STOP,
        {"complete": False, "nodes": _BUDGET_STOP},
        "the scan must stop on its budget and say it is incomplete",
    )
    _insertion_task(wl, "cells/insertion/dhcp", dhcp, 2)
    _insertion_task(wl, "cells/insertion/dfcc", dfcc, 3)
    for d2 in _SLIDES:
        _sliding_task(wl, rng, d2)
    _bcc_line_task(wl, rng, 11, 1, 11)
    _bcc_line_task(wl, rng, 12, 0, None)


_BUILDERS = {"pack": _build_pack, "count": _build_count,
             "stack": _build_stack, "cells": _build_cells}
# The regression gate runs two merged workloads, long enough to be steady on
# a noisy 2-core machine; the four groups also run alone, for diagnosis.
MERGED = {"solve": ("pack", "count"), "geometry": ("stack", "cells")}
WORKLOADS = (*MERGED, *_BUILDERS)


def build(name: str, seed: int, reduced: bool = False) -> Workload:
    """The seeded task list of a workload.  Each group draws from its own
    seeded stream, so its inputs are the same alone or merged.
    reduced=True drops the heavy tasks, for the benchmark's own tests."""
    wl = Workload(name, seed)
    for group in MERGED.get(name, (name,)):
        _BUILDERS[group](wl, random.Random(f"{group}/{seed}"))
    if reduced:
        keep = [i for i, t in enumerate(wl.tasks) if not t.heavy]
        wl.tasks = [wl.tasks[i] for i in keep]
        wl.inputs = [wl.inputs[i] for i in keep]
    return wl
