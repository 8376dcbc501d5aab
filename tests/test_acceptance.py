"""Acceptance suite: one test per criterion, exact equalities throughout.

Every expected value is an exact integer or rational; runtime targets are
asserted with the stated limits.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see one pass line per criterion.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from hc3.catalog import (
    LineSelector,
    build_layered,
    known_sublattice,
    scaled_basis,
)
from hc3.embeddings import admits_layered, embedding_classes, enumerate_fcc_embeddings
from hc3.lattice import (
    hnf,
    lattice_contains,
    lattice_index,
    quotient,
    shortest_vectors,
)
from hc3.perturbations import (
    enumerate_excitations,
    find_sliding,
    min_insertion_order,
)
from hc3.solver import max_packing
from hc3.voronoi import cell_volume, tessellation_check, voronoi_cell
from test_perturbations import (
    dfcc_doubled,
    dhcp_doubled,
    revalidate_excitation,
    sublattice_on_scaled_torus,
)

DIAG2 = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
DIAG4 = ((4, 0, 0), (0, 4, 0), (0, 0, 4))

DENSITIES = {
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

VORONOI_VOLUMES = {2: 2, 3: 4, 4: 8, 5: 9, 6: 12, 8: 16, 9: 20, 10: 26, 12: 32}


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS - {text}")


def test_criterion_1_density_cardinality_table():
    t0 = time.perf_counter()
    q2, q4 = quotient(DIAG2), quotient(DIAG4)
    expected = [
        (q2, 2, 4, 2),
        (q2, 3, 2, 4),
        (q2, 4, 1, 8),
        (q4, 8, 4, 16),
        (q4, 12, 2, 32),
    ]
    for q, d2, opt, cnt in expected:
        r = max_packing(q, d2, count=True)
        assert (r.optimum, r.count) == (opt, cnt), f"d2={d2}"
    r = max_packing(q4, 4, count=True)
    assert r.optimum == 8
    assert r.count is not None and r.count > 8  # sliding degeneracy
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(1, f"solver table incl. sliding count {r.count} ({elapsed:.1f}s)")


def test_criterion_2_one_particle_per_cell():
    t0 = time.perf_counter()
    cases = [
        (2, None),
        (3, None),
        (5, None),
        (6, "I"),
        (6, "II"),
        (8, None),
        (9, None),
        (10, None),
        (11, None),
        (12, None),
    ]
    for d2, variant in cases:
        q = quotient(known_sublattice(d2, variant))
        assert max_packing(q, d2).optimum == 1, (d2, variant)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report(2, f"optimum 1 on every catalog cell ({elapsed:.1f}s)")


def test_criterion_3_doubled_cell_optimality():
    t0 = time.perf_counter()
    for d2, index in ((2, 16), (3, 32), (5, 72)):
        q = quotient(scaled_basis(known_sublattice(d2), 2))
        assert q.index == index
        r = max_packing(q, d2)  # no budget: exhaustion would be a failure
        assert r.optimum == 8, d2
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(3, f"doubled cells pack 8 per cell ({elapsed:.1f}s)")


def test_criterion_4_catalog_validation():
    for d2, density in DENSITIES.items():
        basis = known_sublattice(d2)
        assert Fraction(1, lattice_index(basis)) == density
        m = shortest_vectors(basis)[0]
        if d2 == 11:
            assert m == 12
        else:
            assert m == d2
        assert m >= d2
    _report(4, "densities and shortest norms match the table")


def test_criterion_5_voronoi_volumes():
    t0 = time.perf_counter()
    for d2, want in VORONOI_VOLUMES.items():
        c = sublattice_on_scaled_torus(d2, scale=1)
        cell = voronoi_cell(c, (0, 0, 0))
        assert cell_volume(cell) == want
        assert cell_volume(cell) == 1 / c.density()
        if d2 == 2:
            assert cell.n_facets == 12
        if d2 == 3:
            assert cell.n_facets == 14
        assert tessellation_check(c)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report(5, f"exact cell volumes, facet counts, tessellation ({elapsed:.1f}s)")


def test_criterion_6_embedding_classes():
    t0 = time.perf_counter()
    for ell in (1, 2, 4):
        assert len(embedding_classes(ell)) == 1, ell
    for ell in (3, 5):
        assert len(embedding_classes(ell)) >= 2, ell
    for ell in (1, 2, 3, 4, 5):
        for basis in enumerate_fcc_embeddings(ell):
            assert lattice_index(basis) == 2 * ell**3
            assert shortest_vectors(basis)[0] == 2 * ell * ell
        for cls in embedding_classes(ell):
            assert 48 % cls.orbit_size == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(6, f"class counts and invariants up to ell=5 ({elapsed:.1f}s)")


def test_criterion_7_layered_criterion():
    t0 = time.perf_counter()
    verdicts = {}
    for ell in (1, 2, 3, 4, 5, 6):
        per_embedding = {admits_layered(b)[0] for b in enumerate_fcc_embeddings(ell)}
        assert len(per_embedding) == 1, f"mixed verdicts at ell={ell}"
        verdicts[ell] = per_embedding.pop()
    assert verdicts == {1: False, 2: False, 3: True, 4: False, 5: False, 6: True}
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(7, f"alternate stacking exists exactly for ell divisible by 3 ({elapsed:.1f}s)")


def test_criterion_8_excitation_dichotomy():
    t0 = time.perf_counter()
    dhcp = dhcp_doubled()
    scan = enumerate_excitations(dhcp, 2, 2, budget=200_000)
    assert scan.complete
    assert scan.excitations
    for e in scan.excitations:
        assert (len(e.added), len(e.removed)) == (1, 3)
        assert revalidate_excitation(dhcp, e)
    dfcc = dfcc_doubled()
    scan_fcc = enumerate_excitations(dfcc, 2, 2, budget=200_000)
    assert scan_fcc.complete
    assert scan_fcc.excitations == ()
    order_hcp, _ = min_insertion_order(dhcp)
    order_fcc, _ = min_insertion_order(dfcc)
    assert order_hcp == 2
    assert order_hcp < order_fcc
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(
        8,
        f"HCP-like carries the (1 added, 3 removed) excitation, FCC-like none "
        f"({elapsed:.1f}s)",
    )


def test_criterion_9_sliding():
    t0 = time.perf_counter()
    # 2Z^3 at d2=4: the standard scan finds line slides
    c4 = sublattice_on_scaled_torus(4)
    assert find_sliding(c4)
    # BCC at d2=11: diagonal line shifted by (1,1,1), post-shift min distance 11
    bcc11 = sublattice_on_scaled_torus(11)
    sel = LineSelector((0, 0, 0), (1, 1, 1))
    moves = find_sliding(bcc11, selectors=[sel], shifts=[(1, 1, 1)])
    assert len(moves) == 1
    assert moves[0].min_pair_sq_distance == 11
    # the same shift is rejected at d2=12
    bcc12 = sublattice_on_scaled_torus(12)
    assert find_sliding(bcc12, selectors=[sel], shifts=[(1, 1, 1)]) == []
    # no sliding anywhere in the standard family for the rigid values
    for d2 in (2, 3, 5, 8, 9, 10, 12):
        assert find_sliding(sublattice_on_scaled_torus(d2)) == [], d2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(9, f"sliding exactly at d2 in {{4, 11}} ({elapsed:.1f}s)")


def _brute_force(q, d2):
    from hc3.admissibility import build_exclusion_graph

    g = build_exclusion_graph(q, d2)
    best, count = 0, 0
    for mask in range(1 << g.n):
        m, ok = mask, True
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if g.adjacency[v] & mask:
                ok = False
                break
        if not ok:
            continue
        size = mask.bit_count()
        if size > best:
            best, count = size, 1
        elif size == best:
            count += 1
    return best, count


def test_criterion_10_oracle_equivalence_and_determinism():
    t0 = time.perf_counter()
    quotients = [
        DIAG2,
        ((2, 0, 0), (0, 2, 0), (0, 0, 4)),
        known_sublattice(5),
        known_sublattice(8),
        known_sublattice(6, "I"),
    ]
    for period in quotients:
        q = quotient(period)
        assert q.index <= 16
        for d2 in (2, 3, 4, 5):
            if q.min_period_sq_norm() < d2:
                continue
            want = _brute_force(q, d2)
            r = max_packing(q, d2, count=True)
            assert (r.optimum, r.count) == want, (period, d2)

    # byte-identical CLI output across repeated runs
    outputs = []
    for _ in range(3):
        p = subprocess.run(
            [sys.executable, "-m", "hc3.cli", "pack", "--d2", "4", "--diag", "4",
             "--count", "--json"],
            capture_output=True,
            text=True,
        )
        assert p.returncode == 0, p.stderr
        outputs.append(p.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    payload = json.loads(outputs[0])
    assert payload["optimum"] == 8
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(10, f"solver equals brute force; identical across runs ({elapsed:.1f}s)")


def test_criterion_11_property_suites():
    # compact inline versions of the headless property suites; the full
    # hypothesis batteries live in the per-module test files
    t0 = time.perf_counter()
    samples = [
        ((1, -2, 1), (-1, -1, 2), (2, 1, 0)),
        ((3, 1, 0), (0, 2, 5), (1, 1, 1)),
        ((2, 0, 0), (1, 3, 0), (7, 2, 9)),
    ]
    for basis in samples:
        h = hnf(basis)
        assert hnf(h) == h
        for probe in ((1, 2, 3), (0, 1, 1), (4, 0, 2)):
            assert lattice_contains(basis, probe) == lattice_contains(h, probe)

    q = quotient(((3, 0, 0), (1, 3, 0), (0, 1, 3)))
    pts = [(0, 0, 0), (1, 2, 0), (2, 2, 2), (5, 1, 4)]
    for a in pts:
        for b in pts:
            dab = q.pair_sq_distance(a, b)
            assert dab == q.pair_sq_distance(b, a)
            for c in pts:
                lhs = q.pair_sq_distance(a, c) - dab - q.pair_sq_distance(b, c)
                assert lhs <= 0 or lhs * lhs <= 4 * dab * q.pair_sq_distance(b, c)

    from hc3.catalog import classify_stacking

    for word in ("S", "ST", "STS", "TSSTT", "STSTSTSTSTST"):
        c = build_layered(5, word)
        assert c.is_admissible()[0]
        assert classify_stacking(c, (1, 1, 1)) == word

    dhcp = dhcp_doubled()
    scan = enumerate_excitations(dhcp, 2, 2, budget=200_000)
    assert all(revalidate_excitation(dhcp, e) for e in scan.excitations)
    elapsed = time.perf_counter() - t0
    _report(11, f"property suites pass headlessly ({elapsed:.1f}s)")
