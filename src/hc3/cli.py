"""Command-line surface.

Subcommands: pack, verify, pc, layered, voronoi, embed, excite, slide.
Standard output is line-oriented and byte-deterministic for identical
inputs (solver statistics go to standard error); ``--json`` switches each
command to a single machine-readable JSON object.  Rationals are always
rendered as "p/q" strings.  Exit codes: 0 success, 1 domain violation,
2 bad input, 3 budget exhausted; a reader that closes standard output early
does not change them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import catalog, documents, embeddings, perturbations, solver, voronoi
from .admissibility import Configuration, PeriodTooShortError, SitesOutsideWindowError
from .lattice import Quotient, Site, cross, lattice_index, primitive, shortest_vectors
from .search import BudgetExhaustedError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _budget(budget: int | None) -> int | None:
    if budget is not None and budget < 0:
        raise CliError("--budget must be >= 0", EXIT_BAD_INPUT)
    return budget


def _parse_site(text: str, what: str = "site") -> Site:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"{what} must be x,y,z integers, got {text!r}", EXIT_BAD_INPUT)
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise CliError(f"{what} must be x,y,z integers, got {text!r}", EXIT_BAD_INPUT)


def _parse_period(text: str):
    parts = text.split(";")
    if len(parts) != 3:
        raise CliError(
            f"period must be g1;g2;g3 with integer triples, got {text!r}", EXIT_BAD_INPUT
        )
    return tuple(_parse_site(p, "period generator") for p in parts)


def _fmt_site(v: Site) -> str:
    return f"({v[0]},{v[1]},{v[2]})"


def _fmt_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _emit(args, text_lines: list[str], payload: dict) -> None:
    try:
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`hc3 slide --scan | head -1`).  The exit
        # code stays the command's verdict; stdout goes to the null device,
        # or the interpreter's flush at exit would fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _load(path: str, validate: bool = True) -> Configuration:
    try:
        return documents.load(path, validate=validate)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}", EXIT_BAD_INPUT)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}", EXIT_BAD_INPUT)
    except documents.InadmissibleDocumentError as exc:
        raise CliError(
            f"inadmissible configuration: {_fmt_site(exc.pair[0])} ~ "
            f"{_fmt_site(exc.pair[1])} sq-distance {exc.sq_distance}",
            EXIT_DOMAIN,
        )
    except documents.DocumentError as exc:
        raise CliError(f"bad document: {exc}", EXIT_BAD_INPUT)


def _add_violation(c: Configuration, pair, lines: list[str], payload: dict) -> None:
    d = c.pair_sq_distance(*pair)
    lines.append(f"violation {_fmt_site(pair[0])} ~ {_fmt_site(pair[1])} sq-distance {d}")
    payload["violation"] = {"pair": [list(pair[0]), list(pair[1])], "sq_distance": d}


def _save(c: Configuration, path: str, metadata: dict[str, str]) -> None:
    try:
        documents.save(c, path, metadata)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}", EXIT_BAD_INPUT)


# ---------------------------------------------------------------------------


def _cmd_pack(args) -> int:
    if (args.diag is None) == (args.period is None):
        raise CliError("pack needs exactly one of --diag or --period", EXIT_BAD_INPUT)
    if args.d2 < 1:
        raise CliError("--d2 must be >= 1", EXIT_BAD_INPUT)
    if args.diag is not None:
        if args.diag < 1:
            raise CliError("--diag must be >= 1", EXIT_BAD_INPUT)
        basis = ((args.diag, 0, 0), (0, args.diag, 0), (0, 0, args.diag))
    else:
        basis = _parse_period(args.period)
    try:
        q = Quotient(basis)
    except ValueError as exc:
        raise CliError(f"bad period: {exc}", EXIT_BAD_INPUT)
    try:
        result = solver.max_packing(
            q,
            args.d2,
            count=args.count,
            mod_translations=args.mod_translations,
            node_budget=_budget(args.budget),
        )
    except PeriodTooShortError as exc:
        raise CliError(str(exc), EXIT_DOMAIN)
    except BudgetExhaustedError as exc:
        raise CliError(str(exc), EXIT_BUDGET)
    print(f"# nodes={result.nodes} time={result.wall_time:.3f}s", file=sys.stderr)
    witness_sites = result.witness.sorted_sites()
    payload = {
        "optimum": result.optimum,
        "witness": [list(s) for s in witness_sites],
        "density": _fmt_fraction(result.witness.density()),
        "d2": args.d2,
        "period": [list(g) for g in q.period],
    }
    lines = [f"optimum {result.optimum}"]
    lines.append("witness " + " ".join(_fmt_site(s) for s in witness_sites))
    lines.append(f"density {payload['density']}")
    if result.count is not None:
        lines.append(f"count {result.count}")
        payload["count"] = result.count
    if args.out:
        _save(result.witness, args.out, {"source": "pack"})
        lines.append(f"witness-file {args.out}")
        payload["witness_file"] = args.out
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    c = _load(args.file, validate=False)
    ok, pair = c.is_admissible()
    lines = [f"sites {len(c.occupied)}", f"admissible {'yes' if ok else 'no'}"]
    payload: dict = {"sites": len(c.occupied), "admissible": ok}
    if not ok:
        assert pair is not None
        _add_violation(c, pair, lines, payload)
        _emit(args, lines, payload)
        return EXIT_DOMAIN
    payload["density"] = density = _fmt_fraction(c.density())
    lines.append(f"density {density}")
    m = c.min_pair_sq_distance()
    if m is not None:
        lines.append(f"min-pair-sq-distance {m}")
        payload["min_pair_sq_distance"] = m
    if isinstance(c.domain, Quotient):
        payload["period_min_sq_norm"] = norm = c.domain.min_period_sq_norm()
        lines.append(f"period-min-sq-norm {norm}")
    saturated = not c.insertion_candidates()
    lines.append(f"saturated {'yes' if saturated else 'no'}")
    payload["saturated"] = saturated
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_pc(args) -> int:
    try:
        basis = catalog.known_sublattice(args.d2, args.variant)
    except catalog.UnknownCatalogEntryError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)
    q = Quotient(basis)
    c = Configuration(q, args.d2, frozenset({(0, 0, 0)}))
    meta = {"kind": "catalog-sublattice", "d2": str(args.d2)}
    payload = {
        "d2": args.d2,
        "basis": [list(g) for g in basis],
        "index": lattice_index(basis),
        "density": _fmt_fraction(c.density()),
        "min_sq_norm": shortest_vectors(basis)[0],
    }
    lines = [
        f"d2 {args.d2}",
        "basis " + " ".join(_fmt_site(g) for g in basis),
        f"index {payload['index']}",
        f"density {payload['density']}",
        f"min-sq-norm {payload['min_sq_norm']}",
    ]
    if args.out:
        _save(c, args.out, meta)
        lines.append(f"file {args.out}")
        payload["file"] = args.out
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_layered(args) -> int:
    try:
        c = catalog.build_layered(args.d2, args.word, family=args.family)
    except (catalog.UnknownCatalogEntryError, ValueError) as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)
    assert isinstance(c.domain, Quotient)
    payload = {
        "d2": args.d2,
        "word": args.word,
        "period": [list(g) for g in c.domain.period],
        "sites": [list(s) for s in c.sorted_sites()],
        "density": _fmt_fraction(c.density()),
        "min_pair_sq_distance": c.min_pair_sq_distance(),
    }
    lines = [
        f"d2 {args.d2}",
        f"word {args.word}",
        "period " + " ".join(_fmt_site(g) for g in c.domain.period),
        f"sites {len(c.occupied)}",
        f"density {payload['density']}",
        f"min-pair-sq-distance {payload['min_pair_sq_distance']}",
    ]
    if args.out:
        _save(c, args.out, {"kind": "layered", "word": args.word})
        lines.append(f"file {args.out}")
        payload["file"] = args.out
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_voronoi(args) -> int:
    c = _load(args.file, validate=not args.no_validate)
    site = _parse_site(args.site, "--site")
    try:
        cell = voronoi.voronoi_cell(c, site)
    except voronoi.SiteNotOccupiedError as exc:
        raise CliError(str(exc), EXIT_DOMAIN)
    except ValueError as exc:  # a window: Voronoi cells need a torus
        raise CliError(str(exc), EXIT_BAD_INPUT)
    vol = voronoi.cell_volume(cell)
    lines = [
        f"site {_fmt_site(site)}",
        f"volume {_fmt_fraction(vol)}",
        f"facets {cell.n_facets}",
        f"vertices {cell.n_vertices}",
    ]
    payload = {
        "site": list(site),
        "volume": _fmt_fraction(vol),
        "facets": cell.n_facets,
        "vertices": cell.n_vertices,
    }
    if args.dump_geometry:
        _write_obj(cell, args.dump_geometry)
        lines.append(f"geometry {args.dump_geometry}")
        payload["geometry"] = args.dump_geometry
    _emit(args, lines, payload)
    return EXIT_OK


def _write_obj(cell: voronoi.RationalPolytope, path: str) -> None:
    # floats are unavoidable in OBJ; the exact rationals ride in a sidecar
    obj_lines = []
    for v in cell.vertices:
        obj_lines.append("v " + " ".join(f"{float(x):.17g}" for x in v))
    for f in cell.facets:
        obj_lines.append("f " + " ".join(str(i + 1) for i in f.vertices))
    sidecar = {
        "vertices": [[_fmt_fraction(Fraction(x)) for x in v] for v in cell.vertices],
        "facets": [
            {
                "normal": list(f.normal),
                "offset": f.offset,
                "vertices": list(f.vertices),
            }
            for f in cell.facets
        ],
    }
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(obj_lines) + "\n")
        with open(path + ".json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise CliError(f"cannot write {exc.filename}: {exc.strerror}", EXIT_BAD_INPUT)


def _cmd_embed(args) -> int:
    if args.ell < 1:
        raise CliError("--ell must be >= 1", EXIT_BAD_INPUT)
    if args.classes:
        classes = embeddings.embedding_classes(args.ell)
        lines = [f"classes {len(classes)}"]
        payload_classes = []
        for i, cls in enumerate(classes):
            rep = " ".join(_fmt_site(g) for g in cls.representative)
            lines.append(f"class {i} size {cls.orbit_size} rep {rep}")
            payload_classes.append(
                {
                    "representative": [list(g) for g in cls.representative],
                    "orbit_size": cls.orbit_size,
                    "members": [[list(g) for g in m] for m in cls.members],
                }
            )
        payload = {"ell": args.ell, "classes": payload_classes}
    else:
        embs = embeddings.enumerate_fcc_embeddings(args.ell)
        lines = [f"embeddings {len(embs)}"]
        for i, b in enumerate(embs):
            lines.append(f"embedding {i} hnf " + " ".join(_fmt_site(g) for g in b))
        payload = {
            "ell": args.ell,
            "embeddings": [[list(g) for g in b] for b in embs],
        }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_excite(args) -> int:
    c = _load(args.file, validate=not args.no_validate)
    try:
        scan = perturbations.enumerate_excitations(
            c, args.max_order, args.radius, budget=_budget(args.budget)
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)
    lines = [f"excitations {len(scan.excitations)}"]
    payload_items = []
    for e in scan.excitations:
        added = ";".join(_fmt_site(s) for s in e.added)
        removed = ";".join(_fmt_site(s) for s in e.removed)
        # every listed translation class occurs once per fundamental domain
        lines.append(
            f"excitation order={e.order} added={added} removed={removed} per-cell=1"
        )
        payload_items.append(
            {
                "order": e.order,
                "added": [list(s) for s in e.added],
                "removed": [list(s) for s in e.removed],
                "per_cell": 1,
            }
        )
    lines.append(f"complete {'yes' if scan.complete else 'no'}")
    payload = {
        "excitations": payload_items,
        "complete": scan.complete,
        "max_order": args.max_order,
        "radius": args.radius,
    }
    _emit(args, lines, payload)
    return EXIT_OK if scan.complete else EXIT_BUDGET


def _parse_selector(text: str) -> catalog.Selector:
    parts = text.split(":")
    try:
        if parts[0] == "line" and len(parts) == 3:
            return catalog.LineSelector(_parse_site(parts[1]), _parse_site(parts[2]))
        if parts[0] == "plane" and len(parts) == 3:
            return catalog.PlaneSelector(_parse_site(parts[1]), _parse_site(parts[2]))
        if parts[0] == "mesh" and len(parts) == 4:
            anchor = _parse_site(parts[1])
            g1, g2 = _parse_site(parts[2]), _parse_site(parts[3])
            spec = catalog.MeshSpec((g1, g2), anchor, primitive(cross(g1, g2)))
            return catalog.MeshSelector(spec)
    except CliError:
        raise
    except ValueError as exc:
        raise CliError(f"bad mesh spec {text!r}: {exc}", EXIT_BAD_INPUT)
    raise CliError(
        f"bad mesh spec {text!r} (want line:A:D, plane:A:N or mesh:A:G1:G2)",
        EXIT_BAD_INPUT,
    )


def _cmd_slide(args) -> int:
    c = _load(args.file, validate=not args.no_validate)
    if args.scan:
        if args.max_shift_norm < 0:
            raise CliError("--max-shift-norm must be >= 0", EXIT_BAD_INPUT)
        shifts = perturbations.standard_shifts(args.max_shift_norm)
        moves = perturbations.find_sliding(c, shifts=shifts)
        lines = [f"moves {len(moves)}"]
        payload_moves = []
        for m in moves:
            lines.append(
                f"slide mesh={m.selector.describe()} shift={_fmt_site(m.shift)}"
                f" min-pair-sq-distance {m.min_pair_sq_distance}"
            )
            payload_moves.append(
                {
                    "mesh": m.selector.describe(),
                    "shift": list(m.shift),
                    "min_pair_sq_distance": m.min_pair_sq_distance,
                }
            )
        _emit(args, lines, {"moves": payload_moves})
        return EXIT_OK
    if not args.mesh or not args.shift:
        raise CliError("slide needs --scan or both --mesh and --shift", EXIT_BAD_INPUT)
    sel = _parse_selector(args.mesh)
    t = _parse_site(args.shift, "--shift")
    # mesh_shift only feeds the diagnostics; find_sliding gives the verdict
    try:
        shifted = catalog.mesh_shift(c, sel, t)
    except catalog.SelectorEmptyError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)
    except SitesOutsideWindowError as exc:
        lines = ["valid no", "outside-window " + " ".join(map(_fmt_site, exc.sites))]
        payload = {"valid": False, "outside_window": [list(s) for s in exc.sites]}
        _emit(args, lines, payload)
        return EXIT_DOMAIN
    valid = bool(perturbations.find_sliding(c, [sel], [t]))
    ok, pair = shifted.is_admissible()
    count_preserved = len(shifted.occupied) == len(c.occupied)
    lines = [f"valid {'yes' if valid else 'no'}"]
    payload: dict = {"valid": valid, "count_preserved": count_preserved}
    if not ok:
        assert pair is not None
        _add_violation(shifted, pair, lines, payload)
    elif (m := shifted.min_pair_sq_distance()) is not None:
        lines.append(f"min-pair-sq-distance {m}")
        payload["min_pair_sq_distance"] = m
    _emit(args, lines, payload)
    return EXIT_OK if valid else EXIT_DOMAIN


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hc3",
        description="Exact hard-core packing toolkit on the cubic lattice Z^3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pack", help="exact maximum packing on a torus")
    p.add_argument("--d2", type=int, required=True, help="squared exclusion distance")
    p.add_argument("--diag", type=int, help="diagonal period L (torus (Z/L)^3)")
    p.add_argument("--period", help="period basis g1;g2;g3, triples x,y,z")
    p.add_argument("--count", action="store_true", help="count optimal configurations")
    p.add_argument(
        "--mod-translations", action="store_true", help="count orbits under translations"
    )
    p.add_argument("--budget", type=int, help="node budget (hard error on exhaustion)")
    p.add_argument("--out", help="write the witness configuration to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("verify", help="admissibility / density / saturation report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pc", help="catalog sublattice configuration")
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--variant", help='variant ("I"/"II" for d2=6, "1"/"2" for 9, 10)')
    p.add_argument("--out", help="write the configuration document here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pc)

    p = sub.add_parser("layered", help="layered configuration from a stacking word")
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--family", help="family name (I/II for d2=6)")
    p.add_argument("--word", required=True, help="stacking word, e.g. ST")
    p.add_argument("--out", help="write the configuration document here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_layered)

    p = sub.add_parser("voronoi", help="exact Voronoi cell of an occupied site")
    p.add_argument("file")
    p.add_argument("--site", required=True, help="occupied site x,y,z")
    p.add_argument("--dump-geometry", help="write an OBJ file (exact JSON sidecar)")
    p.add_argument("--no-validate", action="store_true", help="skip the load-time check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_voronoi)

    p = sub.add_parser("embed", help="FCC embeddings at scale ell")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--classes", action="store_true", help="group into symmetry classes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("excite", help="enumerate local excitations")
    p.add_argument("file")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--no-validate", action="store_true", help="skip the load-time check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_excite)

    p = sub.add_parser("slide", help="validate or scan for sliding moves")
    p.add_argument("file")
    p.add_argument("--mesh", help="line:A:D | plane:A:N | mesh:A:G1:G2")
    p.add_argument("--shift", help="shift vector x,y,z")
    p.add_argument("--scan", action="store_true", help="scan the standard mesh family")
    p.add_argument(
        "--max-shift-norm", type=int, default=2, help="max squared shift norm for --scan"
    )
    p.add_argument("--no-validate", action="store_true", help="skip the load-time check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_slide)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
