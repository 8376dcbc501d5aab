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


def _text(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, Fraction):
        return _fmt_fraction(value)
    if isinstance(value, tuple):
        return _fmt_site(value)
    if isinstance(value, list):
        return " ".join(map(_text, value))
    return str(value)


def _emit(
    args, fields: dict, *, lines: list[str] | None = None, extra: dict | None = None
) -> None:
    """Print one field record.  Text is one `key value` line per field, or
    the given ``lines``; JSON is the same fields with `_` for `-` in the
    keys, updated by the JSON-only ``extra``.  A bool is yes/no in text, a
    site (x,y,z) and a list space-joined; JSON keeps bools, sites and lists
    as such.  A Fraction is "p/q" in both."""
    try:
        if args.json:
            payload = {k.replace("-", "_"): v for k, v in fields.items()} | (extra or {})
            print(json.dumps(payload, sort_keys=True, default=_fmt_fraction))
        else:
            for line in lines or [f"{k} {_text(v)}" for k, v in fields.items()]:
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


def _add_violation(c: Configuration, pair, fields: dict, extra: dict) -> None:
    d = c.pair_sq_distance(*pair)
    fields["violation"] = f"{_fmt_site(pair[0])} ~ {_fmt_site(pair[1])} sq-distance {d}"
    extra["violation"] = {"pair": pair, "sq_distance": d}


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
    result = solver.max_packing(
        q,
        args.d2,
        count=args.count,
        mod_translations=args.mod_translations,
        node_budget=_budget(args.budget),
    )
    print(f"# nodes={result.nodes} time={result.wall_time:.3f}s", file=sys.stderr)
    fields = {
        "optimum": result.optimum,
        "witness": result.witness.sorted_sites(),
        "density": result.witness.density(),
    }
    if result.count is not None:
        fields["count"] = result.count
    if args.out:
        _save(result.witness, args.out, {"source": "pack"})
        fields["witness-file"] = args.out
    _emit(args, fields, extra={"d2": args.d2, "period": q.period})
    return EXIT_OK


def _cmd_verify(args) -> int:
    c = _load(args.file, validate=False)
    ok, pair = c.is_admissible()
    fields: dict = {"sites": len(c.occupied), "admissible": ok}
    if not ok:
        extra: dict = {}
        _add_violation(c, pair, fields, extra)
        _emit(args, fields, extra=extra)
        return EXIT_DOMAIN
    fields["density"] = c.density()
    if (m := c.min_pair_sq_distance()) is not None:
        fields["min-pair-sq-distance"] = m
    if isinstance(c.domain, Quotient):
        fields["period-min-sq-norm"] = c.domain.min_period_sq_norm()
    fields["saturated"] = not c.insertion_candidates()
    _emit(args, fields)
    return EXIT_OK


def _cmd_pc(args) -> int:
    basis = catalog.known_sublattice(args.d2, args.variant)
    c = Configuration(Quotient(basis), args.d2, frozenset({(0, 0, 0)}))
    fields = {
        "d2": args.d2,
        "basis": list(basis),
        "index": lattice_index(basis),
        "density": c.density(),
        "min-sq-norm": shortest_vectors(basis)[0],
    }
    if args.out:
        _save(c, args.out, {"kind": "catalog-sublattice", "d2": str(args.d2)})
        fields["file"] = args.out
    _emit(args, fields)
    return EXIT_OK


def _cmd_layered(args) -> int:
    try:
        c = catalog.build_layered(args.d2, args.word, family=args.family)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)
    assert isinstance(c.domain, Quotient)
    fields = {
        "d2": args.d2,
        "word": args.word,
        "period": list(c.domain.period),
        "sites": len(c.occupied),
        "density": c.density(),
        "min-pair-sq-distance": c.min_pair_sq_distance(),
    }
    if args.out:
        _save(c, args.out, {"kind": "layered", "word": args.word})
        fields["file"] = args.out
    _emit(args, fields, extra={"sites": c.sorted_sites()})
    return EXIT_OK


def _cmd_voronoi(args) -> int:
    c = _load(args.file, validate=not args.no_validate)
    site = _parse_site(args.site, "--site")
    try:
        cell = voronoi.voronoi_cell(c, site)
    except voronoi.SiteNotOccupiedError:
        raise  # a ValueError too, but a domain violation: main's table
    except ValueError as exc:  # a window: Voronoi cells need a torus
        raise CliError(str(exc), EXIT_BAD_INPUT)
    fields = {
        "site": site,
        "volume": voronoi.cell_volume(cell),
        "facets": cell.n_facets,
        "vertices": cell.n_vertices,
    }
    if args.dump_geometry:
        _write_obj(cell, args.dump_geometry)
        fields["geometry"] = args.dump_geometry
    _emit(args, fields)
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
        classes = [
            {"representative": cls.representative, "orbit_size": cls.orbit_size,
             "members": cls.members}
            for cls in embeddings.embedding_classes(args.ell)
        ]
        lines = [f"classes {len(classes)}"] + [
            f"class {i} size {cls['orbit_size']} rep {_text(list(cls['representative']))}"
            for i, cls in enumerate(classes)
        ]
        _emit(args, {"ell": args.ell, "classes": classes}, lines=lines)
    else:
        embs = embeddings.enumerate_fcc_embeddings(args.ell)
        lines = [f"embeddings {len(embs)}"] + [
            f"embedding {i} hnf {_text(list(b))}" for i, b in enumerate(embs)
        ]
        _emit(args, {"ell": args.ell, "embeddings": embs}, lines=lines)
    return EXIT_OK


def _cmd_excite(args) -> int:
    c = _load(args.file, validate=not args.no_validate)
    try:
        scan = perturbations.enumerate_excitations(
            c, args.max_order, args.radius, budget=_budget(args.budget)
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)
    if candidates := len(c.insertion_candidates()):
        print(
            f"# warning: configuration not saturated ({candidates} insertion"
            " candidates); every admissible insertion is listed as an excitation"
            " of order <= 0",
            file=sys.stderr,
        )
    # every listed translation class occurs once per fundamental domain
    items = [
        {"order": e.order, "added": e.added, "removed": e.removed, "per_cell": 1}
        for e in scan.excitations
    ]
    lines = [f"excitations {len(items)}"]
    for e in items:
        added = ";".join(map(_fmt_site, e["added"]))
        removed = ";".join(map(_fmt_site, e["removed"]))
        lines.append(
            f"excitation order={e['order']} added={added} removed={removed} per-cell=1"
        )
    lines.append(f"complete {_text(scan.complete)}")
    fields = {
        "excitations": items,
        "complete": scan.complete,
        "max_order": args.max_order,
        "radius": args.radius,
    }
    _emit(args, fields, lines=lines)
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
        moves = [
            {"mesh": m.selector.describe(), "shift": m.shift,
             "min_pair_sq_distance": m.min_pair_sq_distance}
            for m in perturbations.find_sliding(c, shifts=shifts)
        ]
        lines = [f"moves {len(moves)}"] + [
            f"slide mesh={m['mesh']} shift={_fmt_site(m['shift'])}"
            f" min-pair-sq-distance {m['min_pair_sq_distance']}"
            for m in moves
        ]
        _emit(args, {"moves": moves}, lines=lines)
        return EXIT_OK
    if not args.mesh or not args.shift:
        raise CliError("slide needs --scan or both --mesh and --shift", EXIT_BAD_INPUT)
    sel = _parse_selector(args.mesh)
    t = _parse_site(args.shift, "--shift")
    # mesh_shift only feeds the diagnostics; find_sliding gives the verdict
    try:
        shifted = catalog.mesh_shift(c, sel, t)
    except SitesOutsideWindowError as exc:
        _emit(args, {"valid": False, "outside-window": exc.sites})
        return EXIT_DOMAIN
    valid = bool(perturbations.find_sliding(c, [sel], [t]))
    ok, pair = shifted.is_admissible()
    fields: dict = {"valid": valid}
    extra = {"count_preserved": len(shifted.occupied) == len(c.occupied)}
    if not ok:
        _add_violation(shifted, pair, fields, extra)
    elif (m := shifted.min_pair_sq_distance()) is not None:
        fields["min-pair-sq-distance"] = m
    _emit(args, fields, extra=extra)
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
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("verify", help="admissibility / density / saturation report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pc", help="catalog sublattice configuration")
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--variant", help='variant ("I"/"II" for d2=6, "1"/"2" for 9, 10)')
    p.add_argument("--out", help="write the configuration document here")
    p.set_defaults(func=_cmd_pc)

    p = sub.add_parser("layered", help="layered configuration from a stacking word")
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--family", help="family name (I/II for d2=6)")
    p.add_argument("--word", required=True, help="stacking word, e.g. ST")
    p.add_argument("--out", help="write the configuration document here")
    p.set_defaults(func=_cmd_layered)

    p = sub.add_parser("voronoi", help="exact Voronoi cell of an occupied site")
    p.add_argument("file")
    p.add_argument("--site", required=True, help="occupied site x,y,z")
    p.add_argument("--dump-geometry", help="write an OBJ file (exact JSON sidecar)")
    p.add_argument("--no-validate", action="store_true", help="skip the load-time check")
    p.set_defaults(func=_cmd_voronoi)

    p = sub.add_parser("embed", help="FCC embeddings at scale ell")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--classes", action="store_true", help="group into symmetry classes")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("excite", help="enumerate local excitations")
    p.add_argument("file")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--no-validate", action="store_true", help="skip the load-time check")
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
    p.set_defaults(func=_cmd_slide)

    # last in every subcommand's usage and --help, as a parent parser would
    # not put it
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


# the typed library errors the commands let through, by exit code; each
# prints its own message after "error: "
_EXIT_CODES = {
    BudgetExhaustedError: EXIT_BUDGET,
    PeriodTooShortError: EXIT_DOMAIN,
    voronoi.SiteNotOccupiedError: EXIT_DOMAIN,
    catalog.UnknownCatalogEntryError: EXIT_BAD_INPUT,
    catalog.SelectorEmptyError: EXIT_BAD_INPUT,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
