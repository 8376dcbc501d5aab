"""JSON documents for configurations.

Schema: an object with "d2" (int), either "period" (three integer triples,
row generators of the period lattice) or "window" ({"lo": [x,y,z],
"hi": [x,y,z]}), "sites" (list of integer triples, stored sorted and
deduplicated), and optional "metadata" (string map).  Loading validates
admissibility unless told otherwise; a violating pair is reported in the
raised error.  save followed by load is the identity on canonicalized
documents.
"""

from __future__ import annotations

import json
from pathlib import Path

from .admissibility import Configuration, PeriodTooShortError
from .lattice import Quotient, Site, Window, shortest_vectors

__all__ = [
    "DocumentError",
    "InadmissibleDocumentError",
    "load",
    "save",
    "to_document",
    "from_document",
]


class DocumentError(ValueError):
    """Malformed document (parse-level problem)."""


class InadmissibleDocumentError(ValueError):
    """The document's sites violate its exclusion distance."""

    def __init__(self, pair: tuple[Site, Site], sq_distance: int):
        self.pair = pair
        self.sq_distance = sq_distance
        super().__init__(
            f"sites {pair[0]} and {pair[1]} at squared distance {sq_distance}"
        )


def _site(raw, what: str) -> Site:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 3
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw)
    ):
        raise DocumentError(f"{what} must be a triple of integers, got {raw!r}")
    return tuple(raw)  # type: ignore[return-value]


def to_document(c: Configuration, metadata: dict[str, str] | None = None) -> dict:
    doc: dict = {"d2": c.d2}
    if isinstance(c.domain, Quotient):
        doc["period"] = [list(g) for g in c.domain.period]
    else:
        doc["window"] = {"lo": list(c.domain.lo), "hi": list(c.domain.hi)}
    doc["sites"] = [list(s) for s in sorted(c.occupied)]
    doc["metadata"] = dict(sorted((metadata or {}).items()))
    return doc


def from_document(doc: dict, validate: bool = True) -> Configuration:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    d2 = doc.get("d2")
    if not isinstance(d2, int) or isinstance(d2, bool) or d2 < 1:
        raise DocumentError(f"d2 must be a positive integer, got {d2!r}")
    if ("period" in doc) == ("window" in doc):
        raise DocumentError("document needs exactly one of 'period' or 'window'")
    if "period" in doc:
        period = doc["period"]
        if not isinstance(period, list) or len(period) != 3:
            raise DocumentError("period must be three integer triples")
        try:
            domain: Quotient | Window = Quotient(
                tuple(_site(g, "period generator") for g in period)
            )
        except ValueError as exc:
            raise DocumentError(f"bad period: {exc}") from exc
    else:
        w = doc["window"]
        if not isinstance(w, dict) or set(w) != {"lo", "hi"}:
            raise DocumentError("window must carry 'lo' and 'hi'")
        try:
            domain = Window(_site(w["lo"], "window lo"), _site(w["hi"], "window hi"))
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    sites = doc.get("sites")
    if not isinstance(sites, list):
        raise DocumentError("sites must be a list of integer triples")
    occupied = frozenset(_site(s, "site") for s in sites)
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise DocumentError("metadata must map strings to strings")
    try:
        config = Configuration(domain, d2, occupied)
    except PeriodTooShortError as exc:
        m, vecs = shortest_vectors(domain.period)  # type: ignore[union-attr]
        raise InadmissibleDocumentError(((0, 0, 0), vecs[0]), m) from exc
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    if validate:
        ok, pair = config.is_admissible()
        if not ok:
            assert pair is not None
            raise InadmissibleDocumentError(pair, config.pair_sq_distance(*pair))
    return config


def save(c: Configuration, path: str | Path, metadata: dict[str, str] | None = None) -> None:
    Path(path).write_text(
        json.dumps(to_document(c, metadata), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load(path: str | Path, validate: bool = True) -> Configuration:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DocumentError(f"invalid JSON in {path}: {exc}") from exc
    return from_document(doc, validate=validate)
