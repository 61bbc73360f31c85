"""JSON system documents and trace serialization.

A *system document* is one self-contained JSON object describing a finite
space, optionally with a set-valued map and a comparison function:

    {
      "points": ["p0", "p1", ...],          point identifiers (strings)
      "d": [["0", "1/2"], ["1", "0"]],      row-major, d[i][j] = d(p_i, p_j)
      "t0": true,                           claims the T0 condition
      "arithmetic": "exact" | "float",      default "exact"
      "tolerance": 1e-9,                    FLOAT mode only, optional
      "F": {"p0": ["p1"], ...},             optional; must cover every point
      "gamma": {"kind": "linear", "c": "1/2"}
               | {"kind": "rational_shrink"}
               | {"kind": "user", "table": [[t, gt], ...]},
      "meta": {...}                         optional free-form object
    }

In EXACT mode distance entries are rationals, written as "p/q" strings
(plain integers also parse); FLOAT mode uses JSON numbers.  Entries,
gamma fields and the tolerance are read by the number rule of
:mod:`qpmetric.space`.  Image members must be point ids.
Malformed input raises :class:`DocumentError` carrying the offending field
(``document`` for a file that cannot be read or is not JSON), which the
CLI turns into exit code 2; semantically bad but well-formed content (say,
a nonzero diagonal) parses fine and is left to the axiom checker.

:func:`dump_system` writes exactly the bytes of
``json.dumps(doc, indent=2, allow_nan=False)`` and a newline, where
``doc`` is :func:`system_document`'s output, and never holds the whole
text: it encodes the small fields first, so one that cannot be written
fails before the file is opened, then writes the point ids, each matrix
row and each image as it makes them.  Reading an EXACT matrix checks and
reads each row of "p/q" strings as a whole, with one table of
denominators for the matrix (see :func:`qpmetric.space.from_matrix`).
Writing one makes one comma-joined text per row, from int rows over D in
one ``%`` operation (see :func:`_ratio_rows`), and :func:`dump_system` lays
each row text out as it stands.  A parsed map's keys and image members
are the universe's own point-id objects, not copies; the parser checks
each image once, and the map does not normalize it again.

Iteration traces serialize one way (they are outputs):

    {"mode": "startpoint" | "endpoint" | "fixedpoint", "start": ...,
     "initial_defect": ..., "steps": [{"n", "x", "y", "d", "gamma_d", "defect"}, ...],
     "outcome": {"status", "point", "defect", "steps", "cycle"}}

with rational strings in EXACT mode and points rendered with ``str``.
``INFINITY``, which user oracles may return as a distance or defect, is
written as the string "inf" in both modes, and a NaN a user gamma gives
as "nan", so every document and trace written here is strict JSON.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from operator import floordiv
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .comparison import ComparisonFunction, linear, rational_shrink, user_table
from .contraction import SetValuedMap, _meaning
from .solver import IterationTrace
from .space import (
    DEFAULT_TOLERANCE,
    FieldError,
    QSpace,
    Value,
    _nonnegative,
    _read_value,
    distance_matrix,
    from_matrix,
)


class DocumentError(FieldError):
    """Malformed document; ``field`` names the offending entry."""


def encode_value(v: Value, exact: bool) -> str | float:
    if isinstance(v, float) and not math.isfinite(v):
        # JSON has no token for the extended values a user oracle may return.
        return str(v)
    return str(Fraction(v)) if exact else float(v)


def _ratio_rows(rows: Sequence[Sequence[int]], den: int) -> Iterator[str]:
    """The rows of ints over ``den`` as row texts (see :func:`_document`),
    one at a time, each entry v written as ``encode_value(Fraction(v, den),
    True)`` writes it, with no Fraction and no Python-level call per entry.
    With g = gcd(v, den) the entry is v // g over den // g, so one table
    keyed by g holds each entry's format ("%d", or "%d/q" with
    q = den // g), and a row is one %-format of the v // g."""
    formats: dict[int, str] = {}
    for row in rows:
        gs = list(map(math.gcd, row, repeat(den)))
        try:
            layout = ",".join(map(formats.__getitem__, gs))
        except KeyError:
            for g in set(gs).difference(formats):
                formats[g] = "%d" if g == den else f"%d/{den // g}"
            layout = ",".join(map(formats.__getitem__, gs))
        yield layout % tuple(map(floordiv, row, gs))


@dataclass(frozen=True)
class System:
    """A parsed system document."""

    space: QSpace
    map: SetValuedMap | None = None
    gamma: ComparisonFunction | None = None
    meta: Mapping[str, Any] | None = None


def _parse_gamma(doc: Any) -> ComparisonFunction:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DocumentError("gamma", "expected an object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "linear":
            if "c" not in doc:
                raise DocumentError("gamma.c", "linear kind requires a factor")
            return linear(_read_value(doc["c"], True, "gamma.c"))
        if kind == "rational_shrink":
            return rational_shrink()
        if kind == "user":
            table = doc.get("table")
            if not isinstance(table, list) or not table:
                raise DocumentError("gamma.table", "user kind requires a nonempty table")
            knots = []
            for i, pair in enumerate(table):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise DocumentError(f"gamma.table[{i}]", "expected a [t, gamma_t] pair")
                field = f"gamma.table[{i}]"
                knots.append([_read_value(v, True, f"{field}[{k}]") for k, v in enumerate(pair)])
            return user_table(knots)
    except FieldError as exc:
        raise DocumentError(exc.field, exc.message) from exc
    except ValueError as exc:
        raise DocumentError("gamma", str(exc)) from exc
    raise DocumentError("gamma.kind", f"unknown kind {kind!r}")


def gamma_document(gamma: ComparisonFunction) -> dict[str, Any]:
    if gamma.kind == "linear":
        return {"kind": "linear", "c": str(gamma.c)}
    if gamma.kind == "rational_shrink":
        return {"kind": "rational_shrink"}
    if gamma.table is None:
        raise ValueError("callable-backed user functions do not serialize")
    return {
        "kind": "user",
        "table": [[encode_value(t, True), encode_value(v, True)] for t, v in gamma.table],
    }


def parse_system(
    doc: Any, *, force_float: bool = False, default_tolerance: float = DEFAULT_TOLERANCE
) -> System:
    """Parse a system document into live objects.

    ``force_float`` overrides the document's arithmetic flag (the CLI's
    ``--float``); ``default_tolerance`` applies when the document sets no
    tolerance (only FLOAT spaces read it).  Raises :class:`DocumentError`
    on the first malformed field.
    """
    if not isinstance(doc, dict):
        raise DocumentError("document", "expected a JSON object")

    points = doc.get("points")
    if not isinstance(points, list) or not points:
        raise DocumentError("points", "expected a nonempty list of point ids")
    if any(not isinstance(p, str) for p in points):
        raise DocumentError("points", "point ids must be strings")
    if len(set(points)) != len(points):
        raise DocumentError("points", "duplicate point ids")

    arithmetic = doc.get("arithmetic", "exact")
    if arithmetic not in ("exact", "float"):
        raise DocumentError("arithmetic", f"expected 'exact' or 'float', got {arithmetic!r}")
    exact = arithmetic == "exact" and not force_float

    n = len(points)
    matrix = doc.get("d")
    if not isinstance(matrix, list) or len(matrix) != n:
        raise DocumentError("d", f"expected a {n}x{n} matrix")
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            raise DocumentError(f"d[{i}]", f"expected a row of {n} entries")

    t0 = doc.get("t0", False)
    if not isinstance(t0, bool):
        raise DocumentError("t0", "expected a boolean")

    tolerance = doc.get("tolerance", default_tolerance)
    # A finite float: an int too large for one is refused, not overflowed.
    if "tolerance" in doc and not (_nonnegative(tolerance) and tolerance <= sys.float_info.max):
        raise DocumentError("tolerance", "expected a nonnegative number")

    try:
        space = from_matrix(points, matrix, exact=exact, t0=t0, tolerance=float(tolerance))
    except FieldError as exc:
        raise DocumentError(exc.field, exc.message) from exc

    smap = None
    if "F" in doc:
        fdoc = doc["F"]
        if not isinstance(fdoc, dict):
            raise DocumentError("F", "expected an object mapping points to images")
        # Each id to the universe's own object: the map's keys and images
        # are built from it, so they hold no copy of a point id.
        ids = {p: p for p in points}
        images: dict[str, tuple[str, ...]] = {}
        for x, image in fdoc.items():
            if x not in ids:
                raise DocumentError(f"F.{x}", "not a point of the space")
            if not isinstance(image, list) or not image:
                raise DocumentError(f"F.{x}", "image must be a nonempty list")
            # Point ids are strings, so a member that is not one fails the
            # lookup, as a stray does; only then do the loops name the member.
            try:
                members = tuple(map(ids.__getitem__, image))
            except (KeyError, TypeError):
                members = ()
            if len(set(members)) != len(image):
                if any(not isinstance(y, str) for y in image):
                    raise DocumentError(f"F.{x}", "image point ids must be strings")
                if len(set(image)) != len(image):
                    raise DocumentError(f"F.{x}", "image contains duplicates")
                stray = next(y for y in image if y not in ids)
                raise DocumentError(f"F.{x}", f"image point {stray!r} is not in the space")
            images[ids[x]] = members
        missing = [p for p in points if p not in images]
        if missing:
            raise DocumentError(f"F.{missing[0]}", "no image for this point")
        # Every image is checked nonempty and free of repeats above.
        smap = SetValuedMap._of_images(images)

    gamma = _parse_gamma(doc["gamma"]) if "gamma" in doc else None
    if "meta" in doc and not isinstance(doc["meta"], dict):
        raise DocumentError("meta", "expected an object")
    return System(space=space, map=smap, gamma=gamma, meta=doc.get("meta"))


def system_document(
    space: QSpace,
    F: SetValuedMap | None = None,
    gamma: ComparisonFunction | None = None,
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Serialize a finite system to a document (inverse of parse_system)."""
    doc = _document(space, F, gamma, meta)
    rows = doc["d"]
    doc["d"] = [text.split(",") for text in rows] if space.exact else list(rows)
    if F is not None:
        doc["F"] = {x: list(map(str, image)) for x, image in doc["F"].items()}
    return doc


def _document(
    space: QSpace,
    F: SetValuedMap | None,
    gamma: ComparisonFunction | None,
    meta: Mapping[str, Any] | None,
) -> dict[str, Any]:
    """:func:`system_document`'s fields in its order, except that the
    matrix and the images are made as they are read.  "d" iterates over the
    rows: an EXACT row is one text, its entries (which hold no comma and
    nothing to escape) joined by commas, and a FLOAT row a list of numbers.
    "F" maps each id to the image ``F`` gives."""
    points = space.universe()
    ids = [str(p) for p in points]
    if len(set(ids)) != len(ids):
        raise ValueError("point ids collide when rendered as strings")
    rows, den = space.rows, space.den
    if den is not None:
        matrix: Iterable = _ratio_rows(rows, den)
    else:
        values = distance_matrix(space) if rows is None else rows
        matrix = ([encode_value(v, space.exact) for v in row] for row in values)
        if space.exact:
            matrix = map(",".join, matrix)
    doc: dict[str, Any] = {
        "points": ids,
        "d": matrix,
        "t0": space.t0,
        "arithmetic": "exact" if space.exact else "float",
    }
    if not space.exact:
        doc["tolerance"] = space.tolerance
    if F is not None:
        doc["F"] = {x: F(p) for x, p in zip(ids, points)}
    if gamma is not None:
        doc["gamma"] = gamma_document(gamma)
    if meta is not None:
        doc["meta"] = dict(meta)
    return doc


def _block(opening: str, items: list[str], closing: str, level: int, quote: str = "") -> str:
    """The array or object of ``items``, nonempty, each already encoded and
    written between two ``quote``s, laid out as ``json.dumps(indent=2)``
    lays it out at nesting ``level``."""
    inner = "\n" + "  " * (level + 1)
    body = f"{quote},{inner}{quote}".join(items)
    return f"{opening}{inner}{quote}{body}{quote}\n{'  ' * level}{closing}"


def _strings(items: list[str], level: int) -> str:
    """A nonempty list of strings as ``json.dumps(indent=2)`` lays it out
    at nesting ``level``."""
    plain = "".join(items)
    if len(encode_basestring_ascii(plain)) == len(plain) + 2:
        # No item holds a character to escape.
        return _block("[", items, "]", level, '"')
    return _block("[", list(map(encode_basestring_ascii, items)), "]", level)


def _write_block(
    write: Callable[[str], Any], opening: str, items: Iterable[str], closing: str, level: int
) -> None:
    """Write the array or object of ``items``, a nonempty iterable of
    encoded items, as ``json.dumps(indent=2)`` lays it out at nesting
    ``level``, an item at a time."""
    inner = "\n" + "  " * (level + 1)
    sep = opening + inner
    for item in items:
        write(sep)
        write(item)
        sep = "," + inner
    write(f"\n{'  ' * level}{closing}")


def _write_system(write: Callable[[str], Any], doc: dict[str, Any], texts: dict[str, str]) -> None:
    """Write the :func:`_document` ``doc`` as ``json.dumps(indent=2)``
    lays it out, and a newline.  The ids, each matrix row and each image
    are laid out as they are made: an EXACT row's entries by string
    replaces, a FLOAT row through ``json.dumps``.  Every other field is its
    text in ``texts``, indented one level."""
    exact = doc["arithmetic"] == "exact"

    def row(values: Any) -> str:
        if exact:
            # Entries need no escapes; the commas part them.
            return '[\n      "' + values.replace(",", '",\n      "') + '"\n    ]'
        return json.dumps(values, indent=2, allow_nan=False).replace("\n", "\n    ")

    sep = "{\n  "
    for key, value in doc.items():
        write(f"{sep}{encode_basestring_ascii(key)}: ")
        sep = ",\n  "
        if key == "points":
            write(_strings(value, 1))
        elif key == "d":
            _write_block(write, "[", map(row, value), "]", 1)
        elif key == "F":
            images = (
                f"{encode_basestring_ascii(x)}: {_strings(list(map(str, image)), 2)}"
                for x, image in value.items()
            )
            _write_block(write, "{", images, "}", 1)
        else:
            write(texts[key])
    write("\n}\n")


def load_system(
    path: str | Path, *, force_float: bool = False, default_tolerance: float = DEFAULT_TOLERANCE
) -> System:
    """Read and parse a system document (see :func:`parse_system`); a file
    that cannot be read or decoded, is not JSON, or nests deeper than the
    JSON reader recurses, names ``document``."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError("document", f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("document", f"nested too deeply: {exc}") from exc
    except ValueError as exc:
        # A JSONDecodeError, or a number past the int-string limit.
        raise DocumentError("document", f"invalid JSON: {exc}") from exc
    return parse_system(raw, force_float=force_float, default_tolerance=default_tolerance)


def dump_system(
    path: str | Path,
    space: QSpace,
    F: SetValuedMap | None = None,
    gamma: ComparisonFunction | None = None,
    meta: Mapping[str, Any] | None = None,
) -> None:
    """Write the system's document: the bytes of
    ``json.dumps(doc, indent=2, allow_nan=False)`` and a newline, ``doc``
    being :func:`system_document`'s output, without the text of the whole
    document.  Every field but the point ids, the matrix and the images is
    encoded through ``json.dumps`` before the file is opened, so one it
    refuses (a ``meta``, say) fails as it does there and leaves no file.
    Then the ids, each matrix row and each image are written as they are
    made; a failure among them removes the partial file."""
    doc = _document(space, F, gamma, meta)
    texts = {
        key: json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")
        for key, value in doc.items()
        if key not in ("points", "d", "F")
    }
    path = Path(path)
    with path.open("w", encoding="utf-8") as out:
        try:
            _write_system(out.write, doc, texts)
        except BaseException:
            out.close()
            path.unlink()
            raise


def trace_document(trace: IterationTrace) -> dict[str, Any]:
    """Serialize an iteration trace (EXACT runs use rational strings)."""
    exact = trace.space.exact if trace.space is not None else True
    enc = lambda v: encode_value(v, exact)  # noqa: E731
    return {
        "mode": _meaning(trace.mode)[2],
        "start": str(trace.start),
        "initial_defect": enc(trace.initial_defect),
        "steps": [
            {
                "n": s.n,
                "x": str(s.x),
                "y": str(s.y),
                "d": enc(s.d),
                "gamma_d": enc(s.gamma_d),
                "defect": enc(s.defect),
            }
            for s in trace.steps
        ],
        "outcome": {
            "status": trace.outcome.status.value,
            "point": str(trace.outcome.point),
            "defect": enc(trace.outcome.defect),
            "steps": len(trace.steps),
            "cycle": trace.outcome.cycle,
        },
    }


def dump_trace(path: str | Path, trace: IterationTrace) -> None:
    text = json.dumps(trace_document(trace), indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")
