"""JSON interchange for fields, matrices, subspaces, and algebra maps.

Formats (all exact, text-based scalars):

* field:     {"kind": "Q"} | {"kind": "GF", "p": 5}
             | {"kind": "GFext", "p": 2, "m": 2, "modulus": [1, 1, 1]}
* scalar:    rationals "a/b" or "a"; prime fields a decimal residue;
             extension fields "[c0,c1,...]" in ascending degree; an
             entry is a JSON string, or a JSON integer read as its text
* matrix:    {"field": ..., "rows": r, "cols": c,
              "entries": [[scalar, ...], ...]}  (row-major)
* subspace:  {"ambient": {"field": ..., "rows": r, "cols": c},
              "basis": [matrix, ...]}  (canonical on output; any
             generating set accepted on input)
* twist:     {"kind": "identity"} | {"kind": "frobenius", "e": 1}
* map:       {"n": ..., "field": ..., "twist": ...,
              "images": {"i,j": matrix, ...}}

Sizes (``rows``, ``cols``, ``n``), field parameters (``p``, ``m``, the
``modulus`` coefficients) and the twist power ``e`` must be JSON integers.
Schema violations raise :class:`MalformedJSON`, and so does an input file
longer than ``MAX_INPUT_CHARS``.

A map document loads in two forms.  ``unparsed_map_from_json`` checks its
structure and keeps the image rows as read, as an :class:`UnparsedMap`,
which parses an image the first time it is read; ``recover`` takes it,
parses only the generator images and certifies the other rows on their
texts.  ``algebra_map_from_json`` is the same loader with every image
parsed.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from .errors import ENUMERATION_GUARD, DimensionMismatch, MalformedJSON
from .fields import ExtensionField, Field, FieldAutomorphism, PrimeField, Rationals
from .matrices import Matrix
from .recovery import AlgebraMap
from .subspaces import Subspace


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise MalformedJSON(msg)


def _integer(value: Any, what: str) -> int:
    """``value`` if it is a JSON integer, and not a bool."""
    _expect(
        isinstance(value, int) and not isinstance(value, bool),
        f"{what} must be an integer, got {value!r}",
    )
    return value


def _size(obj: dict, key: str) -> int:
    return _integer(obj[key], repr(key))


def loads(text: str) -> Any:
    # ValueError: bad syntax or an int past the digit limit; RecursionError: deep nesting
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedJSON(f"invalid JSON: {exc}") from exc


# The longest input read, in characters: ENUMERATION_GUARD scalars, the most
# a matrix (n^2) or a map preset (n^4) may hold, at 128 characters of JSON
# text each (a dense n = 16 map over Q spends 39).  A longer input, or a path
# that never ends such as /dev/zero, is refused after that many.
MAX_INPUT_CHARS = 128 * ENUMERATION_GUARD


def load_path(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_INPUT_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedJSON(f"cannot read input: {exc}") from exc
    _expect(
        len(text) <= MAX_INPUT_CHARS,
        f"cannot read input: longer than {MAX_INPUT_CHARS} characters",
    )
    return loads(text)


# -- fields -------------------------------------------------------------------

def field_to_json(field: Field) -> dict:
    if isinstance(field, Rationals):
        return {"kind": "Q"}
    if isinstance(field, PrimeField):
        return {"kind": "GF", "p": field.p}
    if isinstance(field, ExtensionField):
        return {
            "kind": "GFext",
            "p": field.p,
            "m": field.m,
            "modulus": list(field.modulus),
        }
    raise MalformedJSON(f"unknown field type {type(field).__name__}")


def field_from_json(obj: Any) -> Field:
    _expect(isinstance(obj, dict) and "kind" in obj, "field must be an object with 'kind'")
    kind = obj["kind"]
    try:
        if kind == "Q":
            return Rationals()
        if kind == "GF":
            return PrimeField(_size(obj, "p"))
        if kind == "GFext":
            modulus = obj.get("modulus")
            _expect(modulus is None or isinstance(modulus, list), "'modulus' must be a list")
            return ExtensionField(
                _size(obj, "p"),
                _size(obj, "m"),
                None if modulus is None else [_integer(c, "modulus coefficient") for c in modulus],
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJSON(f"bad field descriptor: {exc}") from exc
    raise MalformedJSON(f"unknown field kind {kind!r}")


def parse_field_flag(text: str) -> Field:
    """CLI shorthand: q | gf:p | gfext:p:m[:c0,c1,...,cm]."""
    parts = text.strip().lower().split(":")
    try:
        if parts[0] == "q" and len(parts) == 1:
            return Rationals()
        if parts[0] == "gf" and len(parts) == 2:
            return PrimeField(int(parts[1]))
        if parts[0] == "gfext" and len(parts) in (3, 4):
            modulus = None
            if len(parts) == 4:
                modulus = [int(c) for c in parts[3].split(",")]
            return ExtensionField(int(parts[1]), int(parts[2]), modulus)
    except ValueError as exc:
        raise MalformedJSON(f"bad field flag {text!r}: {exc}") from exc
    raise MalformedJSON(f"bad field flag {text!r}")


# -- automorphisms --------------------------------------------------------------

def automorphism_to_json(f: FieldAutomorphism) -> dict:
    if f.kind == "identity":
        return {"kind": "identity"}
    return {"kind": "frobenius", "e": f.power}


def automorphism_from_json(obj: Any) -> FieldAutomorphism:
    if obj is None:
        return FieldAutomorphism.identity()
    _expect(isinstance(obj, dict) and "kind" in obj, "twist must be an object with 'kind'")
    if obj["kind"] == "identity":
        return FieldAutomorphism.identity()
    if obj["kind"] == "frobenius":
        try:
            return FieldAutomorphism.frobenius(_size(obj, "e"))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedJSON(f"bad frobenius twist: {exc}") from exc
    raise MalformedJSON(f"unknown twist kind {obj['kind']!r}")


# -- matrices -------------------------------------------------------------------

def matrix_to_json(m: Matrix) -> dict:
    fmt = m.field.format_scalar
    return {
        "field": field_to_json(m.field),
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [[fmt(a) for a in row] for row in m.entries],
    }


def _grid(obj: Any) -> tuple[int, int, list[list]]:
    """The shape and the row lists of a matrix object.  Checks the grid;
    parses nothing."""
    _expect(isinstance(obj, dict), "matrix must be an object")
    try:
        entries = obj["entries"]
        rows = _size(obj, "rows") if "rows" in obj else len(entries)
        cols = _size(obj, "cols") if "cols" in obj else None
    except (KeyError, TypeError) as exc:
        raise MalformedJSON(f"bad matrix object: {exc}") from exc
    _expect(
        isinstance(entries, list) and len(entries) == rows, "entry grid does not match 'rows'"
    )
    _expect(rows > 0, "entry grid is empty: a matrix needs at least one row")
    if cols is None:
        _expect(isinstance(entries[0], list), "entry grid does not match 'cols'")
        cols = len(entries[0])
    _expect(
        all(isinstance(row, list) and len(row) == cols for row in entries),
        "entry grid does not match 'cols'",
    )
    if not cols:
        raise DimensionMismatch("matrices must have positive dimensions")
    return rows, cols, entries


def _text(value: Any) -> str:
    """The text of an entry that is not a JSON string; only an integer has one."""
    _expect(type(value) is int, f"entry must be a string or an integer, got {value!r}")
    return str(value)


def _parse(field: Field, rows: Iterable[list]) -> list:
    """The raw values of every entry of the checked rows, in order."""
    texts = [v if type(v) is str else _text(v) for row in rows for v in row]
    try:
        return field.parse_scalars(texts)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise MalformedJSON(f"bad scalar text: {exc}") from exc


def _matrices(field: Field, rows: int, cols: int, values: list) -> list[Matrix]:
    """Consecutive rows x cols matrices with these row-major raw values."""
    grid = list(zip(*[iter(values)] * cols))  # tuples of cols consecutive values
    # parse_scalars already returns canonical raw values
    return [Matrix._make(field, tuple(grid[k:k + rows])) for k in range(0, len(grid), rows)]


def matrix_from_json(obj: Any, field: Field | None = None) -> Matrix:
    _expect(isinstance(obj, dict), "matrix must be an object")
    if field is None:
        _expect("field" in obj, "matrix needs a 'field'")
        field = field_from_json(obj["field"])
    rows, cols, entries = _grid(obj)
    return _matrices(field, rows, cols, _parse(field, entries))[0]


def matrix_list_from_json(obj: Any) -> list[Matrix]:
    _expect(isinstance(obj, list) and obj, "expected a nonempty JSON array of matrices")
    return [matrix_from_json(entry) for entry in obj]


# -- subspaces ---------------------------------------------------------------------

def subspace_to_json(s: Subspace) -> dict:
    return {
        "ambient": {
            "field": field_to_json(s.field),
            "rows": s.shape[0],
            "cols": s.shape[1],
        },
        "basis": [matrix_to_json(b) for b in s.basis],
    }


def subspace_from_json(obj: Any) -> Subspace:
    _expect(isinstance(obj, dict) and "ambient" in obj, "subspace needs an 'ambient'")
    amb = obj["ambient"]
    _expect(isinstance(amb, dict), "'ambient' must be an object")
    try:
        field = field_from_json(amb["field"])
        shape = (_size(amb, "rows"), _size(amb, "cols"))
    except KeyError as exc:
        raise MalformedJSON(f"bad ambient: {exc}") from exc
    _expect(shape[0] > 0 and shape[1] > 0, f"ambient sizes must be positive, got {shape}")
    basis = obj.get("basis", [])
    _expect(isinstance(basis, list), "'basis' must be a list")
    gens = [matrix_from_json(b, field) for b in basis]
    return Subspace.span(gens, field=field, shape=shape)


# -- algebra maps ---------------------------------------------------------------------

def algebra_map_to_json(m: AlgebraMap) -> dict:
    return {
        "n": m.n,
        "field": field_to_json(m.field),
        "twist": automorphism_to_json(m.twist),
        "images": {
            f"{i},{j}": matrix_to_json(m.image(i, j))
            for i in range(1, m.n + 1)
            for j in range(1, m.n + 1)
        },
    }


class UnparsedMap:
    """A map document as read: the field, the twist and, per unit in table
    order, the grid of its image, rows of JSON values as decoded.  ``image``
    parses an image the first time it is read; ``parsed`` parses the others,
    in document order, into the :class:`AlgebraMap`, which checks the twist
    against the field (``recover`` checks it first)."""

    __slots__ = ("n", "field", "twist", "grids", "_images")

    def __init__(self, n: int, field: Field, twist: FieldAutomorphism, grids: list[list[list]]):
        self.n, self.field, self.twist, self.grids = n, field, twist, grids
        self._images: list[Matrix | None] = [None] * len(grids)

    def image(self, i: int, j: int) -> Matrix:
        """The image of E(i, j), 1-based, parsed the first time it is read."""
        n, k = self.n, (i - 1) * self.n + (j - 1)
        if self._images[k] is None:
            self._images[k] = _matrices(self.field, n, n, _parse(self.field, self.grids[k]))[0]
        return self._images[k]

    def parse_row(self, row: list) -> list:
        """The raw values of one image row."""
        return _parse(self.field, [row])

    def parsed(self) -> AlgebraMap:
        """The map, with the images not read yet parsed in one
        ``parse_scalars`` call: the first bad scalar text of the document
        raises."""
        todo = [k for k, image in enumerate(self._images) if image is None]
        values = _parse(self.field, [row for k in todo for row in self.grids[k]])
        for k, image in zip(todo, _matrices(self.field, self.n, self.n, values)):
            self._images[k] = image
        return AlgebraMap(self.n, self.field, tuple(self._images), self.twist)


def unparsed_map_from_json(obj: Any) -> UnparsedMap:
    """Every image grid is checked, and no scalar is parsed.  The image
    keys must be exactly the n^2 units "i,j"."""
    _expect(isinstance(obj, dict), "map must be an object")
    try:
        n = _size(obj, "n")
        field = field_from_json(obj["field"])
    except KeyError as exc:
        raise MalformedJSON(f"bad map object: {exc}") from exc
    _expect(n > 0, f"map size n must be positive, got {n}")
    twist = automorphism_from_json(obj.get("twist"))
    raw_images = obj.get("images")
    _expect(isinstance(raw_images, dict), "map needs an 'images' object")
    grids = {}  # keyed one unit at a time, so a missing unit fails at once
    for key in (f"{i},{j}" for i in range(1, n + 1) for j in range(1, n + 1)):
        _expect(key in raw_images, f"missing image for unit {key}")
        rows, cols, entries = _grid(raw_images[key])
        _expect(rows == n and cols == n, f"image {key} is not {n}x{n}")
        grids[key] = entries
    extra = next((k for k in raw_images if k not in grids), None)
    _expect(extra is None, f"unexpected image {extra!r}: not a unit of a map with n = {n}")
    return UnparsedMap(n, field, twist, list(grids.values()))


def algebra_map_from_json(obj: Any) -> AlgebraMap:
    """``unparsed_map_from_json`` with every image parsed: every image grid
    is checked before any scalar is parsed, and the scalars of all images
    are parsed in one ``parse_scalars`` call."""
    return unparsed_map_from_json(obj).parsed()
