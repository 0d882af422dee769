"""Character-table JSON: ingest user tables, export builtins.

Schema (the version tag is cert.SCHEMA):
{
  "schema": SCHEMA,
  "name": str, "order": int, "exponent": int,
  "classes": [{"size": int, "elt_order": int, "power": {"2": idx, ...}}, ...],
  "irreducibles": [{"dim": int, "values": [[conductor, c0, c1, ...], ...]}, ...]
}
Values are coordinates in the power basis of Z[zeta_conductor]; each
conductor must divide the exponent.  Sizes, element orders, dims and
conductors are integers >= 1 (JSON true is not an integer here), and exactly
one class has element order 1.  Unknown fields are rejected; the table is
fully validated (orthogonality, power maps) on ingest.
"""

from __future__ import annotations

import json

from .cert import SCHEMA, dumps
from .cyclotomic import Cyclo, CyclotomicRing
from .errors import SchemaError
from .repring import CharacterTable

_TOP_KEYS = {"schema", "name", "order", "exponent", "classes", "irreducibles"}
_CLASS_KEYS = {"size", "elt_order", "power"}
_IRR_KEYS = {"dim", "values"}


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _is_int(x) -> bool:
    """A JSON integer: bool is an int subclass in Python, but not one here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _positive(x) -> bool:
    return _is_int(x) and x >= 1


def _read_value(val, e: int, cy: CyclotomicRing, rings: dict):
    """A value [conductor, c0, c1, ...] as an element of cy = Cyclo(e);
    SchemaError, with no path, when it breaks the schema.  rings maps each
    conductor that has passed its check to Cyclo(conductor), so each
    distinct conductor is checked once (a bool, a list or a float is never
    looked up: true must fail, a list is unhashable and 2.0 == 2)."""
    if not (isinstance(val, list) and len(val) >= 2):
        raise SchemaError("[conductor, coeffs...] required")
    conductor = val[0]
    small = rings.get(conductor) if type(conductor) is int else None
    if small is None:
        if not (_positive(conductor) and e % conductor == 0):
            raise SchemaError("conductor must divide the exponent")
        small = rings[conductor] = Cyclo(conductor)
    coeffs = val[1:]
    if len(coeffs) != small.degree:
        raise SchemaError(f"need {small.degree} coordinates for conductor {conductor}")
    if not all(type(c) is int for c in coeffs):
        raise SchemaError("integer coordinates")
    return cy.embed_from(small, tuple(coeffs))


def table_to_dict(table: CharacterTable) -> dict:
    e = table.exponent
    classes = []
    for c in range(table.nclasses):
        power = {
            str(k): table.power_map(k)[c]
            for k in range(2, e)
        }
        classes.append(
            {"size": table.class_sizes[c], "elt_order": table.class_orders[c],
             "power": power}
        )
    irreducibles = []
    for i, row in enumerate(table.rows):
        values = [[e] + list(v) for v in row]
        irreducibles.append({"dim": table.dims[i], "values": values})
    return {
        "schema": SCHEMA,
        "name": table.name,
        "order": table.order,
        "exponent": e,
        "classes": classes,
        "irreducibles": irreducibles,
    }


def table_to_json(table: CharacterTable) -> str:
    return dumps(table_to_dict(table)) + "\n"


def table_from_dict(doc: dict) -> CharacterTable:
    _require(isinstance(doc, dict), "$", "document must be an object")
    extra = set(doc) - _TOP_KEYS
    _require(not extra, "$", f"unknown fields {sorted(extra)}")
    missing = _TOP_KEYS - set(doc)
    _require(not missing, "$", f"missing fields {sorted(missing)}")
    _require(doc["schema"] == SCHEMA, "$.schema", "unsupported schema")
    name = doc["name"]
    order = doc["order"]
    e = doc["exponent"]
    _require(_positive(order), "$.order", "positive integer required")
    _require(_positive(e), "$.exponent", "positive integer required")

    classes = doc["classes"]
    _require(isinstance(classes, list) and classes, "$.classes", "nonempty list required")
    sizes, orders = [], []
    nclasses = len(classes)
    power_maps: dict[int, list[int]] = {}
    for ci, cls in enumerate(classes):
        path = f"$.classes[{ci}]"
        _require(isinstance(cls, dict), path, "object required")
        extra = set(cls) - _CLASS_KEYS
        _require(not extra, path, f"unknown fields {sorted(extra)}")
        _require(_CLASS_KEYS <= set(cls), path, "size, elt_order, power required")
        for key in ("size", "elt_order"):
            _require(_positive(cls[key]), f"{path}.{key}", "positive integer required")
        _require(cls["elt_order"] != 1 or 1 not in orders, f"{path}.elt_order",
                 "a second class of element order 1")
        sizes.append(cls["size"])
        orders.append(cls["elt_order"])
        power = cls["power"]
        _require(isinstance(power, dict), f"{path}.power", "object required")
        # exponents 2..e-1 are looked up while present, so nothing of size e
        # is built before the object shows e - 2 keys
        k = 2
        while k < e and str(k) in power:
            idx = power[str(k)]
            _require(_is_int(idx) and 0 <= idx < nclasses,
                     f"{path}.power.{k}", "class index out of range")
            power_maps.setdefault(k, []).append(idx)
            k += 1
        _require(k >= e, f"{path}.power", f"missing exponent {k}")
        extra_pows = set(power) - {str(k) for k in range(2, e)}
        _require(not extra_pows, f"{path}.power", f"unknown exponents {sorted(extra_pows)}")
    _require(1 in orders, "$.classes", "no class of element order 1")
    identity = orders.index(1)

    irr = doc["irreducibles"]
    _require(isinstance(irr, list) and len(irr) == nclasses,
             "$.irreducibles", "need one irreducible per class")
    cy = Cyclo(e)
    rings: dict[int, CyclotomicRing] = {}
    rows = []
    for ii, item in enumerate(irr):
        path = f"$.irreducibles[{ii}]"
        _require(isinstance(item, dict), path, "object required")
        extra = set(item) - _IRR_KEYS
        _require(not extra, path, f"unknown fields {sorted(extra)}")
        _require(_IRR_KEYS <= set(item), path, "dim and values required")
        values = item["values"]
        _require(isinstance(values, list) and len(values) == nclasses,
                 f"{path}.values", "need one value per class")
        row = []
        for vi, val in enumerate(values):
            try:
                row.append(_read_value(val, e, cy, rings))
            except SchemaError as exc:
                raise SchemaError(f"{path}.values[{vi}]: {exc}") from None
        _require(_positive(item["dim"]), f"{path}.dim", "positive integer required")
        _require(row[identity] == cy.from_int(item["dim"]), f"{path}.dim",
                 "dim disagrees with the identity value")
        rows.append(row)
    # NotACharacterTable propagates as the validation verdict
    return CharacterTable(name, order, e, sizes, orders, power_maps, rows)


def table_from_json(text: str) -> CharacterTable:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return table_from_dict(doc)


def ingest_table(path: str) -> CharacterTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read table: {exc}") from exc
    return table_from_json(text)
