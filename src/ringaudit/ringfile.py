"""Ring description files: JSON documents with a "kind" discriminator.

Five kinds are accepted (zn, boolean, product, algebra, table); the exact
field names are fixed in docs/ring_format.md. A file is untrusted input, and
this module checks only what the format knows: the kind, that each field is
present and has its JSON type, that no ring has more than MAX_ORDER elements
before any table is built, the algebra basis-name grammar, and that
element_names is a list of strings. Every other rule belongs to the
constructor a document goes to (make_zn, make_boolean, make_product,
make_algebra, FiniteRing), which checks it once and names the value it
refuses; a document that breaks an axiom fails with the axiom named. zn,
boolean and product tables are rings by construction and go unchecked.

This module is the only one that knows the format. Each ring it builds
keeps the document it was parsed from, for document_for to write back; a
ring built by calling a constructor directly keeps none and is written back
as a table document.
"""

from __future__ import annotations

import copy
import json
import re
from math import prod
from pathlib import Path

from .rings import FiniteRing, make_algebra, make_boolean, make_product, make_zn

__all__ = ["MAX_ORDER", "RING_KINDS", "RingFileError", "document_for", "load_ring_file", "ring_from_document"]

RING_KINDS = ("zn", "boolean", "product", "algebra", "table")

MAX_ORDER = 2048  # largest ring a file may describe; tables take O(order^2) memory

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")  # a non-unity basis name
_TERM = re.compile(rf"^(\d+)?({_NAME.pattern})?$")


class RingFileError(ValueError):
    """A ring description document is malformed."""


def _require(doc: dict, field: str, kind: str):
    if field not in doc:
        raise RingFileError(f"{kind} document is missing field {field!r}")
    return doc[field]


def _int_field(doc: dict, field: str, kind: str) -> int:
    value = _require(doc, field, kind)
    if not isinstance(value, int) or isinstance(value, bool):
        raise RingFileError(f"{kind} field {field!r} must be an integer")
    return value


def _check_order(what: str, base: int, exponent: int = 1) -> None:
    """Reject order base**exponent over MAX_ORDER, multiplying only until it passes."""
    order = 1
    for _ in range(exponent):
        order *= base
        if order > MAX_ORDER:
            shown = base if exponent == 1 else f"{base}**{exponent}"
            raise RingFileError(f"{what}: order {shown} exceeds MAX_ORDER = {MAX_ORDER}")


def _parse_combo(text: str, basis_names, p: int, where: str) -> list[int]:
    """Parse a Z_p combination like "1+x", "2x" or "0" over the basis."""
    vec = [0] * len(basis_names)
    body = text.replace(" ", "")
    if body == "0":
        return vec
    index = {name: i for i, name in enumerate(basis_names)}
    for term in body.split("+"):
        m = _TERM.match(term)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise RingFileError(f"bad combination term {term!r} in {where}")
        coeff = int(m.group(1)) if m.group(1) else 1
        name = m.group(2)
        if name is None:
            pos = 0  # a bare number is a multiple of the unity basis element
        elif name in index:
            pos = index[name]
        else:
            raise RingFileError(f"unknown basis name {name!r} in {where}")
        vec[pos] = (vec[pos] + coeff) % p
    return vec


def _algebra_from_document(doc: dict) -> tuple[FiniteRing, dict]:
    p = _int_field(doc, "p", "algebra")
    basis_names = _require(doc, "basis_names", "algebra")
    if not isinstance(basis_names, list):
        raise RingFileError("algebra basis_names must be a list")
    if not all(isinstance(name, str) for name in basis_names):
        raise RingFileError("algebra basis_names must be strings")
    for name in basis_names[1:]:
        # element names such as "1+2x" must read back as combinations
        if not _NAME.fullmatch(name):
            raise RingFileError(f"algebra basis name {name!r} must match {_NAME.pattern}")
    dim = len(basis_names)
    _check_order("algebra ring", p, dim)
    mul_map = _require(doc, "mul", "algebra")
    if not isinstance(mul_map, dict):
        raise RingFileError("algebra mul must be a map of \"a*b\" keys")

    parsed: dict[tuple[int, int], list[int]] = {}
    index = {name: i for i, name in enumerate(basis_names)}
    for key, combo in mul_map.items():
        parts = key.replace(" ", "").split("*")
        if len(parts) != 2 or parts[0] not in index or parts[1] not in index:
            raise RingFileError(f"bad mul key {key!r}; expected \"<basis>*<basis>\"")
        i, j = sorted((index[parts[0]], index[parts[1]]))
        if i == 0:
            raise RingFileError(f"mul key {key!r} involves the unity basis element; those products are implied")
        vec = _parse_combo(str(combo), basis_names, p, f"mul[{key!r}]")
        if (i, j) in parsed and parsed[(i, j)] != vec:
            raise RingFileError(f"conflicting products for basis pair in keys including {key!r}")
        parsed[(i, j)] = vec

    for i in range(1, dim):
        for j in range(i, dim):
            if (i, j) not in parsed:
                raise RingFileError(
                    f"algebra mul map is missing the product {basis_names[i]}*{basis_names[j]}"
                )
    ring = make_algebra(p, dim, _sc_with_unity(dim, parsed), basis_names=basis_names, label=doc.get("label"))
    return ring, {"kind": "algebra", "p": p, "basis_names": list(basis_names), "mul": dict(mul_map)}


def _sc_with_unity(dim: int, entries: dict) -> list:
    """Structure constants with slot 0 as unity; entries maps (i, j) with
    1 <= i <= j to the coefficient vector of e_i * e_j."""
    sc = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for j in range(dim):
        sc[0][j][j] = 1
        sc[j][0][j] = 1
    for (i, j), vec in entries.items():
        sc[i][j] = list(vec)
        sc[j][i] = list(vec)
    return sc


def _table_from_document(doc: dict) -> FiniteRing:
    order = _int_field(doc, "order", "table")
    _check_order("table ring", order)
    names = doc.get("element_names")
    if "element_names" in doc and not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise RingFileError("table element_names must be a list of strings")
    return FiniteRing(
        order, _require(doc, "add", "table"), _require(doc, "mul", "table"),
        _require(doc, "zero", "table"), _require(doc, "one", "table"),
        label=doc.get("label"), element_names=names,
    )


def ring_from_document(doc: dict) -> FiniteRing:
    """Build a validated ring from a parsed document.

    The ring keeps the document it was built from, minus the label, as
    ring.source, which document_for writes back. A table ring keeps none,
    since its tables are the document, and so does a product with a factor
    that keeps none."""
    if not isinstance(doc, dict):
        raise RingFileError("ring document must be a JSON object")
    if not isinstance(doc.get("label", ""), str):
        raise RingFileError("ring document label must be a string")
    kind, label = doc.get("kind"), doc.get("label")
    if kind == "zn":
        n = _int_field(doc, "n", "zn")
        _check_order("zn ring", n)
        ring, source = make_zn(n, label=label), {"kind": "zn", "n": n}
    elif kind == "boolean":
        atoms = _int_field(doc, "atoms", "boolean")
        _check_order("boolean ring", 2, atoms)
        ring, source = make_boolean(atoms, label=label), {"kind": "boolean", "atoms": atoms}
    elif kind == "product":
        factors = _require(doc, "factors", "product")
        if not isinstance(factors, list):
            raise RingFileError("product factors must be a list")
        rings = []
        for f in factors:  # stop at the first factor that passes the limit
            rings.append(ring_from_document(f))
            _check_order(f"product ring, first {len(rings)} factors", prod(r.order for r in rings))
        ring, source = make_product(rings, label=label), None
        if all(r.source is not None for r in rings):
            source = {"kind": "product", "factors": [r.source for r in rings]}
    elif kind == "algebra":
        ring, source = _algebra_from_document(doc)
    elif kind == "table":
        ring, source = _table_from_document(doc), None
    else:
        raise RingFileError(f"unknown ring kind {kind!r}; expected one of {', '.join(RING_KINDS)}")
    ring.source = source
    return ring


def load_ring_file(path) -> FiniteRing:
    """Read one JSON ring document from disk."""
    text = Path(path).read_text()
    try:
        return ring_from_document(json.loads(text))
    except json.JSONDecodeError as exc:
        raise RingFileError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:  # from json.loads, or from the product factors
        raise RingFileError(f"{path}: document is nested too deeply") from exc


def document_for(ring: FiniteRing) -> dict:
    """A document that reconstructs the ring: a copy of the one it was
    parsed from, else a table document of its tables and element names."""
    if ring.source is not None:
        doc = copy.deepcopy(ring.source)  # the caller may edit it
    else:
        doc = {
            "kind": "table",
            "order": ring.order,
            "zero": ring.zero,
            "one": ring.one,
            "add": ring.add_table.tolist(),
            "mul": ring.mul_table.tolist(),
            "element_names": list(ring.element_names),
        }
    doc["label"] = ring.label
    return doc
