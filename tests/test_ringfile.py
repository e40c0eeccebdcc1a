"""Ring description documents: parsing, rejection, round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import product_tables
from ringaudit.corpus import DOCUMENTS
from ringaudit.ringfile import RingFileError, document_for, load_ring_file, ring_from_document
from ringaudit.rings import RingAxiomError, make_product, make_zn


def test_zn_document():
    ring = ring_from_document({"kind": "zn", "n": 6})
    assert ring.order == 6
    assert ring.label == "Z_6"


def test_label_override():
    ring = ring_from_document({"kind": "zn", "n": 6, "label": "sixish"})
    assert ring.label == "sixish"


def test_boolean_document():
    ring = ring_from_document({"kind": "boolean", "atoms": 2})
    assert ring.order == 4
    assert all(ring.mul(a, a) == a for a in range(4))


def test_product_document_nested():
    doc = {
        "kind": "product",
        "factors": [{"kind": "zn", "n": 2}, {"kind": "zn", "n": 3}],
    }
    ring = ring_from_document(doc)
    assert ring.order == 6
    assert ring.element_names[ring.one] == "(1,1)"


def test_algebra_document_f4():
    doc = {"kind": "algebra", "p": 2, "basis_names": ["1", "x"], "mul": {"x*x": "1+x"}}
    ring = ring_from_document(doc)
    assert ring.order == 4
    x = 2
    assert ring.mul(x, x) == 3  # 1+x
    # a field: every nonzero element invertible
    assert all(any(ring.mul(a, b) == ring.one for b in range(1, 4)) for a in range(1, 4))


def test_algebra_combo_terms():
    # coefficients reduce mod p; bare numbers hit the unity slot
    doc = {"kind": "algebra", "p": 3, "basis_names": ["1", "x"], "mul": {"x*x": "2x+2"}}
    ring = ring_from_document(doc)
    x = 3  # vector (0,1) little-endian base 3
    assert ring.mul(x, x) == ring.add(ring.mul(2, x), 2)


def test_algebra_rejects_unknown_basis_name():
    doc = {"kind": "algebra", "p": 2, "basis_names": ["1", "x"], "mul": {"x*x": "q"}}
    with pytest.raises(RingFileError):
        ring_from_document(doc)


def test_algebra_rejects_missing_product():
    doc = {"kind": "algebra", "p": 2, "basis_names": ["1", "x", "y"], "mul": {"x*x": "0", "y*y": "0"}}
    with pytest.raises(RingFileError, match="missing the product"):
        ring_from_document(doc)


@pytest.mark.parametrize(
    "names, repeated", [(["1", "x", "x"], "x"), (["1", "x", "1"], "1"), (["1", "y", "x", "y", "x"], "y")],
)
def test_algebra_rejects_repeated_basis_names(names, repeated):
    # refused before the mul map is read, which would otherwise report a
    # missing product for the name that lost its index
    products = {f"{a}*{b}": "0" for a in names[1:] for b in names[1:]}
    doc = {"kind": "algebra", "p": 2, "basis_names": names, "mul": products}
    with pytest.raises(RingFileError) as err:
        ring_from_document(doc)
    assert str(err.value) == f"algebra basis_names must be distinct, {repeated!r} is repeated"


def test_algebra_rejects_conflicting_orders():
    doc = {
        "kind": "algebra",
        "p": 2,
        "basis_names": ["1", "x", "y"],
        "mul": {"x*y": "0", "y*x": "x", "x*x": "0", "y*y": "0"},
    }
    with pytest.raises(RingFileError, match="conflicting"):
        ring_from_document(doc)


def test_algebra_rejects_unity_products():
    doc = {"kind": "algebra", "p": 2, "basis_names": ["1", "x"], "mul": {"1*x": "x", "x*x": "0"}}
    with pytest.raises(RingFileError, match="unity"):
        ring_from_document(doc)


def test_table_document():
    z3 = make_zn(3)
    doc = {
        "kind": "table",
        "order": 3,
        "zero": 0,
        "one": 1,
        "add": z3.add_table.tolist(),
        "mul": z3.mul_table.tolist(),
    }
    ring = ring_from_document(doc)
    assert np.array_equal(ring.add_table, z3.add_table)


def test_table_rejects_out_of_range_entry():
    doc = {
        "kind": "table",
        "order": 2,
        "zero": 0,
        "one": 1,
        "add": [[0, 1], [1, 0]],
        "mul": [[0, 0], [0, 9]],
    }
    with pytest.raises(RingAxiomError) as err:
        ring_from_document(doc)
    assert str(err.value) == "closure(mul): entry [1][1] = 9 out of range"


@pytest.mark.parametrize("zero, one", [(0, 5), (-1, 1)])
def test_table_zero_or_one_out_of_range_is_refused_by_the_ring(zero, one):
    doc = {"kind": "table", "order": 2, "zero": zero, "one": one, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}
    with pytest.raises(ValueError) as err:
        ring_from_document(doc)
    assert str(err.value) == f"zero/one must be int indices in 0..1, got {zero}/{one}"


@pytest.mark.parametrize("cells, message", [
    ({("mul", 1, 1): 9}, "closure(mul): entry [1][1] = 9 out of range"),
    ({("add", 1, 0): -1, ("add", 1, 1): 5}, "closure(add): entry [1][0] = -1 out of range"),
    ({("mul", 0, 1): True}, "mul table cells must be int64 integers, got mul[0][1] = True"),
    ({("add", 0, 0): 0.0}, "add table cells must be int64 integers, got add[0][0] = 0.0"),
    ({("add", 1, 1): "0"}, "add table cells must be int64 integers, got add[1][1] = '0'"),
    ({("add", 0, 1): None, ("mul", 0, 0): 7}, "add table cells must be int64 integers, got add[0][1] = None"),
    ({("mul", 1, 0): 10**30}, f"mul table cells must be int64 integers, got mul[1][0] = {10**30}"),
    ({("mul", 1, 1): -(10**30)}, f"mul table cells must be int64 integers, got mul[1][1] = {-(10**30)}"),
], ids=[
    "mul-1-1-out-of-range", "add-1-0-negative", "mul-0-1-bool", "add-0-0-float", "add-1-1-str", "add-0-1-none",
    "mul-1-0-past-int64", "mul-1-1-below-int64",
])
def test_table_cell_errors_name_the_first_bad_cell(cells, message):
    doc = {"kind": "table", "order": 2, "zero": 0, "one": 1, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}
    for (field, a, b), value in cells.items():
        doc[field][a][b] = value
    with pytest.raises(ValueError) as err:
        ring_from_document(doc)
    assert str(err.value) == message


@st.composite
def mutated_table_documents(draw):
    """A table document of a relabelled product of Z_n with one change, and
    the exact message that must refuse it: one cell set to a value that is
    not an int64 index, one row shortened, or one row replaced by a non-list."""
    factors = draw(st.lists(st.integers(2, 5), min_size=1, max_size=2))
    add, mul, zero, one = product_tables([make_zn(n) for n in factors])
    order = len(add)
    perm = draw(st.permutations(range(order)))
    doc = {"kind": "table", "order": order, "zero": perm[zero], "one": perm[one]}
    for field, table in (("add", add), ("mul", mul)):
        doc[field] = [[0] * order for _ in range(order)]
        for a in range(order):
            for b in range(order):
                doc[field][perm[a]][perm[b]] = perm[table[a][b]]
    field, a = draw(st.sampled_from(("add", "mul"))), draw(st.integers(0, order - 1))
    change = draw(st.sampled_from(("cell", "short row", "non-list row")))
    if change == "cell":
        b = draw(st.integers(0, order - 1))
        value = draw(st.sampled_from((0.0, "1", None, True, 2**70, -1, order)))
        doc[field][a][b] = value
        if value in (-1, order):
            return doc, f"closure({field}): entry [{a}][{b}] = {value} out of range"
        return doc, f"{field} table cells must be int64 integers, got {field}[{a}][{b}] = {value!r}"
    if change == "short row":
        doc[field][a] = doc[field][a][:draw(st.integers(0, order - 1))]
    else:
        doc[field][a] = draw(st.sampled_from((0, None, "0" * order, {"0": 0})))
    return doc, f"{field} table must be {order}x{order}: {order} rows of {order} cells each"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_table_documents())
def test_mutated_table_documents_name_the_bad_cell_or_row(case):
    doc, message = case
    with pytest.raises(ValueError) as err:
        ring_from_document(doc)
    assert str(err.value) == message


def test_table_axiom_violation_names_axiom():
    doc = {
        "kind": "table",
        "order": 3,
        "zero": 0,
        "one": 1,
        "add": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 2]],  # 2*2 should be 1
    }
    with pytest.raises(RingAxiomError):
        ring_from_document(doc)


def test_unknown_kind_rejected():
    with pytest.raises(RingFileError, match="unknown ring kind"):
        ring_from_document({"kind": "group", "n": 3})


def test_missing_field_rejected():
    with pytest.raises(RingFileError, match="missing field"):
        ring_from_document({"kind": "zn"})


def test_document_roundtrip(corpus):
    for label in ("Z_12", "B_3", "Z_2xZ_3", "F_4", "A=F2[x,y]/(x,y)^2"):
        ring = corpus.by_label(label)
        rebuilt = ring_from_document(document_for(ring))
        assert rebuilt.label == ring.label
        assert np.array_equal(rebuilt.add_table, ring.add_table)
        assert np.array_equal(rebuilt.mul_table, ring.mul_table)


def test_named_table_ring_roundtrip():
    z3 = make_zn(3)
    named = ring_from_document({
        "kind": "table", "order": 3, "zero": 0, "one": 1,
        "add": z3.add_table.tolist(), "mul": z3.mul_table.tolist(),
        "element_names": ["o", "e", "f"],
    })
    for ring in (named, make_product([named, make_zn(2)])):
        rebuilt = ring_from_document(document_for(ring))
        assert rebuilt.label == ring.label
        assert rebuilt.element_names == ring.element_names
        assert np.array_equal(rebuilt.add_table, ring.add_table)
        assert np.array_equal(rebuilt.mul_table, ring.mul_table)


def test_a_ring_is_written_back_as_parsed_else_as_its_tables(corpus):
    ring = make_zn(12)
    doc = document_for(ring)
    assert doc["kind"] == "table"
    rebuilt = ring_from_document(doc)
    assert (rebuilt.label, rebuilt.element_names) == (ring.label, ring.element_names)
    assert np.array_equal(rebuilt.add_table, ring.add_table)
    assert np.array_equal(rebuilt.mul_table, ring.mul_table)
    assert document_for(ring_from_document({"kind": "zn", "n": 12})) == {"kind": "zn", "n": 12, "label": "Z_12"}
    # the parser keeps a copy of what it read, not the caller's objects
    before = json.dumps(DOCUMENTS)
    doc = document_for(corpus.by_label("F_4"))
    doc["mul"]["x*x"] = "0"
    doc["basis_names"].append("y")
    assert json.dumps(DOCUMENTS) == before


def test_a_written_back_document_is_the_callers_to_edit():
    algebra = ring_from_document({"kind": "algebra", "p": 2, "basis_names": ["1", "x"], "mul": {"x*x": "0"}})
    product = ring_from_document({"kind": "product", "factors": [{"kind": "zn", "n": 2}, {"kind": "zn", "n": 3}]})
    edits = {algebra: lambda doc: doc["mul"].update({"x*x": "1+x"}), product: lambda doc: doc["factors"][0].update(n=5)}
    for ring, edit in edits.items():
        before = json.dumps(document_for(ring))
        edit(document_for(ring))
        assert json.dumps(document_for(ring)) == before, ring.label
        rebuilt = ring_from_document(document_for(ring))
        assert np.array_equal(rebuilt.add_table, ring.add_table), ring.label
        assert np.array_equal(rebuilt.mul_table, ring.mul_table), ring.label


def test_load_ring_file(tmp_path):
    path = tmp_path / "z8.json"
    path.write_text(json.dumps({"kind": "zn", "n": 8}))
    assert load_ring_file(path).order == 8


def test_load_ring_file_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{kind:")
    with pytest.raises(RingFileError, match="not valid JSON"):
        load_ring_file(path)
