"""Ring constructors, the axiom validator, and element arithmetic."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import algebra_tables, product_tables, slice_loop_validate
from _strategies import fp_structure_constants
from ringaudit import rings, ringfile
from ringaudit.corpus import default_corpus
from ringaudit.ideals import principal_ideal
from ringaudit.quotients import quotient_ring
from ringaudit.ringfile import load_ring_file, ring_from_document
from ringaudit.rings import (
    FiniteRing,
    RingAxiomError,
    additive_order,
    is_prime_int,
    make_algebra,
    make_boolean,
    make_product,
    make_table_ring,
    make_zn,
    validate_tables,
)


def _sc_with_unity(dim, entries):
    sc = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for j in range(dim):
        sc[0][j][j] = 1
        sc[j][0][j] = 1
    for (i, j), vec in entries.items():
        sc[i][j] = list(vec)
        sc[j][i] = list(vec)
    return sc


# === exhaustive axiom oracle ===
# re-checks the laws with plain loops, independent of validate_tables

def assert_ring_axioms(ring):
    n = ring.order
    for a in range(n):
        assert ring.add(ring.zero, a) == a
        assert ring.mul(ring.one, a) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        for b in range(n):
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
            for c in range(n):
                assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
                assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
                assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.zero != ring.one


@pytest.mark.parametrize("build", [
    lambda: make_zn(6),
    lambda: make_boolean(2),
    lambda: make_product([make_zn(2), make_zn(3)]),
    lambda: make_algebra(2, 3, _sc_with_unity(3, {(1, 1): (0, 0, 0), (1, 2): (0, 0, 0), (2, 2): (0, 0, 0)})),
])
def test_axioms_hold_exhaustively(build):
    assert_ring_axioms(build())


def test_make_zn_arithmetic():
    z6 = make_zn(6)
    assert z6.order == 6
    assert z6.zero == 0 and z6.one == 1
    assert z6.add(4, 5) == 3
    assert z6.mul(2, 3) == 0
    assert z6.neg(2) == 4
    assert z6.pow(2, 3) == 2
    z12 = make_zn(12)
    assert z12.pow(6, 2) == 0


def test_make_zn_rejects_zero_ring():
    for n in (1, 0, -3):
        with pytest.raises(ValueError):
            make_zn(n)


def test_additive_orders_in_zn():
    for n in (2, 5, 12, 16, 30):
        ring = make_zn(n)
        for k in range(n):
            assert additive_order(ring, k) == n // math.gcd(n, k)


def test_make_boolean_structure():
    b3 = make_boolean(3)
    assert b3.order == 8
    assert b3.zero == 0 and b3.one == 7
    # every element idempotent
    assert all(b3.mul(a, a) == a for a in range(8))
    assert b3.element_names[0] == "{}"
    assert b3.element_names[3] == "{1,2}"


def test_make_boolean_one_atom_is_z2():
    b1 = make_boolean(1)
    z2 = make_zn(2)
    assert np.array_equal(b1.add_table, z2.add_table)
    assert np.array_equal(b1.mul_table, z2.mul_table)
    assert (b1.zero, b1.one) == (z2.zero, z2.one)


def test_make_boolean_rejects_zero_atoms():
    with pytest.raises(ValueError):
        make_boolean(0)


def test_make_product_basics():
    prod = make_product([make_zn(2), make_zn(3)])
    assert prod.order == 6
    assert prod.label == "Z_2xZ_3"
    assert prod.element_names[prod.one] == "(1,1)"
    assert prod.element_names[prod.zero] == "(0,0)"
    # all idempotent in a product of booleans
    bb = make_product([make_boolean(1), make_boolean(1)])
    assert all(bb.mul(a, a) == a for a in range(bb.order))


@pytest.mark.parametrize("n,m", [(2, 2), (2, 4), (3, 5), (4, 9)])
def test_product_order_multiplies(n, m):
    assert make_product([make_zn(n), make_zn(m)]).order == n * m


def test_make_product_rejects_empty():
    with pytest.raises(ValueError):
        make_product([])


def test_make_algebra_names_and_unity():
    a = make_algebra(
        2, 3,
        _sc_with_unity(3, {(1, 1): (0, 0, 0), (1, 2): (0, 0, 0), (2, 2): (0, 0, 0)}),
        basis_names=("1", "x", "y"),
    )
    assert a.order == 8
    assert a.element_names == ("0", "1", "x", "1+x", "y", "1+y", "x+y", "1+x+y")
    assert a.zero == 0 and a.one == 1
    x, y = 2, 4
    assert a.mul(x, x) == 0
    assert a.mul(x, y) == 0
    assert a.add(x, y) == 6  # x+y


def test_make_algebra_idempotent_generator():
    # x^2 = x splits the algebra; still a perfectly valid ring
    ring = make_algebra(2, 2, _sc_with_unity(2, {(1, 1): (0, 1)}))
    assert_ring_axioms(ring)


def test_make_algebra_rejects_nonassociative_constants():
    # x*x = y, y*y = x: then (xx)y = y^2 = x but x(xy) = 0
    sc = _sc_with_unity(3, {(1, 1): (0, 0, 1), (1, 2): (0, 0, 0), (2, 2): (0, 1, 0)})
    with pytest.raises(RingAxiomError) as err:
        make_algebra(2, 3, sc)
    assert err.value.axiom == "associativity(mul)"
    assert len(err.value.witness) == 3


def test_make_algebra_requires_prime_p():
    for p in (4, 6, 1):
        with pytest.raises(ValueError):
            make_algebra(p, 2, _sc_with_unity(2, {(1, 1): (0, 0)}))


def test_table_ring_roundtrip_and_corruption():
    z3 = make_zn(3)
    add = z3.add_table.tolist()
    mul = z3.mul_table.tolist()
    ok = make_table_ring(3, add, mul, 0, 1)
    assert ok.order == 3

    bad_mul = [row[:] for row in mul]
    bad_mul[2][2] = 2  # should be 1
    with pytest.raises(RingAxiomError) as err:
        make_table_ring(3, add, bad_mul, 0, 1)
    assert err.value.axiom in ("associativity(mul)", "distributivity", "commutativity(mul)")


def test_table_ring_rejects_one_equal_zero():
    z2 = make_zn(2)
    with pytest.raises(RingAxiomError) as err:
        make_table_ring(2, z2.add_table.tolist(), z2.mul_table.tolist(), 0, 0)
    assert err.value.axiom == "nonzero-unity"


def test_table_ring_rejects_out_of_range():
    with pytest.raises(RingAxiomError) as err:
        make_table_ring(2, [[0, 1], [1, 5]], [[0, 0], [0, 1]], 0, 1)
    assert err.value.axiom == "closure(add)"


def test_missing_additive_inverse_is_named():
    # min/max on {0,1}: no inverse for 1 under "add"=max
    with pytest.raises(RingAxiomError) as err:
        FiniteRing(2, [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1)
    assert err.value.axiom == "additive-inverse"


# messages pinned from the slice-at-a-time validator before it searched for a
# witness only in failing slices: first failing a, then axiom, then (b, c)
CORRUPTED = [
    ("Z_6 mul[2][3]=1", lambda: make_zn(6), "mul", (2, 3, 1), "axiom associativity(mul) violated at (2, 2, 3)"),
    ("Z_5 add[1][2]=4", lambda: make_zn(5), "add", (1, 2, 4), "axiom associativity(add) violated at (1, 1, 2)"),
    ("Z_12 mul[5][7]=0", lambda: make_zn(12), "mul", (5, 7, 0), "axiom associativity(mul) violated at (2, 5, 7)"),
    ("Z_9 add[4][4]=0", lambda: make_zn(9), "add", (4, 4, 0), "axiom associativity(add) violated at (1, 3, 4)"),
    ("Z_10 add[3][8]=0", lambda: make_zn(10), "add", (3, 8, 0), "axiom associativity(add) violated at (1, 2, 8)"),
    ("Z_3 mul[2][2]=2", lambda: make_zn(3), "mul", (2, 2, 2), "axiom distributivity violated at (2, 1, 1)"),
    ("B_3 mul[3][5]=7", lambda: make_boolean(3), "mul", (3, 5, 7), "axiom associativity(mul) violated at (2, 3, 5)"),
    ("Z_2xZ_4 add[6][6]=1", lambda: make_product([make_zn(2), make_zn(4)]), "add", (6, 6, 1),
     "axiom additive-inverse violated at (6,)"),
]


@pytest.mark.parametrize(
    "build, which, cell, message", [c[1:] for c in CORRUPTED], ids=[c[0] for c in CORRUPTED],
)
def test_corrupted_table_messages_are_pinned(build, which, cell, message):
    ring = build()
    tables = {"add": ring.add_table.copy(), "mul": ring.mul_table.copy()}
    a, b, value = cell
    tables[which][a, b] = tables[which][b, a] = value
    with pytest.raises(RingAxiomError) as err:
        FiniteRing(ring.order, tables["add"], tables["mul"], ring.zero, ring.one)
    assert str(err.value) == message


def test_element_arith_range_checks():
    z6 = make_zn(6)
    with pytest.raises(ValueError):
        z6.add(-1, 0)
    with pytest.raises(ValueError):
        z6.mul(0, 6)
    with pytest.raises(ValueError):
        z6.pow(2, 0)


def test_tables_are_readonly():
    z6 = make_zn(6)
    with pytest.raises(ValueError):
        z6.add_table[0, 0] = 1


def test_a_ring_holds_only_its_two_tables():
    tracemalloc.start()
    try:
        ring = make_zn(1024)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two 1024x1024 int64 tables take 16 MiB; a per-cell Python copy of
    # either would add tens of MiB more
    assert ring.order == 1024
    assert retained < 24 * 2**20


@pytest.mark.parametrize(
    "build", [lambda: make_boolean(10), lambda: make_product([make_zn(4)] * 5)], ids=["B_10", "Z_4^5"],
)
def test_constructor_tables_are_kept_not_copied(build):
    tracemalloc.start()
    try:
        ring = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two tables and the temporaries that build them; a copy of both
    # tables on top of that reaches four tables
    assert peak < 3.5 * ring.add_table.nbytes


def _peak_tables(build) -> float:
    """tracemalloc peak of build(), in tables of the ring it returns."""
    tracemalloc.start()
    try:
        ring = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / ring.add_table.nbytes


@pytest.mark.parametrize(
    "build", [lambda: make_zn(2048), lambda: make_product([make_zn(4)] * 5)], ids=["Z_2048", "Z_4^5"],
)
def test_zn_and_product_tables_are_built_in_place(build):
    # the two tables and factor-sized temporaries; one table-sized
    # temporary on top of them reaches three tables
    assert _peak_tables(build) < 2.5


def test_make_algebra_builds_its_tables_one_digit_at_a_time():
    # F_2[x]/(x^9), 512 elements: order x order x dim temporaries reach 19
    # tables; the digit build and the axiom check stay under 10
    dim = 9
    sc = [[[int(i + j == k) for k in range(dim)] for j in range(dim)] for i in range(dim)]
    names = ["1"] + [f"x{i}" for i in range(1, dim)]
    assert _peak_tables(lambda: make_algebra(2, dim, sc, basis_names=names)) < 10


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(fp_structure_constants())
def test_make_algebra_matches_the_einsum_build(constants):
    p, dim, sc = constants
    add, mul = algebra_tables(p, sc)
    try:
        ring = make_algebra(p, dim, sc)
    except RingAxiomError as err:  # then the einsum tables break the same law
        with pytest.raises(RingAxiomError) as oracle:
            slice_loop_validate(p**dim, add, mul, 0, 1)
        assert str(oracle.value) == str(err)
        return
    assert np.array_equal(ring.add_table, add)
    assert np.array_equal(ring.mul_table, mul)


def test_corpus_algebras_match_the_einsum_build(monkeypatch):
    built = []

    def recording(p, dim, sc, **kwargs):
        built.append((make_algebra(p, dim, sc, **kwargs), p, sc))
        return built[-1][0]

    monkeypatch.setattr(ringfile, "make_algebra", recording)
    default_corpus()
    assert len(built) == 5
    for ring, p, sc in built:
        add, mul = algebra_tables(p, sc)
        assert np.array_equal(ring.add_table, add), ring.label
        assert np.array_equal(ring.mul_table, mul), ring.label


Z2_ADD, Z2_MUL = [[0, 1], [1, 0]], [[0, 0], [0, 1]]


@pytest.mark.parametrize(
    "cell",
    [1.9, 2**70, "1", True, np.True_, np.array(True)],
    ids=["float", "past-int64", "str", "bool", "numpy-bool", "0-d-bool-array"],
)
def test_table_cells_that_are_not_ints_are_refused(cell):
    # int(1.9) == int("1") == 1 would make either a valid Z_2 table, and
    # numpy reads a bool among ints as 0 or 1, a 0-d bool array too
    with pytest.raises(ValueError, match="add table cells must be int64 integers"):
        FiniteRing(2, [[0, 1], [cell, 0]], Z2_MUL, 0, 1)
    with pytest.raises(ValueError, match="mul table cells must be int64 integers"):
        make_table_ring(2, Z2_ADD, np.array(Z2_MUL, dtype=float), 0, 1)


def test_make_table_ring_is_finite_ring_with_its_default_label():
    z3 = make_zn(3)
    assert make_table_ring is FiniteRing
    assert FiniteRing(3, z3.add_table, z3.mul_table, 0, 1).label == "table-ring-3"
    assert FiniteRing(3, z3.add_table, z3.mul_table, 0, 1, label="t").label == "t"


def test_duplicate_element_names_are_refused():
    with pytest.raises(ValueError, match="element_names must be distinct, 'a' names 2 elements"):
        make_table_ring(2, Z2_ADD, Z2_MUL, 0, 1, element_names=["a", "a"])


@pytest.mark.parametrize(
    "names, bad", [(["a", " a"], " a"), (["a ", "b"], "a "), (["", "a"], ""), (["a", "\tb"], "\tb")]
)
def test_names_that_do_not_read_back_are_refused(names, bad):
    # element lists are read with the spaces around each name stripped, so
    # " a" would read back as "a", and a zero named "" prints its ideal as "{}"
    with pytest.raises(ValueError) as err:
        make_table_ring(2, Z2_ADD, Z2_MUL, 0, 1, element_names=names)
    assert str(err.value) == f"element names must be nonempty, without leading or trailing spaces, got {bad!r}"


@pytest.mark.parametrize("order", [1, 0, -3])
def test_order_below_two_is_refused_before_the_tables_are_read(order):
    with pytest.raises(ValueError) as err:
        FiniteRing(order, [], [], 0, 1)
    assert str(err.value) == f"ring order must be >= 2 (the zero ring is excluded), got {order}"


def test_product_names_that_collide_are_refused():
    # ("x,", "y") and ("x", ",y") both render as "(x,,y)"
    left = make_table_ring(2, Z2_ADD, Z2_MUL, 0, 1, element_names=["x,", "x"])
    right = make_table_ring(2, Z2_ADD, Z2_MUL, 0, 1, element_names=["y", ",y"])
    with pytest.raises(ValueError, match=r"element_names must be distinct, '\(x,,y\)' names 2 elements"):
        make_product([left, right])


@pytest.mark.parametrize("zero, one", [(0.0, 1), (0, 1.0), ("0", 1)])
def test_zero_and_one_must_be_int_indices(zero, one):
    with pytest.raises(ValueError, match="zero/one must be int indices"):
        make_table_ring(2, Z2_ADD, Z2_MUL, zero, one)


def test_bool_zero_or_one_is_refused():
    # Z_3 relabelled by [1, 2, 0]: zero is element 1, one is element 2;
    # add[False] is an empty row, so zero=False passed the identity check
    p = [1, 2, 0]
    add, mul = [[0] * 3 for _ in range(3)], [[0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            add[p[a]][p[b]], mul[p[a]][p[b]] = p[(a + b) % 3], p[a * b % 3]
    assert FiniteRing(3, add, mul, 1, 2).zero == 1
    for zero, one in ((False, 2), (1, True), (np.False_, 2)):
        with pytest.raises(ValueError) as err:
            FiniteRing(3, add, mul, zero, one)
        assert str(err.value) == f"zero/one must be int indices in 0..2, got {zero!r}/{one!r}"


def test_tuple_ndarray_and_list_of_ndarray_rows_give_the_list_rows_table():
    z6 = make_zn(6)
    add, mul = z6.add_table.tolist(), z6.mul_table.tolist()
    expected = FiniteRing(6, add, mul, 0, 1)
    for shape in (
        lambda rows: tuple(tuple(row) for row in rows),
        lambda rows: [np.array(row) for row in rows],
        lambda rows: [np.array(row, dtype=np.uint8) for row in rows],
        lambda rows: np.array(rows),
        lambda rows: np.array(rows, dtype=np.int32),
    ):
        ring = FiniteRing(6, shape(add), shape(mul), 0, 1)
        for got, want in ((ring.add_table, expected.add_table), (ring.mul_table, expected.mul_table)):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


def test_every_constructor_returns_read_only_int64_tables():
    z3, z12 = make_zn(3), make_zn(12)
    z3_doc = {"kind": "table", "order": 3, "zero": 0, "one": 1,
              "add": z3.add_table.tolist(), "mul": z3.mul_table.tolist()}
    built = {
        "make_zn": z12,
        "make_boolean": make_boolean(3),
        "make_product": make_product([make_zn(2), z3]),
        "make_algebra": make_algebra(2, 2, _sc_with_unity(2, {(1, 1): (1, 1)})),
        "make_table_ring": make_table_ring(3, z3_doc["add"], z3_doc["mul"], 0, 1),
        "quotient_ring": quotient_ring(z12, principal_ideal(z12, 4)).quotient,
        "table ring file": ring_from_document(z3_doc),
        "algebra ring file": ring_from_document(
            {"kind": "algebra", "p": 2, "basis_names": ["1", "x"], "mul": {"x*x": "0"}}
        ),
    }
    for name, ring in built.items():
        for table in (ring.add_table, ring.mul_table):
            assert table.dtype == np.int64, name
            assert table.shape == (ring.order, ring.order), name
            assert not table.flags.writeable, name


def test_is_prime_int():
    primes = [n for n in range(40) if is_prime_int(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


# === trusted constructors ===
# make_zn, make_boolean, make_product and quotient_ring skip validate_tables
# because their tables form a ring by construction; these tests keep the
# check they skip, and the slice-loop check it replaced

TRUSTED = (
    [(f"Z_{n}", lambda n=n: make_zn(n)) for n in [*range(2, 65), 128, 192, 256]]
    + [(f"B_{k}", lambda k=k: make_boolean(k)) for k in range(1, 8)]
    + [
        ("Z_2xZ_3", lambda: make_product([make_zn(2), make_zn(3)])),
        ("Z_2xZ_4", lambda: make_product([make_zn(2), make_zn(4)])),
        ("Z_4xZ_9", lambda: make_product([make_zn(4), make_zn(9)])),
        ("Z_2^3", lambda: make_product([make_zn(2)] * 3)),
        ("Z_2^4xZ_3", lambda: make_product([make_zn(2)] * 4 + [make_zn(3)])),
        ("Z_4^3", lambda: make_product([make_zn(4)] * 3)),
    ]
)


@pytest.mark.parametrize("build", [b for _, b in TRUSTED], ids=[name for name, _ in TRUSTED])
def test_trusted_constructors_build_rings(build):
    ring = build()
    validate_tables(ring.order, ring.add_table, ring.mul_table, ring.zero, ring.one)
    slice_loop_validate(ring.order, ring.add_table, ring.mul_table, ring.zero, ring.one)
    if ring.order <= 16:  # the loop oracle is O(order^3) in pure Python
        assert_ring_axioms(ring)


PRODUCTS = [
    ("Z_2xZ_3", [2, 3]),
    ("Z_2xZ_4", [2, 4]),
    ("Z_4xZ_9", [4, 9]),
    ("Z_2^3", [2, 2, 2]),
    ("Z_2^4xZ_3", [2, 2, 2, 2, 3]),
    ("Z_4^3", [4, 4, 4]),
]


@pytest.mark.parametrize("moduli", [m for _, m in PRODUCTS], ids=[name for name, _ in PRODUCTS])
def test_make_product_matches_loop_oracle(moduli):
    factors = [make_zn(n) for n in moduli]
    ring = make_product(factors)
    add, mul, zero, one = product_tables(factors)
    assert ring.add_table.tolist() == add
    assert ring.mul_table.tolist() == mul
    assert (ring.zero, ring.one) == (zero, one)
    assert ring.element_names[-1] == "(" + ",".join(str(n - 1) for n in moduli) + ")"


def test_only_caller_tables_are_validated(monkeypatch):
    calls = []
    real = rings.validate_tables
    monkeypatch.setattr(rings, "validate_tables", lambda *args: calls.append(args[0]) or real(*args))
    z2, z3, z12 = make_zn(2), make_zn(3), make_zn(12)
    quartic = principal_ideal(z12, 4)
    table_file = Path(__file__).resolve().parents[1] / "rings" / "z3_table.json"
    one_each = {
        "FiniteRing": lambda: FiniteRing(3, z3.add_table, z3.mul_table, 0, 1),
        "make_table_ring": lambda: make_table_ring(2, z2.add_table, z2.mul_table, 0, 1),
        "make_algebra": lambda: make_algebra(2, 2, _sc_with_unity(2, {(1, 1): (1, 1)})),
        "table ring file": lambda: load_ring_file(table_file),
    }
    none = {
        "make_zn": lambda: make_zn(12),
        "make_boolean": lambda: make_boolean(3),
        "make_product": lambda: make_product([z2, z3]),
        "quotient_ring": lambda: quotient_ring(z12, quartic),
    }
    for expected, builds in ((1, one_each), (0, none)):
        for name, build in builds.items():
            calls.clear()
            build()
            assert len(calls) == expected, name


def test_caller_tables_cannot_carry_a_source_document():
    z2 = make_zn(2)
    with pytest.raises(TypeError):
        FiniteRing(2, z2.add_table, z2.mul_table, 0, 1, source={"kind": "zn", "n": 7})


# === the generator-set validator against the slice loop it replaced ===

def assert_same_verdict(order, add, mul, zero, one):
    """validate_tables accepts exactly when the slice-loop oracle does, and
    rejects with the same message."""
    verdicts = []
    for check in (validate_tables, slice_loop_validate):
        try:
            check(order, add, mul, zero, one)
            verdicts.append(None)
        except RingAxiomError as err:
            verdicts.append(str(err))
    assert verdicts[0] == verdicts[1]


@pytest.fixture(scope="module")
def corruption_bases(corpus):
    """The corpus rings and the trusted rings of order <= 128."""
    return [*corpus, *(ring for ring in (build() for _, build in TRUSTED) if ring.order <= 128)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_validator_matches_slice_loop_on_corrupted_tables(corruption_bases, data):
    ring = data.draw(st.sampled_from(corruption_bases))
    tables = {"add": ring.add_table.copy(), "mul": ring.mul_table.copy()}
    element = st.integers(0, ring.order - 1)
    for _ in range(data.draw(st.integers(1, 2))):
        which = data.draw(st.sampled_from(("add", "mul")))
        a, b, value = data.draw(element), data.draw(element), data.draw(element)
        tables[which][a, b] = tables[which][b, a] = value
    assert_same_verdict(ring.order, tables["add"], tables["mul"], ring.zero, ring.one)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from((2, 3, 5)), data=st.data())
def test_validator_matches_slice_loop_on_random_fp_algebras(p, data):
    # random dimension-3 structure constants mostly break an axiom, and only
    # at some triples: near-misses for the generator-set check
    coefficients = st.lists(st.integers(0, p - 1), min_size=3, max_size=3)
    entries = {(i, j): data.draw(coefficients) for i in range(1, 3) for j in range(i, 3)}
    add, mul = algebra_tables(p, _sc_with_unity(3, entries))
    assert_same_verdict(p**3, add, mul, 0, 1)


def relabelled_tables(ring, seed):
    """(add, mul, zero, one) of the ring with its elements randomly renamed."""
    perm = np.random.default_rng(seed).permutation(ring.order)
    old = np.argsort(perm)  # old[perm[a]] == a
    rename = np.ix_(old, old)
    return perm[ring.add_table[rename]], perm[ring.mul_table[rename]], perm[ring.zero], perm[ring.one]


def test_accepted_tables_never_enter_the_witness_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("witness search entered for a ring")

    monkeypatch.setattr(rings, "_search_witness", refuse)
    for seed, ring in enumerate((make_zn(64), make_boolean(6), make_product([make_zn(4)] * 3))):
        add, mul, zero, one = relabelled_tables(ring, seed)
        assert make_table_ring(ring.order, add, mul, zero, one).order == ring.order
