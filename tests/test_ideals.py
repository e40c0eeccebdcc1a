"""Ideal engine: lattices, radicals, and the predicate zoo.

Expected values are frozen from the brute-force subset oracle and the
divisor-count oracle in _oracles.py; textbook facts (prime chains,
radicals of specific ideals) are asserted directly.
"""

import gc
import math
import random
import re
import runpy
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_force_covers,
    brute_force_ideals,
    closure_lattice,
    count_of_two_maximal,
    divisor_count,
    first_generator,
    is_domain,
    is_field,
    is_ideal_subset,
    is_maximal_in,
    is_prime_subset,
    is_semiprime_subset,
    padded_block_cosets,
    pair_scan_up,
    pairwise_minimal_primes_over,
    pairwise_sum,
    polynomial_quotient_tables,
    power_in,
    whole_block_checked_members,
    whole_block_is_primary,
)
from _strategies import _relabelled, fp_algebras, local_rings, relabelled_local_rings
from ringaudit.ideals import (
    Ideal,
    all_ideals,
    classify_ring,
    ideal_from_members,
    ideal_generated,
    is_maximal,
    is_ppri,
    is_pprir,
    is_primary,
    is_prime,
    is_principal,
    is_semiprime,
    minimal_primes_over,
    parse_ideal,
    prime_spectrum,
    primary_ideals,
    principal_ideal,
    radical,
    sum_ideals,
    unit_ideal,
    zero_ideal,
)
import ringaudit.claims as claims
import ringaudit.ideals as ideals
from ringaudit.corpus import default_corpus
from ringaudit.ideals import _cosets, _flags_of, _least, _pack, _primitive_idempotents, _rows_of
from ringaudit.quotients import kernel, quotient_ring
from ringaudit.ringfile import _sc_with_unity
from ringaudit.rings import (
    FiniteRing,
    make_algebra,
    make_boolean,
    make_product,
    make_zn,
)


CLOSED_FORMS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "closed_forms.py"))


def members(ideal):
    return set(ideal.indices())


@pytest.fixture(scope="module")
def oracle_rings(small_corpus_rings):
    """The small corpus rings plus B_3 and Z_2xZ_4, for the lookup oracles."""
    return [*small_corpus_rings, make_boolean(3), make_product([make_zn(2), make_zn(4)])]


# === enumeration against the brute-force oracle ===

def test_all_ideals_matches_brute_force(small_corpus_rings):
    for ring in small_corpus_rings:
        expected = brute_force_ideals(ring)
        got = {frozenset(i.indices()) for i in all_ideals(ring).ideals}
        assert got == expected, ring.label


@pytest.mark.parametrize("n", range(2, 65))
def test_zn_ideal_count_is_divisor_count(n):
    assert len(all_ideals(make_zn(n))) == divisor_count(n)


def test_lattice_is_canonically_ordered_and_deduped(corpus):
    for ring in corpus:
        lattice = all_ideals(ring)
        keys = [i.indices() for i in lattice.ideals]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_lattice_contains_zero_and_ring_and_sums(small_corpus_rings):
    for ring in small_corpus_rings:
        lattice = all_ideals(ring)
        masks = {i.members for i in lattice.ideals}
        assert zero_ideal(ring).members in masks
        assert unit_ideal(ring).members in masks
        for left in lattice.ideals:
            for right in lattice.ideals:
                assert sum_ideals(ring, left, right).members in masks


def test_containment_edges_match_subset(corpus):
    z12 = corpus.by_label("Z_12")
    lattice = all_ideals(z12)
    edges = lattice.containment_edges()
    assert edges == sorted(edges)
    for i, left in enumerate(lattice.ideals):
        for j, right in enumerate(lattice.ideals):
            assert (((i, j) in set(edges))
                    == (i != j and set(left.indices()).issubset(right.indices())))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from([1, ideals._BLOCK_CELLS]))
def test_subsets_match_brute_force(data, block_cells):
    # random bool blocks as wide as rings of up to 200 elements, so that
    # rows span one to four 64-bit words, the last one partly filled or
    # full; each row is a set with at most two entries added anywhere, so a
    # row's only strays may lie in any one word: within[k, j] is whether
    # row start + k has no entry outside set j
    width = data.draw(st.sampled_from([1, 63, 64, 65, 128, 200]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sets = rng.random((data.draw(st.integers(1, 6)), width)) < 0.5
    rows = sets[rng.integers(0, len(sets), data.draw(st.integers(0, 6)))]
    rows[np.arange(len(rows))[:, None], rng.integers(0, width, (len(rows), 2))] |= rng.random((len(rows), 2)) < 0.5
    expected = ~(rows[:, None] & ~sets[None]).any(axis=2)
    within = np.zeros((len(rows), len(sets)), dtype=bool)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ideals, "_BLOCK_CELLS", block_cells)
        for start, block in ideals._subsets(rows, sets):
            within[start:start + len(block)] = block
    assert np.array_equal(within, expected)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_rows_of_matches_a_loop_over_the_entries(data):
    # index blocks of any width, with any number of rows and of entries a
    # row, repeats included: row k marks exactly the entries of row k
    width = data.draw(st.integers(1, 200))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, width, (data.draw(st.integers(0, 6)), data.draw(st.integers(0, 2 * width))))
    expected = [[False] * width for _ in rows]
    for k, row in enumerate(rows.tolist()):
        for entry in row:
            expected[k][entry] = True
    got = _rows_of(width, rows)
    assert got.shape == (len(rows), width)
    assert got.tolist() == expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from([1, 7, 64]))
def test_rows_of_in_row_blocks_matches_a_loop_over_the_entries(data, block_cells):
    # blocks of one row to a few rows, so most blocks start past row zero
    width = data.draw(st.integers(1, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, width, (data.draw(st.integers(0, 12)), data.draw(st.integers(0, 2 * width))))
    expected = [[False] * width for _ in rows]
    for k, row in enumerate(rows.tolist()):
        for entry in row:
            expected[k][entry] = True
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ideals, "_BLOCK_CELLS", block_cells)
        assert _rows_of(width, rows).tolist() == expected


def test_the_lattice_of_z2048_is_built_in_bounded_memory():
    # the principal rows are scattered a block of rows at a time, with no
    # order x order index beside the 4 MiB bool block
    ring = make_zn(2048)
    tracemalloc.start()
    lattice = all_ideals(ring)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(lattice) == divisor_count(2048)
    assert peak < 8 << 20


def test_ideal_order_divides_ring_order(corpus):
    for ring in corpus:
        for ideal in all_ideals(ring).ideals:
            assert ring.order % len(ideal) == 0


# === construction ===

def test_principal_ideal_examples(ring_a):
    z6 = make_zn(6)
    assert members(principal_ideal(z6, 2)) == {0, 2, 4}
    assert members(principal_ideal(z6, 0)) == {0}
    assert members(principal_ideal(z6, 1)) == set(range(6))
    x = 2
    assert members(principal_ideal(ring_a, x)) == {0, x}


def test_ideal_generated_examples(ring_a):
    z6 = make_zn(6)
    assert members(ideal_generated(z6, [2, 3])) == set(range(6))  # 3 - 2 = 1
    assert members(ideal_generated(z6, [])) == {0}
    x, y = 2, 4
    assert members(ideal_generated(ring_a, [x, y])) == {0, x, y, x + y}


def test_ideal_generated_matches_principal_on_singletons(small_corpus_rings):
    for ring in small_corpus_rings:
        for a in range(ring.order):
            assert ideal_generated(ring, [a]).members == principal_ideal(ring, a).members


def test_ideal_generated_matches_pairwise_sums(small_corpus_rings):
    for ring in small_corpus_rings:
        multiples = [{ring.mul(a, r) for r in ring.elements()} for a in ring.elements()]
        for a in ring.elements():
            for b in ring.elements():
                expected = pairwise_sum(ring, multiples[a], multiples[b])
                assert members(ideal_generated(ring, [a, b])) == expected, (ring.label, a, b)


def test_sum_ideals_examples(ring_a):
    z12 = make_zn(12)
    four = principal_ideal(z12, 4)
    six = principal_ideal(z12, 6)
    assert members(sum_ideals(z12, four, six)) == {0, 2, 4, 6, 8, 10}
    assert sum_ideals(z12, four, zero_ideal(z12)).members == four.members
    x, y = 2, 4
    assert members(sum_ideals(ring_a, principal_ideal(ring_a, x), principal_ideal(ring_a, y))) == {0, x, y, x + y}


def test_sum_ideals_matches_pairwise_oracle(corpus):
    for ring in corpus:
        ideals = all_ideals(ring).ideals
        for left in ideals:
            for right in ideals:
                expected = pairwise_sum(ring, members(left), members(right))
                assert members(sum_ideals(ring, left, right)) == expected, (ring.label, str(left), str(right))


@st.composite
def zn_products(draw, max_order=64):
    """Factor moduli of a random product of Z_n rings of order <= max_order."""
    count = draw(st.integers(1, max_order.bit_length() - 1))
    moduli = []
    for left in range(count, 0, -1):
        # leave room for the factors still to come, each of order >= 2
        room = max_order // math.prod(moduli) // 2 ** (left - 1)
        moduli.append(draw(st.integers(2, room)))
    return moduli


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(zn_products())
def test_lattice_of_random_zn_products_is_closed_and_complete(moduli):
    ring = make_product([make_zn(n) for n in moduli])
    found = {frozenset(ideal.indices()) for ideal in all_ideals(ring).ideals}
    assert all(is_ideal_subset(ring, set(ideal)) for ideal in found)
    for left in found:
        for right in found:
            assert pairwise_sum(ring, left, right) in found
    if ring.order <= 13:
        assert found == brute_force_ideals(ring)


def _square_zero_algebra(p):
    """F_p[x,y]/(x,y)^2: local, and its maximal ideal (x,y) is not principal."""
    zero = [0, 0, 0]
    return make_algebra(p, 3, _sc_with_unity(3, {(1, 1): zero, (1, 2): zero, (2, 2): zero}))


@st.composite
def split_rings(draw):
    """Z_n products, F_p algebras and their products with Z_2, Z_3 or Z_4
    (non-local, with non-principal factor ideals), each possibly taken to a
    quotient by a proper ideal and relabelled, so idempotents sit anywhere."""
    kind = draw(st.sampled_from(("zn", "algebra", "algebra x zn")))
    if kind == "zn":
        ring = make_product([make_zn(n) for n in draw(zn_products())])
    else:
        ring = draw(st.one_of(fp_algebras(), st.sampled_from((2, 3)).map(_square_zero_algebra)))
        if kind == "algebra x zn":
            ring = make_product([ring, make_zn(draw(st.sampled_from((2, 3, 4))))])
    if draw(st.booleans()):
        proper = [ideal for ideal in closure_lattice(ring).ideals if ideal.is_proper]
        ring = quotient_ring(ring, draw(st.sampled_from(proper))).quotient
    if draw(st.booleans()):
        ring = _relabelled(ring, draw(st.permutations(range(ring.order))))
    return ring


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(split_rings())
def test_lattice_by_factors_matches_pairwise_closure(ring):
    lattice, oracle = all_ideals(ring), closure_lattice(ring)
    assert [i.members for i in lattice.ideals] == [i.members for i in oracle.ideals]
    assert lattice.index == oracle.index
    assert lattice.generator == oracle.generator
    assert np.array_equal(lattice.inside, oracle.inside)
    assert_primes_and_edges_match_oracles(ring)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(relabelled_local_rings())
def test_lattice_of_relabelled_local_rings_matches_pairwise_closure(ring):
    lattice, oracle = all_ideals(ring), closure_lattice(ring)
    masks = [i.members for i in lattice.ideals]
    assert len(set(masks)) == len(masks), ring.label  # no ideal is found twice
    assert masks == [i.members for i in oracle.ideals], ring.label
    assert lattice.index == oracle.index
    assert lattice.generator == oracle.generator
    assert np.array_equal(lattice.inside, oracle.inside)


def pair_scan_edges(lattice):
    """The non-reflexive containment pairs of a lattice's ideals, in order,
    read off the pair-by-pair scan."""
    up = pair_scan_up([ideal.members for ideal in lattice.ideals])
    return [(i, j) for i in range(len(up)) for j in range(len(up)) if i != j and up[i] >> j & 1]


def assert_primes_and_edges_match_oracles(ring):
    """The lattice's primes and maximal flags against the definitions, ideal
    by ideal, and its containment pairs against the pair-by-pair scan."""
    lattice = all_ideals(ring)
    masks = [ideal.members for ideal in lattice.ideals]
    assert list(lattice.primes) == [m for m in masks if is_prime_subset(ring, set(Ideal(ring, m).indices()))], ring.label
    family = {frozenset(ideal.indices()) for ideal in lattice.ideals}
    expected = [is_maximal_in(family, ring, frozenset(ideal.indices())) for ideal in lattice.ideals]
    assert lattice.maximal.tolist() == expected, ring.label
    assert lattice.containment_edges() == pair_scan_edges(lattice), ring.label


@pytest.fixture(scope="module")
def spectrum_rings(corpus):
    """Every corpus ring, every proper quotient of each, B_5, Z_2^4 x Z_3
    and Z_4^3."""
    quotients = [quotient_ring(ring, i).quotient for ring in corpus for i in all_ideals(ring).ideals if i.is_proper]
    beyond = [make_boolean(5), make_product([*[make_zn(2)] * 4, make_zn(3)]), make_product([make_zn(4)] * 3)]
    return [*corpus, *quotients, *beyond]


def test_primes_and_up_match_definitional_oracles(spectrum_rings):
    for ring in spectrum_rings:
        assert_primes_and_edges_match_oracles(ring)


def test_up_matches_pair_scan(corpus):
    for ring in [*corpus, make_boolean(8), make_product([make_zn(4)] * 3)]:
        lattice = all_ideals(ring)
        assert lattice.containment_edges() == pair_scan_edges(lattice), ring.label


def _zero_product_algebra(p, dim):
    """F_p[a_1..a_{dim-1}]/(a_1..a_{dim-1})^2: every product of two basis
    elements other than 1 is zero."""
    zero = [0] * dim
    names = ["1", *(f"a{i}" for i in range(1, dim))]
    return make_algebra(p, dim, _sc_with_unity(dim, {(i, j): zero for i in range(1, dim) for j in range(i, dim)}), names)


@pytest.mark.parametrize("cells", [1, 97, 4096])
def test_blocks_of_any_size_give_the_same_lattice(monkeypatch, cells):
    # a block budget this small splits the closure's frontier, the prime
    # test's ideals and rows, and the containment rows into many steps
    monkeypatch.setattr(ideals, "_BLOCK_CELLS", cells)
    for ring in (make_boolean(5), make_product([make_zn(4)] * 3), make_zn(96), _zero_product_algebra(2, 5)):
        lattice, oracle = all_ideals(ring), closure_lattice(ring)
        assert [i.members for i in lattice.ideals] == [i.members for i in oracle.ideals], ring.label
        assert_primes_and_edges_match_oracles(ring)


def assert_primitive_idempotents_split_one(ring):
    idempotents = _primitive_idempotents(ring, _pack(_rows_of(ring.order, ring.mul_table)))
    assert idempotents and ring.zero not in idempotents, ring.label
    for i, e in enumerate(idempotents):
        assert ring.mul(e, e) == e, ring.label
        for f in idempotents[:i]:
            assert ring.mul(e, f) == ring.zero, ring.label
    total = ring.zero
    for e in idempotents:
        total = ring.add(total, e)
    assert total == ring.one, ring.label


def test_primitive_idempotents_are_orthogonal_and_sum_to_one(corpus):
    for ring in corpus:
        assert_primitive_idempotents_split_one(ring)
        for ideal in all_ideals(ring).ideals:
            if ideal.is_proper:
                assert_primitive_idempotents_split_one(quotient_ring(ring, ideal).quotient)


@pytest.mark.parametrize(
    "moduli", [[2] * 8, [2] * 9, [2] * 10, [4] * 5, [2, 2, 2, 2, 3, 5, 7]], ids=lambda m: "x".join(map(str, m)),
)
def test_lattice_past_the_corpus_matches_closed_forms(moduli):
    ring = make_boolean(len(moduli)) if set(moduli) == {2} else make_product([make_zn(n) for n in moduli])
    lattice = all_ideals(ring)
    assert sorted(len(ideal) for ideal in lattice.ideals) == CLOSED_FORMS["ideal_sizes"](moduli)
    assert len(lattice.containment_edges()) == CLOSED_FORMS["containment_pairs"](moduli)


def _gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of F_q^n."""
    top = bottom = 1
    for i in range(k):
        top *= q ** (n - i) - 1
        bottom *= q ** (i + 1) - 1
    return top // bottom


@pytest.mark.parametrize("p, dim, count", [(2, 6, 375), (2, 7, 2826), (3, 4, 29)])
def test_zero_product_algebra_lattice_matches_closed_form(p, dim, count):
    # the ideals are R and the subspaces of the maximal ideal m, the one prime
    ring = _zero_product_algebra(p, dim)
    lattice = all_ideals(ring)
    sizes = sorted(len(ideal) for ideal in lattice.ideals)
    expected = sorted([p ** dim] + [p ** k for k in range(dim) for _ in range(_gaussian_binomial(dim - 1, k, p))])
    assert len(lattice) == count
    assert sizes == expected
    maximal = sum(1 << a for a in range(0, ring.order, p))  # the unity coefficient, the lowest digit, is 0
    assert list(lattice.primes) == [maximal]


def assert_classification_matches_oracles(ring):
    """Every classify_ring flag against its definition; is_pprir from the
    definitional primes and the first-generator oracle."""
    flags = classify_ring(ring)
    primes = [set(i.indices()) for i in all_ideals(ring).ideals if is_prime_subset(ring, set(i.indices()))]
    expected = (
        is_domain(ring),
        is_field(ring),
        all(ring.mul(a, a) == a for a in range(ring.order)),
        all(first_generator(ring, p) is not None for p in primes),
    )
    assert (flags.is_domain, flags.is_field, flags.is_boolean, flags.is_pprir) == expected, ring.label


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(fp_algebras())
def test_lattice_of_random_fp_algebras(ring):
    lattice = all_ideals(ring)
    found = {frozenset(ideal.indices()) for ideal in lattice.ideals}
    for left in found:
        for right in found:
            assert pairwise_sum(ring, left, right) in found
    if ring.order <= 13:
        assert found == brute_force_ideals(ring)
    assert_classification_matches_oracles(ring)
    assert_primes_and_edges_match_oracles(ring)
    # correspondence theorem: the ideals of R/I are the ideals of R over I,
    # and the primes of R/I the primes of R over I
    for ideal in lattice.ideals:
        if not ideal.is_proper:
            continue
        quotient = quotient_ring(ring, ideal).quotient
        over = [m for m in lattice.index if ideal.members & ~m == 0]
        assert len(all_ideals(quotient)) == len(over)
        assert len(prime_spectrum(quotient)) == sum(m in lattice.primes for m in over)


def test_cross_ring_ideals_rejected():
    z6, z8 = make_zn(6), make_zn(8)
    with pytest.raises(ValueError, match="different ring"):
        sum_ideals(z6, zero_ideal(z6), zero_ideal(z8))
    with pytest.raises(ValueError, match="different ring"):
        radical(z6, zero_ideal(z8))


def test_ideal_from_members_validates():
    z6 = make_zn(6)
    assert members(ideal_from_members(z6, [0, 2, 4])) == {0, 2, 4}
    with pytest.raises(ValueError, match="not an ideal"):
        ideal_from_members(z6, [0, 2])  # 2+2=4 escapes
    with pytest.raises(ValueError, match="zero"):
        ideal_from_members(z6, [2, 4])


@pytest.mark.parametrize("n, mask", [(6, -1), (6, 1 << 6 | 1), (7, 1 << 7 | 1)])
def test_ideal_rejects_a_mask_outside_its_ring(n, mask):
    # such a mask names elements the ring lacks; the type stops it at
    # construction, so no predicate, str or quotient ever sees it
    ring = make_zn(n)
    with pytest.raises(ValueError, match="out of range"):
        Ideal(ring, mask)
    assert len(Ideal(ring, (1 << n) - 1)) == n


NOT_INTEGERS = [True, False, 1.5, "2", None, np.float64(2.0), np.bool_(True)]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=[f"{type(v).__name__}-{v}" for v in NOT_INTEGERS])
def test_an_index_or_mask_that_is_not_an_integer_is_refused_by_name(value):
    # a bool is an int to Python and would index a table as a mask; the
    # rest would fail inside numpy or a comparison, or not at all
    z6 = make_zn(6)
    for build in (lambda: principal_ideal(z6, value), lambda: ideal_from_members(z6, [0, value]),
                  lambda: ideal_generated(z6, [value]), lambda: z6.name(value)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"element index {value!r} is not an integer"
    for mask in (value, np.int64(1)):
        with pytest.raises(ValueError) as err:
            Ideal(make_zn(128), mask)
        assert str(err.value) == f"ideal mask {mask!r} is not an int"


def test_numpy_integer_members_are_element_indices():
    z6 = make_zn(6)
    assert ideal_from_members(z6, [0, np.int64(2), np.int32(4)]).members == 0b10101
    with pytest.raises(ValueError) as err:
        ideal_from_members(z6, [0, np.int64(2), 3])
    assert str(err.value) == "not an ideal: missing -2"
    assert principal_ideal(z6, np.int64(3)).members == principal_ideal(z6, 3).members


def _relabelled_z3_squared():
    """Z_3 x Z_3 as a table ring with shuffled indices (zero at index 4, one
    at index 8) and each element named by its coordinates."""
    return _relabelled(make_product([make_zn(3), make_zn(3)]), [4, 7, 1, 0, 8, 3, 6, 2, 5])


@pytest.fixture(scope="module")
def named_rings(ring_a):
    return {"Z_6": make_zn(6), "Z_12": make_zn(12), "A": ring_a, "T": _relabelled_z3_squared()}


# messages pinned from the member-by-member loop: the least member with a
# violation is named, and for it the negative comes first, then a+b over the
# members b, then a*r over the ring; each comment lists other laws broken
NON_IDEALS = [
    ("Z_6", [2, 4], "zero is missing"),  # also 2+4, 2*3
    ("Z_6", [0, 1], "missing -1"),  # also 1+1, 1*2
    ("Z_6", [0, 2, 3, 4], "2+3 escapes"),  # also 3+4
    ("Z_6", [0, 3, 5], "3+5 escapes"),  # also -5, 5*2
    ("Z_12", [1, 11], "zero is missing"),  # also 1+1, 1*0
    ("Z_12", [0, 2], "missing -2"),  # also 2+2, 2*2
    ("Z_12", [0, 4, 6], "missing -4"),  # also 4+4, 4*2
    ("Z_12", [0, 4, 6, 8], "4+6 escapes"),  # also 6+8
    ("Z_12", [0, 3, 4, 6, 9], "3+4 escapes"),  # also -4, 4+4, 4*2
    ("Z_12", [0, 3, 6, 9, 10], "3+10 escapes"),  # also -10, 10+10
    ("A", [1, 2], "zero is missing"),  # also 1+1, 1*y
    ("A", [0, 1], "1*x escapes"),  # only products escape
    ("A", [0, 3], "1+x*x escapes"),  # only products escape
    ("A", [0, 1, 2], "1+x escapes"),  # also 1*y, x+1
    ("A", [0, 1, 4], "1+y escapes"),  # also 1*x, with x before y
    ("A", [0, 2, 5], "x+1+y escapes"),  # also (1+y)*y
    ("T", [5, 8], "zero is missing"),  # also (2,2)+(1,1), (2,2)*(1,0)
    ("T", [4, 8], "missing -(1,1)"),  # also (1,1)+(1,1), (1,1)*(1,0)
    ("T", [4, 5, 8], "(2,2)*(1,0) escapes"),  # only products escape
    ("T", [4, 5, 7, 8], "(2,2)+(0,1) escapes"),  # also (2,2)*(1,0), -(0,1)
    ("T", [1, 2, 3, 4], "missing -(0,2)"),  # also (0,2)+(0,2), (0,2)*(0,2)
]


@pytest.mark.parametrize(
    "label, subset, law", NON_IDEALS, ids=[f"{c[0]}-{c[1]}" for c in NON_IDEALS],
)
def test_ideal_from_members_names_the_first_violation(named_rings, label, subset, law):
    with pytest.raises(ValueError) as err:
        ideal_from_members(named_rings[label], subset)
    assert str(err.value) == f"not an ideal: {law}"


# rings whose lattice ideals are mutated below; built once, at import
CHECKED_RINGS = (
    make_zn(12),
    make_boolean(3),
    make_product([make_zn(2), make_zn(4)]),
    make_product([make_zn(4), make_zn(4)]),
    _square_zero_algebra(2),
    _square_zero_algebra(3),
    _relabelled_z3_squared(),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from([ideals._BLOCK_CELLS, 1]))
def test_ideal_check_matches_the_whole_block_oracle(data, block_cells):
    # a lattice ideal with a few member bits flipped: the chunked check must
    # give the whole-block check's verdict, member indices or message; one
    # cell a block makes every member a chunk of its own
    ring = data.draw(st.sampled_from(CHECKED_RINGS))
    mask = data.draw(st.sampled_from(all_ideals(ring).ideals)).members
    for bit in data.draw(st.lists(st.integers(0, ring.order - 1), max_size=3)):
        mask ^= 1 << bit

    def verdict(check):
        try:
            return check(ring, mask).tolist()
        except ValueError as err:
            return str(err)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ideals, "_BLOCK_CELLS", block_cells)
        assert verdict(_checked_members) == verdict(whole_block_checked_members)


def _checked_members(ring, mask):
    """The member indices of a mask once _check_ideal has passed it."""
    inside = _flags_of(ring, mask)
    ideals._check_ideal(ring, inside)
    return np.flatnonzero(inside)


def assert_cosets_match_the_padded_block_oracle(data, ring):
    """A drawn block of the ring's lattice rows, of mixed sizes and ideals
    all: each row's coset representatives are the padded gather's."""
    lattice = all_ideals(ring)
    inside = lattice.inside[data.draw(st.lists(st.integers(0, len(lattice) - 1), min_size=1, max_size=6))]
    assert np.array_equal(_cosets(ring, inside), padded_block_cosets(ring, inside)), ring.label


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cosets_match_the_padded_block_oracle(data):
    assert_cosets_match_the_padded_block_oracle(data, data.draw(st.sampled_from(CHECKED_RINGS)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cosets_of_local_rings_match_the_padded_block_oracle(data):
    assert_cosets_match_the_padded_block_oracle(data, data.draw(local_rings()))


@pytest.mark.parametrize("ring", [*CHECKED_RINGS, make_zn(128), make_boolean(6)], ids=lambda ring: ring.label)
def test_cosets_make_at_most_log2_size_picks_a_row(monkeypatch, ring):
    # each pick at least doubles the subgroup reached, so the block of all
    # proper ideals takes at most log2 of its largest size in rounds, one
    # _doublings call a round
    lattice = all_ideals(ring)
    inside = lattice.inside[~lattice.inside.all(axis=1)]
    rounds = []
    real = ideals._doublings
    monkeypatch.setattr(ideals, "_doublings", lambda *args: rounds.append(1) or real(*args))
    _cosets(ring, inside)
    assert len(rounds) <= int(inside.sum(axis=1).max()).bit_length() - 1


def test_parse_ideal_roundtrip(ring_a):
    m = parse_ideal(ring_a, "{0,x,y,x+y}")
    assert members(m) == {0, 2, 4, 6}
    assert str(m) == "{0,x,y,x+y}"
    with pytest.raises(ValueError, match="unknown element"):
        parse_ideal(ring_a, "{0,q}")
    for text in ("0,x", "{0,x"):
        with pytest.raises(ValueError) as err:
            parse_ideal(ring_a, text)
        assert str(err.value) == f"ideal literal must be brace-delimited, got {text!r}"


def test_every_ideal_literal_parses_back(corpus):
    # product and Boolean element names such as "(0,1)" and "{1,2}" hold commas
    for ring in (*corpus, make_boolean(5), make_product([make_boolean(2), make_zn(4)])):
        for ideal in all_ideals(ring).ideals:
            assert parse_ideal(ring, str(ideal)).members == ideal.members, (ring.label, str(ideal))


# === radical ===

def test_radical_examples():
    z12 = make_zn(12)
    nil = radical(z12, zero_ideal(z12))
    assert members(nil) == {0, 6}
    assert members(radical(z12, principal_ideal(z12, 4))) == {0, 2, 4, 6, 8, 10}
    assert radical(z12, unit_ideal(z12)).members == unit_ideal(z12).members


def test_radical_against_power_oracle(corpus):
    for ring in corpus:
        for ideal in all_ideals(ring).ideals:
            mem = members(ideal)
            expected = {a for a in range(ring.order) if power_in(ring, a, mem)}
            assert members(radical(ring, ideal)) == expected


def test_radical_is_idempotent_and_contains(small_corpus_rings):
    for ring in small_corpus_rings:
        for ideal in all_ideals(ring).ideals:
            rad = radical(ring, ideal)
            assert ideal.members & ~rad.members == 0
            assert radical(ring, rad).members == rad.members


# === predicates ===

def test_is_prime_examples(ring_a):
    z6 = make_zn(6)
    assert is_prime(z6, principal_ideal(z6, 2))
    assert not is_prime(z6, zero_ideal(z6))  # 2*3 = 0
    assert not is_prime(z6, unit_ideal(z6))  # proper required
    m = ideal_generated(ring_a, [2, 4])
    assert is_prime(ring_a, m)


@pytest.fixture(scope="module")
def predicate_rings(corpus):
    """Every corpus ring and three larger ones, for the table predicates."""
    return [*corpus, make_zn(128), make_boolean(6), make_product([make_zn(4)] * 3)]


def test_principal_ideal_is_the_set_of_multiples(predicate_rings):
    for ring in predicate_rings:
        for a in ring.elements():
            expected = {ring.mul(a, r) for r in ring.elements()}
            assert members(principal_ideal(ring, a)) == expected, (ring.label, a)


def test_prime_and_semiprime_match_definitional_oracles(predicate_rings):
    for ring in predicate_rings:
        for ideal in all_ideals(ring).ideals:
            subset = members(ideal)
            assert is_prime(ring, ideal) == is_prime_subset(ring, subset), (ring.label, str(ideal))
            assert is_semiprime(ring, ideal) == is_semiprime_subset(ring, subset), (ring.label, str(ideal))


def test_is_maximal_examples(ring_a):
    z12 = make_zn(12)
    assert is_maximal(z12, principal_ideal(z12, 2))
    assert not is_maximal(z12, principal_ideal(z12, 4))
    assert not is_maximal(z12, unit_ideal(z12))
    m = ideal_generated(ring_a, [2, 4])
    assert is_maximal(ring_a, m)
    assert not is_maximal(ring_a, principal_ideal(ring_a, 2))


def test_is_semiprime_examples():
    z8 = make_zn(8)
    assert not is_semiprime(z8, principal_ideal(z8, 4))  # 2^2 = 4
    z12 = make_zn(12)
    assert is_semiprime(z12, principal_ideal(z12, 6))
    assert not is_semiprime(z12, zero_ideal(z12))


def test_semiprime_iff_radical_fixed(small_corpus_rings):
    for ring in small_corpus_rings:
        for ideal in all_ideals(ring).ideals:
            assert is_semiprime(ring, ideal) == (radical(ring, ideal).members == ideal.members)


def test_is_primary_examples():
    z12 = make_zn(12)
    assert is_primary(z12, principal_ideal(z12, 4))
    assert not is_primary(z12, principal_ideal(z12, 6))  # 2*3=6, no power of 3 lands
    assert not is_primary(z12, unit_ideal(z12))  # whole ring: false by convention
    assert is_primary(z12, principal_ideal(z12, 3))


def test_primary_against_definitional_oracle(small_corpus_rings):
    for ring in [*small_corpus_rings, make_boolean(5), make_product([make_zn(4)] * 3)]:
        for ideal in all_ideals(ring).ideals:
            mem = members(ideal)
            if not ideal.is_proper:
                expected = False
            else:
                # the y with some power in I, each found once per ideal
                powers_land = {y for y in range(ring.order) if power_in(ring, y, mem)}
                expected = all(
                    x in mem or y in powers_land
                    for x in range(ring.order)
                    for y in range(ring.order)
                    if ring.mul(x, y) in mem
                )
            assert is_primary(ring, ideal) == expected, (ring.label, str(ideal))


@st.composite
def product_questions(draw):
    """A ring and K x order bool blocks inside, xs and ys for
    _product_lands: random rows, with xs and ys drawn sparse as often as
    dense, some rows all False, and K = 0 among the sizes."""
    ring = draw(st.sampled_from(CHECKED_RINGS + (make_zn(64), make_boolean(6))))
    k = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def block(density):
        rows = rng.random((k, ring.order)) < density
        rows[rng.random(k) < 0.2] = False
        return rows

    sparse = st.sampled_from((0.02, 0.1, 0.5, 1.0))
    return ring, block(draw(sparse)), block(draw(sparse)), block(draw(sparse))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(product_questions(), st.sampled_from([1, ideals._BLOCK_CELLS]))
def test_product_lands_matches_brute_force(question, block_cells):
    # whether some x in xs[k] and y in ys[k] have xy in inside[k], asked
    # pair by pair; a sparse xs reads only its own table rows
    ring, inside, xs, ys = question
    expected = [
        any(inside[k, ring.mul(int(x), int(y))] for x in np.flatnonzero(xs[k]) for y in np.flatnonzero(ys[k]))
        for k in range(len(inside))
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ideals, "_BLOCK_CELLS", block_cells)
        assert ideals._product_lands(ring, inside, xs, ys).tolist() == expected


@pytest.mark.parametrize(
    "moduli", [[512], [2, 256], [4, 8, 16]], ids=lambda m: "x".join(map(str, m)),
)
def test_chunked_primary_matches_whole_block(moduli):
    # past order 256 the block of products is tested in several row chunks
    ring = make_zn(moduli[0]) if len(moduli) == 1 else make_product([make_zn(n) for n in moduli])
    assert ring.order > 256
    verdicts = [is_primary(ring, ideal) for ideal in all_ideals(ring).ideals]
    assert verdicts == [whole_block_is_primary(ring, ideal) for ideal in all_ideals(ring).ideals]
    assert any(verdicts) and not all(verdicts)


def test_primary_ideals_match_the_one_ideal_predicates(small_corpus_rings):
    # the lattice-wide reader gives, ideal by ideal, what is_primary and
    # radical give one ideal at a time; past order 256 the block of
    # products is tested in several row chunks
    beyond = [make_boolean(5), make_product([make_zn(4)] * 3), make_zn(512), make_product([make_zn(2), make_zn(256)])]
    for ring in [*small_corpus_rings, *beyond]:
        expected = [(ideal, radical(ring, ideal)) for ideal in all_ideals(ring).ideals if is_primary(ring, ideal)]
        assert primary_ideals(ring) == expected, ring.label


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(relabelled_local_rings())
def test_predicates_of_relabelled_local_rings_match_the_oracles(ring):
    # each ideal's radical, prime, maximal and primary verdicts against the
    # definitions, and the lattice-wide primes, maximal flags and primary
    # pairs against the same verdicts
    lattice = all_ideals(ring)
    family = {frozenset(ideal.indices()) for ideal in lattice.ideals}
    expected = []
    for ideal in lattice.ideals:
        subset = members(ideal)
        rad = radical(ring, ideal)
        assert members(rad) == {a for a in ring.elements() if power_in(ring, a, subset)}, (ring.label, str(ideal))
        assert is_prime(ring, ideal) == is_prime_subset(ring, subset), (ring.label, str(ideal))
        assert is_maximal(ring, ideal) == is_maximal_in(family, ring, frozenset(subset)), (ring.label, str(ideal))
        if ideal.is_proper:
            assert minimal_primes_over(ring, ideal) == pairwise_minimal_primes_over(ring, ideal), (ring.label, str(ideal))
        primary = whole_block_is_primary(ring, ideal)
        assert is_primary(ring, ideal) == primary, (ring.label, str(ideal))
        if primary:
            expected.append((ideal, rad))
    assert primary_ideals(ring) == expected, ring.label
    assert_primes_and_edges_match_oracles(ring)


def test_maximal_ideals_of_b10_are_read_without_up():
    # PROP1's hypothesis holds on B_10, so it asks for all 1024 ideals'
    # maximality: one pass over the complements in size order, with no
    # up-sets built
    ring = make_boolean(10)
    lattice = all_ideals(ring)
    tracemalloc.start()
    maximal = lattice.maximal
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert "up" not in vars(lattice)
    # the maximal ideals of B_10 are the complements of its ten atoms
    assert sorted(len(lattice.ideals[k]) for k in maximal.nonzero()[0]) == [512] * 10
    # the complements of the ideals as ints, their sorted list and the flags
    assert peak < 1 << 20
    assert claims._prop1(ring).detail == "hypothesis holds"
    assert "up" not in vars(lattice)


def test_primes_are_primary_and_semiprime(small_corpus_rings):
    for ring in small_corpus_rings:
        for prime in prime_spectrum(ring):
            assert is_primary(ring, prime)
            assert is_semiprime(ring, prime)


def test_is_principal_examples(ring_a):
    z12 = make_zn(12)
    for ideal in all_ideals(z12).ideals:
        found, gen = is_principal(z12, ideal)
        assert found
        assert principal_ideal(z12, gen).members == ideal.members
    # canonical witness: first generator in index order
    assert is_principal(z12, principal_ideal(z12, 4)) == (True, 4)
    assert is_principal(z12, zero_ideal(z12)) == (True, 0)
    m = ideal_generated(ring_a, [2, 4])
    assert is_principal(ring_a, m) == (False, None)


def test_is_ppri_examples(ring_a):
    z12 = make_zn(12)
    assert is_ppri(z12, principal_ideal(z12, 2))
    assert not is_ppri(z12, principal_ideal(z12, 4))  # primary, not prime
    m = ideal_generated(ring_a, [2, 4])
    assert not is_ppri(ring_a, m)  # prime, not principal


def test_is_pprir_examples(ring_a, corpus):
    for n in range(2, 65):
        flag, witness = is_pprir(corpus.by_label(f"Z_{n}"))
        assert flag and witness is None
    flag, witness = is_pprir(ring_a)
    assert not flag
    assert str(witness) == "{0,x,y,x+y}"


def test_spectrum_examples(ring_a):
    z12 = make_zn(12)
    spec = prime_spectrum(z12)
    assert [members(p) for p in spec] == [{0, 2, 4, 6, 8, 10}, {0, 3, 6, 9}]
    z7 = make_zn(7)
    assert [members(p) for p in prime_spectrum(z7)] == [{0}]
    assert [str(p) for p in prime_spectrum(ring_a)] == ["{0,x,y,x+y}"]


def test_zero_ideal_is_ppri_in_domains():
    # a domain's zero ideal is prime, and 0 generates it
    for n in (2, 3, 5, 7, 11):
        ring = make_zn(n)
        assert is_ppri(ring, zero_ideal(ring))


def test_minimal_primes_examples():
    z12 = make_zn(12)
    mins = minimal_primes_over(z12, zero_ideal(z12))
    assert [members(p) for p in mins] == [{0, 2, 4, 6, 8, 10}, {0, 3, 6, 9}]
    mins4 = minimal_primes_over(z12, principal_ideal(z12, 4))
    assert [members(p) for p in mins4] == [{0, 2, 4, 6, 8, 10}]
    z7 = make_zn(7)
    assert [members(p) for p in minimal_primes_over(z7, zero_ideal(z7))] == [{0}]
    with pytest.raises(ValueError, match="proper"):
        minimal_primes_over(z12, unit_ideal(z12))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 255), unique=True, max_size=12))
def test_least_keeps_exactly_the_minimal_members(family):
    # families of distinct sets of eight elements, drawn in any order
    expected = {m for m in family if not any(o != m and o & ~m == 0 for o in family)}
    kept = _least(family)
    assert sorted(kept) == sorted(expected)
    assert kept == sorted(kept, key=int.bit_count)


@pytest.fixture(scope="module")
def non_pprir_rings():
    """Rings whose maximal ideal needs two generators, so some prime is
    not principal: F_3[x,y]/(x,y)^2, F_2[x,y]/(x^2,y^2) and
    F_2[x,y]/(x^2,xy,y^3), each alone and times Z_2 and Z_3, and the
    128-element zero-product F_2 algebra, with 2826 ideals."""
    local = [
        _square_zero_algebra(3),
        make_algebra(2, 4, _sc_with_unity(4, {(1, 2): [0, 0, 0, 1]}), basis_names=["1", "x", "y", "xy"]),
        make_algebra(2, 4, _sc_with_unity(4, {(2, 2): [0, 0, 0, 1]}), basis_names=["1", "x", "y", "y2"]),
    ]
    return [*local, *(make_product([ring, make_zn(n)]) for ring in local for n in (2, 3)), _zero_product_algebra(2, 7)]


def test_maximal_flags_and_minimal_primes_of_non_pprir_rings_match_the_oracles(non_pprir_rings):
    for ring in non_pprir_rings:
        lattice = all_ideals(ring)
        assert not is_pprir(ring)[0], ring.label
        family = {frozenset(ideal.indices()) for ideal in lattice.ideals}
        expected = [is_maximal_in(family, ring, frozenset(ideal.indices())) for ideal in lattice.ideals]
        assert count_of_two_maximal(lattice, lattice.inside).tolist() == expected, ring.label
        assert lattice.maximal.tolist() == expected, ring.label
        assert [is_maximal(ring, ideal) for ideal in lattice.ideals] == expected, ring.label
        for ideal in lattice.ideals:
            if ideal.is_proper:
                assert minimal_primes_over(ring, ideal) == pairwise_minimal_primes_over(ring, ideal), (ring.label, str(ideal))


def test_minimal_primes_are_minimal(small_corpus_rings):
    for ring in small_corpus_rings:
        for ideal in all_ideals(ring).ideals:
            if not ideal.is_proper:
                continue
            mins = minimal_primes_over(ring, ideal)
            over = [p for p in prime_spectrum(ring) if set(ideal.indices()) <= set(p.indices())]
            for p in mins:
                assert not any(set(q.indices()) < set(p.indices()) for q in over)


def test_classify_ring_examples(ring_a):
    z7 = classify_ring(make_zn(7))
    assert (z7.is_domain, z7.is_field, z7.is_boolean, z7.is_pprir) == (True, True, False, True)
    z6 = classify_ring(make_zn(6))
    assert (z6.is_domain, z6.is_field, z6.is_pprir) == (False, False, True)
    a = classify_ring(ring_a)
    assert (a.is_domain, a.is_field, a.is_boolean, a.is_pprir) == (False, False, False, False)
    assert str(a.witness) == "{0,x,y,x+y}"
    # boolean-ness is semantic, not a constructor tag
    assert classify_ring(make_zn(2)).is_boolean
    assert classify_ring(make_boolean(3)).is_boolean


def test_classify_ring_matches_definitional_oracles(corpus):
    for ring in corpus:
        assert_classification_matches_oracles(ring)
        for ideal in all_ideals(ring).ideals:
            if ideal.is_proper:
                assert_classification_matches_oracles(quotient_ring(ring, ideal).quotient)
    for ring in (
        make_boolean(5),
        make_product([*[make_zn(2)] * 4, make_zn(3)]),
        make_product([make_zn(4)] * 3),
    ):
        assert_classification_matches_oracles(ring)


def test_prime_iff_maximal_in_finite_rings(small_corpus_rings):
    for ring in small_corpus_rings:
        for ideal in all_ideals(ring).ideals:
            assert is_prime(ring, ideal) == is_maximal(ring, ideal), ring.label


def test_lattice_dot_export():
    z12 = make_zn(12)
    dot = all_ideals(z12).to_dot()
    assert dot.startswith('digraph "Z_12"')
    assert "->" in dot
    edges = all_ideals(z12).containment_edges()
    assert all(i != j for i, j in edges)
    # full containment list is larger than the Hasse diagram
    assert len(edges) >= dot.count("->")


# === lattice lookups against the brute-force oracles ===

def test_is_principal_matches_first_generator_oracle(oracle_rings):
    for ring in oracle_rings:
        for ideal in all_ideals(ring).ideals:
            gen = first_generator(ring, members(ideal))
            assert is_principal(ring, ideal) == (gen is not None, gen), (ring.label, str(ideal))


def test_is_maximal_matches_definition(oracle_rings):
    for ring in oracle_rings:
        family = brute_force_ideals(ring)
        for ideal in all_ideals(ring).ideals:
            expected = is_maximal_in(family, ring, frozenset(ideal.indices()))
            assert is_maximal(ring, ideal) == expected, (ring.label, str(ideal))


def test_is_maximal_tests_one_row_against_the_lattice(small_corpus_rings):
    beyond = [make_boolean(5), make_product([make_zn(4)] * 3)]
    for ring in [*small_corpus_rings, *beyond]:
        lattice = all_ideals(ring)
        family = {frozenset(ideal.indices()) for ideal in lattice.ideals}
        flags = []
        for ideal in lattice.ideals:  # R included
            expected = is_maximal_in(family, ring, frozenset(ideal.indices()))
            assert is_maximal(ring, ideal) == expected, (ring.label, str(ideal))
            flags.append(vars(lattice)["maximal"])
        # the lattice's maximal flags are built once, by the first call at
        # the latest, and every later is_maximal reads the same flags
        assert all(f is flags[0] for f in flags), ring.label


@pytest.mark.parametrize("mask, law", [(0b11, "missing -1"), (0b101, "missing -2")])
def test_a_mask_that_is_not_an_ideal_is_refused_where_it_is_built(mask, law):
    # {0, 1} and {0, 2} in Z_6: the type refuses them, so no predicate, no
    # lattice lookup and no quotient ever sees a non-ideal
    z6 = make_zn(6)
    with pytest.raises(ValueError) as err:
        Ideal(z6, mask)
    assert str(err.value) == f"not an ideal: {law}"


def test_to_dot_covers_match_oracle(oracle_rings):
    for ring in oracle_rings:
        lattice = all_ideals(ring)
        expected = brute_force_covers([frozenset(i.indices()) for i in lattice.ideals])
        got = [(int(i), int(j)) for i, j in re.findall(r"n(\d+) -> n(\d+);", lattice.to_dot())]
        assert got == expected, ring.label


def test_lattice_is_built_once_and_spectrum_on_demand():
    ring = make_zn(12)
    lattice = all_ideals(ring)
    assert all_ideals(ring) is lattice
    assert "primes" not in vars(lattice)
    classify_ring(ring)
    prime_spectrum(ring)
    assert "primes" in vars(lattice)
    # every ideal's maximal flag is built by the first is_maximal, and
    # PROP1 and PROP2 read the same flags
    assert "maximal" not in vars(lattice)
    is_maximal(ring, principal_ideal(ring, 2))
    flags = vars(lattice)["maximal"]
    claims._prop1(ring)
    assert vars(lattice)["maximal"] is flags
    # the containment pairs and the covers are read off the block, not kept
    cached = set(vars(lattice))
    lattice.containment_edges()
    lattice.to_dot()
    assert set(vars(lattice)) == cached


def test_lattice_dies_with_its_ring():
    ring = make_zn(12)
    ref = weakref.ref(ring)
    all_ideals(ring)
    prime_spectrum(ring)
    is_maximal(ring, principal_ideal(ring, 2))
    del ring
    gc.collect()
    assert ref() is None


# === the Ideal type's door and the package's trusted ideals ===

def assert_trusted_sites_give_ideals(ring, elements, lattice_wide=True):
    """Hold every Ideal the package builds without the type's check to the
    whole-block law check: zero and unit; principal_ideal of each element
    and ideal_generated of drawn pairs of elements; sum_ideals of drawn
    pairs, radical of each, and the kernel of the projection onto the
    quotient by each proper one, for the lattice's ideals when lattice_wide
    and for the principal ideals of the elements otherwise; and, when
    lattice_wide, the radicals primary_ideals gives."""
    draw = random.Random(ring.order)

    def pairs(items):
        return [draw.sample(items, 2) for _ in range(12)] if len(items) > 1 else []

    principals = [principal_ideal(ring, a) for a in elements]
    among = list(all_ideals(ring).ideals if lattice_wide else {ideal.members: ideal for ideal in principals}.values())
    built = [zero_ideal(ring), unit_ideal(ring), *principals]
    built += [ideal_generated(ring, pair) for pair in pairs(list(elements))]
    built += [sum_ideals(ring, left, right) for left, right in pairs(among)]
    built += [radical(ring, ideal) for ideal in among]
    built += [kernel(quotient_ring(ring, ideal).projection) for ideal in among if ideal.is_proper]
    if lattice_wide:
        built += [rad for _, rad in primary_ideals(ring)]
    for ideal in {ideal.members: ideal for ideal in built}.values():
        assert whole_block_checked_members(ring, ideal.members).tolist() == list(ideal.indices()), (ring.label, str(ideal))


def test_every_ideal_the_package_builds_unchecked_is_an_ideal_on_the_corpus(corpus):
    for ring in corpus:
        assert_trusted_sites_give_ideals(ring, list(ring.elements()))


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_boolean(10),
        lambda: make_zn(2048),
        lambda: make_product([make_zn(4)] * 5),
        lambda: make_product([*[make_zn(2)] * 4, make_zn(3), make_zn(5), make_zn(7)]),
    ],
    ids=["B_10", "Z_2048", "Z_4^5", "Z_2^4xZ_3xZ_5xZ_7"],
)
def test_the_ideals_the_package_builds_unchecked_at_the_order_ceiling_are_ideals(build):
    # a few fixed elements, not the whole lattice
    ring = build()
    assert_trusted_sites_give_ideals(ring, [1, 2, 6, ring.order // 3, ring.order - 2], lattice_wide=False)


def test_only_a_callers_mask_is_checked_by_the_ideal_laws(monkeypatch):
    # the whole claim catalog, on freshly built rings, lattices included,
    # builds every Ideal through a trusted site
    calls = []
    real = ideals._check_ideal
    monkeypatch.setattr(ideals, "_check_ideal", lambda ring, inside: calls.append(ring.label) or real(ring, inside))
    claims.run_all_claims(default_corpus())
    assert calls == []
    z12 = make_zn(12)
    evens = Ideal(z12, principal_ideal(z12, 2).members)
    assert calls == ["Z_12"]
    quotient_ring(z12, evens)
    quotient_ring(z12, ideal_generated(z12, [4, 6]))
    assert calls == ["Z_12"]


def _polynomial_ring(label, q, f):
    """Z_q[x]/(f) from the loop oracle, as a caller's tables: relabelled by
    a fixed shuffle and handed to FiniteRing, which validates them."""
    names, add, mul = polynomial_quotient_tables(q, f)
    position = np.arange(len(names))
    random.Random(label).shuffle(position)
    element = np.argsort(position)
    return FiniteRing(
        len(names),
        position[np.asarray(add)[np.ix_(element, element)]],
        position[np.asarray(mul)[np.ix_(element, element)]],
        position[0], position[q ** (len(f) - 1)],
        label,
        element_names=[names[k] for k in element],
    )


# (label, q, f below its leading term, p, k), the lattice a chain of k + 1
# ideals: GR(p^k, r) = Z_{p^k}[x]/(f), f monic and irreducible mod p, has
# exactly the k + 1 ideals (p^i) of p^(r(k-i)) members (Wan, Lectures on
# Finite Fields and Galois Rings; McDonald, Finite Rings with Identity);
# the chain ring Z_4[x]/(x^2+2) has the five ideals (x^i), of 16, 8, 4, 2
# and 1 members
LOCAL_RINGS = [
    ("GR(4,2)", 4, (1, 1), 2, 2),  # x^2+x+1
    ("GR(8,2)", 8, (1, 1), 2, 3),  # x^2+x+1
    ("GR(9,2)", 9, (1, 0), 3, 2),  # x^2+1
    ("GR(4,3)", 4, (1, 1, 0), 2, 2),  # x^3+x+1
    ("Z_4[x]/(x^2+2)", 4, (2, 0), 2, 4),
]


@pytest.mark.parametrize("label, q, f, p, k", LOCAL_RINGS, ids=[c[0] for c in LOCAL_RINGS])
def test_the_lattices_of_galois_and_chain_rings_are_their_closed_forms(label, q, f, p, k):
    ring = _polynomial_ring(label, q, f)
    lattice = all_ideals(ring)
    assert [ideal.members for ideal in lattice.ideals] == [ideal.members for ideal in closure_lattice(ring).ideals]
    # a chain of k + 1 ideals, each order^(1/k) times the size of the one
    # below it: p^r for GR(p^k, r), 2 for the chain ring
    by_size = sorted(lattice.ideals, key=len)
    step = round(ring.order ** (1 / k))
    assert [len(ideal) for ideal in by_size] == [step ** i for i in range(k + 1)]
    assert all(small.members & ~large.members == 0 for small, large in zip(by_size, by_size[1:]))
    # one prime, the maximal ideal, the chain's second largest
    assert [prime.members for prime in prime_spectrum(ring)] == [by_size[-2].members]
    if label.startswith("GR"):  # (p^i) for the integer p^i, in the ring: (p^i)*1
        multiple = [ring.zero]
        for _ in range(p ** k):
            multiple.append(ring.add(multiple[-1], ring.one))
        assert [principal_ideal(ring, multiple[p ** i]).members for i in range(k + 1)] == [
            ideal.members for ideal in reversed(by_size)
        ]
    assert_trusted_sites_give_ideals(ring, list(ring.elements()))
