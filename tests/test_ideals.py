"""Ideal engine: lattices, radicals, and the predicate zoo.

Expected values are frozen from the brute-force subset oracle and the
divisor-count oracle in _oracles.py; textbook facts (prime chains,
radicals of specific ideals) are asserted directly.
"""

import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_force_covers,
    brute_force_ideals,
    divisor_count,
    first_generator,
    is_domain,
    is_field,
    is_ideal_subset,
    is_maximal_in,
    is_prime_subset,
    is_semiprime_subset,
    pairwise_sum,
    power_in,
)
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
    principal_ideal,
    radical,
    sum_ideals,
    unit_ideal,
    zero_ideal,
)
from ringaudit.quotients import quotient_ring
from ringaudit.rings import (
    RingAxiomError,
    make_algebra,
    make_boolean,
    make_product,
    make_table_ring,
    make_zn,
)
from ringaudit.ringfile import _sc_with_unity


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


@st.composite
def fp_algebras(draw):
    """A commutative F_p-algebra from random structure constants, kept only
    when the products it defines satisfy the ring axioms."""
    p = draw(st.sampled_from((2, 3, 5)))
    dim = draw(st.integers(2, 3))
    coefficients = st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)
    entries = {(i, j): draw(coefficients) for i in range(1, dim) for j in range(i, dim)}
    try:
        return make_algebra(p, dim, _sc_with_unity(dim, entries))
    except RingAxiomError:
        assume(False)


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


def _relabelled_z3_squared():
    """Z_3 x Z_3 as a table ring with shuffled indices (zero at index 4, one
    at index 8) and each element named by its coordinates."""
    z33 = make_product([make_zn(3), make_zn(3)])
    position = np.array([4, 7, 1, 0, 8, 3, 6, 2, 5])  # element k sits at index position[k]
    element = np.argsort(position)
    return make_table_ring(
        9,
        position[z33.add_table[np.ix_(element, element)]],
        position[z33.mul_table[np.ix_(element, element)]],
        position[z33.zero], position[z33.one],
        element_names=[z33.element_names[k] for k in element],
    )


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


def test_parse_ideal_roundtrip(ring_a):
    m = parse_ideal(ring_a, "{0,x,y,x+y}")
    assert members(m) == {0, 2, 4, 6}
    assert str(m) == "{0,x,y,x+y}"
    with pytest.raises(ValueError, match="unknown element"):
        parse_ideal(ring_a, "{0,q}")


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
    for ring in small_corpus_rings:
        for ideal in all_ideals(ring).ideals:
            mem = members(ideal)
            if not ideal.is_proper:
                expected = False
            else:
                expected = all(
                    x in mem or power_in(ring, y, mem)
                    for x in range(ring.order)
                    for y in range(ring.order)
                    if ring.mul(x, y) in mem
                )
            assert is_primary(ring, ideal) == expected, (ring.label, str(ideal))


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


def test_is_maximal_rejects_a_mask_outside_the_lattice():
    z6 = make_zn(6)
    not_an_ideal = Ideal(z6, 0b11)  # {0, 1}
    with pytest.raises(ValueError, match="not in lattice"):
        is_maximal(z6, not_an_ideal)
    assert not is_ppri(z6, not_an_ideal)


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
    prime_spectrum(ring)
    assert "primes" in vars(lattice)


def test_lattice_dies_with_its_ring():
    ring = make_zn(12)
    ref = weakref.ref(ring)
    all_ideals(ring)
    prime_spectrum(ring)
    is_maximal(ring, principal_ideal(ring, 2))
    del ring
    gc.collect()
    assert ref() is None
