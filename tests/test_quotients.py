"""Quotients, homomorphisms, endomorphism search, and the two audits."""

import hashlib
import json
import re
import runpy
import tracemalloc
from itertools import product as cartesian
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringaudit.claims as claims
import ringaudit.ideals as ideals
import ringaudit.quotients as quotients
from _oracles import (
    block_law_check,
    brute_force_endos,
    closure_endomorphisms,
    depth_first_endomorphisms,
    distinct_images,
    is_domain,
    is_unital_hom,
    map_by_map_check_hom,
    per_ideal_quotient,
    per_ideal_thm1,
    quotient_tables,
    whole_block_checked_members,
)
from _strategies import fp_algebras, local_rings, relabelled_local_rings, small_products
from ringaudit.corpus import default_corpus
from ringaudit.ideals import (
    Ideal,
    _pack,
    all_ideals,
    classify_ring,
    ideal_from_members,
    ideal_generated,
    is_pprir,
    is_prime,
    principal_ideal,
    zero_ideal,
)
from ringaudit.quotients import (
    ENDO_CAP_ENV,
    RingHom,
    audit_thm1,
    audit_thm3,
    check_hom,
    classify_hom,
    endomorphisms,
    kernel,
    quotient_ring,
)
from ringaudit.reports import REFUTED, SKIPPED, VERIFIED
from ringaudit.ringfile import ring_from_document
from ringaudit.rings import FiniteRing, make_boolean, make_product, make_table_ring, make_zn, validate_tables

CLOSED_FORMS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "closed_forms.py"))


def test_quotient_z6_by_2_is_z2():
    z6 = make_zn(6)
    pres = quotient_ring(z6, principal_ideal(z6, 2))
    q = pres.quotient
    assert q.order == 2
    z2 = make_zn(2)
    assert np.array_equal(q.add_table, z2.add_table)
    assert np.array_equal(q.mul_table, z2.mul_table)
    assert q.element_names == ("[0]", "[1]")


def test_quotient_by_zero_is_identity():
    z6 = make_zn(6)
    pres = quotient_ring(z6, zero_ideal(z6))
    assert pres.quotient.order == 6
    assert np.array_equal(pres.quotient.add_table, z6.add_table)
    flags = classify_hom(pres.projection)
    assert flags == {"injective": True, "surjective": True}


def test_quotient_a_by_maximal_is_field(ring_a):
    m = ideal_generated(ring_a, [2, 4])
    q = quotient_ring(ring_a, m).quotient
    assert q.order == 2
    assert classify_ring(q).is_field


def test_quotient_by_whole_ring_rejected():
    z6 = make_zn(6)
    with pytest.raises(ValueError, match="whole ring"):
        quotient_ring(z6, ideal_generated(z6, [1]))


def test_quotient_invariants(small_corpus_rings):
    for ring in small_corpus_rings:
        for ideal in all_ideals(ring).ideals:
            if not ideal.is_proper:
                continue
            pres = quotient_ring(ring, ideal)
            assert pres.quotient.order * len(ideal) == ring.order
            # cosets partition the ring
            combined = 0
            for mask in _projection_cosets(pres):
                assert combined & mask == 0
                combined |= mask
            assert combined == (1 << ring.order) - 1
            assert check_hom(ring, pres.quotient, pres.projection.mapping)
            assert kernel(pres.projection).members == ideal.members


def _projection_cosets(pres):
    """The bitmask of each coset's base elements, read off the projection."""
    cosets = [0] * pres.quotient.order
    for b, coset in enumerate(pres.projection.mapping):
        cosets[coset] |= 1 << b
    return tuple(cosets)


def test_cosets_are_read_off_the_projection_when_asked_for(small_corpus_rings):
    for ring in small_corpus_rings:
        for ideal in all_ideals(ring).ideals:
            if not ideal.is_proper:
                continue
            pres = quotient_ring(ring, ideal)
            # coset i holds the b with a + b in I for its representative a,
            # the least member, and cosets go in representative order
            by_rep = {}
            for b in ring.elements():
                rep = min(a for a in ring.elements() if ring.add(a, ring.neg(b)) in ideal.indices())
                by_rep[rep] = by_rep.get(rep, 0) | 1 << b
            assert _projection_cosets(pres) == tuple(by_rep[rep] for rep in sorted(by_rep)), (ring.label, str(ideal))


def test_every_corpus_quotient_is_a_ring_with_the_ideal_as_kernel(corpus):
    # quotient_ring trusts the correspondence theorem; re-check it here
    for ring in corpus:
        for ideal in all_ideals(ring).ideals:
            if not ideal.is_proper:
                continue
            pres = quotient_ring(ring, ideal)
            q = pres.quotient
            validate_tables(q.order, q.add_table, q.mul_table, q.zero, q.one)
            assert check_hom(ring, q, pres.projection.mapping)
            assert kernel(pres.projection) == ideal
            add, mul, coset_of = quotient_tables(ring, set(ideal.indices()))
            assert q.add_table.tolist() == add and q.mul_table.tolist() == mul
            assert pres.projection.mapping == coset_of


@pytest.mark.parametrize("mask, law", [(0b11, "missing -1"), (0b101, "missing -2")])
def test_quotient_rejects_a_non_ideal(mask, law):
    # the Ideal type refuses the mask, before quotient_ring is reached
    z6 = make_zn(6)
    with pytest.raises(ValueError) as err:
        quotient_ring(z6, Ideal(z6, mask))
    assert type(err.value) is ValueError
    assert str(err.value) == f"not an ideal: {law}"


def test_quotient_checks_the_mask_not_each_member(monkeypatch):
    # the quotient reads the mask in numpy; no member is walked back
    # through the ring's index check to rebuild a mask it was handed
    z12 = make_zn(12)
    ideals = [ideal for ideal in all_ideals(z12).ideals if ideal.is_proper]
    calls = []
    check_index = FiniteRing._check_index
    monkeypatch.setattr(FiniteRing, "_check_index", lambda ring, a: calls.append(a) or check_index(ring, a))
    for ideal in ideals:
        assert quotient_ring(z12, ideal).quotient.order * len(ideal) == 12
    assert calls == []


def test_prime_iff_quotient_domain(small_corpus_rings):
    for ring in small_corpus_rings:
        for ideal in all_ideals(ring).ideals:
            if not ideal.is_proper:
                continue
            q = quotient_ring(ring, ideal).quotient
            assert is_prime(ring, ideal) == classify_ring(q).is_domain


def test_check_hom_basics():
    z6, z2, z3 = make_zn(6), make_zn(2), make_zn(3)
    identity = tuple(range(6))
    assert check_hom(z6, z6, identity)
    assert RingHom(z6, z6, identity).mapping == identity
    shift = tuple((a + 1) % 6 for a in range(6))
    assert not check_hom(z6, z6, shift)
    # only the pair (1, 1) breaks a law: 1 + 1 is 0 in Z_2 and 2 in Z_3
    assert not check_hom(z2, z3, (0, 1))
    # the door refuses a map that breaks a law, naming both rings
    with pytest.raises(ValueError, match="^Z_6->Z_6 is not a unital ring homomorphism$"):
        RingHom(z6, z6, shift)
    with pytest.raises(ValueError, match="^Z_2->Z_3 is not a unital ring homomorphism$"):
        RingHom(z2, z3, (0, 1))
    with pytest.raises(ValueError, match="length"):
        RingHom(z6, z6, (0, 1))
    with pytest.raises(ValueError, match="range"):
        RingHom(z6, z6, (0, 1, 2, 3, 4, 17))
    # numpy integers are images too
    assert check_hom(z6, z6, tuple(np.arange(6, dtype=np.uint8)))
    assert not check_hom(z6, z6, (np.int64(0),) * 6)
    with pytest.raises(ValueError, match="^Z_6->Z_6 is not a unital ring homomorphism$"):
        RingHom(z6, z6, (np.int64(0),) * 6)


def test_the_door_keeps_the_images_as_python_ints():
    # numpy images and a list of images are normalised where the map is
    # built: the render names plain ints, a call returns one, and the map
    # hashes and compares as the same tuple of ints
    z6 = make_zn(6)
    hom = RingHom(z6, z6, tuple(np.arange(6, dtype=np.uint8)))
    assert hom.render() == "Z_6->Z_6:[0, 1, 2, 3, 4, 5]"
    assert type(hom(2)) is int and hom(2) == 2
    assert all(type(v) is int for v in hom.mapping)
    listed = RingHom(z6, z6, [0, 1, 2, 3, 4, 5])
    assert listed.mapping == (0, 1, 2, 3, 4, 5)
    assert hash(listed) == hash(hom) and listed == hom


@pytest.mark.parametrize("image", [1.0, True, np.bool_(True), "1", None, np.float64(1)])
def test_check_hom_refuses_an_image_that_is_not_an_integer(image):
    z2 = make_zn(2)
    message = f"^map image {re.escape(repr(image))} is not an integer$"
    with pytest.raises(ValueError, match=message):
        check_hom(z2, z2, (0, image))
    with pytest.raises(ValueError, match=message):
        RingHom(z2, z2, (0, image))


@pytest.mark.parametrize(
    "mapping, message",
    [
        ((0,), "map length does not match source order"),
        ((0, 1, 1), "map length does not match source order"),
        ((0, 1.0, 5), "map length does not match source order"),  # the length is asked first
        ((0, 5), "map image out of target range"),
        ((-1, 1), "map image out of target range"),
        ((0, 1 << 70), "map image out of target range"),  # past int64, refused, not overflowed
        ((0, np.int64(2)), "map image out of target range"),
        ((5, 1.0), "map image 1.0 is not an integer"),  # every image's type before any range
    ],
)
def test_check_hom_refuses_a_malformed_map_by_name(mapping, message):
    # check_hom is the one place a map's form is checked; the door raises
    # what it raises
    z2 = make_zn(2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_hom(z2, z2, mapping)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RingHom(z2, z2, mapping)


def test_check_hom_at_the_order_ceiling_stays_within_two_tables():
    # each law is compared a block of rows of about _BLOCK_CELLS cells at a
    # time, for a caller's identity map of Z_2048, checked where it is
    # built, and for the projection onto Z_2048/(2); one whole-table int64
    # gather would hold 32 MiB
    z = make_zn(2048)
    identity = tuple(range(2048))
    pres = quotient_ring(z, ideal_generated(z, [2]))
    assert _peak(lambda: RingHom(z, z, identity)) < 4 << 20
    for target, mapping in ((z, identity), (pres.quotient, pres.projection.mapping)):
        tracemalloc.start()
        assert check_hom(z, target, mapping)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 4 << 20, (target.label, peak)


def test_check_hom_matches_oracle_on_every_small_map(corpus):
    for ring in corpus:
        if ring.order > 4:
            continue
        for mapping in cartesian(range(ring.order), repeat=ring.order):
            expected = is_unital_hom(ring, mapping)
            assert check_hom(ring, ring, mapping) == expected, (ring.label, mapping)


def test_check_hom_matches_oracle_on_altered_projections(corpus):
    """Maps between different rings: each corpus projection R -> R/I, and
    each map that moves one element's image to the next coset."""
    for ring in corpus:
        for ideal in all_ideals(ring).ideals:
            if not ideal.is_proper:
                continue
            pres = quotient_ring(ring, ideal)
            q, f = pres.quotient, pres.projection.mapping
            assert check_hom(ring, q, f)
            for a in ring.elements():
                g = (*f[:a], (f[a] + 1) % q.order, *f[a + 1:])
                assert check_hom(ring, q, g) == is_unital_hom(ring, g, q), (ring.label, str(ideal), a)


def _with_one_image_moved(maps, order):
    """Each map, then each map that sends one element to the index after
    its image."""
    return [
        m
        for f in maps
        for m in (f, *((*f[:a], (f[a] + 1) % order, *f[a + 1:]) for a in range(len(f))))
    ]


def test_law_check_rows_match_the_map_by_map_oracle(corpus):
    """Blocks that mix homomorphisms with maps one image away from them:
    the endomorphisms of each corpus ring of order <= 16, and each corpus
    projection R -> R/I; and every map of each corpus ring of order <= 4,
    unital additive maps that break a product among them."""
    verdicts = set()
    for ring in corpus:
        blocks = []
        if ring.order <= 4:
            blocks.append((ring, list(cartesian(range(ring.order), repeat=ring.order))))
        if ring.order <= 16:
            blocks.append((ring, _with_one_image_moved([h.mapping for h in endomorphisms(ring)], ring.order)))
        for ideal in all_ideals(ring).ideals:
            if ideal.is_proper:
                pres = quotient_ring(ring, ideal)
                q = pres.quotient
                blocks.append((q, _with_one_image_moved([pres.projection.mapping], q.order)))
        for target, maps in blocks:
            got = block_law_check(ring, target)(np.array(maps)).tolist()
            assert got == [map_by_map_check_hom(ring, target, m) for m in maps], (ring.label, target.label)
            verdicts.update(got)
    assert verdicts == {True, False}


def test_kernel_and_classify():
    z6 = make_zn(6)
    pres = quotient_ring(z6, principal_ideal(z6, 2))
    k = kernel(pres.projection)
    assert set(k.indices()) == {0, 2, 4}
    flags = classify_hom(pres.projection)
    assert flags == {"injective": False, "surjective": True}
    with pytest.raises(ValueError):
        kernel(RingHom(z6, z6, tuple((a + 1) % 6 for a in range(6))))


def test_diagonal_embedding_classification():
    z2 = make_zn(2)
    prod = make_product([make_zn(2), make_zn(2)])
    names = {name: i for i, name in enumerate(prod.element_names)}
    diag = RingHom(z2, prod, (names["(0,0)"], names["(1,1)"]))
    assert check_hom(z2, prod, diag.mapping)
    assert classify_hom(diag) == {"injective": True, "surjective": False}


def test_only_a_callers_map_is_checked_by_the_hom_laws(monkeypatch):
    # the whole claim catalog, a projection with its kernel and flags, and
    # the endomorphisms of B_3 with their flags build every RingHom through
    # a trusted site; a caller's map is checked once, where it is built
    calls = []
    real = quotients.check_hom
    monkeypatch.setattr(quotients, "check_hom", lambda *parts: calls.append(parts[0].label) or real(*parts))
    claims.run_all_claims(default_corpus())
    assert calls == []
    z12 = make_zn(12)
    projection = quotient_ring(z12, principal_ideal(z12, 2)).projection
    kernel(projection)
    classify_hom(projection)
    assert calls == []
    for hom in endomorphisms(make_boolean(3)):
        classify_hom(hom)
    assert calls == []
    hom = RingHom(z12, z12, tuple(range(12)))
    assert calls == ["Z_12"]
    kernel(hom)
    classify_hom(hom)
    assert calls == ["Z_12"]


def test_injective_iff_trivial_kernel():
    prod = make_product([make_zn(2), make_zn(2)])
    for hom in endomorphisms(prod):
        assert classify_hom(hom)["injective"] == (len(kernel(hom)) == 1)


# === endomorphism search against the brute-force oracle ===

@pytest.mark.parametrize("build", [
    lambda: make_zn(2),
    lambda: make_zn(3),
    lambda: make_zn(4),
    lambda: make_product([make_zn(2), make_zn(2)]),
])
def test_endomorphisms_match_brute_force(build):
    ring = build()
    got = {h.mapping for h in endomorphisms(ring)}
    assert got == brute_force_endos(ring)


# sha256 of the sorted endomorphism mappings, pinned from the sweep closure
# that re-paired every two assigned elements until nothing changed
ENDO_PINS = json.loads((Path(__file__).parent / "endo_pins.json").read_text())
PINNED_PRODUCT = "Z_2xZ_2xZ_2xZ_2xZ_3"


@pytest.mark.parametrize("label", sorted(ENDO_PINS))
def test_endomorphisms_match_pins(label, corpus):
    if label == PINNED_PRODUCT:
        ring = make_product([make_zn(2)] * 4 + [make_zn(3)])
    else:
        ring = corpus.by_label(label)
    maps = [list(h.mapping) for h in endomorphisms(ring, cap=ring.order)]
    assert len(maps) == ENDO_PINS[label]["maps"]
    assert hashlib.sha256(json.dumps(maps).encode()).hexdigest() == ENDO_PINS[label]["sha256"]


def test_endo_pins_cover_the_small_corpus_rings(corpus):
    small = {ring.label for ring in corpus if ring.order <= 16}
    assert set(ENDO_PINS) == small | {PINNED_PRODUCT}


def test_endomorphisms_of_z2xz2_frozen():
    # oracle-derived: identity, the swap, and both diagonal collapses
    prod = make_product([make_zn(2), make_zn(2)])
    maps = {h.mapping for h in endomorphisms(prod)}
    names = {name: i for i, name in enumerate(prod.element_names)}
    z, e1, e2, one = names["(0,0)"], names["(1,0)"], names["(0,1)"], names["(1,1)"]
    identity = {z: z, e1: e1, e2: e2, one: one}
    swap = {z: z, e1: e2, e2: e1, one: one}
    proj1 = {z: z, e1: one, e2: z, one: one}   # (a,b) -> (a,a)
    proj2 = {z: z, e1: z, e2: one, one: one}   # (a,b) -> (b,b)
    expected = set()
    for table in (identity, swap, proj1, proj2):
        expected.add(tuple(table[a] for a in range(4)))
    assert maps == expected


def test_endomorphisms_of_zn_identity_only():
    for n in range(2, 17):
        homs = endomorphisms(make_zn(n))
        assert [h.mapping for h in homs] == [tuple(range(n))]


def test_endomorphisms_of_f4_identity_and_frobenius(corpus):
    f4 = corpus.by_label("F_4")
    frobenius = tuple(f4.mul(a, a) for a in range(4))
    maps = {h.mapping for h in endomorphisms(f4)}
    assert maps == {tuple(range(4)), frobenius}
    assert frobenius != tuple(range(4))


def test_endomorphisms_all_pass_check_hom(corpus):
    for label in ("Z_12", "B_3", "Z_2xZ_4", "F2[x]/(x^2)"):
        ring = corpus.by_label(label)
        homs = endomorphisms(ring)
        assert tuple(range(ring.order)) in {h.mapping for h in homs}
        for hom in homs:
            assert check_hom(ring, ring, hom.mapping)


@st.composite
def endo_rings(draw):
    """A random F_p algebra, its product with Z_2, Z_3 or Z_4, its quotient
    by a proper ideal, or a local ring Z_{p^k}[x]/(f) of at most 16
    elements, maybe as a relabelled table copy so that the additive
    generators need not follow index order."""
    form = draw(st.sampled_from(("algebra", "product", "quotient", "local")))
    ring = draw(local_rings(max_order=16) if form == "local" else fp_algebras())
    if form == "product":
        ring = make_product([ring, make_zn(draw(st.sampled_from((2, 3, 4))))])
    elif form == "quotient":
        proper = [ideal for ideal in all_ideals(ring).ideals if ideal.is_proper]
        ring = quotient_ring(ring, draw(st.sampled_from(proper))).quotient
    if draw(st.booleans()):
        position = np.array(draw(st.permutations(range(ring.order))))  # element k sits at position[k]
        element = np.argsort(position)
        ring = make_table_ring(
            ring.order,
            position[ring.add_table[np.ix_(element, element)]],
            position[ring.mul_table[np.ix_(element, element)]],
            position[ring.zero], position[ring.one],
        )
    return ring


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(endo_rings())
def test_endomorphisms_match_closure_search(ring):
    homs = endomorphisms(ring, cap=ring.order)
    assert [h.mapping for h in homs] == closure_endomorphisms(ring)
    assert all(check_hom(ring, ring, hom.mapping) for hom in homs)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(endo_rings())
def test_block_search_matches_the_depth_first_search(ring):
    expected = depth_first_endomorphisms(ring)
    assert [h.mapping for h in endomorphisms(ring, cap=ring.order)] == expected
    # one row to a block, then blocks of 3*order rows, which split into
    # slices of several rows where a generator has many candidates
    for cells in (1, 3 * ring.order**2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quotients, "_BLOCK_CELLS", cells)
            assert [h.mapping for h in endomorphisms(ring, cap=ring.order)] == expected, cells


def test_one_row_blocks_match_the_depth_first_search_on_the_corpus(corpus, monkeypatch):
    monkeypatch.setattr(quotients, "_BLOCK_CELLS", 1)
    for ring in corpus:
        if ring.order <= 16:
            assert [h.mapping for h in endomorphisms(ring)] == depth_first_endomorphisms(ring), ring.label


@pytest.mark.parametrize("build, primes, count", [
    (lambda: make_boolean(5), (2,) * 5, 5**5),
    (lambda: make_product([make_zn(2)] * 4 + [make_zn(3)]), (2, 2, 2, 2, 3), 4**4),
], ids=["B_5", "Z_2^4xZ_3"])
def test_endomorphism_counts_match_closed_form(build, primes, count):
    ring = build()
    assert CLOSED_FORMS["field_product_endomorphism_count"](primes) == count
    assert len(endomorphisms(ring, cap=ring.order)) == count


def test_endomorphism_cap_and_override(monkeypatch):
    z17 = make_zn(17)
    with pytest.raises(ValueError, match="cap 16"):
        endomorphisms(z17)
    monkeypatch.setenv(ENDO_CAP_ENV, "32")
    assert [h.mapping for h in endomorphisms(z17)] == [tuple(range(17))]


# === audits ===

def test_audit_thm1_details(ring_a):
    out = audit_thm1(make_zn(12))
    assert out.status == VERIFIED
    assert "True" in out.detail
    out_a = audit_thm1(ring_a)
    assert out_a.status == VERIFIED
    assert "False" in out_a.detail


@pytest.mark.parametrize("planted, witness", [((4,), 4), ((6, 4), 4), ((2, 3), 2)])
def test_audit_thm1_refutes_on_planted_violation(monkeypatch, planted, witness):
    # the quotient side's product test gives the wrong answer wherever it
    # asks about the planted principal ideals of Z_12, so their quotients'
    # domain verdicts flip; the witness is the first of them in canonical
    # order
    z12 = make_zn(12)
    wrong = {principal_ideal(z12, a).members for a in planted}
    real = quotients._product_lands

    def planted_lands(ring, inside, xs, ys):
        return real(ring, inside, xs, ys) != np.isin(_pack(inside), list(wrong))

    monkeypatch.setattr(quotients, "_product_lands", planted_lands)
    out = quotients.audit_thm1(z12)
    assert out.status == REFUTED
    assert out.witness == str(principal_ideal(z12, witness))


def test_audit_thm1_asks_is_pprir_of_domain_quotients_only(monkeypatch):
    # is_pprir is asked of R alone, for the hypothesis; the quotient side's
    # question goes to _quotient_pprir, and only for the domain quotients
    z12 = make_zn(12)
    asked, answered, domains = [], [], []
    real_pprir, real_domains, real_quotient_pprir = quotients.is_pprir, quotients._domain_quotients, quotients._quotient_pprir

    def recording_domains(ring, lattice):
        positions, rep_of = real_domains(ring, lattice)
        domains.extend(f"Z_12/{lattice.ideals[k]}" for k in positions.tolist())
        return positions, rep_of

    def recording_pprir(ring):
        asked.append(ring.label)
        return real_pprir(ring)

    def planted(ring, lattice, positions, rep_of):
        holds = real_quotient_pprir(ring, lattice, positions, rep_of)
        answered.extend(f"Z_12/{lattice.ideals[k]}" for k in positions.tolist())
        return holds & np.array([str(lattice.ideals[k]) != "{0,3,6,9}" for k in positions.tolist()], dtype=bool)

    monkeypatch.setattr(quotients, "_domain_quotients", recording_domains)
    monkeypatch.setattr(quotients, "is_pprir", recording_pprir)
    monkeypatch.setattr(quotients, "_quotient_pprir", planted)
    out = quotients.audit_thm1(z12)
    # the quotients by the two primes, the only ones the domain test passed
    assert asked == ["Z_12"]
    assert sorted(answered) == sorted(domains) == ["Z_12/{0,2,4,6,8,10}", "Z_12/{0,3,6,9}"]
    assert out.status == REFUTED
    assert out.witness == "{0,3,6,9}"


def _zero_product_algebra(dim):
    """F_2[a_1..a_{dim-1}]/(a_1..a_{dim-1})^2, built from a ring document."""
    names = ["1", *(f"a{i}" for i in range(1, dim))]
    products = {f"{names[i]}*{names[j]}": "0" for i in range(1, dim) for j in range(i, dim)}
    return ring_from_document({"kind": "algebra", "p": 2, "basis_names": names, "mul": products})


def _block_cells(patch, cells):
    """Set the block budget of both modules: quotients' blocks of ideals and
    the row chunks of ideals._product_lands."""
    patch.setattr(quotients, "_BLOCK_CELLS", cells)
    patch.setattr(ideals, "_BLOCK_CELLS", cells)


def assert_thm1_blocks_match_the_per_ideal_oracle(ring):
    """Every proper ideal gets the oracle's domain verdict and THM1 verdict
    from the block path, and audit_thm1 agrees with the oracle overall."""
    lattice = all_ideals(ring)
    positions, rep_of = quotients._domain_quotients(ring, lattice)
    verdicts = dict(zip(positions.tolist(), quotients._quotient_pprir(ring, lattice, positions, rep_of).tolist()))
    assert len(verdicts) == len(positions) == len(rep_of)
    agree = True
    for k, ideal in enumerate(lattice.ideals):
        if not ideal.is_proper:
            assert k not in verdicts
            continue
        domain, holds = per_ideal_thm1(ring, ideal)
        assert (k in verdicts) == domain, (ring.label, str(ideal))
        if domain:
            assert verdicts[k] == holds, (ring.label, str(ideal))
        agree = agree and (ideal.members in lattice.primes) == holds
    assert (audit_thm1(ring).status == VERIFIED) == agree, ring.label


@pytest.mark.parametrize("block_cells", [1, quotients._BLOCK_CELLS])
def test_thm1_blocks_match_the_per_ideal_oracle_on_the_corpus(corpus, monkeypatch, block_cells):
    # one cell per block makes every block a single row
    _block_cells(monkeypatch, block_cells)
    for ring in corpus:
        assert_thm1_blocks_match_the_per_ideal_oracle(ring)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_zn(128),
        lambda: make_boolean(6),
        lambda: make_product([make_zn(4)] * 3),
        lambda: _zero_product_algebra(7),
    ],
    ids=["Z_128", "B_6", "Z_4^3", "zero-product-128"],
)
def test_thm1_blocks_match_the_per_ideal_oracle_past_the_corpus(build):
    ring = build()
    for cells in (1, quotients._BLOCK_CELLS):
        with pytest.MonkeyPatch.context() as patch:
            _block_cells(patch, cells)
            assert_thm1_blocks_match_the_per_ideal_oracle(ring)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_products(), st.sampled_from([1, quotients._BLOCK_CELLS]))
def test_thm1_blocks_match_the_per_ideal_oracle_on_random_products(ring, block_cells):
    with pytest.MonkeyPatch.context() as patch:
        _block_cells(patch, block_cells)
        assert_thm1_blocks_match_the_per_ideal_oracle(ring)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(relabelled_local_rings(), st.sampled_from([1, quotients._BLOCK_CELLS]))
def test_thm1_blocks_match_the_per_ideal_oracle_on_relabelled_local_rings(ring, block_cells):
    # local rings of characteristic p^k other than Z_{p^k}, and quotients
    # of them, under a drawn relabelling
    with pytest.MonkeyPatch.context() as patch:
        _block_cells(patch, block_cells)
        assert_thm1_blocks_match_the_per_ideal_oracle(ring)
        assert_quotient_pprir_matches_the_oracle(ring)


def _every_proper_quotient(ring):
    """The lattice, the positions of its proper ideals and their rows of
    _cosets, all as one block of mixed sizes."""
    lattice = all_ideals(ring)
    positions = np.flatnonzero(~lattice.inside.all(axis=1))
    return lattice, positions, ideals._cosets(ring, lattice.inside[positions])


def assert_quotient_pprir_matches_the_oracle(ring):
    """For every proper ideal I, not only those with a domain quotient,
    _quotient_pprir's verdict is whether every prime of the ring R/I that
    the per-ideal oracle builds is principal. Returns the number of
    quotients and of those with a non-principal prime."""
    lattice, positions, rep_of = _every_proper_quotient(ring)
    verdicts = quotients._quotient_pprir(ring, lattice, positions, rep_of)
    assert len(verdicts) == len(positions)
    for k, holds in zip(positions.tolist(), verdicts.tolist()):
        ideal = lattice.ideals[k]
        assert holds == is_pprir(per_ideal_quotient(ring, ideal))[0], (ring.label, str(ideal))
    return len(verdicts), int(np.add.reduce(~verdicts))


@pytest.mark.parametrize("block_cells", [1, quotients._BLOCK_CELLS])
def test_quotient_pprir_matches_the_oracle_on_every_proper_quotient(corpus, ring_a, monkeypatch, block_cells):
    # one cell per block makes every chunk of the product test one row
    _block_cells(monkeypatch, block_cells)
    past = [
        make_zn(128),
        make_boolean(6),
        make_product([make_zn(4)] * 3),
        _zero_product_algebra(6),
        make_product([ring_a, make_zn(4)]),
    ]
    counts = [assert_quotient_pprir_matches_the_oracle(ring) for ring in [*corpus, *past]]
    assert tuple(map(sum, zip(*counts))) == (765, 346)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_products(), st.sampled_from([1, quotients._BLOCK_CELLS]))
def test_quotient_pprir_matches_the_oracle_on_random_products(ring, block_cells):
    with pytest.MonkeyPatch.context() as patch:
        _block_cells(patch, block_cells)
        assert_quotient_pprir_matches_the_oracle(ring)


def assert_every_quotient_prime_matches_the_oracle(ring):
    """For every proper P and every proper J other than P that holds P,
    the prime verdict _quotient_pprir asks _product_lands for, recorded as
    it is asked, is is_prime of J/P in the oracle's R/P. The question for
    (P, J) is "does a product of two of P's representatives outside J land
    in J", so it is looked up by J's members and those representatives: a
    question asked of other representatives is not found. P/P = {0} is
    principal, so its question is never asked. Returns the number of pairs
    checked."""
    lattice, positions, rep_of = _every_proper_quotient(ring)
    asked = {}
    real = quotients._product_lands

    def recording(ring, inside, xs, ys):
        lands = real(ring, inside, xs, ys)
        assert np.array_equal(xs, ys)
        asked.update(zip(zip(_pack(inside), _pack(xs)), lands.tolist()))
        return lands

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quotients, "_product_lands", recording)
        quotients._quotient_pprir(ring, lattice, positions, rep_of)
    pairs = 0
    for p in positions.tolist():
        ideal = lattice.ideals[p]
        quotient = per_ideal_quotient(ring, ideal)
        # the oracle's cosets, numbered in the order of their least members
        reps = np.unique(ring.add_table[list(ideal.indices())].min(axis=0))
        # no other pair asks about P's own representatives outside P
        assert (ideal.members, sum(1 << int(a) for a in reps if not ideal.members >> int(a) & 1)) not in asked
        for j in positions.tolist():
            over = lattice.ideals[j]
            if j == p or ideal.members & ~over.members:  # P/P = {0} is principal, and not asked about
                continue
            inside = np.isin(reps, over.indices())
            question = (over.members, sum(1 << int(a) for a in reps[~inside]))
            image = Ideal(quotient, sum(1 << int(i) for i in np.flatnonzero(inside)))
            assert asked[question] == (not is_prime(quotient, image)), (ring.label, str(ideal), str(over))
            pairs += 1
    return pairs


def test_quotient_pprir_asks_the_oracle_quotients_prime_question_of_every_pair(corpus):
    # every proper P, not only those with a domain quotient, so that a prime
    # test that calls a non-prime J/P prime is seen even where every ideal
    # of R/P is principal, and so every verdict would hold either way
    past = [make_zn(128), make_boolean(6), make_product([make_zn(4)] * 3), _zero_product_algebra(6)]
    # a field's one proper ideal is {0}, whose one pair is J = P, not asked
    # about; every other ring has a pair with J a nonzero proper ideal
    for ring in [*corpus, *past]:
        pairs = assert_every_quotient_prime_matches_the_oracle(ring)
        assert pairs or len(all_ideals(ring)) == 2, ring.label


def assert_domain_quotients_ask_the_oracle_quotients_domain_question(ring):
    """For every proper P, the one domain question _domain_quotients asks
    _product_lands of P, recorded as it is asked, has xs = ys = exactly P's
    representatives outside P, read from the oracle's cosets, and its
    verdict is whether the oracle's R/P is a domain; the positions returned
    are those of the domains. Returns the number of ideals asked about."""
    lattice = all_ideals(ring)
    asked = {}
    real = quotients._product_lands

    def recording(ring, inside, xs, ys):
        lands = real(ring, inside, xs, ys)
        assert np.array_equal(xs, ys)
        for row, x, hit in zip(_pack(inside), _pack(xs), lands.tolist()):
            assert row not in asked, (ring.label, row)
            asked[row] = (x, hit)
        return lands

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quotients, "_product_lands", recording)
        positions, _ = quotients._domain_quotients(ring, lattice)
    domains = []
    for k, ideal in enumerate(lattice.ideals):
        if not ideal.is_proper:
            assert ideal.members not in asked
            continue
        reps = np.unique(ring.add_table[list(ideal.indices())].min(axis=0)).tolist()
        outside = sum(1 << a for a in reps if not ideal.members >> a & 1)
        domain = is_domain(per_ideal_quotient(ring, ideal))
        assert asked[ideal.members] == (outside, not domain), (ring.label, str(ideal))
        domains += [k] * domain
    assert sorted(positions.tolist()) == domains
    return len(asked)


def test_domain_quotients_ask_the_oracle_quotients_domain_question(corpus):
    # the domain side's version of the prime-question test above: a domain
    # test that reads every element outside P, not only P's representatives,
    # asks whether P is prime in R, the other side of THM1, and since the
    # theorem holds no verdict would show it
    past = [make_zn(128), make_boolean(6), make_product([make_zn(4)] * 3), _zero_product_algebra(6)]
    asked = [assert_domain_quotients_ask_the_oracle_quotients_domain_question(ring) for ring in [*corpus, *past]]
    assert all(asked)


def test_quotient_ring_tables_match_the_block_builder(corpus):
    # all proper ideals as one block of mixed sizes: the rows it gives build
    # the tables and the projection quotient_ring gives one ideal at a time
    for ring in [*corpus, make_product([make_zn(4)] * 3)]:
        lattice, positions, rep_of = _every_proper_quotient(ring)
        for k, position in enumerate(positions.tolist()):
            ideal = lattice.ideals[position]
            reps = np.flatnonzero(rep_of[k] == np.arange(ring.order))
            coset_of = np.searchsorted(reps, rep_of[k])
            pres = quotient_ring(ring, ideal)
            assert np.array_equal(coset_of[ring.add_table[reps[:, None], reps]], pres.quotient.add_table), (ring.label, str(ideal))
            assert np.array_equal(coset_of[ring.mul_table[reps[:, None], reps]], pres.quotient.mul_table), (ring.label, str(ideal))
            assert (coset_of[ring.zero], coset_of[ring.one]) == (pres.quotient.zero, pres.quotient.one)
            assert tuple(f"[{ring.element_names[r]}]" for r in reps.tolist()) == pres.quotient.element_names
            assert tuple(coset_of.tolist()) == pres.projection.mapping


def test_audit_thm1_on_z2039_allocates_no_square_table():
    # Z_2039/{0} is the largest domain a ring of MAX_ORDER elements can
    # give: its domain and prime tests read the representatives' table rows
    # a few at a time, and nothing order x order is gathered
    ring = make_zn(2039)
    all_ideals(ring).primes
    ring.generators
    tracemalloc.start()
    out = audit_thm1(ring)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert out.status == VERIFIED
    assert peak < 8 << 20


def test_audit_thm1_builds_no_quotient_ring(monkeypatch):
    # Z_12 has six proper ideals, two of them with a domain quotient; none
    # of the quotients is built as a ring, so none gets a lattice either
    built = []
    trusted = FiniteRing._trusted.__func__

    def recording(cls, *args, **kwargs):
        ring = trusted(cls, *args, **kwargs)
        built.append(ring.label)
        return ring

    z12 = make_zn(12)
    monkeypatch.setattr(FiniteRing, "_trusted", classmethod(recording))
    assert audit_thm1(z12).status == VERIFIED
    assert built == []


def test_every_lattice_row_thm1_reads_is_an_ideal_by_the_definition(corpus):
    # THM1 checks no ideal law: it reads the lattice's proper rows as
    # ideals, by the lattice's construction. The rows _cosets is handed as
    # THM1 runs are every proper lattice row, each once, and each passes the
    # whole-block law check
    past = [make_zn(128), make_boolean(6), make_product([make_zn(4)] * 3), _zero_product_algebra(6)]
    real = quotients._cosets
    for ring in [*corpus, *past]:
        read = []

        def recording(ring, inside):
            read.extend(_pack(inside))
            return real(ring, inside)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quotients, "_cosets", recording)
            audit_thm1(ring)
        assert sorted(read) == sorted(i.members for i in all_ideals(ring).ideals if i.is_proper), ring.label
        for mask in read:
            assert whole_block_checked_members(ring, mask).tolist() == list(Ideal(ring, mask).indices())


def _peak(build) -> int:
    tracemalloc.start()
    build()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def test_a_caller_ideal_at_the_order_ceiling_is_checked_in_bounded_memory():
    # the 1024 even members of Z_2048, handed in as a mask or as members,
    # are checked by the definition where the Ideal is built, a chunk of
    # about _BLOCK_CELLS cells at a time, not as whole |I| x order blocks
    ring = make_zn(2048)
    evens = principal_ideal(ring, 2)
    ring.generators
    assert _peak(lambda: Ideal(ring, evens.members)) < 4 << 20
    assert _peak(lambda: ideal_from_members(ring, range(0, 2048, 2))) < 4 << 20
    # the quotient checks no law of an Ideal that already exists: its
    # coset step and its two tables of 2 x 2 cells
    assert _peak(lambda: quotient_ring(ring, evens)) < 1 << 20


def test_the_kernel_of_a_projection_at_the_order_ceiling_is_found_in_bounded_memory():
    # the projection is a homomorphism by the correspondence theorem, so
    # kernel checks no law: it reads the preimage of zero, a few arrays of
    # 2048 cells and one packed mask, well under 1 MiB where a law check
    # would hold blocks of about _BLOCK_CELLS cells
    ring = make_zn(2048)
    projection = quotient_ring(ring, principal_ideal(ring, 2)).projection
    assert _peak(lambda: kernel(projection)) < 1 << 20
    assert kernel(projection).members == principal_ideal(ring, 2).members


@pytest.mark.parametrize("block_cells", [1, 64])
def test_check_hom_block_by_block_matches_the_oracle(monkeypatch, corpus, block_cells):
    # blocks of one row, and of 64 // order rows: each projection R -> R/I
    # of a corpus ring of at most 32 elements, and each map that moves one
    # image to the next coset, whose broken pairs may lie in any block
    monkeypatch.setattr(quotients, "_BLOCK_CELLS", block_cells)
    for ring in (ring for ring in corpus if ring.order <= 32):
        for ideal in all_ideals(ring).ideals:
            if not ideal.is_proper:
                continue
            pres = quotient_ring(ring, ideal)
            q, f = pres.quotient, pres.projection.mapping
            assert check_hom(ring, q, f)
            for a in ring.elements():
                g = (*f[:a], (f[a] + 1) % q.order, *f[a + 1:])
                assert check_hom(ring, q, g) == is_unital_hom(ring, g, q), (ring.label, str(ideal), a)


def test_audit_thm3_verified_and_skipped(ring_a):
    assert audit_thm3(make_zn(6)).status == VERIFIED
    assert audit_thm3(ring_a).status == VERIFIED
    out = audit_thm3(make_zn(17))
    assert out.status == SKIPPED
    assert "cap 16" in out.reason


def test_audit_thm3_cap_override(monkeypatch):
    monkeypatch.setenv(ENDO_CAP_ENV, "32")
    assert audit_thm3(make_zn(17)).status == VERIFIED


@pytest.mark.parametrize(
    "build",
    [lambda: make_boolean(5), lambda: make_product([*[make_zn(2)] * 4, make_zn(3)])],
    ids=["B_5", "Z_2^4xZ_3"],
)
def test_hom_flags_match_classify_hom_on_every_endomorphism(build):
    # the one count of distinct images that THM3 and classify_hom read is
    # the size of a set of the images, map by map: read as maps onto a
    # target of order k, a row is surjective exactly when its count is k
    ring = build()
    maps = np.concatenate(list(quotients._endomorphism_blocks(ring)))
    counts = np.array([distinct_images(m) for m in maps.tolist()])
    for k in range(1, ring.order + 1):
        injective, surjective = quotients._image_flags(maps, ring.order, k)
        assert surjective.tolist() == (counts == k).tolist(), k
        assert injective.tolist() == (counts == ring.order).tolist()
    homs = endomorphisms(ring, cap=64)
    bijective = [distinct_images(hom.mapping) == ring.order for hom in homs]
    assert [classify_hom(hom) for hom in homs] == [{"injective": b, "surjective": b} for b in bijective]


def test_audit_thm3_refutes_on_planted_violation(monkeypatch):
    # flip the injective flag of one map in each of two blocks, the blocks
    # out of order, to prove the refuted path names the least differing map
    b3 = make_boolean(3)
    maps = np.array([h.mapping for h in endomorphisms(b3)])
    planted = {tuple(maps[5].tolist()), tuple(maps[20].tolist())}
    image_flags = quotients._image_flags

    def planting(block, source_order, target_order):
        injective, surjective = image_flags(block, source_order, target_order)
        return injective ^ np.array([tuple(row) in planted for row in block.tolist()]), surjective

    monkeypatch.setattr(quotients, "_endomorphism_blocks", lambda ring: iter([maps[14:], maps[:14]]))
    monkeypatch.setattr(quotients, "_image_flags", planting)
    out = quotients.audit_thm3(b3)
    assert out.status == REFUTED
    assert out.witness == RingHom(b3, b3, tuple(maps[5].tolist())).render()


def assert_search_maps_pass_the_block_law_check(ring):
    """Every map the search yields passes the exhaustive law check, a slice
    of about _BLOCK_CELLS pair cells at a time."""
    check = block_law_check(ring, ring)
    step = max(1, quotients._BLOCK_CELLS // ring.order**2)
    count = 0
    for block in quotients._endomorphism_blocks(ring):
        for start in range(0, len(block), step):
            assert check(block[start:start + step]).all(), ring.label
        count += len(block)
    assert count >= 1, ring.label  # the identity, at least


def test_every_map_the_search_yields_passes_the_block_law_check(corpus):
    # audit_thm3 trusts the search's proof that each map it yields is a
    # unital endomorphism; here every one is held to the law check
    rings = [ring for ring in corpus if ring.order <= 16]
    assert len(rings) == 27
    rings += [make_boolean(5), make_boolean(6), make_product([*[make_zn(2)] * 4, make_zn(3)])]
    for ring in rings:
        assert_search_maps_pass_the_block_law_check(ring)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(local_rings(max_order=16))
def test_every_map_the_search_yields_on_local_rings_passes_the_block_law_check(ring):
    assert_search_maps_pass_the_block_law_check(ring)


def test_audit_thm3_holds_no_map_of_b6(monkeypatch):
    # the 46656 endomorphisms of B_6 are read as the search yields them:
    # held at once they would take 46656 x 64 int64 cells, about 24 MB
    monkeypatch.setenv(ENDO_CAP_ENV, "64")
    tracemalloc.start()
    out = audit_thm3(make_boolean(6))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert out.detail == "endomorphisms checked: 46656"
    assert peak < 8 << 20
