"""Quotients, homomorphisms, endomorphism search, and the two audits."""

import hashlib
import json
from itertools import product as cartesian
from pathlib import Path

import numpy as np
import pytest

from _oracles import brute_force_endos, is_unital_hom, quotient_tables
from ringaudit.ideals import (
    Ideal,
    all_ideals,
    classify_ring,
    ideal_generated,
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
from ringaudit.rings import make_boolean, make_product, make_zn, validate_tables


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
            for mask in pres.cosets:
                assert combined & mask == 0
                combined |= mask
            assert combined == (1 << ring.order) - 1
            assert check_hom(pres.projection)
            assert kernel(pres.projection).members == ideal.members


def test_every_corpus_quotient_is_a_ring_with_the_ideal_as_kernel(corpus):
    # quotient_ring trusts the correspondence theorem; re-check it here
    for ring in corpus:
        for ideal in all_ideals(ring).ideals:
            if not ideal.is_proper:
                continue
            pres = quotient_ring(ring, ideal)
            q = pres.quotient
            validate_tables(q.order, q.add_table, q.mul_table, q.zero, q.one)
            assert check_hom(pres.projection)
            assert kernel(pres.projection) == ideal
            add, mul, coset_of = quotient_tables(ring, set(ideal.indices()))
            assert q.add_table.tolist() == add and q.mul_table.tolist() == mul
            assert pres.projection.mapping == coset_of


@pytest.mark.parametrize("mask, law", [(0b11, "missing -1"), (0b101, "missing -2")])
def test_quotient_rejects_a_non_ideal(mask, law):
    z6 = make_zn(6)
    with pytest.raises(ValueError) as err:
        quotient_ring(z6, Ideal(z6, mask))
    assert type(err.value) is ValueError
    assert str(err.value) == f"not an ideal: {law}"


def test_prime_iff_quotient_domain(small_corpus_rings):
    for ring in small_corpus_rings:
        for ideal in all_ideals(ring).ideals:
            if not ideal.is_proper:
                continue
            q = quotient_ring(ring, ideal).quotient
            assert is_prime(ring, ideal) == classify_ring(q).is_domain


def test_check_hom_basics():
    z6 = make_zn(6)
    identity = RingHom(z6, z6, tuple(range(6)))
    assert check_hom(identity)
    shift = RingHom(z6, z6, tuple((a + 1) % 6 for a in range(6)))
    assert not check_hom(shift)
    with pytest.raises(ValueError, match="length"):
        check_hom(RingHom(z6, z6, (0, 1)))
    with pytest.raises(ValueError, match="range"):
        check_hom(RingHom(z6, z6, (0, 1, 2, 3, 4, 17)))


def test_check_hom_matches_oracle_on_every_small_map(corpus):
    for ring in corpus:
        if ring.order > 4:
            continue
        for mapping in cartesian(range(ring.order), repeat=ring.order):
            expected = is_unital_hom(ring, mapping)
            assert check_hom(RingHom(ring, ring, mapping)) == expected, (ring.label, mapping)


def test_check_hom_matches_oracle_on_altered_projections(corpus):
    """Maps between different rings: each corpus projection R -> R/I, and
    each map that moves one element's image to the next coset."""
    for ring in corpus:
        for ideal in all_ideals(ring).ideals:
            if not ideal.is_proper:
                continue
            pres = quotient_ring(ring, ideal)
            q, f = pres.quotient, pres.projection.mapping
            assert check_hom(pres.projection)
            for a in ring.elements():
                g = (*f[:a], (f[a] + 1) % q.order, *f[a + 1:])
                assert check_hom(RingHom(ring, q, g)) == is_unital_hom(ring, g, q), (ring.label, str(ideal), a)


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
    assert check_hom(diag)
    assert classify_hom(diag) == {"injective": True, "surjective": False}


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
            assert check_hom(hom)


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


def test_audit_thm3_verified_and_skipped(ring_a):
    assert audit_thm3(make_zn(6)).status == VERIFIED
    assert audit_thm3(ring_a).status == VERIFIED
    out = audit_thm3(make_zn(17))
    assert out.status == SKIPPED
    assert "cap 16" in out.reason


def test_audit_thm3_cap_override():
    assert audit_thm3(make_zn(17), cap=32).status == VERIFIED


def test_audit_thm3_refutes_on_planted_violation(monkeypatch):
    # force a fake non-injective surjection to prove the refuted path works
    import ringaudit.quotients as q

    z4 = make_zn(4)
    fake = RingHom(z4, z4, (0, 1, 2, 3))
    monkeypatch.setattr(q, "endomorphisms", lambda ring, cap=None: [fake])
    monkeypatch.setattr(q, "classify_hom", lambda hom: {"injective": False, "surjective": True})
    out = q.audit_thm3(z4)
    assert out.status == REFUTED
    assert out.witness == fake.render()
