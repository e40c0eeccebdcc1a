"""Claim checkers over the default corpus, and report serialization."""

import dataclasses
import json

import numpy as np
import pytest

import ringaudit.claims as claims
import ringaudit.zmodel as zmodel
from ringaudit.claims import CLAIM_IDS, run_all_claims, run_claim
from ringaudit.corpus import Corpus
from ringaudit.ideals import all_ideals, is_prime, is_principal, parse_ideal, prime_spectrum, zero_ideal
from ringaudit.reports import (
    REFUTED,
    SKIPPED,
    VERIFIED,
    ClaimReport,
    parse_report_json,
    render_report,
)
from ringaudit.rings import make_boolean, make_zn

ALWAYS_VERIFIED = ("THM1", "PROP1", "PROP2", "PROP3", "PROP4", "PROPRAD", "THM6", "EX1FIELD")


@pytest.fixture(scope="module")
def all_reports(corpus):
    return run_all_claims(corpus)


def by_claim(reports, claim):
    return [r for r in reports if r.claim == claim]


def test_report_shape(all_reports, corpus):
    # 11 per-ring claims over 76 rings plus the single EX2 row
    assert len(all_reports) == 11 * len(corpus) + 1
    for claim in CLAIM_IDS:
        rows = by_claim(all_reports, claim)
        assert len(rows) == (1 if claim == "EX2" else len(corpus))


def test_always_verified_claims(all_reports):
    for claim in ALWAYS_VERIFIED:
        statuses = {r.status for r in by_claim(all_reports, claim)}
        assert statuses == {VERIFIED}, claim


def test_thm2_refuted_exactly_on_a(all_reports):
    rows = by_claim(all_reports, "THM2")
    refuted = [r for r in rows if r.status == REFUTED]
    assert [r.ring for r in refuted] == ["A=F2[x,y]/(x,y)^2"]
    assert refuted[0].witness == "{0,x,y,x+y}"
    assert all(r.status == VERIFIED for r in rows if r.ring != "A=F2[x,y]/(x,y)^2")


def test_thm5_refuted_exactly_on_a(all_reports):
    rows = by_claim(all_reports, "THM5")
    refuted = [r for r in rows if r.status == REFUTED]
    assert [r.ring for r in refuted] == ["A=F2[x,y]/(x,y)^2"]
    assert refuted[0].witness == "{0,x,y,x+y}"


def test_thm3_skips_above_cap(all_reports, corpus):
    rows = {r.ring: r for r in by_claim(all_reports, "THM3")}
    for ring in corpus:
        row = rows[ring.label]
        if ring.order > 16:
            assert row.status == SKIPPED
            assert "cap" in row.reason
        else:
            assert row.status == VERIFIED


def test_refuted_witness_revalidates(all_reports, corpus):
    for row in all_reports:
        if row.status != REFUTED:
            continue
        ring = corpus.by_label(row.ring)
        witness = parse_ideal(ring, row.witness)
        # the violated predicate: a prime ideal with no single generator
        assert is_prime(ring, witness)
        assert not is_principal(ring, witness)[0]


def test_ex2_single_row(all_reports):
    rows = by_claim(all_reports, "EX2")
    assert len(rows) == 1
    assert rows[0].ring == "zmodel"
    assert rows[0].status == VERIFIED
    assert rows[0].witness == "Z×{0} ⊂ Z×Z_e ⊂ Z×Z"


def test_unknown_claim_rejected(corpus):
    with pytest.raises(ValueError, match="unknown claim"):
        run_claim("THM9", corpus)


def test_text_rendering(all_reports):
    text = render_report(by_claim(all_reports, "THM2"), "text")
    lines = text.splitlines()
    assert len(lines) == 76
    assert "THM2 A=F2[x,y]/(x,y)^2 refuted {0,x,y,x+y}" in lines
    assert lines[0] == "THM2 Z_2 verified"
    assert render_report([], "text") == ""


def test_json_roundtrip(all_reports):
    doc = render_report(all_reports, "json")
    assert parse_report_json(doc) == all_reports
    assert render_report([], "json") == "[]"


def test_unknown_format_rejected(all_reports):
    with pytest.raises(ValueError, match="format"):
        render_report(all_reports, "xml")


def test_report_invariants_enforced():
    with pytest.raises(ValueError, match="witness"):
        ClaimReport(claim="THM2", ring="Z_6", status=REFUTED)
    with pytest.raises(ValueError, match="reason"):
        ClaimReport(claim="THM3", ring="Z_60", status=SKIPPED)
    with pytest.raises(ValueError, match="status"):
        ClaimReport(claim="THM2", ring="Z_6", status="maybe")


def test_runs_are_deterministic(corpus):
    def strip(reports):
        return [
            (r.claim, r.ring, r.status, r.witness, r.reason, r.detail)
            for r in reports
        ]

    first = run_all_claims(corpus)
    second = run_all_claims(corpus)
    assert strip(first) == strip(second)
    a = json.loads(render_report(first, "json"))
    b = json.loads(render_report(second, "json"))
    for row in a + b:
        row["elapsed_ms"] = None
    assert a == b


@pytest.mark.parametrize("atoms, subsets", [(5, 31), (6, 63)])
def test_thm5_checks_every_subset_of_a_large_spectrum(atoms, subsets):
    # B_k has k primes, so 2^k - 1 nonempty subsets, each covered once
    [row] = run_claim("THM5", Corpus((make_boolean(atoms),)))
    assert row.status == VERIFIED
    assert row.detail == f"subsets checked: {subsets}"


def _never(*args, **kwargs):
    return False


_classify_ring = claims.classify_ring


# each claim's refutation, forced on a small ring by replacing what its
# checker consults: (claim, ring, stand-ins, witness, detail), the stand-ins
# keyed by name in claims, or by "maximal" for the lattice's maximal flags,
# given as the masks of the ideals to flag; B_2's ideal {{},{1}} is the first
# of its two principal primes, and B_3's {{},{1},{3},{1,3}} (mask 51) comes
# before {{},{2}} (mask 5) in canonical order
PLANTED = {
    "PROP1": ("PROP1", make_zn(4), {"is_ppri": _never}, "{0,2}", None),
    "PROP2-principal-prime-not-maximal": (
        "PROP2", make_boolean(2), {"maximal": []}, "{{},{1}}", "principal prime, not maximal",
    ),
    "PROP2-maximal-not-principal-prime": (
        "PROP2", make_boolean(2), {"is_ppri": _never}, "{{},{1}}", "maximal, not a principal prime",
    ),
    "PROP2-first-gap-in-canonical-order": (
        "PROP2", make_boolean(3), {"is_ppri": _never, "maximal": [51, 5]}, "{{},{1},{3},{1,3}}",
        "maximal, not a principal prime",
    ),
    "PROP3": ("PROP3", make_zn(4), {"is_semiprime": _never}, "{0,2}", None),
    "PROP4": ("PROP4", make_zn(4), {"is_ppri": _never}, "{0}", "radical is not a principal prime"),
    "PROPRAD-moved": (
        "PROPRAD", make_zn(4), {"radical": lambda ring, ideal: zero_ideal(ring)}, "{0,2}", "radical moved a prime",
    ),
    "PROPRAD-not-principal-prime": (
        "PROPRAD", make_zn(4), {"is_ppri": _never}, "{0,2}", "radical of a prime is not a principal prime",
    ),
    "THM5-a": ("THM5", make_zn(4), {"_strictly_inside": lambda p, q: True}, "[{0,2}, {0,2}]", "no maximal member"),
    "THM6-duplicate": (
        "THM6", make_zn(4), {"minimal_primes_over": lambda ring, ideal: prime_spectrum(ring) * 2}, "{0}",
        "duplicate minimal primes",
    ),
    "THM6-not-containing": (
        "THM6", make_zn(4), {"minimal_primes_over": lambda ring, ideal: [zero_ideal(ring)]}, "{0,2}",
        "minimal prime does not contain the ideal",
    ),
    "EX1FIELD": (
        "EX1FIELD", make_zn(3),
        {"classify_ring": lambda ring: dataclasses.replace(_classify_ring(ring), is_pprir=False, witness=zero_ideal(ring))},
        "{0}", None,
    ),
}


@pytest.mark.parametrize("claim, ring, planted, witness, detail", PLANTED.values(), ids=PLANTED.keys())
def test_planted_violations_are_refuted_with_a_revalidatable_witness(monkeypatch, claim, ring, planted, witness, detail):
    for name, stand_in in planted.items():
        if name == "maximal":
            lattice = all_ideals(ring)
            monkeypatch.setitem(vars(lattice), "maximal", np.isin([i.members for i in lattice.ideals], stand_in))
        else:
            monkeypatch.setattr(claims, name, stand_in)
    [row] = run_claim(claim, Corpus((ring,)))
    assert (row.status, row.witness, row.detail) == (REFUTED, witness, detail)
    # each ideal the witness names reads back as an ideal of the ring
    for text in witness.strip("[]").split(", "):
        assert str(parse_ideal(ring, text)) == text


@pytest.mark.parametrize("name, planted, detail", [
    ("z_is_prime", _never, "expected prime"),
    ("box_oracle_check", _never, "principal witness failed box oracle"),
    ("z_is_maximal", lambda ideal: True, "expected a strict chain above the prime"),
])
def test_planted_ex2_violations_are_refuted(monkeypatch, name, planted, detail):
    monkeypatch.setattr(zmodel, name, planted)
    [row] = run_claim("EX2", Corpus(()))
    assert (row.status, row.witness, row.detail) == (REFUTED, "Z×{0}", detail)
    # the witness is the ideal that the CLI literal Z^2:(1,0) names
    assert str(zmodel.parse_z_ideal("Z^2:(1,0)")) == row.witness
