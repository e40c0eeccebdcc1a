"""The audited-claim catalog: per-ring checkers run over a corpus.

Claim ids (a fixed enumeration, also the CLI vocabulary):

  THM1      primality of each proper ideal P matches R/P being a domain in
            which every prime ideal is principal
  PROP1     where every prime is principal, every maximal ideal is a
            principal prime
  PROP2     in Boolean rings, principal primes and maximal ideals coincide
  PROP3     every principal prime is semiprime
  PROP4     where every prime is principal, the radical of every primary
            ideal is a principal prime
  PROPRAD   the radical of a prime is the prime itself (and principal
            where every prime is)
  THM2      finite instantiation: prime chains always stabilize in a finite
            ring, so the chain-condition converse predicts every prime
            principal; rings where that fails are refuted with a witness
  THM3      surjective unital endomorphisms are injective
  THM5      (a) every nonempty set of primes has a maximal member;
            (b) the same finite prediction as THM2
  THM6      minimal primes over each proper ideal form a finite,
            duplicate-free list (hypothesis sides recorded)
  EX1FIELD  fields have every prime principal
  EX2       symbolic Z x Z witness: a prime, principal, non-maximal ideal

Refuted-with-witness is a first-class outcome, not an error: THM2 and
THM5(b) are expected to fail on exactly one default-corpus ring.
"""

from __future__ import annotations

import time

from .corpus import Corpus
from .ideals import (
    all_ideals,
    classify_ring,
    is_ppri,
    is_pprir,
    is_principal,
    is_semiprime,
    minimal_primes_over,
    prime_spectrum,
    primary_ideals,
    radical,
)
from .quotients import audit_thm1, audit_thm3
from .reports import REFUTED, VERIFIED, ClaimOutcome, ClaimReport
from .rings import FiniteRing
from .zmodel import audit_ex2

__all__ = ["CLAIM_IDS", "run_all_claims", "run_claim"]


def _prop1(ring: FiniteRing) -> ClaimOutcome:
    hypothesis, _ = is_pprir(ring)
    if not hypothesis:
        return ClaimOutcome(VERIFIED, detail="vacuous: some prime is not principal")
    lattice = all_ideals(ring)
    for k in lattice.maximal.nonzero()[0].tolist():
        if not is_ppri(ring, lattice.ideals[k]):
            return ClaimOutcome(REFUTED, witness=str(lattice.ideals[k]))
    return ClaimOutcome(VERIFIED, detail="hypothesis holds")


def _prop2(ring: FiniteRing) -> ClaimOutcome:
    flags = classify_ring(ring)
    if not flags.is_boolean:
        return ClaimOutcome(VERIFIED, detail="vacuous: ring is not Boolean")
    lattice = all_ideals(ring)
    for ideal, maximal in zip(lattice.ideals, lattice.maximal.tolist()):
        if is_ppri(ring, ideal) != maximal:
            direction = "maximal, not a principal prime" if maximal else "principal prime, not maximal"
            return ClaimOutcome(REFUTED, witness=str(ideal), detail=direction)
    return ClaimOutcome(VERIFIED, detail=f"all-primes-principal hypothesis: {flags.is_pprir}")


def _prop3(ring: FiniteRing) -> ClaimOutcome:
    for prime in prime_spectrum(ring):
        if is_principal(ring, prime)[0] and not is_semiprime(ring, prime):
            return ClaimOutcome(REFUTED, witness=str(prime))
    return ClaimOutcome(VERIFIED)


def _prop4(ring: FiniteRing) -> ClaimOutcome:
    hypothesis, _ = is_pprir(ring)
    if not hypothesis:
        return ClaimOutcome(VERIFIED, detail="vacuous: some prime is not principal")
    for ideal, rad in primary_ideals(ring):
        if not is_ppri(ring, rad):
            return ClaimOutcome(REFUTED, witness=str(ideal), detail="radical is not a principal prime")
    return ClaimOutcome(VERIFIED, detail="hypothesis holds")


def _proprad(ring: FiniteRing) -> ClaimOutcome:
    hypothesis, _ = is_pprir(ring)
    for prime in prime_spectrum(ring):
        if radical(ring, prime).members != prime.members:
            return ClaimOutcome(REFUTED, witness=str(prime), detail="radical moved a prime")
        if hypothesis and not is_ppri(ring, prime):
            return ClaimOutcome(REFUTED, witness=str(prime), detail="radical of a prime is not a principal prime")
    return ClaimOutcome(VERIFIED, detail=f"all-primes-principal hypothesis: {hypothesis}")


def _thm2(ring: FiniteRing) -> ClaimOutcome:
    # finite rings satisfy the stabilizing-chain hypothesis vacuously, so
    # the predicted conclusion is simply: every prime ideal is principal
    flag, witness = is_pprir(ring)
    if flag:
        return ClaimOutcome(VERIFIED)
    return ClaimOutcome(REFUTED, witness=str(witness), detail="prime ideal with no single generator")


def _strictly_inside(p, q) -> bool:
    return p.members & ~q.members == 0 and p.members != q.members


def _thm5(ring: FiniteRing) -> ClaimOutcome:
    # Every nonempty subset of a finite set has a maximal member exactly when
    # strict containment on it has no cycle. Containment is transitive, so a
    # cycle would put two primes strictly inside each other: checking the
    # |Spec|^2 pairs covers all 2^|Spec| - 1 subsets.
    spectrum = prime_spectrum(ring)
    for p in spectrum:
        for q in spectrum:
            if _strictly_inside(p, q) and _strictly_inside(q, p):
                return ClaimOutcome(REFUTED, witness=f"[{p}, {q}]", detail="no maximal member")
    flag, witness = is_pprir(ring)
    if not flag:
        return ClaimOutcome(REFUTED, witness=str(witness), detail="prime ideal with no single generator")
    return ClaimOutcome(VERIFIED, detail=f"subsets checked: {2 ** len(spectrum) - 1}")


def _thm6(ring: FiniteRing) -> ClaimOutcome:
    hypothesis, _ = is_pprir(ring)
    all_min_ppri = True
    for ideal in all_ideals(ring).ideals:
        if not ideal.is_proper:
            continue
        mins = minimal_primes_over(ring, ideal)
        masks = [p.members for p in mins]
        if len(set(masks)) != len(masks):
            return ClaimOutcome(REFUTED, witness=str(ideal), detail="duplicate minimal primes")
        if any(ideal.members & ~p.members for p in mins):
            return ClaimOutcome(REFUTED, witness=str(ideal), detail="minimal prime does not contain the ideal")
        all_min_ppri = all_min_ppri and all(is_ppri(ring, p) for p in mins)
    detail = f"all-primes-principal: {hypothesis}; every minimal prime principal: {all_min_ppri}"
    return ClaimOutcome(VERIFIED, detail=detail)


def _ex1field(ring: FiniteRing) -> ClaimOutcome:
    flags = classify_ring(ring)
    if not flags.is_field:
        return ClaimOutcome(VERIFIED, detail="vacuous: ring is not a field")
    if not flags.is_pprir:
        return ClaimOutcome(REFUTED, witness=str(flags.witness))
    return ClaimOutcome(VERIFIED, detail="field")


_PER_RING_CHECKERS = {
    "THM1": audit_thm1,
    "PROP1": _prop1,
    "PROP2": _prop2,
    "PROP3": _prop3,
    "PROP4": _prop4,
    "PROPRAD": _proprad,
    "THM2": _thm2,
    "THM3": audit_thm3,
    "THM5": _thm5,
    "THM6": _thm6,
    "EX1FIELD": _ex1field,
}

CLAIM_IDS = (*_PER_RING_CHECKERS, "EX2")


def _timed_report(claim: str, label: str, check, *args) -> ClaimReport:
    start = time.perf_counter()
    outcome = check(*args)
    elapsed = (time.perf_counter() - start) * 1000.0
    return ClaimReport(claim, label, outcome.status, outcome.witness, outcome.reason, outcome.detail, elapsed)


def run_claim(claim: str, corpus: Corpus) -> list[ClaimReport]:
    """One report per (claim, ring), in corpus order; EX2 yields a single
    report against the symbolic model."""
    if claim == "EX2":
        return [_timed_report("EX2", "zmodel", audit_ex2)]
    checker = _PER_RING_CHECKERS.get(claim)
    if checker is None:
        raise ValueError(f"unknown claim id {claim!r}; expected one of {', '.join(CLAIM_IDS)}")
    return [_timed_report(claim, ring.label, checker, ring) for ring in corpus]


def run_all_claims(corpus: Corpus) -> list[ClaimReport]:
    """Every claim in catalog order."""
    reports: list[ClaimReport] = []
    for claim in CLAIM_IDS:
        reports.extend(run_claim(claim, corpus))
    return reports
