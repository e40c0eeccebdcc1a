"""Quotient rings, ring homomorphisms, endomorphism search, and the two
structural audits that depend on them.

Quotients are presented as coset partitions with minimal-index
representatives. quotient_ring checks once that its argument is an ideal;
by the correspondence theorem the induced tables then form a ring, the
projection is a surjective homomorphism and its kernel is the ideal, so
none of that is re-verified (the tests do it for every corpus quotient).
Homomorphisms are total index maps; a map given by the caller is trusted
only once check_hom has verified the preservation laws exhaustively, while
endomorphisms returns maps that forced closure already made homomorphisms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .ideals import (
    Ideal,
    _masks_of,
    _same_ring,
    all_ideals,
    classify_ring,
    ideal_from_members,
    is_pprir,
)
from .reports import REFUTED, SKIPPED, VERIFIED, ClaimOutcome
from .rings import FiniteRing, additive_order

__all__ = [
    "DEFAULT_ENDO_CAP",
    "ENDO_CAP_ENV",
    "QuotientPresentation",
    "RingHom",
    "audit_thm1",
    "audit_thm3",
    "check_hom",
    "classify_hom",
    "endomorphism_cap",
    "endomorphisms",
    "kernel",
    "quotient_ring",
]

DEFAULT_ENDO_CAP = 16
ENDO_CAP_ENV = "RINGAUDIT_ENDO_CAP"


@dataclass(frozen=True)
class RingHom:
    """Total element map between rings; mapping[a] is the image of a."""

    source: FiniteRing
    target: FiniteRing
    mapping: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.mapping[self.source._check_index(a)]

    def render(self) -> str:
        return f"{self.source.label}->{self.target.label}:{list(self.mapping)}"


@dataclass(frozen=True)
class QuotientPresentation:
    """A quotient R/I: coset partition, the quotient ring, the projection.

    cosets[i] is the bitmask of base elements in coset i; coset order is by
    minimal member index, which is also the representative.
    """

    base: FiniteRing
    ideal: Ideal
    cosets: tuple[int, ...]
    quotient: FiniteRing
    projection: RingHom


def quotient_ring(ring: FiniteRing, ideal: Ideal) -> QuotientPresentation:
    """Quotient by a proper ideal. Quotienting by R itself is rejected:
    the result would be the zero ring, and a mask that is not an ideal
    raises ValueError naming the first violated ideal law."""
    _same_ring(ring, ideal)
    if not ideal.is_proper:
        raise ValueError("cannot quotient by the whole ring (the zero ring is excluded)")
    members = list(ideal.indices())
    ideal_from_members(ring, members)
    # the coset a+I is row a of the addition table restricted to I; its
    # minimal member is the representative, and cosets are ordered by it
    rep_of = ring.add_table[:, members].min(axis=1)
    reps = np.flatnonzero(rep_of == np.arange(ring.order))
    coset_of = np.searchsorted(reps, rep_of)
    cosets = tuple(_masks_of(ring, ring.add_table[np.ix_(reps, members)]))
    quotient = FiniteRing._trusted(
        len(reps),
        coset_of[ring.add_table[np.ix_(reps, reps)]],
        coset_of[ring.mul_table[np.ix_(reps, reps)]],
        coset_of[ring.zero], coset_of[ring.one],
        f"{ring.label}/{ideal}",
        element_names=[f"[{ring.element_names[r]}]" for r in reps.tolist()],
    )
    projection = RingHom(ring, quotient, tuple(coset_of.tolist()))
    return QuotientPresentation(ring, ideal, cosets, quotient, projection)


def check_hom(hom: RingHom) -> bool:
    """Exhaustively verify unity, additive and multiplicative preservation.

    Malformed maps (wrong length, image out of range) raise ValueError;
    well-formed maps that break a law just return False.
    """
    src, tgt, f = hom.source, hom.target, hom.mapping
    if len(f) != src.order:
        raise ValueError("map length does not match source order")
    if any(not 0 <= v < tgt.order for v in f):
        raise ValueError("map image out of target range")
    if f[src.one] != tgt.one:
        return False
    f = np.array(f)
    # cell (a, b) compares f(a op b) with f(a) op f(b)
    return bool(
        (f[src.add_table] == tgt.add_table[f][:, f]).all()
        and (f[src.mul_table] == tgt.mul_table[f][:, f]).all()
    )


def kernel(hom: RingHom) -> Ideal:
    """Preimage of zero, returned as a validated Ideal of the source."""
    if not check_hom(hom):
        raise ValueError("kernel is defined for ring homomorphisms only")
    members = [a for a in range(hom.source.order) if hom.mapping[a] == hom.target.zero]
    return ideal_from_members(hom.source, members)


def classify_hom(hom: RingHom) -> dict:
    """{injective, surjective}; injective iff the kernel is the zero ideal."""
    if not check_hom(hom):
        raise ValueError("classify_hom is defined for ring homomorphisms only")
    distinct = len(set(hom.mapping))
    return {
        "injective": distinct == hom.source.order,
        "surjective": distinct == hom.target.order,
    }


def endomorphism_cap() -> int:
    raw = os.environ.get(ENDO_CAP_ENV)
    if not raw:
        return DEFAULT_ENDO_CAP
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{ENDO_CAP_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def endomorphisms(ring: FiniteRing, cap: int | None = None) -> list[RingHom]:
    """All unital ring endomorphisms, by backtracking with forced closure.

    Each partial assignment is closed under both preservation laws before
    it branches, by a worklist: every newly assigned element is paired once
    with every assigned element, itself included, and the images this forces
    are assigned in turn; a conflict prunes the branch. The forced closure
    is unique, so the order of the worklist cannot change the maps found.
    Candidate images must have additive order dividing the preimage's
    additive order. Rings larger than the cap are rejected; set
    RINGAUDIT_ENDO_CAP to raise it.
    """
    if cap is None:
        cap = endomorphism_cap()
    n = ring.order
    if n > cap:
        raise ValueError(
            f"ring order {n} exceeds endomorphism search cap {cap}; "
            f"set {ENDO_CAP_ENV} to raise it"
        )
    add, mul = ring.add_table.tolist(), ring.mul_table.tolist()
    orders = [additive_order(ring, a) for a in range(n)]
    found: list[tuple[int, ...]] = []

    def close(assign: list[int], known: list[int], todo: list[int]) -> bool:
        """Assign every image forced by pairs that involve an element of
        todo; False on a conflict."""
        while todo:
            a = todo.pop()
            va = assign[a]
            arow, mrow = add[a], mul[a]
            varow, vmrow = add[va], mul[va]
            # elements assigned in this loop are on todo and meet a later
            for b in known[:]:
                vb = assign[b]
                for c, v in ((arow[b], varow[vb]), (mrow[b], vmrow[vb])):
                    w = assign[c]
                    if w == v:
                        continue
                    if w >= 0:
                        return False
                    assign[c] = v
                    known.append(c)
                    todo.append(c)
        return True

    def extend(assign: list[int], known: list[int], todo: list[int]) -> None:
        if not close(assign, known, todo):
            return
        if len(known) == n:
            found.append(tuple(assign))
            return
        e = assign.index(-1)
        for v in range(n):
            if orders[e] % orders[v] == 0:
                branch = list(assign)
                branch[e] = v
                extend(branch, [*known, e], [e])

    start = [-1] * n
    start[ring.zero] = ring.zero
    start[ring.one] = ring.one
    extend(start, [ring.zero, ring.one], [ring.zero, ring.one])

    # close() has paired every two assigned elements under both laws, so
    # each complete assignment found is a homomorphism. Sibling branches
    # agree below the least unassigned index e and give e increasing images,
    # so the maps come out distinct and in increasing order.
    return [RingHom(ring, ring, f) for f in found]


def audit_thm1(ring: FiniteRing) -> ClaimOutcome:
    """For every proper ideal P: P prime iff R/P is a domain in which every
    prime ideal is principal. Also records whether R itself has all primes
    principal (the hypothesis side)."""
    hypothesis, _ = is_pprir(ring)
    detail = f"all-primes-principal hypothesis: {hypothesis}"
    lattice = all_ideals(ring)
    for ideal in lattice.ideals:
        if not ideal.is_proper:
            continue
        quotient = quotient_ring(ring, ideal).quotient
        flags = classify_ring(quotient)
        if (ideal.members in lattice.primes) != (flags.is_domain and flags.is_pprir):
            return ClaimOutcome(REFUTED, witness=str(ideal), detail=detail)
    return ClaimOutcome(VERIFIED, detail=detail)


def audit_thm3(ring: FiniteRing, cap: int | None = None) -> ClaimOutcome:
    """Every surjective unital endomorphism must be injective (and, the
    cardinality converse, every injective one surjective)."""
    if cap is None:
        cap = endomorphism_cap()
    if ring.order > cap:
        return ClaimOutcome(SKIPPED, reason=f"order {ring.order} exceeds endomorphism cap {cap}")
    homs = endomorphisms(ring, cap=cap)
    for hom in homs:
        flags = classify_hom(hom)
        if flags["surjective"] != flags["injective"]:
            return ClaimOutcome(REFUTED, witness=hom.render())
    return ClaimOutcome(VERIFIED, detail=f"endomorphisms checked: {len(homs)}")
