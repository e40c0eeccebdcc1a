"""Quotient rings, ring homomorphisms, endomorphism search, and the two
structural audits that depend on them.

Quotients are presented as coset partitions with minimal-index
representatives. The Ideal type keeps a mask in range; quotient_ring
checks the ideal laws once, on the mask, and by the correspondence theorem
the induced tables then form a ring, the projection is a surjective
homomorphism and its kernel is the ideal, so none of that is re-verified
(the tests do it for every corpus quotient). The check stays even for the
lattice ideals audit_thm1 passes, as the one place a caller's mask is
proved an ideal. The representatives are read from the rows of the
addition table at the member indices the check returns: addition is
commutative, a validated law, so column a of those rows is the coset a+I.
Homomorphisms are total index maps; a map given by the caller is trusted
only once check_hom has verified the preservation laws exhaustively, which
makes its kernel an ideal without a second check, while
endomorphisms returns maps that are homomorphisms by construction: each is
written additively from the images of an additive generating set that
preserve the generators' products (the proof is in its docstring). Both
work on blocks of maps, one map to a row of a numpy array: the search
extends a block of partial maps a generator at a time, and one law check
over a block serves check_hom (one row) and audit_thm3 (every
endomorphism, a block at a time).
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .ideals import (
    _BLOCK_CELLS,
    Ideal,
    _checked_members,
    _pack,
    _same_ring,
    all_ideals,
    is_pprir,
    is_prime,
    zero_ideal,
)
from .reports import REFUTED, SKIPPED, VERIFIED, ClaimOutcome
from .rings import FiniteRing

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
    members = _checked_members(ring, ideal.members)
    # the coset a+I is column a of the rows i in I of the addition table,
    # which is commutative; its minimal member is the representative, and
    # cosets are ordered by it
    rep_of = ring.add_table[members].min(axis=0)
    reps = np.flatnonzero(rep_of == np.arange(ring.order))
    coset_of = np.searchsorted(reps, rep_of)
    inside = np.zeros((len(reps), ring.order), dtype=bool)
    inside[coset_of, np.arange(ring.order)] = True
    cosets = tuple(_pack(inside))
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
    return bool(_law_check(src, tgt)(np.array([f]))[0])


def _law_check(source: FiniteRing, target: FiniteRing):
    """The exhaustive homomorphism check for maps source -> target, as a
    function of a K x source.order block of maps: row f passes iff
    f(one) = one, and f(a + b) = f(a) + f(b) and f(ab) = f(a)f(b) for every
    pair (a, b). Both operations commute in both rings, so (b, a) holds
    with (a, b), and the pairs with a <= b are the ones compared."""
    a, b = np.triu_indices(source.order)
    laws = [(table[a, b], target_table.ravel()) for table, target_table in
            ((source.add_table, target.add_table), (source.mul_table, target.mul_table))]

    def check(maps: np.ndarray) -> np.ndarray:
        ok = maps[:, source.one] == target.one
        # f(a)*target.order + f(b) is the cell f(a) op f(b) of a flattened
        # target table
        pairs = np.take(maps, a, axis=1) * target.order + np.take(maps, b, axis=1)
        for src, tgt in laws:
            ok &= (np.take(maps, src, axis=1) == np.take(tgt, pairs)).all(axis=1)
        return ok

    return check


def kernel(hom: RingHom) -> Ideal:
    """Preimage of zero, an ideal by the laws check_hom proves: not re-checked."""
    if not check_hom(hom):
        raise ValueError("kernel is defined for ring homomorphisms only")
    return Ideal(hom.source, _pack((np.array(hom.mapping) == hom.target.zero)[None])[0])


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
    """All unital ring endomorphisms, in increasing order of their mappings,
    by a search over the images of an additive generating set.

    Generators: s_1 = one, and each later s_i is the first index outside the
    subgroup H_{i-1} reached so far (H_0 = {zero}); each at least doubles it,
    so there are at most log2(order) + 1. c_i is the least m > 0 with
    m*s_i in H_{i-1}, and b_i = c_i*s_i. Layer i lists each element of H_i
    outside H_{i-1} once, as h + m*s_i with h in H_{i-1} and 1 <= m < c_i.
    The search branches on v_i = f(s_i): v_1 = one, and each later v_i runs
    over the v with c_i*v = f(b_i). Layer i is written as
    f(h + m*s_i) = f(h) + m*v_i, and f(s_a)f(s_b) = f(s_a*s_b) is checked
    for each generator pair as soon as its three values are known; a
    failure prunes the branch. A complete map costs O(order) to write.

    Partial maps travel in blocks, one map per row of a K x order array, and
    each generator step is a few numpy operations on a whole block: every
    row is expanded by its candidates v_i, read from a padded table indexed
    by f(b_i); rows failing a generator-pair check are dropped; layer i is
    written with one add-table gather per multiple m. The search recurses
    over row blocks of about _BLOCK_CELLS cells, so memory holds one block
    per generator besides the maps found.

    Why the maps found are exactly the unital endomorphisms:
      - None is missed: every unital homomorphism f has f(s_1) = one,
        c_i*f(s_i) = f(b_i) and f(s_a)f(s_b) = f(s_a*s_b), and, being
        additive, it is the map written from its v_i.
      - Additive: (h, m) -> h + m*s_i maps H_{i-1} x Z onto H_i with kernel
        {(-m*s_i, m) : m in c_i*Z}, since {m : m*s_i in H_{i-1}} = c_i*Z. If
        f is additive on H_{i-1}, (h, m) -> f(h) + m*v_i is additive and
        vanishes on that kernel as c_i*v_i = f(b_i), so the extension to H_i
        is well defined and additive.
      - Multiplicative, by bilinearity: for x = sum m_a*s_a and
        y = sum n_b*s_b, f(xy) = sum m_a*n_b*f(s_a*s_b) = f(x)f(y).
      - Unital, since v_1 = one.
    Rings larger than the cap are rejected; set RINGAUDIT_ENDO_CAP to raise
    it.
    """
    if cap is None:
        cap = endomorphism_cap()
    n = ring.order
    if n > cap:
        raise ValueError(
            f"ring order {n} exceeds endomorphism search cap {cap}; "
            f"set {ENDO_CAP_ENV} to raise it"
        )
    add, mul = ring.add_table, ring.mul_table
    level: list[int | None] = [None] * n  # the layer of each reached element
    level[ring.zero] = 0
    reached, gens, layers = [ring.zero], [], []  # layers[i]: c_i, b_i, multiples
    s = ring.one
    while s is not None:
        # multiples[m] lists h + m*s for h in H_{i-1}, in the order of
        # reached; m = c_i, which ends the loop, gives b_i first
        multiples = [reached]
        while level[(row := add[multiples[-1], s].tolist())[0]] is None:
            multiples.append(row)
        layer = [x for row_m in multiples[1:] for x in row_m]
        for x in layer:
            level[x] = len(layers)
        gens.append(s)
        layers.append((len(multiples), row[0], np.array(multiples)))
        reached = reached + layer
        s = level.index(None) if len(reached) < n else None
    # a pair is checked at the layer of its later factor or of its product,
    # whichever is later: before writing it if the product lies below it
    checks = [([], []) for _ in gens]
    for j, sb in enumerate(gens):
        for sa in gens[:j + 1]:
            x = int(mul[sa, sb])
            i = max(j, level[x])
            checks[i][level[x] == i].append((sa, sb, x))
    # each side's triples as three index arrays: sa, sb, x
    checks = [tuple(np.array(side, dtype=np.intp).reshape(-1, 3).T for side in step) for step in checks]
    candidates = {}  # c -> row w lists the v with c*v = w, padded with -1
    for c in {c for c, _, _ in layers[1:]}:
        multiple = np.full(n, ring.zero)
        for _ in range(c):
            multiple = add[multiple, np.arange(n)]
        # the v sorted by c*v, then by v; each lands in its row's next column
        by_multiple = np.argsort(multiple, kind="stable")
        count = np.bincount(multiple, minlength=n)
        column = np.arange(n) - np.repeat(np.cumsum(count) - count, count)
        candidates[c] = np.full((n, count.max()), -1)
        candidates[c][multiple[by_multiple], column] = by_multiple

    rows_per_block = max(1, _BLOCK_CELLS // n)
    found: list[tuple[int, ...]] = []

    def holds(block: np.ndarray, triples) -> np.ndarray:
        sa, sb, x = triples
        return (mul[block[:, sa], block[:, sb]] == block[:, x]).all(axis=1)

    def write_layer(block: np.ndarray, multiples: np.ndarray, v: np.ndarray) -> None:
        for m in range(1, len(multiples)):
            block[:, multiples[m]] = add[block[:, multiples[m - 1]], v[:, None]]

    def grow(i: int, block: np.ndarray) -> np.ndarray:
        """The rows of block, each given every candidate v_i in turn, that
        pass the checks of generator i, with layer i written."""
        c, b, multiples = layers[i]
        before, after = checks[i]
        options = candidates[c][block[:, b]]
        keep = options >= 0
        block = block[np.nonzero(keep)[0]]
        block[:, gens[i]] = options[keep]
        block = block[holds(block, before)]
        write_layer(block, multiples, block[:, gens[i]])
        return block[holds(block, after)]

    def extend(i: int, block: np.ndarray) -> None:
        if i == len(layers):
            found.extend(map(tuple, block.tolist()))
            return
        # a slice of rows whose expansion fits the block budget
        rows = max(1, rows_per_block // candidates[layers[i][0]].shape[1])
        for start in range(0, len(block), rows):
            grown = grow(i, block[start:start + rows])
            if len(grown):
                extend(i + 1, grown)

    # v_1 = one fixes layer 0, the multiples of one; its one check,
    # one*one = one, holds
    first = np.full((1, n), ring.zero)
    write_layer(first, layers[0][2], np.array([ring.one]))
    extend(1, first)
    found.sort()
    return [RingHom(ring, ring, m) for m in found]


def audit_thm1(ring: FiniteRing) -> ClaimOutcome:
    """For every proper ideal P: P prime iff R/P is a domain in which every
    prime ideal is principal. Also records whether R itself has all primes
    principal (the hypothesis side).

    Each quotient Q is asked two things, by their definitions: whether it is
    a domain, which is whether its zero ideal is prime (is_prime checks
    every product of two nonzero elements), and, only when it is, whether
    every prime of Q is principal. When Q is not a domain the conjunction is
    false whatever is_pprir(Q) would say, so skipping it changes no answer;
    it only spares the lattice and spectrum of every quotient that is not a
    domain. The witness is the first proper ideal, in canonical order, on
    which the two sides differ."""
    hypothesis, _ = is_pprir(ring)
    detail = f"all-primes-principal hypothesis: {hypothesis}"
    lattice = all_ideals(ring)
    for ideal in lattice.ideals:
        if not ideal.is_proper:
            continue
        quotient = quotient_ring(ring, ideal).quotient
        holds = is_prime(quotient, zero_ideal(quotient)) and is_pprir(quotient)[0]
        if (ideal.members in lattice.primes) != holds:
            return ClaimOutcome(REFUTED, witness=str(ideal), detail=detail)
    return ClaimOutcome(VERIFIED, detail=detail)


def audit_thm3(ring: FiniteRing) -> ClaimOutcome:
    """Every surjective unital endomorphism must be injective (and, the
    cardinality converse, every injective one surjective). Rings over
    endomorphism_cap() are skipped, with the cap named. Every map found is
    checked exhaustively before it is classified; the witness is the first
    map, in increasing order, whose two flags differ."""
    cap = endomorphism_cap()
    if ring.order > cap:
        return ClaimOutcome(SKIPPED, reason=f"order {ring.order} exceeds endomorphism cap {cap}")
    homs = endomorphisms(ring, cap=cap)
    for hom, (injective, surjective) in zip(homs, _hom_flags(homs)):
        if surjective != injective:
            return ClaimOutcome(REFUTED, witness=hom.render())
    return ClaimOutcome(VERIFIED, detail=f"endomorphisms checked: {len(homs)}")


def _hom_flags(homs: list[RingHom]) -> Iterator[tuple[bool, bool]]:
    """Yield (injective, surjective) for each of homs, maps between one
    source and one target, read from its count of distinct images. Each
    block of about _BLOCK_CELLS cells is first checked exhaustively; a map
    that is not a homomorphism raises ValueError."""
    source, target = homs[0].source, homs[0].target
    check = _law_check(source, target)
    step = max(1, _BLOCK_CELLS // source.order**2)
    for start in range(0, len(homs), step):
        maps = np.array([hom.mapping for hom in homs[start:start + step]])
        bad = np.flatnonzero(~check(maps))
        if len(bad):
            raise ValueError(f"not a ring homomorphism: {homs[start + bad[0]].render()}")
        maps.sort(axis=1)
        distinct = 1 + (maps[:, 1:] != maps[:, :-1]).sum(axis=1)
        yield from zip((distinct == source.order).tolist(), (distinct == target.order).tolist())
