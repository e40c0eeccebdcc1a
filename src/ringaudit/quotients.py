"""Quotient rings, ring homomorphisms, endomorphism search, and the two
structural audits that depend on them.

Quotients are presented by the projection onto minimal-index coset
representatives; the coset partition is read off it only when asked
for. The Ideal type keeps a mask in range; the ideal laws are checked
once, on a block of member rows (ideals._check_ideal_laws), and by the
correspondence theorem the induced tables then form a ring, the projection
is a surjective homomorphism and its kernel is the ideal, so none of that
is re-verified (the tests do it for every corpus quotient). The check stays
even for the lattice ideals audit_thm1 passes, as the one place a caller's
mask is proved an ideal. The representatives are read from the rows of the
addition table at the member indices: addition is commutative, a validated
law, so column a of those rows is the coset a+I. quotient_ring and
audit_thm1 share one builder: _cosets gives the representatives of a block
of ideals of one size; _quotient makes the ring of one of them for
quotient_ring.
audit_thm1 runs _cosets on each block of the lattice's proper ideals and
asks _domains, of the whole block, whether each quotient is a domain, by
the definition, on the products of its representatives. It builds no ring
for any quotient: _quotient_pprir reads the ideals of each domain quotient
R/I off R's lattice, as the J/I for the ideals J that hold I (the
correspondence theorem again), and tests each for primality and
principality on the quotient's multiplication table.
Homomorphisms are total index maps; a map given by the caller is trusted
only once check_hom has verified the preservation laws exhaustively, which
makes its kernel an ideal without a second check, while
endomorphisms returns maps that are homomorphisms by construction: each is
written additively from images of ring.generators (picked once, in
rings) that preserve the generators' products (the proof is in its
docstring). Both work on blocks of maps, one map to a row of a numpy
array: the search extends a block of partial maps a generator at a time,
and one law check over a block serves check_hom (one row) and audit_thm3
(every endomorphism, a block at a time).
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ideals import (
    _BLOCK_CELLS,
    Ideal,
    IdealLattice,
    _check_ideal_laws,
    _flags_of,
    _pack,
    _row_bytes,
    _rows_of,
    _same_ring,
    _subsets,
    all_ideals,
    is_pprir,
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
    """A quotient R/I: the quotient ring, the projection, the coset partition.

    cosets[i] is the bitmask of base elements in coset i, read off the
    projection on first use; coset order is by minimal member index, which
    is also the representative.
    """

    base: FiniteRing
    ideal: Ideal
    quotient: FiniteRing
    projection: RingHom

    @cached_property
    def cosets(self) -> tuple[int, ...]:
        inside = np.zeros((self.quotient.order, self.base.order), dtype=bool)
        inside[self.projection.mapping, np.arange(self.base.order)] = True
        return tuple(_pack(inside))


def quotient_ring(ring: FiniteRing, ideal: Ideal) -> QuotientPresentation:
    """Quotient by a proper ideal. Quotienting by R itself is rejected:
    the result would be the zero ring, and a mask that is not an ideal
    raises ValueError naming the first violated ideal law."""
    _same_ring(ring, ideal)
    if not ideal.is_proper:
        raise ValueError("cannot quotient by the whole ring (the zero ring is excluded)")
    inside = _flags_of(ring, ideal.members)[None]
    rep_of, reps = _cosets(ring, inside, inside.nonzero()[1][None])
    quotient, coset_of = _quotient(ring, ideal, rep_of[0], reps[0])
    projection = RingHom(ring, quotient, tuple(coset_of.tolist()))
    return QuotientPresentation(ring, ideal, quotient, projection)


def _cosets(ring: FiniteRing, inside: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rep_of, reps) for the ideals in the rows of a K x order bool block,
    given their K x s member indices, once _check_ideal_laws has proved
    every row an ideal: rep_of[k, a] is the representative of the coset
    a + I_k, and reps[k] lists the order/s representatives of I_k in
    increasing order.

    The coset a+I is column a of the rows i in I of the addition table,
    which is commutative; its minimal member is the representative."""
    _check_ideal_laws(ring, inside, members)
    rep_of = np.minimum.reduce(ring.add_table[members], axis=1)
    return rep_of, (rep_of == np.arange(ring.order)).nonzero()[1].reshape(len(inside), -1)


def _quotient(ring: FiniteRing, ideal: Ideal, rep_of: np.ndarray, reps: np.ndarray) -> tuple[FiniteRing, np.ndarray]:
    """The ring R/I and the coset index of each element, from one row of
    _cosets: cosets are ordered by representative, and the cell (a, b) of
    each table is the coset of the ring's cell at the representatives a, b.
    The correspondence theorem makes the tables a ring, so it is built
    trusted."""
    coset_of = np.searchsorted(reps, rep_of)
    quotient = FiniteRing._trusted(
        len(reps),
        coset_of[ring.add_table[reps[:, None], reps]],
        coset_of[ring.mul_table[reps[:, None], reps]],
        coset_of[ring.zero], coset_of[ring.one],
        f"{ring.label}/{ideal}",
        element_names=[f"[{ring.element_names[r]}]" for r in reps.tolist()],
    )
    return quotient, coset_of


def _domains(ring: FiniteRing, inside: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Whether the quotient by each ideal of a block, with the
    representatives _cosets gives, is a domain, read off its
    multiplication table with each cell reduced to "is zero".

    The product of the cosets of a and b is the coset of ab, and that is
    the quotient's zero, the coset I, exactly when ab lies in I. Zero times
    anything is zero, so the m x m table is zero in the 2m - 1 cells of
    zero's row and column; the quotient is a domain when no other cell, a
    product of two nonzero cosets, is zero."""
    products = ring.mul_table[reps[:, :, None], reps[:, None, :]]
    products += np.arange(0, inside.size, ring.order)[:, None, None]  # row k's products index row k of the block
    return np.add.reduce(inside.ravel()[products], axis=(1, 2)) == 2 * reps.shape[1] - 1


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

    Generators: s_1 = one, s_2, ... are ring.generators (the pick rule is
    rings._picks), and H_i is the subgroup generated by s_1..s_i, H_0 =
    {zero}. c_i is the least m > 0 with m*s_i in H_{i-1}, and b_i = c_i*s_i.
    Layer i lists each element of H_i outside H_{i-1} once, as h + m*s_i
    with h in H_{i-1} and 1 <= m < c_i.
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
    add, mul, gens = ring.add_table, ring.mul_table, ring.generators.tolist()
    level: list[int | None] = [None] * n  # the layer of each reached element
    level[ring.zero] = 0
    reached, layers = [ring.zero], []  # layers[i]: c_i, b_i, multiples
    for s in gens:
        # multiples[m] lists h + m*s for h in H_{i-1}, in the order of
        # reached; m = c_i, which ends the loop, gives b_i first
        multiples = [reached]
        while level[(row := add[multiples[-1], s].tolist())[0]] is None:
            multiples.append(row)
        layer = [x for row_m in multiples[1:] for x in row_m]
        for x in layer:
            level[x] = len(layers)
        layers.append((len(multiples), row[0], np.array(multiples)))
        reached = reached + layer
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
    a domain, and, only when it is, whether every prime of Q is principal.
    Q is a domain when its zero ideal {0} is prime: Q is not the zero ring,
    which holds as P is proper, and xy in {0} forces x in {0} or y in {0}.
    The contrapositive of the second is that no two nonzero cosets have
    product zero, which _domains reads off Q's multiplication table, pair
    by pair. When Q is not a domain the conjunction is false whatever Q's
    primes are, so only the domains are asked the second question.
    _quotient_pprir answers it without building Q as a ring or its lattice:
    by the correspondence theorem (Atiyah-Macdonald, Prop. 1.1), Q's ideals
    are the J/P for the ideals J of R's lattice that hold P, and each is
    tested for primality and principality on Q's multiplication table. Both
    questions are answered on Q itself: R's own primes and principal
    generators, the other side of the claim, are never read for them. The
    witness is the first proper ideal, in canonical order, on which the two
    sides differ; an ideal that is neither prime nor a domain quotient
    agrees.

    _domain_quotients asks the domain question of the lattice's proper
    ideals in blocks of one size, and so of one quotient order."""
    hypothesis, _ = is_pprir(ring)
    detail = f"all-primes-principal hypothesis: {hypothesis}"
    lattice = all_ideals(ring)
    holds = _quotient_pprir(ring, lattice, _domain_quotients(ring, lattice))
    primes = {lattice.index[mask] for mask in lattice.primes}
    for k in sorted(primes | holds.keys()):
        if (k in primes) != holds.get(k, False):
            return ClaimOutcome(REFUTED, witness=str(lattice.ideals[k]), detail=detail)
    return ClaimOutcome(VERIFIED, detail=detail)


def _domain_quotients(ring: FiniteRing, lattice: IdealLattice) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The lattice position of every proper ideal whose quotient is a
    domain, mapped to its row of _cosets.

    The lattice's positions are sorted by size, so that each block's
    quotients share one order m; R's group, the last, is left out. Each
    group is cut into blocks of about _BLOCK_CELLS cells of its largest
    gathers, the s x order rows of the addition table and the m x m
    products, and only one block's rows are copied out at a time."""
    n = ring.order
    sizes = np.add.reduce(lattice.inside, axis=1)
    by_size = np.argsort(sizes, kind="stable")
    sizes = sizes[by_size]
    starts = [0, *((sizes[1:] != sizes[:-1]).nonzero()[0] + 1).tolist()]
    found = {}
    for start, stop in zip(starts, starts[1:]):
        s = int(sizes[start])
        step = max(1, _BLOCK_CELLS // max(s * n, (n // s) ** 2))
        for lo in range(start, stop, step):
            block = by_size[lo:min(lo + step, stop)]
            inside = lattice.inside[block]
            rep_of, reps = _cosets(ring, inside, inside.nonzero()[1].reshape(len(block), s))
            for k in _domains(ring, inside, reps).nonzero()[0].tolist():
                found[int(block[k])] = (rep_of[k].copy(), reps[k].copy())
    return found


def _quotient_pprir(
    ring: FiniteRing, lattice: IdealLattice, rows: dict[int, tuple[np.ndarray, np.ndarray]]
) -> dict[int, bool]:
    """Whether every prime of Q = R/I_k is principal, for each lattice
    position k mapped to its row of _cosets, with no ring and no lattice
    built for Q.

    Q's ideals are the J/I_k for the lattice ideals J that hold I_k
    (Atiyah-Macdonald, Prop. 1.1), found for every k in one _subsets pass;
    J = R is dropped, as R/I_k is Q itself. A coset a + I_k lies in J/I_k
    exactly when a lies in J, as I_k lies in J, so J/I_k is J's row read at
    the representatives. Q's multiplication table, its cosets numbered by
    representative as _quotient numbers them, is gathered in row chunks of
    about _BLOCK_CELLS cells, and on it, by the definitions:
      - J/I_k is prime when no two cosets outside it have their product
        inside it;
      - J/I_k is principal when it is the set of multiples of one coset,
        that is, one row of the table holds exactly its cosets.
    Neither lattice.primes nor lattice.generator is read."""
    positions = list(rows)
    proper = ~lattice.inside.all(axis=1)
    verdicts = {}
    for start, within in _subsets(lattice.inside[positions], lattice.inside):
        for k, over in zip(positions[start:start + len(within)], within):
            rep_of, reps = rows[k]
            m = len(reps)
            coset_of = np.searchsorted(reps, rep_of)
            ideals = lattice.inside[over & proper][:, reps]  # ideals[j, a]: coset a lies in J_j/I_k
            outside = ~ideals
            lands = np.zeros(len(ideals), dtype=bool)
            multiples = set()  # the packed rows of the table, each a principal ideal
            step = max(1, _BLOCK_CELLS // (len(ideals) * m))
            for lo in range(0, m, step):
                table = coset_of[ring.mul_table[reps[lo:lo + step, None], reps]]
                cells = ideals[:, table] & outside[:, lo:lo + step, None] & outside[:, None]
                lands |= np.logical_or.reduce(cells.reshape(len(ideals), -1), axis=1)
                multiples.update(_row_bytes(_rows_of(m, table)))
            verdicts[k] = multiples.issuperset(_row_bytes(ideals[~lands]))
    return verdicts


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
