"""Ideal enumeration and the ideal- and ring-level predicates.

Ideals are bitmasks over element indices, kept in range by the Ideal type;
the ideal laws are checked once, on the mask, by the helper that
ideal_from_members and quotient_ring share. The full lattice of a ring is
built one local factor eR at a time, for the primitive idempotents e: the
ideals inside eR are the closure under sum of the principal ideals there,
and an ideal of R is the intersection of the preimages {x : ex in J} of one
such J per factor. A sum I+J is the union of the cosets g+I over members g
of J, built one new coset at a time. The lattice lives with its ring and
holds every fact derived from it (containment, principal generators, the
prime spectrum), each computed once, so the predicates that ask for them
are lookups, and a radical is the intersection of the primes over its
ideal. The predicates test their definitions on blocks of the numpy
tables; only the coset sum reads rows as lists.
is_prime and is_primary share one question, whether some product of an x
from one set and a y from another lands in the ideal, and one helper,
_product_lands, answers it a few table rows at a time, stopping at the
first chunk that holds such a product.
Canonical order is lexicographic on the sorted member-index tuples;
wherever a witness is chosen it is the first candidate in canonical order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .rings import FiniteRing

__all__ = [
    "Classification",
    "Ideal",
    "IdealLattice",
    "all_ideals",
    "classify_ring",
    "ideal_from_members",
    "ideal_generated",
    "is_maximal",
    "is_ppri",
    "is_pprir",
    "is_primary",
    "is_prime",
    "is_principal",
    "is_semiprime",
    "minimal_primes_over",
    "parse_ideal",
    "prime_spectrum",
    "principal_ideal",
    "radical",
    "sum_ideals",
    "zero_ideal",
    "unit_ideal",
]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pack(inside: np.ndarray) -> list[int]:
    """The bitmask of each row of a 2-d bool array."""
    packed = np.packbits(inside, axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width)]


def _masks_of(ring, rows: np.ndarray) -> list[int]:
    """The bitmask of the set of entries of each row of a 2-d index array."""
    inside = np.zeros((len(rows), ring.order), dtype=bool)
    inside[np.arange(len(rows))[:, None], rows] = True
    return _pack(inside)


def _flags_of(ring, mask: int) -> np.ndarray:
    """The bool array over the ring's elements with entry i = bit i of mask."""
    packed = np.frombuffer(mask.to_bytes((ring.order + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=ring.order, bitorder="little").view(bool)


def _unpack(ring, masks: list[int]) -> np.ndarray:
    """The 2-d bool array whose row k holds the bits of masks[k]: the
    inverse of _pack, in one unpack."""
    width = (ring.order + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(masks), width), axis=1, count=ring.order, bitorder="little").view(bool)


def _full_mask(ring) -> int:
    return (1 << ring.order) - 1


def _same_ring(ring, ideal: "Ideal") -> None:
    if ideal.ring is not ring:
        raise ValueError("ideal belongs to a different ring")


@dataclass(frozen=True)
class Ideal:
    """An ideal of a FiniteRing, held as the bitmask of its member indices.
    A mask that is negative or names an index >= order is rejected here;
    the ideal laws are checked once, where members enter (_checked_members)."""

    ring: "FiniteRing"
    members: int

    def __post_init__(self):
        if self.members < 0 or self.members >> self.ring.order:
            raise ValueError(f"ideal mask out of range for {self.ring.label}")

    def indices(self) -> tuple[int, ...]:
        return tuple(_bits(self.members))

    def __len__(self) -> int:
        return self.members.bit_count()

    def contains(self, a: int) -> bool:
        self.ring._check_index(a)
        return self.members >> a & 1 == 1

    @property
    def is_proper(self) -> bool:
        return self.members != _full_mask(self.ring)

    def member_names(self) -> tuple[str, ...]:
        return tuple(self.ring.element_names[i] for i in self.indices())

    def __str__(self) -> str:
        return "{" + ",".join(self.member_names()) + "}"

    def sort_key(self) -> tuple[int, ...]:
        return self.indices()


def ideal_from_members(ring, members) -> Ideal:
    """Build an Ideal after verifying the closure laws.

    Requires zero, closure under addition and negation, and absorption of
    multiplication by every ring element; raises ValueError naming the
    first violated law.
    """
    mask = 0
    for a in members:
        mask |= 1 << ring._check_index(a)
    _checked_members(ring, mask)
    return Ideal(ring, mask)


def _checked_members(ring, mask: int) -> np.ndarray:
    """The member indices of an in-range mask, in increasing order, once the
    ideal laws hold for it; raises ValueError naming the first violated law."""
    if not mask >> ring.zero & 1:
        raise ValueError("not an ideal: zero is missing")
    inside = _flags_of(ring, mask)
    idx = np.flatnonzero(inside)
    # row k holds member idx[k]'s violations: its negative, then a+b over
    # the members b, then a*r over the ring; the first row with one names
    # the least offending member, and within it the first law it breaks
    sums = ring.add_table[idx]
    neg_out = ~inside[(sums == ring.zero).argmax(axis=1)]
    add_out = ~inside[sums[:, idx]]
    mul_out = ~inside[ring.mul_table[idx]]
    bad = np.flatnonzero(neg_out | add_out.any(axis=1) | mul_out.any(axis=1))
    if len(bad):
        k = bad[0]
        name = ring.element_names
        a = name[idx[k]]
        if neg_out[k]:
            raise ValueError(f"not an ideal: missing -{a}")
        if add_out[k].any():
            raise ValueError(f"not an ideal: {a}+{name[idx[add_out[k].argmax()]]} escapes")
        raise ValueError(f"not an ideal: {a}*{name[mul_out[k].argmax()]} escapes")
    return idx


def parse_ideal(ring, text: str) -> Ideal:
    """Inverse of str(ideal): "{n1,n2,...}" with element names, validated."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"ideal literal must be brace-delimited, got {text!r}")
    members = []
    for index, rest in _match_elements(ring, body[1:-1].rstrip()):
        if index is None:
            raise ValueError(f"unknown element name at {rest.strip()!r} in {ring.label}")
        members.append(index)
    return ideal_from_members(ring, members)


def _match_elements(ring, text: str):
    """Split a comma-separated list of element names, yielding for each
    member its index and the text from it on. Names such as "(0,1)" and
    "{1,2}" hold commas, so a member is the longest name followed by a comma
    or the end, not a comma-split token; where no name matches, the index is
    None and the member runs to the next comma."""
    lookup = {name: i for i, name in enumerate(ring.element_names)}
    names = "|".join(map(re.escape, sorted(lookup, key=len, reverse=True)))
    member = re.compile(rf"\s*({names})\s*(?:,|$)")
    pos = 0
    while pos < len(text):
        m = member.match(text, pos)
        if m:
            yield lookup[m.group(1)], text[pos:]
            pos = m.end()
        else:
            yield None, text[pos:]
            pos = text.find(",", pos) + 1 or len(text)  # past the next comma


def zero_ideal(ring) -> Ideal:
    return Ideal(ring, 1 << ring.zero)


def unit_ideal(ring) -> Ideal:
    return Ideal(ring, _full_mask(ring))


def principal_ideal(ring, a: int) -> Ideal:
    """The smallest ideal containing a: the set of multiples {a*r}."""
    a = ring._check_index(a)
    return Ideal(ring, _masks_of(ring, ring.mul_table[a:a + 1])[0])


def ideal_generated(ring, elements) -> Ideal:
    """Smallest ideal containing the given elements: the sum of their
    principal ideals."""
    mask = 1 << ring.zero
    rows = _add_rows(ring)
    for a in elements:
        mask = _mask_sum(rows, mask, principal_ideal(ring, a).members)
    return Ideal(ring, mask)


def sum_ideals(ring, left: Ideal, right: Ideal) -> Ideal:
    """Ideal sum I+J = {i+j}; already an ideal, no further closure needed."""
    _same_ring(ring, left)
    _same_ring(ring, right)
    return Ideal(ring, _mask_sum(_add_rows(ring), left.members, right.members))


def _add_rows(ring):
    """rows(g) is row g of the addition table as a list, converted the first
    time it is asked for and kept as long as the caller keeps rows."""
    return cache(lambda g: ring.add_table[g].tolist())


def _mask_sum(rows, m1: int, m2: int) -> int:
    """The sum of ideals m1 and m2 as a union of cosets g+I.

    Both must be ideals, as every caller's are. Of comparable ideals the sum
    is the larger one. Otherwise m1, an additive subgroup, makes each g+I a
    whole coset, so a member of m2 already in the sum brings nothing new and
    the loop reads O(|I+J|) table cells."""
    if m1 & ~m2 == 0:
        return m2
    out = m1
    rest = m2 & ~out
    if not rest:
        return out
    members = tuple(_bits(m1))
    while rest:
        row = rows((rest & -rest).bit_length() - 1)
        for i in members:
            out |= 1 << row[i]
        rest &= ~out
    return out


def _dot_escape(text: str) -> str:
    """text with backslash and double quote escaped, for a DOT quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


@dataclass(frozen=True, eq=False)
class IdealLattice:
    """All ideals of a ring in canonical order, with the facts derived from them.

    index maps each ideal's member mask to its position in ideals, and
    generator maps the mask of each principal ideal to its first generator.
    up[i] is the bitset of the positions j with ideals[i] a subset of
    ideals[j], i itself included; it is read off one matrix product, as
    ideals[i] lies in ideals[j] exactly when none of the members of i is
    outside j. The primes are found on first use.
    """

    ring: "FiniteRing"
    ideals: tuple[Ideal, ...]
    index: dict[int, int]
    generator: dict[int, int]
    up: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ideals)

    def index_of(self, ideal: Ideal) -> int:
        try:
            return self.index[ideal.members]
        except KeyError:
            raise ValueError("ideal not in lattice") from None

    @cached_property
    def primes(self) -> dict[int, Ideal]:
        """The prime ideals keyed by member mask, in canonical order."""
        return {ideal.members: ideal for ideal in self.ideals if is_prime(self.ring, ideal)}

    def _above(self, i: int) -> int:
        """Bitset of the positions of the ideals strictly containing ideals[i]."""
        return self.up[i] & ~(1 << i)

    def containment_edges(self) -> list[tuple[int, int]]:
        """Non-reflexive containment pairs (i, j): ideals[i] < ideals[j]."""
        return [(i, j) for i in range(len(self.ideals)) for j in _bits(self._above(i))]

    def to_dot(self) -> str:
        """DOT digraph of the covering relation, for offline graphing."""
        lines = [f'digraph "{_dot_escape(self.ring.label)}" {{']
        for i, ideal in enumerate(self.ideals):
            lines.append(f'  n{i} [label="{_dot_escape(str(ideal))}"];')
        for i in range(len(self.ideals)):
            above = self._above(i)
            beyond = 0
            for k in _bits(above):
                beyond |= self._above(k)
            for j in _bits(above & ~beyond):
                lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def _primitive_idempotents(ring, principals: list[int]) -> list[int]:
    """The minimal nonzero idempotents under f <= e iff ef = f, in index
    order, given the principal ideal masks. An idempotent f = er lies in eR
    exactly when ef = f, so e is minimal when eR holds no idempotent but
    zero and e."""
    idempotents = np.flatnonzero(ring.mul_table.diagonal() == np.arange(ring.order)).tolist()
    among = sum(1 << f for f in idempotents)
    return [e for e in idempotents if (principals[e] & among).bit_count() == 2]


def all_ideals(ring) -> IdealLattice:
    """Every ideal, built one local factor at a time on first use and kept on
    the ring, so it lives exactly as long.

    The idempotents of R form a finite Boolean algebra under e <= f iff
    ef = e. Its atoms, the primitive idempotents e_1..e_k, are pairwise
    orthogonal (e_i e_j is an idempotent below both) and sum to 1. So each
    ideal I is the direct sum of the e_i I = I & e_iR, and x lies in I iff
    e_i x lies in I for every i; conversely each tuple of ideals J_i of e_iR
    gives the ideal {x : e_i x in J_i for all i}, and distinct tuples give
    distinct ideals. The ideals of e_iR are the ideals of R inside e_iR,
    since r*j = (r e_i)*j, and each is the sum of the principal ideals (a)
    with a in e_iR. A local ring is the one factor e = 1, whose lift is the
    identity. (Atiyah-Macdonald, Thm 8.7; McDonald, Finite Rings with
    Identity, 1974.)

    The closure in eR sums the ideal at each position i of found only with
    the principal ideals before position i, p_0..p_{i-1}, which found starts
    with. That makes found closed under adding any principal p_j: to an
    ideal at i > j it is added in turn i, and p_i + p_j with i < j is formed
    in turn j. Every ideal of eR is a sum of principal ideals, so found holds
    them all.
    """
    if ring._lattice is not None:
        return ring._lattice
    principals = _masks_of(ring, ring.mul_table)
    generator: dict[int, int] = {}
    for a, principal in enumerate(principals):
        generator.setdefault(principal, a)
    rows = _add_rows(ring)
    combined = np.ones((1, ring.order), dtype=bool)
    for e in _primitive_idempotents(ring, principals):
        local = [m for m in generator if m & ~principals[e] == 0]
        found, known = list(local), set(local)
        for i, m1 in enumerate(found):  # found grows while it is walked
            for m2 in local[:i]:
                s = _mask_sum(rows, m1, m2)
                if s not in known:
                    known.add(s)
                    found.append(s)
        lifts = _unpack(ring, found)[:, ring.mul_table[e]]
        combined = (combined[:, None] & lifts).reshape(-1, ring.order)
    masks = _pack(combined)
    order = sorted(range(len(masks)), key=lambda k: tuple(_bits(masks[k])))
    ideals = tuple(Ideal(ring, masks[k]) for k in order)
    # ideals[i] lies in ideals[j] when none of its members is outside j; the
    # counts are at most the order, far below float32's exact range of 2**24
    inside = combined[order].astype(np.float32)
    up = tuple(_pack(inside @ (1 - inside).T == 0))
    index = {ideal.members: i for i, ideal in enumerate(ideals)}
    ring._lattice = IdealLattice(ring, ideals, index, generator, up)
    return ring._lattice


def radical(ring, ideal: Ideal) -> Ideal:
    """The intersection of the primes containing the ideal, which is the set
    of elements with some power inside it (Atiyah-Macdonald, Prop. 1.14);
    no prime contains R, so radical(R) is R."""
    _same_ring(ring, ideal)
    mask = _full_mask(ring)
    for prime in all_ideals(ring).primes:
        if ideal.members & ~prime == 0:
            mask &= prime
    return Ideal(ring, mask)


# Cells in one block of a chunked numpy step, small enough to stay in cache:
# rows x order in _product_lands and quotients' endomorphism search, maps x
# order x order in quotients' homomorphism law check.
_BLOCK_CELLS = 1 << 16


def _product_lands(ring, inside: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> bool:
    """Whether some x with xs[x] and y with ys[y] have xy inside, all three
    given as bool arrays over the elements.

    is_prime and is_primary both ask this of every pair in a block of the
    multiplication table. The block is tested a few rows at a time, at most
    _BLOCK_CELLS cells each, and the first chunk that holds such a product
    answers, so an ideal that fails its predicate is usually settled by its
    first rows and memory stays at one chunk whatever the order."""
    step = max(1, _BLOCK_CELLS // ring.order)
    for start in range(0, ring.order, step):
        rows = slice(start, start + step)
        if inside[ring.mul_table[rows][xs[rows]][:, ys]].any():
            return True
    return False


def is_prime(ring, ideal: Ideal) -> bool:
    """Proper, and xy in P forces x in P or y in P (all pairs checked)."""
    _same_ring(ring, ideal)
    if not ideal.is_proper:
        return False
    inside = _flags_of(ring, ideal.members)
    return not _product_lands(ring, inside, ~inside, ~inside)


def is_maximal(ring, ideal: Ideal) -> bool:
    """Proper with no ideal strictly between it and the whole ring."""
    _same_ring(ring, ideal)
    if not ideal.is_proper:
        return False
    lattice = all_ideals(ring)
    i = lattice.index_of(ideal)
    return lattice.up[i] == 1 << i | 1 << lattice.index[_full_mask(ring)]


def is_semiprime(ring, ideal: Ideal) -> bool:
    """x^2 in I forces x in I; equivalently radical(I) == I."""
    _same_ring(ring, ideal)
    inside = _flags_of(ring, ideal.members)
    return not (inside[ring.mul_table.diagonal()] & ~inside).any()


def is_primary(ring, ideal: Ideal) -> bool:
    """xy in I forces x in I or some power of y in I; false for I = R."""
    _same_ring(ring, ideal)
    if not ideal.is_proper:
        return False
    inside = _flags_of(ring, ideal.members)
    in_radical = _flags_of(ring, radical(ring, ideal).members)
    return not _product_lands(ring, inside, ~inside, ~in_radical)


def is_principal(ring, ideal: Ideal) -> tuple[bool, Optional[int]]:
    """(found, generator): the first a with (a) == I, if there is one."""
    _same_ring(ring, ideal)
    generator = all_ideals(ring).generator.get(ideal.members)
    return generator is not None, generator


def is_ppri(ring, ideal: Ideal) -> bool:
    """Prime and principal."""
    _same_ring(ring, ideal)
    lattice = all_ideals(ring)
    return ideal.members in lattice.primes and ideal.members in lattice.generator


def prime_spectrum(ring) -> list[Ideal]:
    """All prime ideals, in canonical order."""
    return list(all_ideals(ring).primes.values())


def is_pprir(ring) -> tuple[bool, Optional[Ideal]]:
    """(flag, witness): witness is the first non-principal prime, if any."""
    lattice = all_ideals(ring)
    for mask, prime in lattice.primes.items():
        if mask not in lattice.generator:
            return False, prime
    return True, None


def minimal_primes_over(ring, ideal: Ideal) -> list[Ideal]:
    """Primes containing the ideal with no strictly smaller such prime."""
    _same_ring(ring, ideal)
    if not ideal.is_proper:
        raise ValueError("minimal primes are defined over proper ideals only")
    m = ideal.members
    over = [p for p in all_ideals(ring).primes.values() if m & ~p.members == 0]
    return [
        p
        for p in over
        if not any(q.members != p.members and q.members & ~p.members == 0 for q in over)
    ]


@dataclass(frozen=True)
class Classification:
    """Ring-level flags; witness refutes is_pprir when that flag is false."""

    is_domain: bool
    is_field: bool
    is_boolean: bool
    is_pprir: bool
    witness: Optional[Ideal]


def classify_ring(ring) -> Classification:
    """Ring-level flags, read off the lattice where the lattice decides them.

    R is a domain exactly when its zero ideal is prime, and a field exactly
    when {0} and R are its only ideals (Atiyah-Macdonald, Sec. 1 and
    Prop. 1.2); Boolean means x*x == x for every x, one pass over the
    diagonal of the multiplication table.
    """
    lattice = all_ideals(ring)
    boolean = bool((ring.mul_table.diagonal() == np.arange(ring.order)).all())
    flag, witness = is_pprir(ring)
    return Classification(1 << ring.zero in lattice.primes, len(lattice) == 2, boolean, flag, witness)
