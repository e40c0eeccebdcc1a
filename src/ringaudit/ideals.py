"""Ideal enumeration and the ideal- and ring-level predicates.

Ideals are bitmasks over element indices. The full lattice of a ring is the
closure of its principal ideals under sum (every ideal of a finite
commutative unital ring arises that way); a sum I+J is the union of the
cosets g+I over members g of J, built one new coset at a time. The lattice
lives with its ring and holds every fact derived from it (containment,
principal generators, the prime spectrum), each computed once, so the
predicates that ask for them are lookups, and a radical is the intersection
of the primes over its ideal. The predicates test their definitions on
whole blocks of the numpy tables; only the coset sum reads rows as lists.
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


def _masks_of(ring, rows: np.ndarray) -> list[int]:
    """The bitmask of the set of entries of each row of a 2-d index array."""
    inside = np.zeros((len(rows), ring.order), dtype=bool)
    inside[np.arange(len(rows))[:, None], rows] = True
    packed = np.packbits(inside, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _flags_of(ring, mask: int) -> np.ndarray:
    """The bool array over the ring's elements with entry i = bit i of mask."""
    packed = np.frombuffer(mask.to_bytes((ring.order + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=ring.order, bitorder="little").view(bool)


def _full_mask(ring) -> int:
    return (1 << ring.order) - 1


def _same_ring(ring, ideal: "Ideal") -> None:
    if ideal.ring is not ring:
        raise ValueError("ideal belongs to a different ring")


@dataclass(frozen=True)
class Ideal:
    """An ideal of a FiniteRing, held as the bitmask of its member indices."""

    ring: "FiniteRing"
    members: int

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

    @property
    def is_zero(self) -> bool:
        return self.members == 1 << self.ring.zero

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
    if not mask >> ring.zero & 1:
        raise ValueError("not an ideal: zero is missing")
    inside = _flags_of(ring, mask)
    idx = np.flatnonzero(inside)
    # row k holds member idx[k]'s violations: its negative, then a+b over
    # the members b, then a*r over the ring; the first row with one names
    # the least offending member, and within it the first law it breaks
    neg_out = ~inside[(ring.add_table[idx] == ring.zero).argmax(axis=1)]
    add_out = ~inside[ring.add_table[idx][:, idx]]
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
    return Ideal(ring, mask)


def parse_ideal(ring, text: str) -> Ideal:
    """Inverse of str(ideal): "{n1,n2,...}" with element names, validated."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"ideal literal must be brace-delimited, got {text!r}")
    body = body[1:-1].rstrip()
    lookup = {name: i for i, name in enumerate(ring.element_names)}
    # names such as "(0,1)" and "{1,2}" hold commas, so a member is the
    # longest name followed by a comma or the end, not a comma-split token
    names = "|".join(map(re.escape, sorted(lookup, key=len, reverse=True)))
    member = re.compile(rf"\s*({names})\s*(?:,|$)")
    members, pos = [], 0
    while pos < len(body):
        m = member.match(body, pos)
        if m is None:
            raise ValueError(f"unknown element name at {body[pos:].strip()!r} in {ring.label}")
        members.append(lookup[m.group(1)])
        pos = m.end()
    return ideal_from_members(ring, members)


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
    """The sum of an ideal m1 and an ideal m2 as a union of cosets g+I.

    m1 must be an ideal (every caller passes one): as an additive subgroup
    it makes each g+I a whole coset, so a member of m2 already in the sum
    brings nothing new and the loop reads O(|I+J|) table cells."""
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


@dataclass(frozen=True, eq=False)
class IdealLattice:
    """All ideals of a ring in canonical order, with the facts derived from them.

    index maps each ideal's member mask to its position in ideals, and
    generator maps the mask of each principal ideal to its first generator.
    up[i] is the bitset of the positions j with ideals[i] a subset of
    ideals[j], i itself included. The primes are found on first use.
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
        lines = [f'digraph "{self.ring.label}" {{']
        for i, ideal in enumerate(self.ideals):
            lines.append(f'  n{i} [label="{ideal}"];')
        for i in range(len(self.ideals)):
            above = self._above(i)
            beyond = 0
            for k in _bits(above):
                beyond |= self._above(k)
            for j in _bits(above & ~beyond):
                lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def all_ideals(ring) -> IdealLattice:
    """Every ideal: closure of the principal ideals under sum, built on first
    use and kept on the ring, so it lives exactly as long."""
    if ring._lattice is not None:
        return ring._lattice
    generator: dict[int, int] = {}
    for a, principal in enumerate(_masks_of(ring, ring.mul_table)):
        generator.setdefault(principal, a)
    found = list(generator)
    known = set(found)
    rows = _add_rows(ring)
    # found grows while it is walked: each ideal is summed once with every
    # ideal found before it, and one found later meets it in its own turn
    for i, m1 in enumerate(found):
        for m2 in found[:i]:
            s = _mask_sum(rows, m1, m2)
            if s not in known:
                known.add(s)
                found.append(s)
    ideals = tuple(sorted((Ideal(ring, m) for m in known), key=Ideal.sort_key))
    masks = [ideal.members for ideal in ideals]
    up = tuple(sum(1 << j for j, o in enumerate(masks) if m & ~o == 0) for m in masks)
    index = {m: i for i, m in enumerate(masks)}
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


_PRIME_BLOCK_CELLS = 1 << 16  # a ring of order <= 256 is one block


def is_prime(ring, ideal: Ideal) -> bool:
    """Proper, and xy in P forces x in P or y in P (all pairs checked).

    The block of products of two outsiders is tested a few rows at a time,
    at most _PRIME_BLOCK_CELLS cells each, so a non-prime ideal is usually
    settled by its first rows."""
    _same_ring(ring, ideal)
    if not ideal.is_proper:
        return False
    inside = _flags_of(ring, ideal.members)
    outside = ~inside
    step = max(1, _PRIME_BLOCK_CELLS // ring.order)
    for start in range(0, ring.order, step):
        rows = slice(start, start + step)
        if inside[ring.mul_table[rows][outside[rows]][:, outside]].any():
            return False
    return True


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
    return not inside[ring.mul_table[~inside][:, ~in_radical]].any()


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
