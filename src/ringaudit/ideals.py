"""Ideal enumeration and the ideal- and ring-level predicates.

Ideals are bitmasks over element indices. Every Ideal is an ideal of its
ring: the type's constructor, the one door a caller's mask enters by, keeps
the mask in range and then checks the ideal laws, once, by the definition
(_check_ideal). The package's own ideals, ideals by construction, enter
through Ideal._trusted, each site naming why its mask is one, and are not
re-checked; the tests hold them to the definition. Each coset's least
member, for a block of ideal rows of any size, comes from the helper that
quotient_ring and THM1 share (_cosets): each row picks its own additive
generators by the rule of rings._picks. The full lattice of a ring is built
one local factor eR at a time, for the primitive idempotents e: the ideals
inside eR are the closure under sum of the principal ideals there, which
Close-by-One makes each once, so nothing is deduplicated, and an ideal of
R is the intersection of the preimages {x : ex in J} of one such J per
factor. Sums run on bool rows over the elements: I + aR is the join of
I with the cyclic subgroups <a*s> for s in ring.generators, and the
closure, sum_ideals and ideal_generated share that one join; the pick rule
of the generators and the doubling join are defined once, in rings (_picks,
_doublings, _join). The lattice lives with its ring, holds its ideals as
one ideals-by-elements bool block, and computes the prime spectrum and the
maximal ideals from that block on first use, so the predicates that ask for
them are lookups. A radical is the intersection of the primes over its
ideal, read off the spectrum's masks by radical, the package's one radical.
Primality and primariness each have one definition over a block of ideal
rows, asked of every row by the lattice-wide reader and of one row by the
one-ideal reader: _prime_rows (the lattice's primes, is_prime) and
_primary_rows (primary_ideals, is_primary). The least members of a family
of sets come from one pass in size order, _least: the maximal ideals are
the complements of the least complements of the proper ideals, kept as the
lattice's maximal flags, which is_maximal reads, and the minimal primes
over an ideal are the least of the primes over it. Containment between
ideals has one block test, _subsets, on packed words: the containment
pairs, to_dot's covers and THM1's ideals over each P read it. _prime_rows,
_primary_rows and THM1's quotient side (whether R/P is a domain, whether
J/P is prime in it) share one question, whether some product of an x from
one set and a y from another lands in the ideal, and one helper,
_product_lands, answers it for a block of ideals a few table rows at a
time, reading only the rows of the x asked for; an ideal leaves the block
at the first chunk that holds such a product.
Canonical order is lexicographic on the sorted member-index tuples;
wherever a witness is chosen it is the first candidate in canonical order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .rings import FiniteRing, _doublings, _join

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
    "primary_ideals",
    "principal_ideal",
    "radical",
    "sum_ideals",
    "zero_ideal",
    "unit_ideal",
]


# Cells in one block of a chunked numpy step, small enough to stay in cache:
# ideals x rows x order in _product_lands, frontier rows x later joins x
# order in the lattice closure, rows x sets x 64-bit words in the
# containment test (_subsets), rows x entries in _rows_of's scatter, and
# rows x order in quotients' endomorphism search and in THM1's blocks of
# quotients.
_BLOCK_CELLS = 1 << 16


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pack(inside: np.ndarray) -> list[int]:
    """The bitmask of each row of a 2-d bool array, entry i at bit i: one
    packing of the whole array, each row's bytes read little-endian."""
    packed = np.packbits(inside, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()]


def _subsets(rows: np.ndarray, sets: np.ndarray):
    """Yield (start, within) for each block of rows of a 2-d bool array:
    within[k, j] holds when row start + k lies inside row j of sets, a bool
    array of the same width, that is, when no 64-bit word of the packed row
    has a bit outside the packed set's. The test runs one word at a time
    over every set, for a block of rows within about _BLOCK_CELLS words."""
    packed = [np.zeros((len(block), -(-block.shape[1] // 64)), dtype=np.uint64) for block in (rows, sets)]
    for block, words in zip((rows, sets), packed):
        words.view(np.uint8)[:, :-(-block.shape[1] // 8)] = np.packbits(block, axis=1)
    words, outside = packed[0], np.invert(packed.pop().T, order="C")  # outside[w, j]: word w of set j's complement
    step = max(1, _BLOCK_CELLS // outside.size)
    for start in range(0, len(words), step):
        part = words[start:start + step]
        strays = part[:, :1] & outside[0]
        for w in range(1, len(outside)):
            strays |= part[:, w:w + 1] & outside[w]
        yield start, strays == 0


def _rows_of(width: int, rows: np.ndarray) -> np.ndarray:
    """The 2-d bool array, width columns wide, whose row k marks the
    entries of row k of a 2-d index array: a flat scatter into each block
    of about _BLOCK_CELLS // width rows, row k's entries offset by k * width
    from the block's first row, so the flat index is one block's, not the
    whole array's."""
    inside = np.zeros((len(rows), width), dtype=bool)
    step = max(1, _BLOCK_CELLS // width)
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        inside[start:start + step].ravel()[part + np.arange(0, len(part) * width, width)[:, None]] = True
    return inside


def _least(masks) -> list[int]:
    """The minimal members under inclusion of a family of distinct sets,
    as int masks in increasing size. The masks are taken in increasing
    size, by a stable sort, and each is kept when it holds no mask kept
    before it.

    This keeps exactly the minimal members (Davey-Priestley, Introduction
    to Lattices and Order, Ch. 1). A member strictly inside a set m is
    smaller, so it comes before m, and by induction each member before m
    is kept or holds a kept member. So an m that is not minimal holds a
    kept member and is dropped. A minimal m holds no other member, kept
    or not, and is kept."""
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count):
        for k in kept:
            if k & ~m == 0:
                break
        else:
            kept.append(m)
    return kept


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
    """An ideal of a FiniteRing, held as the bitmask of its member indices.
    Calling the type checks a caller's mask: one that is not an int (a bool
    or a numpy integer included), is negative or names an index >= order is
    rejected, and then one that breaks an ideal law, named by _check_ideal.
    _trusted keeps a mask the package has just built as an ideal."""

    ring: "FiniteRing"
    members: int

    def __post_init__(self):
        if not isinstance(self.members, int) or isinstance(self.members, bool):
            raise ValueError(f"ideal mask {self.members!r} is not an int")
        if self.members < 0 or self.members >> self.ring.order:
            raise ValueError(f"ideal mask out of range for {self.ring.label}")
        _check_ideal(self.ring, _flags_of(self.ring, self.members))

    @classmethod
    def _trusted(cls, ring, mask: int) -> "Ideal":
        """The Ideal of an int mask that is an ideal by its construction in
        the package, unchecked; each caller names why it is one."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "ring", ring)
        object.__setattr__(ideal, "members", mask)
        return ideal

    def indices(self) -> tuple[int, ...]:
        return tuple(_bits(self.members))

    def __len__(self) -> int:
        return self.members.bit_count()

    @property
    def is_proper(self) -> bool:
        return self.members != _full_mask(self.ring)

    def member_names(self) -> tuple[str, ...]:
        return tuple(self.ring.element_names[i] for i in self.indices())

    def __str__(self) -> str:
        return "{" + ",".join(self.member_names()) + "}"


def ideal_from_members(ring, members) -> Ideal:
    """The Ideal of the given element indices, through the type's door.

    Each index is checked; the Ideal type then requires zero, closure under
    addition and negation, and absorption of multiplication by every ring
    element, and raises ValueError naming the first violated law.
    """
    inside = np.zeros(ring.order, dtype=bool)
    inside[[ring._check_index(a) for a in members]] = True
    return Ideal(ring, _pack(inside[None])[0])


def _check_ideal(ring, inside: np.ndarray) -> None:
    """Return when the members flagged in one bool row over the elements
    form an ideal, by the definition; otherwise raise ValueError naming the
    first law broken: zero first, then, for the least offending member a,
    its negative, then a+b over the members b, then a*r over the ring.
    The members are scanned in index order, a chunk of about _BLOCK_CELLS
    cells at a time, so the first chunk with a violation holds the least
    offending member."""
    if not inside[ring.zero]:
        raise ValueError("not an ideal: zero is missing")
    idx = np.flatnonzero(inside)
    step = max(1, _BLOCK_CELLS // ring.order)
    for start in range(0, len(idx), step):
        chunk = idx[start:start + step]
        sums = ring.add_table[chunk]
        neg_out = ~inside[(sums == ring.zero).argmax(axis=1)]
        add_out = ~inside[sums[:, idx]]
        mul_out = ~inside[ring.mul_table[chunk]]
        bad = np.flatnonzero(neg_out | add_out.any(axis=1) | mul_out.any(axis=1))
        if len(bad):
            k = bad[0]
            name = ring.element_names
            a = name[chunk[k]]
            if neg_out[k]:
                raise ValueError(f"not an ideal: missing -{a}")
            if add_out[k].any():
                raise ValueError(f"not an ideal: {a}+{name[idx[add_out[k].argmax()]]} escapes")
            raise ValueError(f"not an ideal: {a}*{name[mul_out[k].argmax()]} escapes")


def _cosets(ring, inside: np.ndarray) -> np.ndarray:
    """rep_of for the rows of a K x order bool block whose rows are ideals,
    of any sizes: rep_of[k, a] is the least member of the coset a + I_k.
    The rows are not checked: every Ideal's mask is an ideal, by the
    Ideal type's check or by its construction.

    Each row picks its own generators by the rule of rings._picks: the
    least member outside the subgroup H reached so far, until none is left;
    a row with none left picks zero, whose steps change nothing. rep_of
    starts as the identity, the cosets of H = {zero}, and joins each pick g
    by the steps of _doublings, taking np.minimum with its gathered copy:
    min(a + H + <g>) is the min over m of min(a + m*g + H). H is read back
    as the elements whose coset is zero's. Each pick lies in the ideal and
    at least doubles H, so a row has at most log2(order) of them, and the
    picks stop once H, the subgroup they generate, is the ideal."""
    zero = ring.zero
    rep_of = np.tile(np.arange(ring.order), (len(inside), 1))
    while (fresh := inside & (rep_of != rep_of[:, zero, None])).any():  # members outside H
        picks = np.where(np.logical_or.reduce(fresh, axis=1), fresh.argmax(axis=1), zero)
        flat = rep_of.ravel()
        for index in _doublings(ring.add_table, zero, picks):
            flat = np.minimum(flat, np.take(flat, index))
        rep_of = flat.reshape(rep_of.shape)
    return rep_of


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
    """{0}, trivially an ideal."""
    return Ideal._trusted(ring, 1 << ring.zero)


def unit_ideal(ring) -> Ideal:
    """R, trivially an ideal."""
    return Ideal._trusted(ring, _full_mask(ring))


def principal_ideal(ring, a: int) -> Ideal:
    """The smallest ideal containing a: the set of multiples {a*r}, an
    ideal as a*r + a*s = a*(r + s) and (a*r)*s = a*(r*s)."""
    a = ring._check_index(a)
    return Ideal._trusted(ring, _pack(_rows_of(ring.order, ring.mul_table[a:a + 1]))[0])


def ideal_generated(ring, elements) -> Ideal:
    """Smallest ideal containing the given elements: the sum of their
    principal ideals, each aR joined as the cyclic subgroups <a*s> for s in
    the ring's additive generating set, which generate it additively by
    distributivity. A join of additive subgroups that each absorb is an
    additive subgroup that absorbs, by distributivity: an ideal."""
    row = _flags_of(ring, 1 << ring.zero)[None]
    for a in elements:
        for t in ring.mul_table[ring._check_index(a), ring.generators]:
            row = _join(row, _doublings(ring.add_table, ring.zero, t[None]))
    return Ideal._trusted(ring, _pack(row)[0])


def sum_ideals(ring, left: Ideal, right: Ideal) -> Ideal:
    """Ideal sum I+J = {i+j}: I joined with <g> for the least member g of J
    not yet in the sum, until J is covered. Each join at least doubles the
    sum, an additive subgroup, so there are at most log2(order) of them.
    The sum of the subgroups I and J, both ideals, absorbs by
    distributivity, so it is an ideal."""
    _same_ring(ring, left)
    _same_ring(ring, right)
    row = _flags_of(ring, left.members)[None]
    inside_right = _flags_of(ring, right.members)
    while (missing := np.flatnonzero(inside_right & ~row[0])).size:
        row = _join(row, _doublings(ring.add_table, ring.zero, missing[:1]))
    return Ideal._trusted(ring, _pack(row)[0])


def _dot_escape(text: str) -> str:
    """text with backslash and double quote escaped, for a DOT quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


@dataclass(frozen=True, eq=False)
class IdealLattice:
    """All ideals of a ring in canonical order, with the facts derived from them.

    index maps each ideal's member mask to its position in ideals, and
    generator maps the mask of each principal ideal to its first generator.
    inside is the ideals-by-elements bool block, read-only: inside[i, x]
    holds when element x lies in ideals[i]. The primes, from the block,
    and the maximal flags, from the masks, are computed on first use and
    kept; the containment pairs and the covers are read off the block, a
    block of rows at a time, each time they are asked for, and nothing of
    them is kept.
    """

    ring: "FiniteRing"
    ideals: tuple[Ideal, ...]
    index: dict[int, int]
    generator: dict[int, int]
    inside: np.ndarray

    def __len__(self) -> int:
        return len(self.ideals)

    @cached_property
    def primes(self) -> dict[int, Ideal]:
        """The prime ideals keyed by member mask, in canonical order: every
        proper ideal's row tested at once, by _prime_rows."""
        proper = np.flatnonzero(~self.inside.all(axis=1))
        prime = proper[_prime_rows(self.ring, self.inside[proper])]
        return {self.ideals[k].members: self.ideals[k] for k in prime.tolist()}

    @cached_property
    def maximal(self) -> np.ndarray:
        """maximal[i] holds when ideals[i] is maximal: a maximal ideal is a
        maximal member of the proper ideals, and J holds I exactly when I's
        complement holds J's, so the maximal ideals are the complements of
        the least complements of the proper ideals, by _least."""
        full = _full_mask(self.ring)
        least = {full ^ c for c in _least(full ^ m for m in self.index if m != full)}
        return np.array([m in least for m in self.index], dtype=bool)

    def containment_edges(self) -> list[tuple[int, int]]:
        """Non-reflexive containment pairs (i, j): ideals[i] < ideals[j], in
        order, read off the containment blocks as they come."""
        edges: list[tuple[int, int]] = []
        for start, within in _subsets(self.inside, self.inside):
            i, j = divmod(np.flatnonzero(within), len(self.ideals))  # faster than a 2-d nonzero
            strict = start + i != j
            edges += zip((start + i[strict]).tolist(), j[strict].tolist())
        return edges

    def to_dot(self) -> str:
        """DOT digraph of the covering relation, for offline graphing."""
        lines = [f'digraph "{_dot_escape(self.ring.label)}" {{']
        for i, ideal in enumerate(self.ideals):
            lines.append(f'  n{i} [label="{_dot_escape(str(ideal))}"];')
        above: list[int] = []  # above[i]: the positions of the ideals strictly over ideals[i], as a bitset
        for start, within in _subsets(self.inside, self.inside):
            k = np.arange(len(within))
            within[k, start + k] = False
            above += _pack(within)
        for i, over in enumerate(above):
            beyond = 0
            for k in _bits(over):
                beyond |= above[k]
            for j in _bits(over & ~beyond):
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


def _closure(ring, rows: np.ndarray, joins: list[int]) -> np.ndarray:
    """Every sum of one or more of the ideals aR for a in joins, given as
    the bool rows, as a bool block, each sum once: Close-by-One (Kuznetsov
    1993) over the joins in decreasing size of aR, a stable order.

    Each round takes the sums S first found in the round before (the rows
    themselves, at first, each made by its own join), each with y, the
    position of the join that made it. A sum with a later join j > y
    outside it makes S + a_jR for every later join, as the cyclic
    subgroups <a_j*s> for s in the ring's additive generating set: one
    K x (P - 1 - y) x order block per chunk of K sums with the same y, of
    P = len(joins), within about _BLOCK_CELLS cells; a sum that holds all
    its later joins has no child. The gather indices of the joins are made
    once, over the joins from the last back, so those after y are the
    first P - 1 - y. A child is kept, with j as its y, when the least join
    it gains over S is a_j: a_j lies outside S, and the child holds no
    earlier join that S lacks. Why that makes each sum once is in
    all_ideals.
    """
    if not joins:
        return rows
    order = np.argsort(-rows.sum(axis=1), kind="stable")
    rows, joins = rows[order], np.array(joins)[order]
    last = len(joins) - 1
    found, frontier, made_by, doublings = [], rows, np.arange(len(joins)), None
    while True:
        found.append(frontier)
        # the sums with a later join outside them; no other sum has a child
        live = np.logical_or.reduce(~frontier[:, joins] & (np.arange(len(joins)) > made_by[:, None]), axis=1)
        if not live.any():
            return np.concatenate(found)
        if doublings is None:  # only now are the generators needed
            products = ring.mul_table[joins[::-1, None], ring.generators]
            products = products[:, (products != ring.zero).any(axis=0)]
            doublings = [_doublings(ring.add_table, ring.zero, t) for t in products.T]
        fresh, fresh_by = [], []
        for y in sorted(set(made_by[live].tolist())):
            later = last - y  # the joins last, last - 1, .., y + 1
            sums = frontier[live & (made_by == y)]
            chunk = max(1, _BLOCK_CELLS // (later * ring.order))
            for k in range(0, len(sums), chunk):
                part = sums[k:k + chunk]
                block = np.repeat(part[:, None], later, axis=1)
                for steps in doublings:
                    block = _join(block, steps[:, :later * ring.order])
                # column c is join last - c; a child is kept when the least join it gains is its own
                gained = block[:, :, joins] > part[:, None, joins]
                kept, column = np.nonzero(gained.argmax(axis=2) == last - np.arange(later))
                fresh.append(block[kept, column])
                fresh_by.append(last - column)
        frontier, made_by = np.concatenate(fresh), np.concatenate(fresh_by)


def _canonical_order(inside: np.ndarray) -> np.ndarray:
    """The permutation that sorts the distinct rows of a bool block into
    canonical order, by one sort of byte keys. Where two sets first differ,
    at element x, the one holding x comes first unless the other has no
    member past x, and so is a prefix of it. So x is keyed 1 in a set that
    holds it, 2 in one that holds a later element only, 0 in one that holds
    neither, and the key rows compare bytewise as the index tuples do."""
    n = inside.shape[1]
    last = n - 1 - inside[:, ::-1].argmax(axis=1)  # every row holds zero
    key = (np.arange(n) <= last[:, None]).view(np.uint8) << 1
    key -= inside
    return np.argsort(key.view(np.dtype((np.void, key.shape[1]))).ravel())


def all_ideals(ring) -> IdealLattice:
    """Every ideal, built one local factor at a time on first use and kept on
    the ring. The lattice holds the ring too, so the cycle collector frees
    the two together.

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

    The closure in eR is Close-by-One (Kuznetsov 1993; Ganter's
    NextClosure, 1984, lists the same sets) over the joins a_1..a_P, the
    first generators of the principal ideals of eR other than {0} and eR,
    which add nothing new, in decreasing size of a_jR. Every ideal S of eR
    other than {0} and eR is the sum of the a_jR inside it, so it is fixed
    by C(S) = {j : a_j in S}, and S + a_jR is the least ideal over S and
    a_j. The order lemma: if a_b lies in a_jR, b != j, then a_bR is a
    smaller ideal than a_jR, so b comes after j. So a_jR holds no earlier
    join, and the principal ideals are the first round as they stand.
    A sum S made by adding join y has the children S + a_jR for j > y with
    a_j outside S, kept when C(S + a_jR) and C(S) agree below j. (No
    child is a_jR itself: S inside a_jR would put a_yR inside it, so
    j < y.)
    Each ideal S is found: let j_1 = min C(S), T_1 = a_{j_1}R, and
    j_(i+1) = min(C(S) - C(T_i)), T_(i+1) = T_i + a_{j_(i+1)}R, until
    T_m = S. C(T_i) holds all of C(S) below j_(i+1), and T_(i+1) lies in
    S, so C(T_(i+1)) and C(T_i) agree below j_(i+1), and j_(i+1) > j_i:
    each step is a kept child, and T_1 is a first-round row by the order
    lemma. Each ideal is found once: along any path that finds S, a kept
    step from T_i by j_(i+1) keeps C below j_(i+1), and the later steps,
    by larger joins, keep it too, so C(S) and C(T_i) agree below j_(i+1),
    and j_(i+1) is forced to be min(C(S) - C(T_i)), as is j_1 = min C(S).
    So the path is the one above, and no row is made twice.
    I + aR is a join of cyclic subgroups: each r is a sum of elements of
    an additive generating set S of R, so by distributivity aR = {a*r} is
    generated additively by the a*s, s in S, and I + aR is I joined with
    each <a*s> in turn, by the doubling join of rings (_join). So every
    row is an ideal, and enters the Ideal type unchecked.
    """
    if ring._lattice is not None:
        return ring._lattice
    principal_rows = _rows_of(ring.order, ring.mul_table)
    principals = _pack(principal_rows)
    generator: dict[int, int] = {}
    for a, principal in enumerate(principals):
        generator.setdefault(principal, a)
    combined = np.ones((1, ring.order), dtype=bool)
    for e in _primitive_idempotents(ring, principals):
        # the sums of the principal ideals of eR other than {0} and eR; eR
        # is local, so none of them is eR
        joins = [a for m, a in generator.items() if m & ~principals[e] == 0 and m not in (1 << ring.zero, principals[e])]
        sums = _closure(ring, principal_rows[joins], joins)
        found = np.concatenate([principal_rows[[ring.zero, e]], sums])
        combined = (combined[:, None] & found[:, ring.mul_table[e]]).reshape(-1, ring.order)
    inside = combined[_canonical_order(combined)]
    inside.setflags(write=False)
    ideals = tuple(Ideal._trusted(ring, mask) for mask in _pack(inside))
    index = {ideal.members: i for i, ideal in enumerate(ideals)}
    ring._lattice = IdealLattice(ring, ideals, index, generator, inside)
    return ring._lattice


def radical(ring, ideal: Ideal) -> Ideal:
    """The intersection of the primes containing the ideal, which is the set
    of elements with some power inside it (Atiyah-Macdonald, Prop. 1.14),
    read off the spectrum's masks; no prime contains R, so radical(R) is
    R. An intersection of ideals is an ideal. The package's one radical:
    is_primary and primary_ideals take theirs from it."""
    _same_ring(ring, ideal)
    members, mask = ideal.members, _full_mask(ring)
    for prime in all_ideals(ring).primes:
        if members & prime == members:
            mask &= prime
    return Ideal._trusted(ring, mask)


def _product_lands(ring, inside: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """For each row k of the K x order bool blocks inside, xs and ys, whether
    some x with xs[k, x] and y with ys[k, y] have xy in inside[k].

    _prime_rows, _primary_rows and THM1's quotients all ask this of every
    pair in a block of the multiplication table. Only the table rows of
    the x that some row of xs holds are read, so a sparse xs, such as
    THM1's coset representatives, reads few rows. They are tested a few
    at a time for a group of ideals, at most about _BLOCK_CELLS cells
    each step, and an ideal leaves the block at the first chunk of rows that
    holds such a product for it. So an ideal that fails its predicate is
    usually settled by its first rows, the rows per step grow as ideals
    leave, and memory stays at one step whatever the order or the number of
    ideals."""
    n = ring.order
    lands = np.zeros(len(inside), dtype=bool)
    open_ = np.arange(len(inside))  # inside, xs and ys keep the open rows only
    asked = np.flatnonzero(np.logical_or.reduce(xs, axis=0))  # the x some row holds
    start = 0
    while start < len(asked) and len(open_):
        rows = max(1, _BLOCK_CELLS // (n * len(open_)))
        group = max(1, _BLOCK_CELLS // (n * rows))
        chunk = asked[start:start + rows]
        products = ring.mul_table[chunk]
        hit = np.empty(len(open_), dtype=bool)
        for g in range(0, len(open_), group):
            cells = np.take(inside[g:g + group], products, axis=1)
            cells &= xs[g:g + group, chunk, None]
            cells &= ys[g:g + group, None]
            hit[g:g + group] = np.logical_or.reduce(cells.reshape(len(cells), -1), axis=1)
        lands[open_] = hit
        start += rows
        if start < len(asked) and hit.any():
            keep = ~hit
            open_, inside, xs, ys = open_[keep], inside[keep], xs[keep], ys[keep]
    return lands


def _prime_rows(ring, inside: np.ndarray) -> np.ndarray:
    """Whether each row of a block of proper ideal rows is a prime ideal:
    no product of two elements outside it lands in it, asked by
    _product_lands. The lattice's primes ask it of every proper ideal,
    is_prime of one. R is not prime, by definition, and is asked of
    neither."""
    outside = ~inside
    return ~_product_lands(ring, inside, outside, outside)


def _primary_rows(ring, lattice, pairs) -> np.ndarray:
    """Whether I is a primary ideal, for each (I, radical(I)) of pairs, I
    proper: no product of an x outside I and a y outside radical(I) lands
    in I, asked by _product_lands of both blocks of rows, gathered from
    the lattice. primary_ideals asks it of every proper ideal, is_primary
    of one. R is not primary, by definition, and is asked of neither."""
    inside = lattice.inside[[lattice.index[ideal.members] for ideal, _ in pairs]]
    radicals = lattice.inside[[lattice.index[rad.members] for _, rad in pairs]]
    return ~_product_lands(ring, inside, ~inside, ~radicals)


def is_prime(ring, ideal: Ideal) -> bool:
    """Proper, and xy in P forces x in P or y in P (all pairs checked):
    _prime_rows of its one row."""
    _same_ring(ring, ideal)
    return ideal.is_proper and bool(_prime_rows(ring, _flags_of(ring, ideal.members)[None])[0])


def is_maximal(ring, ideal: Ideal) -> bool:
    """Proper with no ideal strictly between it and the whole ring: its
    flag in the lattice's maximal flags. Every Ideal of the ring is an
    ideal, so the lattice holds it."""
    _same_ring(ring, ideal)
    lattice = all_ideals(ring)
    return bool(lattice.maximal[lattice.index[ideal.members]])


def is_semiprime(ring, ideal: Ideal) -> bool:
    """x^2 in I forces x in I; equivalently radical(I) == I."""
    _same_ring(ring, ideal)
    inside = _flags_of(ring, ideal.members)
    return not (inside[ring.mul_table.diagonal()] & ~inside).any()


def is_primary(ring, ideal: Ideal) -> bool:
    """xy in I forces x in I or some power of y in I; false for I = R:
    _primary_rows of its one pair with its radical."""
    _same_ring(ring, ideal)
    return ideal.is_proper and bool(_primary_rows(ring, all_ideals(ring), [(ideal, radical(ring, ideal))])[0])


def primary_ideals(ring) -> list[tuple[Ideal, Ideal]]:
    """(I, radical(I)) for every primary ideal I, in canonical order: each
    proper ideal with its radical from radical, all asked of _primary_rows
    in one block, as is_primary asks it of one."""
    lattice = all_ideals(ring)
    pairs = [(ideal, radical(ring, ideal)) for ideal in lattice.ideals if ideal.is_proper]
    return [pair for pair, primary in zip(pairs, _primary_rows(ring, lattice, pairs).tolist()) if primary]


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
    """Primes containing the ideal with no strictly smaller such prime, in
    canonical order: the least of the primes over it, by _least."""
    _same_ring(ring, ideal)
    if not ideal.is_proper:
        raise ValueError("minimal primes are defined over proper ideals only")
    m, primes = ideal.members, all_ideals(ring).primes
    least = _least([p for p in primes if m & ~p == 0])
    return [prime for p, prime in primes.items() if p in least]


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
