"""Independent brute-force oracles used to freeze expected values.

Everything here is written from the definitions, against the public
element-arithmetic API only, so it shares no code path with the engine
under test. The one exception is slice_loop_validate: a table that breaks
an axiom has no ring to ask, so it is the axiom validator as it stood
before the generator-set check, run on raw tables and raising the engine's
RingAxiomError so that messages compare.
"""

from __future__ import annotations

from itertools import product as cartesian

import numpy as np

from ringaudit.rings import RingAxiomError


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def is_ideal_subset(ring, subset: set[int]) -> bool:
    """Definitional check: nonempty, additively closed subgroup, absorbing."""
    if ring.zero not in subset:
        return False
    for a in subset:
        if ring.neg(a) not in subset:
            return False
        for b in subset:
            if ring.add(a, b) not in subset:
                return False
        for r in range(ring.order):
            if ring.mul(a, r) not in subset:
                return False
    return True


def brute_force_ideals(ring) -> set[frozenset[int]]:
    """Every ideal by trying all 2^order subsets; keep order small."""
    if ring.order > 13:
        raise ValueError("brute-force ideal oracle is for small rings only")
    found = set()
    for mask in range(1, 1 << ring.order):
        subset = {a for a in range(ring.order) if mask >> a & 1}
        if is_ideal_subset(ring, subset):
            found.add(frozenset(subset))
    return found


def is_domain(ring) -> bool:
    """No two nonzero elements multiply to zero."""
    nonzero = [a for a in range(ring.order) if a != ring.zero]
    return all(ring.mul(a, b) != ring.zero for a in nonzero for b in nonzero)


def is_field(ring) -> bool:
    """Every nonzero element has a multiplicative inverse."""
    nonzero = [a for a in range(ring.order) if a != ring.zero]
    return all(any(ring.mul(a, b) == ring.one for b in nonzero) for a in nonzero)


def is_prime_subset(ring, subset: set[int]) -> bool:
    """Proper, and a product of two elements outside the subset stays outside."""
    outside = [a for a in range(ring.order) if a not in subset]
    return bool(outside) and all(ring.mul(a, b) not in subset for a in outside for b in outside)


def is_semiprime_subset(ring, subset: set[int]) -> bool:
    """A square lands in the subset only when its root is already in it."""
    return all(a in subset or ring.mul(a, a) not in subset for a in range(ring.order))


def additive_subgroups(ring, carrier: set[int]) -> set[frozenset[int]]:
    """All subsets of the carrier closed under + and containing zero."""
    elems = sorted(carrier)
    found = set()
    for mask in range(1, 1 << len(elems)):
        subset = {elems[i] for i in range(len(elems)) if mask >> i & 1}
        if ring.zero not in subset:
            continue
        if all(ring.add(a, b) in subset for a in subset for b in subset):
            found.add(frozenset(subset))
    return found


def is_unital_hom(ring, mapping: tuple[int, ...], target=None) -> bool:
    """Does the map from ring to target (ring itself by default) send one to
    one and preserve sums and products of every pair."""
    target = ring if target is None else target
    if mapping[ring.one] != target.one:
        return False
    for a in range(ring.order):
        for b in range(ring.order):
            if mapping[ring.add(a, b)] != target.add(mapping[a], mapping[b]):
                return False
            if mapping[ring.mul(a, b)] != target.mul(mapping[a], mapping[b]):
                return False
    return True


def brute_force_endos(ring) -> set[tuple[int, ...]]:
    """Every unital endomorphism by trying all order^order maps."""
    if ring.order > 4:
        raise ValueError("brute-force endo oracle is for order <= 4 only")
    return {
        mapping
        for mapping in cartesian(range(ring.order), repeat=ring.order)
        if is_unital_hom(ring, mapping)
    }


def power_in(ring, y: int, ideal_members: set[int]) -> bool:
    """Does some power y^n (1 <= n <= order) land in the member set."""
    x = y
    for _ in range(ring.order):
        if x in ideal_members:
            return True
        x = ring.mul(x, y)
    return False


def first_generator(ring, subset: set[int]):
    """The least a whose multiples {a*r} are exactly the subset, else None."""
    for a in range(ring.order):
        if {ring.mul(a, r) for r in range(ring.order)} == subset:
            return a
    return None


def is_maximal_in(family: set[frozenset[int]], ring, subset: frozenset[int]) -> bool:
    """Definitional maximality among a family of ideals: proper, and no
    ideal of the family lies strictly between the subset and the ring."""
    whole = frozenset(range(ring.order))
    return subset != whole and not any(subset < other < whole for other in family)


def brute_force_covers(member_sets: list[frozenset[int]]) -> list[tuple[int, int]]:
    """Covering pairs (i, j) of a list of sets, in (i, j) order: sets[i] is
    strictly inside sets[j] with no set k strictly between them."""
    n = len(member_sets)
    strict = {(i, j) for i in range(n) for j in range(n) if member_sets[i] < member_sets[j]}
    return sorted(
        (i, j) for i, j in strict
        if not any((i, k) in strict and (k, j) in strict for k in range(n))
    )


def quotient_tables(ring, ideal_members: set[int]):
    """Cayley tables of R/I from the definition: the coset of a is
    {a+i : i in I}, its minimal member is the representative, and cosets are
    numbered in representative order. Returns (add, mul, coset index of a)."""
    rep = [min(ring.add(a, i) for i in ideal_members) for a in range(ring.order)]
    reps = sorted(set(rep))
    position = {r: k for k, r in enumerate(reps)}
    add = [[position[rep[ring.add(a, b)]] for b in reps] for a in reps]
    mul = [[position[rep[ring.mul(a, b)]] for b in reps] for a in reps]
    return add, mul, tuple(position[r] for r in rep)


def pairwise_sum(ring, left_members: set[int], right_members: set[int]) -> set[int]:
    """The ideal sum from the definition: {i+j : i in I, j in J}."""
    return {ring.add(i, j) for i in left_members for j in right_members}


def product_tables(factors):
    """Cayley tables of a direct product from the definition: elements are
    coordinate tuples in lexicographic order, operated on componentwise.
    Returns (add, mul, zero index, one index)."""
    tuples = list(cartesian(*[range(r.order) for r in factors]))
    index = {t: k for k, t in enumerate(tuples)}

    def table(op):
        return [
            [index[tuple(op(r, a, b) for r, a, b in zip(factors, t, u))] for u in tuples]
            for t in tuples
        ]

    return (
        table(lambda r, a, b: r.add(a, b)),
        table(lambda r, a, b: r.mul(a, b)),
        index[tuple(r.zero for r in factors)],
        index[tuple(r.one for r in factors)],
    )


def slice_loop_validate(order: int, add, mul, zero: int, one: int) -> None:
    """Check every commutative-unital-ring axiom on raw tables: the O(order^2)
    laws, then each cubic law one slice a at a time over all (b, c)."""
    add, mul = np.asarray(add), np.asarray(mul)
    if order < 2:
        raise ValueError("ring order must be >= 2 (the zero ring is excluded)")
    for axiom, table in (("closure(add)", add), ("closure(mul)", mul)):
        bad = np.argwhere((table < 0) | (table >= order))
        if len(bad):
            a, b = (int(v) for v in bad[0])
            raise RingAxiomError(axiom, (a, b), f"{axiom}: entry [{a}][{b}] = {int(table[a, b])} out of range")
    if zero == one:
        raise RingAxiomError("nonzero-unity", (int(zero),), "unity must differ from zero")

    idx = np.arange(order)
    bad = np.argwhere(add != add.T)
    if len(bad):
        raise RingAxiomError("commutativity(add)", tuple(bad[0]))
    bad = np.flatnonzero(add[zero] != idx)
    if len(bad):
        raise RingAxiomError("additive-identity", (bad[0],))
    bad = np.flatnonzero(~(add == zero).any(axis=1))
    if len(bad):
        raise RingAxiomError("additive-inverse", (bad[0],))
    bad = np.argwhere(mul != mul.T)
    if len(bad):
        raise RingAxiomError("commutativity(mul)", tuple(bad[0]))
    bad = np.flatnonzero(mul[one] != idx)
    if len(bad):
        raise RingAxiomError("unity", (bad[0],))

    for a in range(order):
        for axiom, lhs, rhs in (
            ("associativity(add)", add[add[a]], add[a][add]),
            ("associativity(mul)", mul[mul[a]], mul[a][mul]),
            ("distributivity", mul[a][add], add[np.ix_(mul[a], mul[a])]),
        ):
            differ = lhs != rhs
            if differ.any():
                b, c = np.argwhere(differ)[0]
                raise RingAxiomError(axiom, (a, b, c))
