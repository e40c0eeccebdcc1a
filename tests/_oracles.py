"""Independent brute-force oracles used to freeze expected values.

Everything here is written from the definitions, against the public
element-arithmetic API only, so it shares no code path with the engine
under test. There are two exceptions. slice_loop_validate: a table that
breaks an axiom has no ring to ask, so it is the axiom validator as it
stood before the generator-set check, run on raw tables and raising the
engine's RingAxiomError so that messages compare. closure_endomorphisms is
the endomorphism search as it stood before the generator-image search,
kept as the reference that search must match map for map. closure_lattice
is the ideal-lattice enumeration as it stood before the split by primitive
idempotents: the pairwise closure of the principal ideals under sum, each
sum built coset by coset (coset_sum, the sum before the join of cyclic
subgroups on bool rows). pair_scan_up is the containment scan that built
the up-sets before they were read off the lattice's bool block.
whole_block_checked_members is the ideal-law check as it stood before
absorption was checked on an additive generating set.
whole_block_is_primary is is_primary as it stood before the chunked
early-exit test, gathering its whole block at once.
algebra_tables is make_algebra's table build as it stood before the
digit-at-a-time build: one einsum over order x order x dim arrays.
depth_first_endomorphisms is the generator-image search as it stood before
it moved to blocks of partial maps: one map at a time, depth first.
map_by_map_check_hom is check_hom as it stood before the block law check,
one map and two order x order comparisons at a time.
per_ideal_thm1 is THM1's verdict on one ideal as it stood before the
quotients were built as tables in blocks of one size: a full quotient ring
per ideal, by per_ideal_quotient (quotient_ring as it stood then), whose
zero ideal is_prime tests, and is_pprir of it when it is a domain.
padded_block_cosets is the ideal-law check and coset step as they stood
before each row found its own generators: every member sum and the
products with the ring's generators, and each coset's least member from
the addition rows at the members, each row's members padded to the
block's largest count.
dumps_render_json is the JSON report writer as it stood before rows were
filled into their fixed shape: json.dumps at indent 2, which runs json's
pure-Python encoder.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import product as cartesian

import numpy as np

from ringaudit.ideals import Ideal, IdealLattice, _flags_of, _name_violation, is_pprir, is_prime, radical, zero_ideal
from ringaudit.rings import FiniteRing, RingAxiomError, additive_order


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


def distinct_images(mapping: tuple[int, ...]) -> int:
    """The size of a map's image, counted as a set."""
    return len(set(mapping))


def brute_force_endos(ring) -> set[tuple[int, ...]]:
    """Every unital endomorphism by trying all order^order maps."""
    if ring.order > 4:
        raise ValueError("brute-force endo oracle is for order <= 4 only")
    return {
        mapping
        for mapping in cartesian(range(ring.order), repeat=ring.order)
        if is_unital_hom(ring, mapping)
    }


def closure_endomorphisms(ring) -> list[tuple[int, ...]]:
    """Every unital endomorphism's mapping, in increasing order, by the
    backtracking search with forced closure that the engine used before its
    generator-image search: each partial assignment is closed under both
    preservation laws by pairing every newly assigned element with every
    assigned one, and a conflict prunes the branch. Kept as it stood, minus
    the order cap, returning the mappings."""
    n = ring.order
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
    return found


def closure_lattice(ring) -> IdealLattice:
    """Every ideal as the closure of the principal ideals under sum, each
    unordered pair summed once with the coset-by-coset sum; the lattice is
    returned, not kept on the ring."""
    generator: dict[int, int] = {}
    for a in range(ring.order):
        generator.setdefault(sum(1 << x for x in set(ring.mul_table[a].tolist())), a)
    found = list(generator)
    known = set(found)
    rows = cache(lambda g: ring.add_table[g].tolist())
    # found grows while it is walked: each ideal is summed once with every
    # ideal found before it, and one found later meets it in its own turn
    for i, m1 in enumerate(found):
        for m2 in found[:i]:
            s = coset_sum(rows, m1, m2)
            if s not in known:
                known.add(s)
                found.append(s)
    ideals = tuple(sorted((Ideal(ring, m) for m in known), key=Ideal.indices))
    inside = np.array([[ideal.members >> x & 1 for x in range(ring.order)] for ideal in ideals], dtype=bool)
    return IdealLattice(ring, ideals, {ideal.members: i for i, ideal in enumerate(ideals)}, generator, inside)


def coset_sum(rows, m1: int, m2: int) -> int:
    """The sum of ideals m1 and m2 as a union of cosets g+I, rows(g) being
    row g of the addition table as a list.

    Both must be ideals. Of comparable ideals the sum is the larger one.
    Otherwise m1, an additive subgroup, makes each g+I a whole coset, so a
    member of m2 already in the sum brings nothing new."""
    if m1 & ~m2 == 0:
        return m2
    out = m1
    rest = m2 & ~out
    if not rest:
        return out
    members = [x for x in range(m1.bit_length()) if m1 >> x & 1]
    while rest:
        row = rows((rest & -rest).bit_length() - 1)
        for i in members:
            out |= 1 << row[i]
        rest &= ~out
    return out


def pair_scan_up(masks: list[int]) -> tuple[int, ...]:
    """up[i] is the bitset of the positions j with masks[i] a subset of
    masks[j], by testing every pair."""
    return tuple(sum(1 << j for j, o in enumerate(masks) if m & ~o == 0) for m in masks)


def whole_block_checked_members(ring, mask: int) -> np.ndarray:
    """The ideal-law check of a mask as it stood before absorption was
    checked on an additive generating set: the member indices once the laws
    hold, else ValueError naming the least offending member and the first
    law it breaks (its negative, then a+b over the members b, then a*r over
    the ring), all read off the whole |I| x order blocks."""
    if not mask >> ring.zero & 1:
        raise ValueError("not an ideal: zero is missing")
    inside = _flags_of(ring, mask)
    idx = np.flatnonzero(inside)
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


def whole_block_is_primary(ring, ideal) -> bool:
    """xy in I forces x in I or some power of y in I, tested on the whole
    block of products of the x outside I with the y outside radical(I)."""
    if not ideal.is_proper:
        return False
    inside = _flags_of(ring, ideal.members)
    in_radical = _flags_of(ring, radical(ring, ideal).members)
    return not inside[ring.mul_table[~inside][:, ~in_radical]].any()


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


def algebra_tables(p, sc):
    """Cayley tables of the Z_p-algebra with structure constants sc, elements
    encoded little-endian base p as make_algebra does, left unvalidated."""
    dim = len(sc)
    vecs = np.arange(p**dim)[:, None] // p ** np.arange(dim) % p
    powers = p ** np.arange(dim)
    add = (vecs[:, None, :] + vecs[None, :, :]) % p @ powers
    mul = np.einsum("ai,bj,ijk->abk", vecs, vecs, np.array(sc)) % p @ powers
    return add, mul


def depth_first_endomorphisms(ring) -> list[tuple[int, ...]]:
    """Every unital endomorphism's mapping, in increasing order, by the
    generator-image search one partial map at a time (the proof is in the
    docstring of quotients.endomorphisms). Kept as it stood, minus the
    order cap, returning the mappings."""
    n = ring.order
    add, mul = ring.add_table.tolist(), ring.mul_table.tolist()
    level: list[int | None] = [None] * n  # the layer of each reached element
    level[ring.zero] = 0
    reached, gens, layers = [ring.zero], [], []  # layers[i]: c_i, b_i, [(x, x - s_i)]
    s = ring.one
    while s is not None:
        layer, row = [], reached
        # row_next[0] is m*s, as reached[0] is zero; m = c_i ends the loop
        while level[(row_next := [add[x][s] for x in row])[0]] is None:
            layer += zip(row_next, row)
            row = row_next
        for x, _ in layer:
            level[x] = len(layers)
        gens.append(s)
        layers.append((len(layer) // len(reached) + 1, row_next[0], layer))
        reached = reached + [x for x, _ in layer]
        s = level.index(None) if len(reached) < n else None
    checks = [([], []) for _ in gens]
    for j, sb in enumerate(gens):
        for sa in gens[:j + 1]:
            x = mul[sa][sb]
            i = max(j, level[x])
            checks[i][level[x] == i].append((sa, sb, x))
    candidates: dict[int, dict[int, list[int]]] = {}  # c -> c*v -> [v]
    for c in {c for c, _, _ in layers[1:]}:
        multiple = [ring.zero] * n
        for _ in range(c):
            multiple = [add[w][v] for v, w in enumerate(multiple)]
        candidates[c] = {}
        for v, w in enumerate(multiple):
            candidates[c].setdefault(w, []).append(v)

    f = [ring.zero] * n
    found: list[tuple[int, ...]] = []

    def extend(i: int) -> None:
        if i == len(layers):
            found.append(tuple(f))
            return
        c, b, layer = layers[i]
        before, after = checks[i]
        for v in candidates[c].get(f[b], ()):
            f[gens[i]] = v
            if not all(mul[f[sa]][f[sb]] == f[x] for sa, sb, x in before):
                continue
            for x, prev in layer:
                f[x] = add[f[prev]][v]
            if all(mul[f[sa]][f[sb]] == f[x] for sa, sb, x in after):
                extend(i + 1)

    for x, prev in layers[0][2]:
        f[x] = add[f[prev]][ring.one]
    extend(1)
    found.sort()
    return found


def map_by_map_check_hom(source, target, mapping: tuple[int, ...]) -> bool:
    """Does the well-formed map from source to target send one to one and
    preserve sums and products of every pair: two order x order
    comparisons for the one map."""
    if mapping[source.one] != target.one:
        return False
    f = np.array(mapping)
    # cell (a, b) compares f(a op b) with f(a) op f(b)
    return bool(
        (f[source.add_table] == target.add_table[f][:, f]).all()
        and (f[source.mul_table] == target.mul_table[f][:, f]).all()
    )


def per_ideal_quotient(ring, ideal) -> FiniteRing:
    """R/I as quotient_ring built it one ideal at a time: the members from
    the whole-block ideal check, each coset's least member as its
    representative, cosets numbered by searchsorted."""
    members = whole_block_checked_members(ring, ideal.members)
    rep_of = ring.add_table[members].min(axis=0)
    reps = np.flatnonzero(rep_of == np.arange(ring.order))
    coset_of = np.searchsorted(reps, rep_of)
    return FiniteRing._trusted(
        len(reps),
        coset_of[ring.add_table[reps[:, None], reps]],
        coset_of[ring.mul_table[reps[:, None], reps]],
        coset_of[ring.zero], coset_of[ring.one],
        f"{ring.label}/{ideal}",
        element_names=[f"[{ring.element_names[r]}]" for r in reps.tolist()],
    )


def per_ideal_thm1(ring, ideal) -> tuple[bool, bool]:
    """(domain, holds) for a proper ideal P: whether R/P is a domain, its
    zero ideal tested by is_prime, and whether it is a domain in which
    every prime is principal."""
    quotient = per_ideal_quotient(ring, ideal)
    domain = is_prime(quotient, zero_ideal(quotient))
    return domain, domain and is_pprir(quotient)[0]


def padded_block_cosets(ring, inside: np.ndarray) -> np.ndarray:
    """rep_of for the rows of a K x order bool block, rep_of[k, a] the least
    member of a + I_k, once every row passes the ideal laws, else
    ValueError naming the first violated law of the first row that breaks
    one. Each row's member indices are padded to the block's largest count
    with its least member, which repeats a sum, a product and a row of the
    gather and so changes neither the check nor the minimum. The check asks
    for zero, for a+b in I for every two members and for a*s in I for every
    member a and every s in ring.generators: a finite set closed under + is
    a subgroup, and each a*r is a sum of the a*s by distributivity."""
    count = np.cumsum(inside, axis=1)  # count[k, x]: the members of row k up to x
    members = inside.argmax(axis=1)[:, None].repeat(count[:, -1].max(), axis=1)
    k, x = inside.nonzero()
    members[k, count[k, x] - 1] = x
    cells = np.concatenate((
        ring.add_table[members[:, :, None], members[:, None, :]],
        ring.mul_table[ring.generators[:, None], members[:, None, :]],
    ), axis=1)
    cells += np.arange(0, inside.size, ring.order)[:, None, None]  # row k's cells index row k of the block
    ok = inside[:, ring.zero] & inside.ravel()[cells].all(axis=(1, 2))
    if not ok.all():
        k = ok.argmin()
        if not inside[k, ring.zero]:
            raise ValueError("not an ideal: zero is missing")
        _name_violation(ring, inside[k], np.flatnonzero(inside[k]))
    return ring.add_table[members].min(axis=1)


def dumps_render_json(reports) -> str:
    """The JSON report: one dict per report, through json.dumps."""
    rows = [
        {
            "claim": r.claim,
            "ring": r.ring,
            "status": r.status,
            "witness": r.witness,
            "reason": r.reason,
            "detail": r.detail,
            "elapsed_ms": r.elapsed_ms,
        }
        for r in reports
    ]
    return json.dumps(rows, indent=2, ensure_ascii=False)
