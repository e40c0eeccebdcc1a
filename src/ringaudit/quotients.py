"""Quotient rings, ring homomorphisms, endomorphism search, and the two
structural audits that depend on them.

Quotients are presented by the projection onto minimal-index coset
representatives, which names each element's coset. Every Ideal is an
ideal, checked where a caller builds it or built as one by the package,
so quotient_ring checks no ideal law; one step, ideals._cosets, finds each
coset's least member for a block of ideal rows of any size, by each row's
own additive generators. By the correspondence theorem the induced tables
then form a ring, the projection is a surjective homomorphism and its
kernel is the ideal, so none of that is re-verified (the tests do it for
every corpus quotient). quotient_ring numbers the cosets of its one ideal
and builds the ring. audit_thm1's ideals are the lattice's, ideals by
construction: they are not re-checked, and the tests hold every row it
reads to the definition.
audit_thm1 builds no ring, lattice or table for any quotient. It asks
every product question of R's own rows with ideals._product_lands, xs and
ys the representatives of P outside the ideal asked about: whether R/P is
a domain (_domain_quotients, blocks of the lattice's proper ideals), and,
for the domains, whether each J/P with J a lattice ideal over P, other
than P, is prime, then principal (_quotient_pprir, one batch of pairs
(P, J) for all the domains; a containment block with no pair asks
nothing).
Every RingHom is a unital ring homomorphism, a total index map. Calling
the type checks a caller's map where it is built, by check_hom: its form,
then the preservation laws, exhaustively, a block of rows at a time.
The package's own maps enter through RingHom._trusted, each site naming
why its map is one: quotient_ring's projection, by the correspondence
theorem, and the maps of the search, _endomorphism_blocks, homomorphisms
by construction (the proof is in its docstring; each layer's elements are
listed once, by a scalar walk of multiples and one add-table gather). So
kernel and classify_hom check no law, and a kernel is an ideal without a
second check; the tests hold every trusted map to check_hom. The search
works on blocks of maps, one map to a row of a numpy array, and yields
each block as it finishes it, which endomorphisms sorts into RingHoms and
audit_thm3 reads as it comes. One count of distinct images (_image_flags)
over a block serves classify_hom (one row) and audit_thm3.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .ideals import (
    _BLOCK_CELLS,
    Ideal,
    IdealLattice,
    _cosets,
    _flags_of,
    _pack,
    _product_lands,
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
    """A unital ring homomorphism, a total element map between rings:
    mapping[a] is the image of a. Calling the type checks a caller's map
    by check_hom, which refuses a malformed one by name; one that breaks a
    law is refused too. The images are kept as a tuple of Python ints.
    _trusted keeps a map the package has just built as a homomorphism."""

    source: FiniteRing
    target: FiniteRing
    mapping: tuple[int, ...]

    def __post_init__(self):
        source, target = self.source, self.target
        if not check_hom(source, target, self.mapping):
            raise ValueError(f"{source.label}->{target.label} is not a unital ring homomorphism")
        object.__setattr__(self, "mapping", tuple(map(int, self.mapping)))

    @classmethod
    def _trusted(cls, source: FiniteRing, target: FiniteRing, mapping: tuple[int, ...]) -> "RingHom":
        """The RingHom of a tuple of int images that is a unital
        homomorphism by its construction in the package, unchecked; each
        caller names why it is one."""
        hom = object.__new__(cls)
        object.__setattr__(hom, "source", source)
        object.__setattr__(hom, "target", target)
        object.__setattr__(hom, "mapping", mapping)
        return hom

    def __call__(self, a: int) -> int:
        return self.mapping[self.source._check_index(a)]

    def render(self) -> str:
        return f"{self.source.label}->{self.target.label}:{list(self.mapping)}"


@dataclass(frozen=True)
class QuotientPresentation:
    """A quotient R/I: the quotient ring and the projection.

    projection.mapping[a] is the coset of base element a; coset order is by
    minimal member index, which is also the representative.
    """

    base: FiniteRing
    ideal: Ideal
    quotient: FiniteRing
    projection: RingHom


def quotient_ring(ring: FiniteRing, ideal: Ideal) -> QuotientPresentation:
    """Quotient by a proper ideal. Quotienting by R itself is rejected:
    the result would be the zero ring. No ideal law is checked: the Ideal
    type has checked a caller's mask where it was built.

    Cosets are numbered in the order of their representatives, and cell
    (a, b) of each table is the coset of the ring's cell at the
    representatives a, b. The correspondence theorem makes the tables a
    ring and the projection a homomorphism, so both are built trusted."""
    _same_ring(ring, ideal)
    if not ideal.is_proper:
        raise ValueError("cannot quotient by the whole ring (the zero ring is excluded)")
    rep_of = _cosets(ring, _flags_of(ring, ideal.members)[None])[0]
    reps = np.flatnonzero(rep_of == np.arange(ring.order))
    coset_of = np.searchsorted(reps, rep_of)
    quotient = FiniteRing._trusted(
        len(reps),
        coset_of[ring.add_table[reps[:, None], reps]],
        coset_of[ring.mul_table[reps[:, None], reps]],
        coset_of[ring.zero], coset_of[ring.one],
        f"{ring.label}/{ideal}",
        element_names=[f"[{ring.element_names[r]}]" for r in reps.tolist()],
    )
    return QuotientPresentation(ring, ideal, quotient, RingHom._trusted(ring, quotient, tuple(coset_of.tolist())))


def check_hom(source: FiniteRing, target: FiniteRing, mapping: tuple[int, ...]) -> bool:
    """Whether the map sending a to mapping[a] is a unital ring
    homomorphism, verified exhaustively: f(one) = one, then each
    operation's law on every pair (a, b), f(a op b) against f(a) op f(b),
    compared a block of rows a of about _BLOCK_CELLS cells at a time,
    stopping at the first block that breaks one.

    A malformed map is refused first, by name, with ValueError: one of the
    wrong length, then one with an image that is not an integer (a bool
    included, or a numpy bool), then one with an image out of the target's
    range. Numpy integers are images too."""
    if len(mapping) != source.order:
        raise ValueError("map length does not match source order")
    # a bool is an int to Python; it is refused, not read as 0 or 1
    odd = [v for v in mapping if not isinstance(v, (int, np.integer)) or isinstance(v, bool)]
    if odd:
        raise ValueError(f"map image {odd[0]!r} is not an integer")
    if any(not 0 <= v < target.order for v in mapping):
        raise ValueError("map image out of target range")
    f = np.array(mapping, dtype=np.int64)
    if f[source.one] != target.one:
        return False
    step = max(1, _BLOCK_CELLS // source.order)
    for start in range(0, source.order, step):
        cells = f[start:start + step, None] * target.order + f  # flat index of (f(a), f(b)) in a target table
        if not (
            np.array_equal(np.take(f, source.add_table[start:start + step]), np.take(target.add_table, cells))
            and np.array_equal(np.take(f, source.mul_table[start:start + step]), np.take(target.mul_table, cells))
        ):
            return False
    return True


def kernel(hom: RingHom) -> Ideal:
    """Preimage of zero. Every RingHom is a homomorphism, so the preimage
    is an ideal, and its mask enters Ideal._trusted unchecked."""
    return Ideal._trusted(hom.source, _pack((np.array(hom.mapping) == hom.target.zero)[None])[0])


def classify_hom(hom: RingHom) -> dict:
    """{injective, surjective}, read by _image_flags as audit_thm3 reads
    them. No law is checked: every RingHom is a homomorphism."""
    injective, surjective = _image_flags(np.array([hom.mapping]), hom.source.order, hom.target.order)
    return {"injective": bool(injective[0]), "surjective": bool(surjective[0])}


def _image_flags(maps: np.ndarray, source_order: int, target_order: int) -> tuple[np.ndarray, np.ndarray]:
    """(injective, surjective) of each row, from its one count of distinct images."""
    maps = np.sort(maps, axis=1)
    distinct = 1 + (maps[:, 1:] != maps[:, :-1]).sum(axis=1)
    return distinct == source_order, distinct == target_order


def endomorphism_cap() -> int:
    raw = os.environ.get(ENDO_CAP_ENV)
    if not raw:
        return DEFAULT_ENDO_CAP
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{ENDO_CAP_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def endomorphisms(ring: FiniteRing, cap: int | None = None) -> list[RingHom]:
    """All unital ring endomorphisms, in increasing order of their mappings:
    the rows of _endomorphism_blocks, sorted, each made a RingHom
    unchecked, as the search's proof makes it a homomorphism. Rings larger
    than the cap are rejected; set RINGAUDIT_ENDO_CAP to raise it."""
    if cap is None:
        cap = endomorphism_cap()
    if ring.order > cap:
        raise ValueError(f"ring order {ring.order} exceeds endomorphism search cap {cap}; set {ENDO_CAP_ENV} to raise it")
    maps = sorted(tuple(row) for block in _endomorphism_blocks(ring) for row in block.tolist())
    return [RingHom._trusted(ring, ring, m) for m in maps]


def _endomorphism_blocks(ring: FiniteRing) -> Iterator[np.ndarray]:
    """The unital ring endomorphisms, one map to a row of K x order blocks
    yielded as the search finishes them, by a search over the images of an
    additive generating set.

    Generators: s_1 = one, s_2, ... are ring.generators (the pick rule is
    rings._picks), and H_i is the subgroup generated by s_1..s_i, H_0 =
    {zero}. c_i is the least m > 0 with m*s_i in H_{i-1}, and b_i = c_i*s_i.
    Layer i lists each element of H_i outside H_{i-1} once, as h + m*s_i
    with h in H_{i-1} and 1 <= m < c_i. It is built before the search: a
    scalar walk of m*s_i, m = 0, 1, ..., stopping at the first multiple in
    H_{i-1}, gives c_i and b_i, and one add-table gather of each m*s_i
    with each h gives row m, as m*s_i + h = h + m*s_i.
    The search branches on v_i = f(s_i): v_1 = one, and each later v_i runs
    over the v with c_i*v = f(b_i). Layer i is written as
    f(h + m*s_i) = f(h) + m*v_i, and f(s_a)f(s_b) = f(s_a*s_b) is checked
    for each generator pair as soon as its three values are known; a
    failure prunes the branch. A complete map costs O(order) to write.

    Partial maps travel in blocks, one map per row of a K x order array, and
    each generator step is a few numpy operations on a whole block: every
    row is expanded by its candidates v_i, read from a padded table indexed
    by f(b_i); rows failing a generator-pair check are dropped; layer i is
    written with one add-table gather per multiple m, except layer 0, the
    multiples of one, written directly as f(m*one) = m*one. The search
    recurses over row blocks of about _BLOCK_CELLS cells, so memory holds
    one block per generator.

    Why the maps found are exactly the unital endomorphisms:
      - None is missed: every unital homomorphism f has f(s_1) = one,
        c_i*f(s_i) = f(b_i) and f(s_a)f(s_b) = f(s_a*s_b), and, being
        additive, it is the map written from its v_i.
      - Each element once: entry h of gathered row m, m*s_i + h, is
        h + m*s_i by commutativity and associativity of +. The rows
        m < c_i cover H_i, as c_i*s_i lies in H_{i-1}, and no two entries
        are equal, as (m - m')*s_i lies outside H_{i-1} for
        0 < m - m' < c_i.
      - Additive: (h, m) -> h + m*s_i maps H_{i-1} x Z onto H_i with kernel
        {(-m*s_i, m) : m in c_i*Z}, since {m : m*s_i in H_{i-1}} = c_i*Z. If
        f is additive on H_{i-1}, (h, m) -> f(h) + m*v_i is additive and
        vanishes on that kernel as c_i*v_i = f(b_i), so the extension to H_i
        is well defined and additive.
      - Multiplicative, by bilinearity: for x = sum m_a*s_a and
        y = sum n_b*s_b, f(xy) = sum m_a*n_b*f(s_a*s_b) = f(x)f(y).
      - Unital, since v_1 = one.
    """
    n = ring.order
    add, mul, gens = ring.add_table, ring.mul_table, ring.generators.tolist()
    level: list[int | None] = [None] * n  # the layer of each reached element
    level[ring.zero] = 0
    reached, layers = [ring.zero], []  # layers[i]: c_i, b_i, multiples
    for s in gens:
        # steps[m] = m*s for m < c_i; the walk ends at b_i, the first in H_{i-1}
        steps = [ring.zero]
        while level[b := add.item(steps[-1], s)] is None:
            steps.append(b)
        # multiples[m] lists m*s + h = h + m*s for h in H_{i-1}, in the order of reached
        multiples = add[np.array(steps)[:, None], reached]
        layer = multiples[1:].ravel().tolist()
        for x in layer:
            level[x] = len(layers)
        layers.append((len(steps), b, multiples))
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

    def extend(i: int, block: np.ndarray) -> Iterator[np.ndarray]:
        if i == len(layers):
            yield block
            return
        # a slice of rows whose expansion fits the block budget
        rows = max(1, rows_per_block // candidates[layers[i][0]].shape[1])
        for start in range(0, len(block), rows):
            grown = grow(i, block[start:start + rows])
            if len(grown):
                yield from extend(i + 1, grown)

    # v_1 = one fixes layer 0, the multiples of one, as f(m*one) = m*one;
    # its one check, one*one = one, holds
    first = np.full((1, n), ring.zero)
    one_multiples = layers[0][2][:, 0]
    first[0, one_multiples] = one_multiples
    yield from extend(1, first)


def audit_thm1(ring: FiniteRing) -> ClaimOutcome:
    """For every proper ideal P: P prime iff R/P is a domain in which every
    prime ideal is principal. Also records whether R itself has all primes
    principal (the hypothesis side).

    Each quotient Q = R/P is asked two things, by their definitions: whether
    it is a domain (_domain_quotients), and, only when it is, whether every
    prime of Q is principal (_quotient_pprir). When Q is not a domain the
    conjunction is false whatever Q's primes are. Neither builds Q as a ring
    or its lattice: both ask their product questions of R's own rows, with
    _product_lands, through P's coset representatives, and by the
    correspondence theorem (Atiyah-Macdonald, Prop. 1.1) Q's ideals are the
    J/P for the ideals J of R's lattice that hold P. Both questions are
    answered on Q itself: R's own primes and principal generators, the
    other side of the claim, are never read for them. The witness is the
    first proper ideal, in canonical order, on which the two sides differ;
    an ideal that is neither prime nor a domain quotient agrees."""
    hypothesis, _ = is_pprir(ring)
    detail = f"all-primes-principal hypothesis: {hypothesis}"
    lattice = all_ideals(ring)
    positions, rep_of = _domain_quotients(ring, lattice)
    holds = dict(zip(positions.tolist(), _quotient_pprir(ring, lattice, positions, rep_of).tolist()))
    primes = {lattice.index[mask] for mask in lattice.primes}
    for k in sorted(primes | holds.keys()):
        if (k in primes) != holds.get(k, False):
            return ClaimOutcome(REFUTED, witness=str(lattice.ideals[k]), detail=detail)
    return ClaimOutcome(VERIFIED, detail=detail)


def _domain_quotients(ring: FiniteRing, lattice: IdealLattice) -> tuple[np.ndarray, np.ndarray]:
    """The lattice positions of the proper ideals P whose quotient
    Q = R/P is a domain, with their rows of _cosets.

    Q is a domain when its zero ideal is prime: Q is not the zero ring, as
    P is proper, and no two nonzero cosets have product zero. The product
    of the cosets of a and b is the coset of ab, which is zero exactly when
    ab lies in P; so Q is a domain when no two representatives outside P
    have their product in P. The proper ideals go in lattice order, in
    blocks of about _BLOCK_CELLS // order rows: one _cosets call and one
    _product_lands call a block. The rows are the lattice's, ideals by
    construction, so no ideal law is checked here."""
    n = ring.order
    proper = np.flatnonzero(~lattice.inside.all(axis=1))
    step = max(1, _BLOCK_CELLS // n)
    found = []
    for start in range(0, len(proper), step):
        block = proper[start:start + step]
        inside = lattice.inside[block]
        rep_of = _cosets(ring, inside)
        outside = (rep_of == np.arange(n)) & ~inside  # the representatives outside P
        domain = ~_product_lands(ring, inside, outside, outside)
        found.append((block[domain], rep_of[domain]))
    return tuple(map(np.concatenate, zip(*found)))


def _quotient_pprir(ring: FiniteRing, lattice: IdealLattice, positions: np.ndarray, rep_of: np.ndarray) -> np.ndarray:
    """Whether every prime of Q = R/P is principal, for the proper ideals P
    at the lattice positions, given their rows of _cosets, with no ring, no
    lattice and no table built for Q.

    Q's ideals are the J/P for the lattice ideals J that hold P
    (Atiyah-Macdonald, Prop. 1.1), found for every P in one _subsets pass;
    J = R is dropped, as R/P is Q itself, and so is J = P, as P/P = {0} is
    principal, generated by the zero coset, whether or not it is prime. A
    coset a + P lies in J/P exactly when a lies in J, as P lies in J, and
    the product of the cosets of a and b is the coset of ab. So on R's
    rows, with a, b and c running over P's representatives, by the
    definitions:
      - J/P is prime when no two representatives outside J have their
        product in J: one _product_lands call over the pairs (P, J) of
        each containment block, and none for a block with no pair, as
        holds starts True and only a pair can clear it;
      - J/P is principal when some c in J has {rep_of[c*x] : x in R}, the
        representatives of the multiples of c + P, equal to J's.
    Neither lattice.primes nor lattice.generator is read."""
    reps = rep_of == np.arange(ring.order)
    proper = ~lattice.inside.all(axis=1)
    holds = np.ones(len(positions), dtype=bool)
    for start, within in _subsets(lattice.inside[positions], lattice.inside):
        within[np.arange(len(within)), positions[start:start + len(within)]] = False  # J = P
        p, j = (within & proper).nonzero()
        if not len(p):
            continue
        inside, own = lattice.inside[j], reps[start + p]
        outside = own & ~inside
        prime = ~_product_lands(ring, inside, outside, outside)
        p, own = start + p[prime], own[prime] & inside[prime]  # the representatives in each prime J
        t, c = own.nonzero()
        multiples = _rows_of(ring.order, rep_of[p[t, None], ring.mul_table[c]])
        principal = np.bincount(t[np.logical_and.reduce(multiples == own[t], axis=1)], minlength=len(p)) > 0
        holds[p[~principal]] = False
    return holds


def audit_thm3(ring: FiniteRing) -> ClaimOutcome:
    """Every surjective unital endomorphism must be injective (and, the
    cardinality converse, every injective one surjective). Rings over
    endomorphism_cap() are skipped, with the cap named. The search's blocks
    are read as they come, no map kept: each block's _image_flags, once.
    The search's maps are unital endomorphisms by the proof in its
    docstring, so none is re-checked here; the tests check every map it
    yields against an exhaustive law check. The witness is the least map,
    in increasing order, whose two flags differ; it is the search's, a
    homomorphism by the search's proof, so its RingHom is built trusted."""
    cap = endomorphism_cap()
    n = ring.order
    if n > cap:
        return ClaimOutcome(SKIPPED, reason=f"order {n} exceeds endomorphism cap {cap}")
    checked, witness = 0, []  # witness: the least differing map so far, if any
    for block in _endomorphism_blocks(ring):
        injective, surjective = _image_flags(block, n, n)
        witness = sorted([*witness, *map(tuple, block[injective != surjective].tolist())])[:1]
        checked += len(block)
    if witness:
        return ClaimOutcome(REFUTED, witness=RingHom._trusted(ring, ring, witness[0]).render())
    return ClaimOutcome(VERIFIED, detail=f"endomorphisms checked: {checked}")
