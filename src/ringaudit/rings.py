"""Finite commutative rings with nonzero unity, held as dense Cayley tables.

A ring here is the index set 0..order-1 together with full addition and
multiplication tables, two read-only numpy arrays kept in no other form.
FiniteRing(...) is the one constructor for caller tables (make_table_ring
is the same class under its older name), and the one check of them: it
refuses an order below 2 before it reads a table, takes an ndarray or nested
rows (a table ring file's rows as parsed among them), checks the shape, the
cells and the zero/one indices, and keeps one int64 copy. It, and
make_algebra on the tables it builds from caller structure constants, run
the exact axiom check of validate_tables, O(order^2 log order) for tables
that form a ring: whole-table tests of the O(order^2) laws, two
order x order comparisons at each additive generator, and associativity
of * on the triples of generators alone; the generators it checked are
the ring's. Z_n, B_k, direct products and quotients by ideals are
rings by construction: their tables are kept as built, with no copy and no
check, and the tests re-validate them. Every FiniteRing is thus a genuine
commutative unital ring, not the zero ring, whose element names are
distinct, nonempty and free of surrounding spaces, so each reads back as its
element. Each constructor checks its own preconditions once and names the
value it refuses; ringfile checks only the format of ring documents.

The additive generating set (_picks) and the subgroup join (_doublings,
_join) are defined here once; validation, FiniteRing.generators,
additive_order, the ideal code and the endomorphism search all read them.

Instances are immutable after construction, bar two lazily filled slots for
the ideal lattice and an additive generating set (filled at construction
for a ring whose tables were validated), and are safe to share across
threads.
"""

from __future__ import annotations

from collections import Counter
from contextlib import suppress
from functools import cached_property
from itertools import chain, product as _cartesian

import numpy as np

__all__ = [
    "FiniteRing",
    "RingAxiomError",
    "additive_order",
    "is_prime_int",
    "make_algebra",
    "make_boolean",
    "make_product",
    "make_table_ring",
    "make_zn",
    "validate_tables",
]

_DEFAULT_BASIS = ("1", "x", "y", "z", "w")


class RingAxiomError(ValueError):
    """A Cayley table violates a ring axiom.

    Carries the name of the failed axiom and a witness tuple of element
    indices at which it fails.
    """

    def __init__(self, axiom: str, witness: tuple, message: str | None = None):
        self.axiom = axiom
        self.witness = tuple(int(i) for i in witness)
        super().__init__(message or f"axiom {axiom} violated at {self.witness}")


def is_prime_int(n: int) -> bool:
    """Trial-division primality for small integers."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _as_table(table, order: int, name: str) -> np.ndarray:
    """The caller's table as one fresh int64 array, checked for shape and
    cells; the range of each cell is validate_tables' closure check.

    An ndarray's dtype tells whether its cells are integers. A nested list
    or tuple of rows (each a list, tuple or ndarray) is read at C speed when
    every cell is a Python int within int64; otherwise a scan names the first
    cell that is not an int64 integer (1.9, "1", None, 2**70, True, np.True_,
    a 0-d array), since numpy would cast it or read a bool as 0 or 1."""
    if isinstance(table, np.ndarray):
        if table.dtype.kind not in "iu":
            raise ValueError(f"{name} table cells must be int64 integers, got dtype {table.dtype}")
        if table.shape != (order, order):
            raise ValueError(f"{name} table must be {order}x{order}, got shape {table.shape}")
        return table.astype(np.int64)  # a uint64 cell past int64 wraps negative: out of range
    if not isinstance(table, (list, tuple)) or len(table) != order or not all(
        isinstance(row, (list, tuple)) and len(row) == order
        or isinstance(row, np.ndarray) and row.shape == (order,)
        for row in table
    ):
        raise ValueError(f"{name} table must be {order}x{order}: {order} rows of {order} cells each")
    if set(map(type, chain.from_iterable(table))) <= {int}:
        with suppress(OverflowError):  # a cell past int64 is named by the scan
            return np.array(table, dtype=np.int64)
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not -(1 << 63) <= v < 1 << 63:
                raise ValueError(f"{name} table cells must be int64 integers, got {name}[{a}][{b}] = {v!r}")
    return np.array(table, dtype=np.int64)  # numpy integer cells, or an int subclass other than bool


def validate_tables(order: int, add: np.ndarray, mul: np.ndarray, zero: int, one: int) -> np.ndarray:
    """Exactly check every commutative-unital-ring axiom in O(order^2 log order),
    and return the picks of _picks it checked, an int64 array, one first.

    Raises RingAxiomError naming the first violated axiom and a witness
    tuple. First come the O(order^2) laws: closure, nonzero unity,
    commutativity of + and *, additive identity and inverses, unity. Each
    is one test over the whole table, and its witness is searched for only
    once the law is known to fail. Two of the three cubic laws are then
    checked at each pick s of _picks, an additive generating set, each as
    one order x order comparison over all x, z:

      (a) (x+s)+z = x+(s+z)    (b) x(s+z) = xs+xz

    and the third, (c) (xy)z = x(yz), once, on the triples of picks alone.

    Why that proves each law at every element. For (a) and (b), the set of
    elements at which a law holds for all x, z is closed under +.
      (a) Light's associativity test (Clifford & Preston, The Algebraic
          Theory of Semigroups I, 1961, sec. 1.2): if s, t are good then
          (x+(s+t))+z = ((x+s)+t)+z = (x+s)+(t+z) = x+(s+(t+z))
          = x+((s+t)+z).
      (b) Given (a): x((s+t)+z) = x(s+(t+z)) = xs+(xt+xz) = (xs+xt)+xz
          = x(s+t)+xz.
    So (a) holds at every sum of one or more picks; once every element is
    such a sum, (a) holds everywhere, and then (b) does too.
      (c) Trilinearity: + is now an abelian group, and * is additive in
          each argument, by (b) on the left and by commutativity on the
          right. So T(x, y, z) = (xy)z - x(yz) is additive in each of x,
          y and z: T(x+x', y, z) = (xy+x'y)z - (x(yz)+x'(yz)) =
          T(x, y, z) + T(x', y, z), and alike in y and z. Every element is
          a sum of picks, so each T(x, y, z) is a sum of values of T on
          triples of picks: T vanishes everywhere iff it vanishes there,
          at most log2(order)^3 triples.

    Why _picks' doubling, which assumes a group, is sound on a table not
    yet known to form one: it closes the reached set X, {zero} at first,
    over a pick only after this check has seen the pick, so (a) has passed
    at every pick so far. Light's test then gives (a) at every sum u of
    picks, and so y = (y+u)+w for every y, where w is the entry with
    u+w = zero that the additive-inverse check guarantees: y -> y+u is
    injective. The sums of picks then form a finite cancellative
    commutative semigroup, associative by (a), hence a group M. Its
    identity e has e+e = e = zero+e, so e = zero, and the inverse of u in M
    is w, as both give zero when added to u. So every y with y+u in X is a
    sum of picks, (y+u)+w: the doubling marks nothing the proof above does
    not cover, and within M it reaches exactly the subgroup that _picks'
    docstring names, so at most log2(order) picks pass, whatever the table.

    A failed check, at a pick or on the triples, is an instance of a law
    that _search_witness checks exhaustively, slice by slice; it runs only
    then, and raises with the first witness in slice order. A rejected
    table thus pays for that O(order^3) search up to its first failing
    slice.
    """
    for axiom, table in (("closure(add)", add), ("closure(mul)", mul)):
        if not (table.min() >= 0 and table.max() < order):
            a, b = (int(v) for v in np.argwhere((table < 0) | (table >= order))[0])
            raise RingAxiomError(axiom, (a, b), f"{axiom}: entry [{a}][{b}] = {int(table[a, b])} out of range")
    if zero == one:
        raise RingAxiomError("nonzero-unity", (int(zero),), "unity must differ from zero")

    idx = np.arange(order)
    _check_symmetric("commutativity(add)", add)
    bad = np.flatnonzero(add[zero] != idx)
    if len(bad):
        raise RingAxiomError("additive-identity", (bad[0],))
    bad = np.flatnonzero(~(add == zero).any(axis=1))
    if len(bad):
        raise RingAxiomError("additive-inverse", (bad[0],))
    _check_symmetric("commutativity(mul)", mul)
    bad = np.flatnonzero(mul[one] != idx)
    if len(bad):
        raise RingAxiomError("unity", (bad[0],))

    picks = []
    for s in _picks(add, zero, one):
        if not _cubic_laws_hold(add, mul, s):
            _search_witness(order, add, mul)  # raises: the failed law is one it checks
        picks.append(s)
    g = np.array(picks, dtype=np.int64)
    gg = mul[g[:, None], g]
    if not np.array_equal(mul[gg[:, :, None], g], mul[g[:, None, None], gg]):  # (xy)z against x(yz)
        _search_witness(order, add, mul)
    return g


def _check_symmetric(axiom: str, table: np.ndarray) -> None:
    """Raise for the first cell, in row-major order, where the table differs
    from its transpose."""
    if not np.array_equal(table, table.T):
        raise RingAxiomError(axiom, tuple(np.argwhere(table != table.T)[0]))


def _cubic_laws_hold(add: np.ndarray, mul: np.ndarray, s: int) -> bool:
    """(a) and (b) of validate_tables at s, with x down the rows and z
    across; row s stands for column s by commutativity, np.take is the fast
    column gather, and xs + xz is one flat gather, at xs * order + xz."""
    return np.array_equal(add[add[s]], np.take(add, add[s], axis=1)) and np.array_equal(
        np.take(mul, add[s], axis=1), np.take(add, mul + (mul[s] * len(add))[:, None])
    )


def _picks(add: np.ndarray, zero: int, one: int):
    """Yield the ring's additive generating set: one, then each least index
    outside the subgroup H reached so far (H = {zero} at first). Only once
    the caller has seen a pick s is H closed over it, to H + <s>, by _join.
    Each pick s outside H gives a coset s+H disjoint from H, so each closure
    at least doubles H, and there are at most log2(order) picks."""
    reached = (np.arange(len(add)) == zero)[None]
    s = one
    while not reached[0, s]:  # argmin is the least index outside H, or one in H once H is all
        yield s
        reached = _join(reached, _doublings(add, zero, np.array([s])))
        s = int(reached.argmin())


def _doublings(add: np.ndarray, zero: int, t: np.ndarray) -> np.ndarray:
    """The steps of _join with the cyclic subgroups <t[k]>, k < K, one row
    of flat gather indices over a K x order row each: step d takes X to
    X | (X - u), u = 2^d t, where X - u = {y : y + u in X} is a gather
    through row u of the addition table. The steps stop once u is zero for
    every k, or at ceil(log2 order) of them, which reach every multiple of
    t, as the additive order of t is at most the order."""
    n, double = len(add), add.diagonal()
    u = [t]
    for _ in range((n - 1).bit_length() - 1):
        u.append(double[u[-1]])
    u = np.array(u)
    u = u[(u != zero).any(axis=1)]  # a prefix of the rows: twice zero is zero
    return (add[u] + np.arange(0, len(t) * n, n)[:, None]).reshape(len(u), len(t) * n)


def _join(rows: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """rows[:, k] + <t[k]> for each k, where rows is an R x K x order bool
    block (or R x order, when K = 1) and steps = _doublings(add, zero, t).

    X + <t> is reached by doubling: after d steps X has grown to
    X + {0, -t, ..., -(2^d - 1)t}. That is X + <t> once 2^d t is zero, or
    d reaches log2 of the order, and also once a step adds nothing: then X
    is closed under -t, since x - 2^d t lies in X for each x in it."""
    flat = rows.reshape(len(rows), -1)
    for d, index in enumerate(steps, 1):
        grown = flat | np.take(flat, index, axis=1)
        if d == len(steps) or not np.count_nonzero(grown != flat):
            return grown.reshape(rows.shape)
        flat = grown
    return rows


def _search_witness(order: int, add: np.ndarray, mul: np.ndarray) -> None:
    """The exhaustive slice loop over the three cubic laws, in the order that
    fixes which witness a rejection names; peak memory stays O(order^2)."""
    for a in range(order):
        _check_slice("associativity(add)", a, add[add[a]], add[a][add])
        _check_slice("associativity(mul)", a, mul[mul[a]], mul[a][mul])
        _check_slice("distributivity", a, mul[a][add], add[np.ix_(mul[a], mul[a])])


def _check_slice(axiom: str, a: int, lhs: np.ndarray, rhs: np.ndarray) -> None:
    """Raise for the first (b, c) at which the law's two sides differ; the
    witness is searched for only in a slice known to hold one."""
    differ = lhs != rhs
    if differ.any():
        b, c = np.argwhere(differ)[0]
        raise RingAxiomError(axiom, (a, b, c))


class FiniteRing:
    """A finite commutative ring with unity, elements indexed 0..order-1.

    add_table and mul_table are read-only order x order numpy arrays, the
    ring's only tables; element_names gives a display string per index.
    Identity semantics: two instances are equal only if they are the same
    object. Calling the class copies the caller's tables and checks them in
    full, and labels the ring table-ring-<order> unless given a label;
    _trusted keeps the tables a package constructor has just built.

    source is None, unless ringfile.ring_from_document attached the
    document it parsed, which ringfile.document_for writes back.

    Two slots are filled lazily: _lattice, where ideals.all_ideals keeps the
    ring's IdealLattice, and generators, unless validation has filled it
    with the picks it checked; threads racing to fill either recompute the
    same value.
    """

    def __init__(
        self,
        order: int,
        add_table,
        mul_table,
        zero: int,
        one: int,
        label: str | None = None,
        element_names=None,
    ):
        if order < 2:
            raise ValueError(f"ring order must be >= 2 (the zero ring is excluded), got {order!r}")
        add = _as_table(add_table, order, "add")
        mul = _as_table(mul_table, order, "mul")
        if not all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < order for v in (zero, one)
        ):
            raise ValueError(f"zero/one must be int indices in 0..{order - 1}, got {zero!r}/{one!r}")
        generators = validate_tables(order, add, mul, zero, one)
        self._fill(order, add, mul, zero, one, label or f"table-ring-{order}", element_names)
        self.generators = generators  # the picks validation checked, kept where the cached property keeps them

    @classmethod
    def _trusted(cls, order, add_table, mul_table, zero, one, label, element_names=None):
        """A ring from order x order int64 tables the package has just built,
        kept uncopied; they are checked where their contents come from
        outside, as make_algebra checks those built from caller constants."""
        ring = cls.__new__(cls)
        ring._fill(order, add_table, mul_table, zero, one, label, element_names)
        return ring

    def _fill(self, order, add, mul, zero, one, label, element_names):
        add.setflags(write=False)
        mul.setflags(write=False)
        self.order = int(order)
        self.add_table = add
        self.mul_table = mul
        self.zero = int(zero)
        self.one = int(one)
        self.label = str(label)
        if element_names is None:
            element_names = [str(i) for i in range(order)]
        if len(element_names) != order:
            raise ValueError(f"element_names must hold {order} names, got {len(element_names)}")
        self.element_names = tuple(str(s) for s in element_names)
        if len(set(self.element_names)) != order:  # names must parse back to one element each
            (repeated, count), = Counter(self.element_names).most_common(1)
            raise ValueError(f"element_names must be distinct, {repeated!r} names {count} elements")
        for name in self.element_names:
            if not name or name != name.strip():
                raise ValueError(f"element names must be nonempty, without leading or trailing spaces, got {name!r}")
        self.source = None
        self._lattice = None

    @cached_property
    def generators(self) -> np.ndarray:
        """The picks of _picks, an additive generating set of at most
        log2(order) elements, one first: those validate_tables checked for
        a ring built from caller tables or constants, else found on first
        use."""
        return np.array(list(_picks(self.add_table, self.zero, self.one)))

    def _check_index(self, a: int) -> int:
        # a bool is an int to Python and would index a table as a mask
        if not isinstance(a, (int, np.integer)) or isinstance(a, bool):
            raise ValueError(f"element index {a!r} is not an integer")
        if not 0 <= a < self.order:
            raise ValueError(f"element index {a} out of range for {self.label}")
        return a

    def add(self, a: int, b: int) -> int:
        return self.add_table.item(self._check_index(a), self._check_index(b))

    def mul(self, a: int, b: int) -> int:
        return self.mul_table.item(self._check_index(a), self._check_index(b))

    def neg(self, a: int) -> int:
        return int((self.add_table[self._check_index(a)] == self.zero).argmax())

    def pow(self, a: int, n: int) -> int:
        """a**n by repeated multiplication; requires n >= 1."""
        self._check_index(a)
        if n < 1:
            raise ValueError("exponent must be >= 1")
        acc = a
        for _ in range(n - 1):
            acc = self.mul_table.item(acc, a)
        return acc

    def name(self, a: int) -> str:
        return self.element_names[self._check_index(a)]

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        return f"FiniteRing({self.label!r}, order={self.order})"


def additive_order(ring: FiniteRing, a: int) -> int:
    """Order of a in the additive group of the ring: the size of <a>."""
    zero_row = (np.arange(ring.order) == ring.zero)[None]
    return int(_join(zero_row, _doublings(ring.add_table, ring.zero, np.array([ring._check_index(a)]))).sum())


def make_zn(n: int, label: str | None = None) -> FiniteRing:
    """The integers mod n. Rejects n < 2 (the zero ring has no nonzero unity)."""
    if n < 2:
        raise ValueError(f"make_zn requires n >= 2 (the zero ring is excluded), got {n}")
    idx = np.arange(n)
    add = idx[:, None] + idx
    add %= n  # in place: the build holds the two tables and no third
    mul = idx[:, None] * idx
    mul %= n
    return FiniteRing._trusted(n, add, mul, 0, 1, label or f"Z_{n}")


def make_boolean(k: int, label: str | None = None) -> FiniteRing:
    """Power-set ring on k atoms: symmetric difference and intersection.

    Element i is the subset whose bits are set in i; names list the 1-based
    atoms, so index 0 is "{}" and the unity is the full set.
    """
    if k < 1:
        raise ValueError(f"make_boolean requires k >= 1 (the zero ring is excluded), got {k}")
    order = 1 << k
    idx = np.arange(order)
    add = idx[:, None] ^ idx[None, :]
    mul = idx[:, None] & idx[None, :]
    names = ["{" + ",".join(str(i + 1) for i in range(k) if s >> i & 1) + "}" for s in range(order)]
    return FiniteRing._trusted(order, add, mul, 0, order - 1, label or f"B_{k}", element_names=names)


def make_product(factors, label: str | None = None) -> FiniteRing:
    """Direct product of rings with componentwise operations."""
    factors = list(factors)
    if not factors:
        raise ValueError("make_product requires at least one factor, got none")
    # one broadcast per factor R: (q, x) in (earlier factors) x R is q·|R| + x,
    # last factor fastest as in itertools.product; no third table is built
    add = mul = np.zeros((1, 1), dtype=np.int64)
    zero = one = 0
    for r in factors:
        m = r.order
        add = (add[:, None, :, None] * m + r.add_table[:, None, :]).reshape(len(add) * m, -1)
        mul = (mul[:, None, :, None] * m + r.mul_table[:, None, :]).reshape(len(mul) * m, -1)
        zero, one = zero * m + r.zero, one * m + r.one
    names = ["(" + ",".join(t) + ")" for t in _cartesian(*(r.element_names for r in factors))]
    return FiniteRing._trusted(
        len(add), add, mul, zero, one, label or "x".join(r.label for r in factors), element_names=names
    )


def _combo_name(vec, basis_names) -> str:
    """Render a coefficient vector over the basis, e.g. (1,0,1) -> "1+y"."""
    terms = []
    for pos, (c, bname) in enumerate(zip(vec, basis_names)):
        c = int(c)
        if c == 0:
            continue
        if pos == 0:
            terms.append(str(c))
        elif c == 1:
            terms.append(bname)
        else:
            terms.append(f"{c}{bname}")
    return "+".join(terms) or "0"


def make_algebra(p: int, dim: int, sc, basis_names=None, label: str | None = None) -> FiniteRing:
    """Commutative Z_p-algebra from structure constants.

    sc[i][j] is the length-dim coefficient vector of e_i * e_j; basis
    element 0 must act as unity. Elements are coefficient vectors encoded
    little-endian base p, so index 0 is zero and index 1 is unity. The
    product defined by sc must come out commutative, associative and
    distributive with e_0 as identity; all of that is verified on the full
    tables (a bad sc raises RingAxiomError with the violating triple).
    """
    if dim < 1:  # before p: with no basis, p is unbounded and a prime one slow to test
        raise ValueError(f"make_algebra requires dim >= 1, got {dim}")
    if not is_prime_int(p):
        raise ValueError(f"make_algebra requires prime p, got {p}")
    sc = np.array(sc, dtype=np.int64) % p
    if sc.shape != (dim, dim, dim):
        raise ValueError(f"structure constants must have shape ({dim},{dim},{dim})")
    if basis_names is None:
        if dim > len(_DEFAULT_BASIS):
            raise ValueError("provide basis_names for dim > 5")
        basis_names = _DEFAULT_BASIS[:dim]
    basis_names = tuple(str(s) for s in basis_names)
    if len(basis_names) != dim or len(set(basis_names)) != dim:
        raise ValueError("basis_names must be dim distinct names")

    order = p ** dim
    powers = p ** np.arange(dim)
    vecs = np.arange(order)[:, None] // powers % p
    # digit k of a+b and of ab = sum_ij a_i b_j sc[i,j,k]: a few tables, not order x order x dim
    add = np.zeros((order, order), dtype=np.int64)
    mul = np.zeros_like(add)
    for k in range(dim):
        add += (vecs[:, k, None] + vecs[:, k]) % p * powers[k]
        mul += (vecs @ sc[..., k] @ vecs.T) % p * powers[k]
    names = [_combo_name(v, basis_names) for v in vecs]
    generators = validate_tables(order, add, mul, 0, 1)
    ring = FiniteRing._trusted(order, add, mul, 0, 1, label or f"F{p}-algebra(dim={dim})", element_names=names)
    ring.generators = generators
    return ring


make_table_ring = FiniteRing  # the same constructor under its older name
