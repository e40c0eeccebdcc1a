"""Hypothesis strategies shared by the test modules."""

import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from _oracles import polynomial_quotient_tables
from ringaudit.ideals import principal_ideal
from ringaudit.quotients import quotient_ring
from ringaudit.ringfile import _sc_with_unity
from ringaudit.rings import FiniteRing, RingAxiomError, make_algebra, make_boolean, make_product, make_zn


@st.composite
def fp_structure_constants(draw):
    """(p, dim, sc): random commutative structure constants with e_0 as
    unity, which may or may not define a ring."""
    p = draw(st.sampled_from((2, 3, 5)))
    dim = draw(st.integers(2, 3))
    coefficients = st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)
    entries = {(i, j): draw(coefficients) for i in range(1, dim) for j in range(i, dim)}
    return p, dim, _sc_with_unity(dim, entries)


@st.composite
def fp_algebras(draw):
    """A commutative F_p-algebra from random structure constants, kept only
    when the products it defines satisfy the ring axioms."""
    try:
        return make_algebra(*draw(fp_structure_constants()))
    except RingAxiomError:
        assume(False)


@st.composite
def small_products(draw):
    """A direct product of one to three small factors, Z_n for n up to 9 or
    B_1, of at most 64 elements."""
    factors = st.one_of(st.integers(2, 9).map(make_zn), st.just(1).map(make_boolean))
    rings = draw(st.lists(factors, min_size=1, max_size=3))
    order = 1
    for ring in rings:
        order *= ring.order
    assume(order <= 64)
    return make_product(rings)


def _relabelled(ring, position, label=None):
    """A table-ring copy of ring with element k at index position[k], each
    element keeping its name: a caller's tables, which FiniteRing
    validates."""
    return _relabelled_tables(position, ring.add_table, ring.mul_table, ring.zero, ring.one, ring.element_names, label)


def _relabelled_tables(position, add, mul, zero, one, names, label=None):
    """The ring of the tables add and mul, with element k at index
    position[k], handed to FiniteRing."""
    position = np.asarray(position)
    element = np.argsort(position)
    return FiniteRing(
        len(position),
        position[np.asarray(add)[np.ix_(element, element)]],
        position[np.asarray(mul)[np.ix_(element, element)]],
        position[zero], position[one], label,
        element_names=[names[k] for k in element],
    )


@st.composite
def local_rings(draw, max_order=81):
    """Z_q[x]/(f) for q = p^k in 4, 8, 9 and f monic of degree 1 to 3 with
    drawn coefficients, of at most max_order elements, kept only when f
    mod p is a power of one irreducible: (x - r)^degree for its one root r
    in F_p, or, with no root and degree at most 3, irreducible. Then the
    ring is local, of characteristic p^k. The tables of the loop oracle
    polynomial_quotient_tables are handed to FiniteRing under a drawn
    relabelling, so each ring goes through the full validator; an f whose
    tables it refuses is dropped. Half the time the ring is then taken to
    its quotient by a drawn principal ideal (a), a not a unit, which is
    local too, and that is handed to FiniteRing relabelled as well."""
    q, degree = draw(st.sampled_from([(q, d) for q in (4, 8, 9) for d in (1, 2, 3) if q**d <= max_order]))
    f = tuple(draw(st.lists(st.integers(0, q - 1), min_size=degree, max_size=degree)))
    p = 3 if q == 9 else 2
    coefficients = (*f, 1)  # the constant term first
    roots = [r for r in range(p) if sum(c * r**i for i, c in enumerate(coefficients)) % p == 0]
    assume(len(roots) <= 1)
    for r in roots:  # f mod p must be (x - r)^degree, term by term
        assume(all((c - math.comb(degree, i) * (-r) ** (degree - i)) % p == 0 for i, c in enumerate(coefficients)))
    names, add, mul = polynomial_quotient_tables(q, f)
    terms = [f"x^{degree}", *(f"{c}x^{i}" for i, c in reversed(list(enumerate(f))) if c)]
    label = f"Z_{q}[x]/({'+'.join(terms)})".replace("x^1", "x").replace("x^0", "")
    try:
        ring = _relabelled_tables(draw(st.permutations(range(len(names)))), add, mul, 0, q ** (degree - 1), names, label)
    except RingAxiomError:
        assume(False)
    if draw(st.booleans()):
        a = draw(st.sampled_from(np.flatnonzero(~(ring.mul_table == ring.one).any(axis=1)).tolist()))
        quotient = quotient_ring(ring, principal_ideal(ring, a)).quotient
        ring = _relabelled(quotient, draw(st.permutations(range(quotient.order))), f"{label}/({ring.name(a)})")
    return ring


@st.composite
def relabelled_local_rings(draw):
    """A drawn local ring from local_rings, of characteristic p^k, or
    Z_{p^k} for p^k <= 64 under a drawn relabelling, so the first
    generators of its principal ideals, by index, come in no order of
    size."""
    if draw(st.booleans()):
        return draw(local_rings())
    ring = make_zn(draw(st.sampled_from([4, 8, 16, 32, 64, 9, 27, 25, 49])))
    return _relabelled(ring, draw(st.permutations(range(ring.order))))
