"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from _oracles import polynomial_quotient_tables
from ringaudit.rings import FiniteRing, RingAxiomError, make_algebra, make_boolean, make_product, make_zn
from ringaudit.ringfile import _sc_with_unity


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


@st.composite
def local_rings(draw, max_order=81):
    """Z_q[x]/(f) for q = p^k in 4, 8, 9 and f monic of degree 1 or 2 with
    drawn coefficients, of at most max_order elements, kept only when f
    mod p has at most one root in F_p: then f mod p is a power of one
    irreducible and the ring is local, of characteristic p^k. The tables
    of the loop oracle polynomial_quotient_tables are handed to FiniteRing
    under a drawn relabelling, so each ring goes through the full
    validator; an f whose tables it refuses is dropped."""
    q, degree = draw(st.sampled_from([(q, d) for q in (4, 8, 9) for d in (1, 2) if q**d <= max_order]))
    f = tuple(draw(st.lists(st.integers(0, q - 1), min_size=degree, max_size=degree)))
    p = 3 if q == 9 else 2
    assume(sum(sum(c * r**i for i, c in enumerate((*f, 1))) % p == 0 for r in range(p)) <= 1)
    names, add, mul = polynomial_quotient_tables(q, f)
    position = np.array(draw(st.permutations(range(len(names)))))  # element k sits at position[k]
    element = np.argsort(position)
    terms = ["x^2" if degree == 2 else "x", *(f"{c}x" if i else f"{c}" for i, c in reversed(list(enumerate(f))) if c)]
    try:
        return FiniteRing(
            len(names),
            position[np.asarray(add)[np.ix_(element, element)]],
            position[np.asarray(mul)[np.ix_(element, element)]],
            position[0], position[q ** (degree - 1)],
            f"Z_{q}[x]/({'+'.join(terms)})",
            element_names=[names[k] for k in element],
        )
    except RingAxiomError:
        assume(False)
