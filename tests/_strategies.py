"""Hypothesis strategies shared by the test modules."""

from hypothesis import assume
from hypothesis import strategies as st

from ringaudit.rings import RingAxiomError, make_algebra, make_boolean, make_product, make_zn
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
