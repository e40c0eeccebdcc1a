"""Hypothesis strategies shared by the test modules."""

from hypothesis import assume
from hypothesis import strategies as st

from ringaudit.rings import RingAxiomError, make_algebra
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
