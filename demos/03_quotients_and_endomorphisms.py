"""Quotient rings, projections, kernels and the endomorphism monoid.

    python3 demos/03_quotients_and_endomorphisms.py
"""

from ringaudit import (
    classify_hom,
    default_corpus,
    endomorphisms,
    kernel,
    make_boolean,
    make_zn,
    principal_ideal,
    prime_spectrum,
    quotient_ring,
)

z6 = make_zn(6)
pres = quotient_ring(z6, principal_ideal(z6, 2))
q = pres.quotient
print(f"{q.label}: order {q.order}, elements {q.element_names}")
print(f"projection: {pres.projection.render()}")
print(f"kernel of the projection: {kernel(pres.projection)}")
flags = classify_hom(pres.projection)
print(f"projection surjective={flags['surjective']}, injective={flags['injective']}")

print()
corpus = default_corpus()
ring_a = corpus.by_label("A=F2[x,y]/(x,y)^2")
m = prime_spectrum(ring_a)[0]
print(f"{ring_a.label} modulo its unique prime {m}:")
qa = quotient_ring(ring_a, m).quotient
print(f"  order {qa.order}, so the quotient is the field with two elements")

print()
print("endomorphism monoids (the maps come from a proved search; the tests check each one):")
for ring in (make_zn(10), corpus.by_label("F_4"), make_boolean(2)):
    endos = endomorphisms(ring)
    print(f"  {ring.label}: {len(endos)} unital endomorphisms")
    for f in endos:
        flags = classify_hom(f)
        kind = "bijective" if flags["injective"] else "collapsing"
        print(f"    {f.mapping}  {kind}")

print()
print("Z_n is rigid (identity only); F_4 also carries the squaring map,")
print("and the 4-element power-set ring has one endomorphism per function")
print("on its two atoms.")
