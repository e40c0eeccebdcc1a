"""Walk the full ideal lattice of a ring and classify every ideal.

The lattice is computed one local factor eR at a time, for the primitive
idempotents e: the principal ideals inside eR are closed under pairwise
sums, which is exhaustive for finite rings, and one ideal per factor is
combined into an ideal of the whole ring. Run:

    python3 demos/02_ideal_lattices.py
"""

from ringaudit import (
    all_ideals,
    is_ppri,
    is_primary,
    is_prime,
    is_principal,
    is_semiprime,
    make_zn,
    prime_spectrum,
    principal_ideal,
    radical,
)

z12 = make_zn(12)
lattice = all_ideals(z12)

print(f"{z12.label} has {len(lattice)} ideals (one per divisor of 12):")
for ideal, maximal in zip(lattice.ideals, lattice.maximal):
    principal, gen = is_principal(z12, ideal)
    tags = []
    if is_prime(z12, ideal):
        tags.append("prime")
    if maximal:
        tags.append("maximal")
    if is_semiprime(z12, ideal):
        tags.append("semiprime")
    if ideal.is_proper and is_primary(z12, ideal):
        tags.append("primary")
    gen_part = f"= ({z12.name(gen)})" if principal else "not principal"
    print(f"  {str(ideal):24} {gen_part:8} {' '.join(tags)}")

print()
print("prime spectrum:", [str(p) for p in prime_spectrum(z12)])
print("radical of (4):", radical(z12, principal_ideal(z12, 4)))
print()
print("the radical always lands on a semiprime ideal, so applying it twice")
print("changes nothing; (4) -> (2) -> (2).")

print()
print("containment as DOT (pipe into graphviz to draw the Hasse diagram):")
print(all_ideals(make_zn(8)).to_dot())

print()
print("a PPRI is an ideal that is both prime and generated by one element;")
print("in Z_12 those are exactly the two maximal ideals:")
for ideal in lattice.ideals:
    if is_ppri(z12, ideal):
        print(f"  {ideal}")
