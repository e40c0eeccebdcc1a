"""Five ways to build a finite commutative ring.

Every constructor that takes Cayley tables from the caller validates them
before handing the ring back, and the others build rings by construction,
so anything you get out of this module is guaranteed to satisfy the ring
axioms. Run from the repository root:

    python3 demos/01_building_rings.py
"""

from pathlib import Path

from ringaudit import (
    RingAxiomError,
    additive_order,
    load_ring_file,
    make_algebra,
    make_boolean,
    make_product,
    make_table_ring,
    make_zn,
)

ROOT = Path(__file__).resolve().parents[1]

print("== modular integers ==")
z12 = make_zn(12)
print(f"{z12.label}: order {z12.order}, zero={z12.name(z12.zero)}, one={z12.name(z12.one)}")
print(f"  8 + 7  = {z12.name(z12.add(8, 7))}")
print(f"  8 * 7  = {z12.name(z12.mul(8, 7))}")
print(f"  6^2    = {z12.name(z12.pow(6, 2))}   (so 6 is nilpotent)")
print(f"  additive order of 8: {additive_order(z12, 8)}")

print()
print("== power-set rings ==")
b3 = make_boolean(3)
print(f"{b3.label}: order {b3.order}, elements are subsets of three atoms")
a, b = 3, 5  # {1,2} and {1,3}
print(f"  {b3.name(a)} + {b3.name(b)} = {b3.name(b3.add(a, b))}   (symmetric difference)")
print(f"  {b3.name(a)} * {b3.name(b)} = {b3.name(b3.mul(a, b))}     (intersection)")
print(f"  every element idempotent: {all(b3.mul(x, x) == x for x in b3.elements())}")

print()
print("== direct products ==")
z2xz3 = make_product([make_zn(2), make_zn(3)])
print(f"{z2xz3.label}: order {z2xz3.order}")
print("  componentwise arithmetic, so (1,2) + (1,1) =", z2xz3.name(z2xz3.add(5, 4)))
print("  (the Chinese remainder theorem says this ring is Z_6 in disguise)")

print()
print("== quotient-style algebras over Z_p ==")
# F_4 as F_2[x]/(x^2 + x + 1): basis (1, x), with x*x = 1 + x
f4 = make_algebra(2, 2, [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], basis_names=("1", "x"), label="F_4")
print(f"{f4.label}: order {f4.order}, element names {f4.element_names}")
print(f"  x * x = {f4.name(f4.mul(2, 2))}")
print(f"  x * (1+x) = {f4.name(f4.mul(2, 3))}   (so every nonzero element is a unit)")

print()
print("== raw Cayley tables, and what happens to bad ones ==")
ring_file = ROOT / "rings" / "z3_table.json"
z3 = load_ring_file(ring_file)
print(f"loaded {ring_file.name}: {z3.label}, order {z3.order}")

add = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
mul = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]  # 2*2 should be 1; this table says 2
try:
    make_table_ring(3, add, mul, zero=0, one=1)
except RingAxiomError as exc:
    print(f"corrupted table rejected: axiom={exc.axiom!r}, witness={exc.witness}")
