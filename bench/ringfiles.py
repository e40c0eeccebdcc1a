"""Seeded ring files for the untrusted-files workload.

Each file is a "kind": "table" document for a product of integer rings
Z_n with its elements randomly relabelled, so that no shortcut relying on
the index order of Z_n or B_k applies. One copy of each product in
CORRUPT_ONE_IN has one wrong product a*b (both table cells, so the table
stays commutative), which an exhaustive axiom check must reject.

The set of products is fixed and every product is corrupted in exactly one
copy, so that the work in a pass does not depend on the seed; the seed
chooses the relabellings, which copy is corrupted and the wrong cell. Only
the standard library is used: the files do not depend on the engine.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product as cartesian

# Orders 24..128; lattices of 8 to 36 ideals.
PRODUCTS = (
    (24,),
    (2, 18),
    (6, 8),
    (60,),
    (3, 24),
    (4, 20),
    (90,),
    (2, 4, 12),
    (112,),
    (8, 16),
)
CORRUPT_ONE_IN = 4


@dataclass(frozen=True)
class RingFile:
    name: str
    factors: tuple[int, ...]
    corrupted: bool
    text: str


def product_tables(factors) -> tuple[list[list[int]], list[list[int]], int, int]:
    """(add, mul, zero, one) of Z_{n_1} x ... x Z_{n_k} in lexicographic
    tuple order."""
    tuples = list(cartesian(*[range(n) for n in factors]))
    index = {t: i for i, t in enumerate(tuples)}
    add = [
        [index[tuple((x + y) % n for x, y, n in zip(t, u, factors))] for u in tuples]
        for t in tuples
    ]
    mul = [
        [index[tuple((x * y) % n for x, y, n in zip(t, u, factors))] for u in tuples]
        for t in tuples
    ]
    return add, mul, index[(0,) * len(factors)], index[(1,) * len(factors)]


def _relabelled_document(factors, label: str, rng: random.Random, corrupt: bool) -> dict:
    add, mul, zero, one = product_tables(factors)
    order = len(add)
    perm = list(range(order))
    rng.shuffle(perm)
    new_add = [[0] * order for _ in range(order)]
    new_mul = [[0] * order for _ in range(order)]
    for a in range(order):
        for b in range(order):
            new_add[perm[a]][perm[b]] = perm[add[a][b]]
            new_mul[perm[a]][perm[b]] = perm[mul[a][b]]
    if corrupt:
        # a, b avoid zero and one, so the cheap row checks pass and only
        # the triple-quantified laws can catch the wrong product
        choices = [x for x in range(order) if x not in (perm[zero], perm[one])]
        a, b = rng.choice(choices), rng.choice(choices)
        wrong = rng.choice([v for v in range(order) if v != new_mul[a][b]])
        new_mul[a][b] = new_mul[b][a] = wrong
    return {
        "kind": "table",
        "label": label,
        "order": order,
        "zero": perm[zero],
        "one": perm[one],
        "add": new_add,
        "mul": new_mul,
    }


def ring_files(seed: int) -> list[RingFile]:
    """The workload's files for a seed; the same seed gives the same bytes."""
    rng = random.Random(seed)
    files = []
    for spec, factors in enumerate(PRODUCTS):
        bad_copy = rng.randrange(CORRUPT_ONE_IN)
        for copy in range(CORRUPT_ONE_IN):
            name = f"r{spec:02d}{copy}"
            doc = _relabelled_document(factors, name, rng, copy == bad_copy)
            text = json.dumps(doc, separators=(",", ":"))
            files.append(RingFile(name, factors, copy == bad_copy, text))
    return files
