"""Symbolic ideals of Z^k (k <= 3).

An ideal n1 Z x ... x nk Z is written as its generator tuple (n1, ..., nk)
of nonnegative ints; 0 stands for the zero factor and 1 for the full factor.
Containment is componentwise divisibility (mZ contains m'Z iff m | m', with
every d dividing 0). This is just enough machinery to exhibit a prime,
principal, non-maximal ideal, something no finite commutative ring can do.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .reports import REFUTED, VERIFIED, ClaimOutcome
from .rings import is_prime_int

__all__ = [
    "MAX_Z_GENERATOR",
    "ZProductIdeal",
    "audit_ex2",
    "box_oracle_check",
    "parse_z_ideal",
    "render_z_ideal",
    "z_contains",
    "z_is_maximal",
    "z_is_prime",
    "z_principal_witness",
]

MAX_Z_GENERATOR = 50_000  # the box oracle scans ~20x the largest generator per axis: under a second

_LITERAL = re.compile(r"^Z(?:\^(\d+))?:\(([0-9,\s]*)\)$")


@dataclass(frozen=True)
class ZProductIdeal:
    """The ideal gens[0] Z x ... x gens[k-1] Z of Z^k."""

    gens: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= len(self.gens) <= 3:
            raise ValueError("ZProductIdeal supports k in 1..3")
        if any(not isinstance(g, int) or g < 0 for g in self.gens):
            raise ValueError("generators must be nonnegative ints")

    @property
    def k(self) -> int:
        return len(self.gens)

    def __str__(self) -> str:
        return render_z_ideal(self)


def _divides(d: int, m: int) -> bool:
    # every d divides 0; 0 divides only 0
    if d == 0:
        return m == 0
    return m % d == 0


def z_contains(outer: ZProductIdeal, inner: ZProductIdeal) -> bool:
    """outer contains inner iff each outer generator divides the inner one."""
    if outer.k != inner.k:
        raise ValueError("ideal arities differ")
    return all(_divides(d, m) for d, m in zip(outer.gens, inner.gens))


def z_is_prime(ideal: ZProductIdeal) -> bool:
    """Prime iff exactly one coordinate is 0 or a prime and the rest are 1.

    Then the quotient is a product of zero rings and one factor Z or Z_p,
    hence a domain; any other shape has zero divisors or is the whole ring.
    """
    special = [g for g in ideal.gens if g != 1]
    return len(special) == 1 and (special[0] == 0 or is_prime_int(special[0]))


def z_is_maximal(ideal: ZProductIdeal) -> bool:
    """Maximal iff exactly one coordinate is prime and the rest are 1."""
    special = [g for g in ideal.gens if g != 1]
    return len(special) == 1 and is_prime_int(special[0])


def z_principal_witness(ideal: ZProductIdeal) -> tuple[int, ...]:
    """A single generator: the generator tuple itself (validate with
    box_oracle_check)."""
    return ideal.gens


def _box_members(ideal: ZProductIdeal, bound: int) -> list[set[int]]:
    """Per axis, the ideal's coordinates inside the box."""
    return [{v for v in range(-bound, bound + 1) if _divides(g, v)} for g in ideal.gens]


def _box_generated(witness: tuple[int, ...], bound: int) -> list[set[int]]:
    """Per axis, the coordinates of {witness * r} inside the box."""
    return [{g * r for r in range(-bound, bound + 1) if abs(g * r) <= bound} for g in witness]


def box_oracle_check(ideal: ZProductIdeal, witness: tuple[int, ...], bound: int | None = None) -> bool:
    """Compare {witness * r} with the ideal inside the box |coord| <= bound.

    Default bound is 10 * max(gens, 1), wide enough that a wrong witness
    always produces a visible discrepancy. Both sets are products of
    per-axis sets, each holding 0, so they are equal exactly when their axes
    are, and the box itself is never built.
    """
    if len(witness) != ideal.k:
        raise ValueError("witness arity differs from ideal arity")
    if bound is None:
        bound = 10 * max(max(ideal.gens), 1)
    return _box_generated(witness, bound) == _box_members(ideal, bound)


def render_z_ideal(ideal: ZProductIdeal) -> str:
    """Display form: factor 0 -> "{0}", 1 -> "Z", 2 -> "Z_e" (the even
    integers), n -> "nZ"."""
    parts = []
    for g in ideal.gens:
        if g == 0:
            parts.append("{0}")
        elif g == 1:
            parts.append("Z")
        elif g == 2:
            parts.append("Z_e")
        else:
            parts.append(f"{g}Z")
    return "×".join(parts)


def parse_z_ideal(text: str) -> ZProductIdeal:
    """Parse the CLI literal syntax, e.g. "Z^2:(1,0)" or "Z:(6)", with generators up to MAX_Z_GENERATOR."""
    m = _LITERAL.match(text.strip())
    if not m:
        raise ValueError(f"bad ideal literal {text!r}; expected e.g. Z^2:(1,0)")
    k = int(m.group(1)) if m.group(1) else 1
    body = m.group(2).strip()
    gens = tuple(int(tok) for tok in body.split(",")) if body else ()
    if len(gens) != k:
        raise ValueError(f"literal declares Z^{k} but lists {len(gens)} generators")
    if max(gens, default=0) > MAX_Z_GENERATOR:
        raise ValueError(f"generator {max(gens)} exceeds MAX_Z_GENERATOR = {MAX_Z_GENERATOR}")
    return ZProductIdeal(gens)


def audit_ex2() -> ClaimOutcome:
    """The ideal Z x {0} of Z x Z is prime and principal yet not maximal:
    it sits strictly under Z x Z_e, strictly under the whole ring."""
    prime = ZProductIdeal((1, 0))
    middle = ZProductIdeal((1, 2))
    whole = ZProductIdeal((1, 1))

    if not z_is_prime(prime):
        return ClaimOutcome(REFUTED, witness=str(prime), detail="expected prime")
    if not box_oracle_check(prime, z_principal_witness(prime), bound=10):
        return ClaimOutcome(REFUTED, witness=str(prime), detail="principal witness failed box oracle")
    chain_strict = (
        z_contains(middle, prime)
        and middle.gens != prime.gens
        and z_contains(whole, middle)
        and whole.gens != middle.gens
    )
    if z_is_maximal(prime) or not chain_strict:
        return ClaimOutcome(REFUTED, witness=str(prime), detail="expected a strict chain above the prime")
    chain = f"{prime} ⊂ {middle} ⊂ {whole}"
    return ClaimOutcome(VERIFIED, witness=chain, detail="prime, principal, not maximal")
