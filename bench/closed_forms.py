"""Closed-form counts for the rings the benchmark builds.

Every ring here is a product of integer rings Z_n (a Boolean ring B_k is
Z_2^k). By the Chinese remainder theorem each factor splits into chains
Z_{p^a}, whose ideals p^e Z_{p^a} (0 <= e <= a) form a chain of length a+1,
and the ideal lattice of the product is the product of those chains. The
counts below follow from that alone; none of this calls the engine.
"""

from __future__ import annotations

from collections import Counter
from itertools import product as cartesian
from math import prod


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisor_count(n: int) -> int:
    """d(n): the number of ideals of Z_n."""
    return prod(a + 1 for a in factorize(n).values())


def omega(n: int) -> int:
    """Number of distinct primes dividing n: the number of primes of Z_n."""
    return len(factorize(n))


def _chains(factors) -> list[tuple[int, int]]:
    return [(p, a) for n in factors for p, a in factorize(n).items()]


def ideal_count(factors) -> int:
    """Ideals of Z_{n_1} x ... x Z_{n_k}: the product of the d(n_i)."""
    return prod(divisor_count(n) for n in factors)


def containment_pairs(factors) -> int:
    """Pairs I < J of distinct ideals with I contained in J.

    A chain of length a+1 has (a+1)(a+2)/2 comparable pairs counting I = J,
    and comparability in a product of chains holds factor by factor.
    """
    return prod((a + 1) * (a + 2) // 2 for _, a in _chains(factors)) - ideal_count(factors)


def ideal_sizes(factors) -> list[int]:
    """Sorted member counts of every ideal: p^e Z_{p^a} has p^(a-e) members."""
    chains = _chains(factors)
    return sorted(
        prod(p ** (a - e) for (p, a), e in zip(chains, exps))
        for exps in cartesian(*[range(a + 1) for _, a in chains])
    )


def prime_sizes(factors) -> list[int]:
    """Sorted member counts of the primes: each is order/p for a prime p of
    one factor (that factor replaced by its ideal pZ_n)."""
    order = prod(factors)
    return sorted(order // p for n in factors for p in factorize(n))


def field_product_endomorphism_count(primes) -> int:
    """Unital endomorphisms of F_{p_1} x ... x F_{p_k} (B_k is F_2^k).

    Each projection of the target composed with the map is a unital map
    onto a prime field, so it is a projection of the source onto a factor
    of the same characteristic: the count is the product over each prime p
    of c_p^c_p, where c_p factors are F_p.
    """
    return prod(c**c for c in Counter(primes).values())
