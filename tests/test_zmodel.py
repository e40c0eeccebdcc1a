"""Symbolic Z^k ideals: containment, primality, the box oracle, EX2."""

import tracemalloc
from itertools import product as cartesian

import pytest

from ringaudit.reports import VERIFIED
from ringaudit.zmodel import (
    ZProductIdeal,
    audit_ex2,
    box_oracle_check,
    parse_z_ideal,
    render_z_ideal,
    z_contains,
    z_is_maximal,
    z_is_prime,
    z_principal_witness,
)


def test_contains_examples():
    # Z x 2Z contains Z x {0}
    assert z_contains(ZProductIdeal((1, 2)), ZProductIdeal((1, 0)))
    assert not z_contains(ZProductIdeal((1, 0)), ZProductIdeal((1, 2)))
    assert z_contains(ZProductIdeal((2,)), ZProductIdeal((6,)))
    assert not z_contains(ZProductIdeal((6,)), ZProductIdeal((2,)))
    assert not z_contains(ZProductIdeal((2,)), ZProductIdeal((3,)))
    assert z_contains(ZProductIdeal((1, 0)), ZProductIdeal((1, 0)))


def test_contains_rejects_arity_mismatch():
    with pytest.raises(ValueError, match="arities"):
        z_contains(ZProductIdeal((1, 2)), ZProductIdeal((2,)))


def test_gens_validation():
    with pytest.raises(ValueError):
        ZProductIdeal(())
    with pytest.raises(ValueError):
        ZProductIdeal((1, 2, 3, 4))
    with pytest.raises(ValueError):
        ZProductIdeal((-2, 1))


def test_prime_examples():
    assert z_is_prime(ZProductIdeal((1, 0)))
    assert z_is_prime(ZProductIdeal((2, 1)))
    assert z_is_prime(ZProductIdeal((0,)))
    assert z_is_prime(ZProductIdeal((5,)))
    assert not z_is_prime(ZProductIdeal((6,)))
    assert not z_is_prime(ZProductIdeal((1,)))       # the whole ring
    assert not z_is_prime(ZProductIdeal((0, 0)))     # two special coordinates
    assert not z_is_prime(ZProductIdeal((2, 3)))
    assert not z_is_prime(ZProductIdeal((1, 4)))


def test_maximal_examples():
    assert z_is_maximal(ZProductIdeal((2, 1)))
    assert z_is_maximal(ZProductIdeal((5,)))
    assert not z_is_maximal(ZProductIdeal((1, 0)))   # prime but not maximal
    assert not z_is_maximal(ZProductIdeal((0,)))
    assert not z_is_maximal(ZProductIdeal((1, 1)))


def test_maximal_implies_prime_on_grid():
    for k in (1, 2):
        for gens in cartesian(range(21), repeat=k):
            ideal = ZProductIdeal(gens)
            if z_is_maximal(ideal):
                assert z_is_prime(ideal)
    for gens in cartesian(range(6), repeat=3):
        ideal = ZProductIdeal(gens)
        if z_is_maximal(ideal):
            assert z_is_prime(ideal)


def test_contains_is_a_partial_order():
    ideals1 = [ZProductIdeal((g,)) for g in range(21)]
    for a in ideals1:
        assert z_contains(a, a)
        for b in ideals1:
            if z_contains(a, b) and z_contains(b, a):
                assert a.gens == b.gens
            for c in ideals1:
                if z_contains(a, b) and z_contains(b, c):
                    assert z_contains(a, c)
    ideals2 = [ZProductIdeal(g) for g in cartesian(range(7), repeat=2)]
    for a in ideals2:
        for b in ideals2:
            if z_contains(a, b) and z_contains(b, a):
                assert a.gens == b.gens


def test_principal_witness_box_oracle():
    for gens in [(1, 0), (2, 3), (0,), (4,), (1, 1), (2, 0, 3)]:
        ideal = ZProductIdeal(gens)
        assert box_oracle_check(ideal, z_principal_witness(ideal))


def test_box_oracle_catches_wrong_witness():
    assert not box_oracle_check(ZProductIdeal((2, 2)), (2, 4))
    assert not box_oracle_check(ZProductIdeal((2,)), (3,))
    assert not box_oracle_check(ZProductIdeal((0, 1)), (1, 1))
    with pytest.raises(ValueError, match="arity"):
        box_oracle_check(ZProductIdeal((2,)), (2, 2))


def test_box_oracle_never_builds_the_box():
    tracemalloc.start()
    try:
        assert box_oracle_check(ZProductIdeal((1, 2000)), (1, 2000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the box holds 40001 x 41 points, far more than the two axes
    assert peak < 20 * 2**20


def test_render():
    assert render_z_ideal(ZProductIdeal((1, 0))) == "Z×{0}"
    assert render_z_ideal(ZProductIdeal((1, 2))) == "Z×Z_e"
    assert render_z_ideal(ZProductIdeal((1, 1))) == "Z×Z"
    assert render_z_ideal(ZProductIdeal((3, 0, 5))) == "3Z×{0}×5Z"


def test_parse_literals():
    assert parse_z_ideal("Z^2:(1,0)").gens == (1, 0)
    assert parse_z_ideal("Z:(6)").gens == (6,)
    assert parse_z_ideal("Z^3:(2, 0, 3)").gens == (2, 0, 3)
    for bad in ("Z^2:(1)", "Z^4:(1,2,3,4)", "W:(1)", "Z^2:1,0", "Z^2:(1,-2)"):
        with pytest.raises(ValueError):
            parse_z_ideal(bad)


def test_audit_ex2_chain():
    out = audit_ex2()
    assert out.status == VERIFIED
    assert out.witness == "Z×{0} ⊂ Z×Z_e ⊂ Z×Z"


def test_one_dimensional_analogue():
    # (0) in Z is prime, principal, not maximal: it sits under (2)
    zero = ZProductIdeal((0,))
    two = ZProductIdeal((2,))
    assert z_is_prime(zero) and not z_is_maximal(zero)
    assert z_contains(two, zero) and two.gens != zero.gens
    assert box_oracle_check(zero, z_principal_witness(zero), bound=10)
