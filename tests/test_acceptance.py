"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with -v to get the per-criterion verdict from pytest itself; the
criterion() context manager additionally prints an explicit line that
shows up in captured output when a criterion fails.
"""

import contextlib
import io
import json
import time
from contextlib import contextmanager

from _oracles import additive_subgroups, divisor_count
from ringaudit import (
    REFUTED,
    VERIFIED,
    ZProductIdeal,
    all_ideals,
    audit_ex2,
    box_oracle_check,
    classify_hom,
    default_corpus,
    endomorphisms,
    ideal_from_members,
    is_ppri,
    is_primary,
    is_prime,
    is_principal,
    is_pprir,
    is_semiprime,
    principal_ideal,
    prime_spectrum,
    radical,
    run_claim,
    z_contains,
    z_is_maximal,
    z_is_prime,
    z_principal_witness,
    zero_ideal,
)
from ringaudit.cli import main as cli_main


@contextmanager
def criterion(line):
    try:
        yield
    except BaseException:
        print(f"{line}: FAIL")
        raise
    print(f"{line}: PASS")


def test_criterion_01_corpus_builds_fast():
    with criterion("criterion 01: default 76-ring corpus constructs and validates in under 5s"):
        start = time.perf_counter()
        fresh = default_corpus()
        elapsed = time.perf_counter() - start
        assert len(fresh) == 76
        assert elapsed < 5.0, f"corpus took {elapsed:.2f}s"


def test_criterion_02_zn_ideal_counts(corpus):
    with criterion("criterion 02: Z_n has exactly divisor_count(n) ideals for n in 2..64"):
        for n in range(2, 65):
            ring = corpus.by_label(f"Z_{n}")
            assert len(all_ideals(ring)) == divisor_count(n), f"n={n}"


def test_criterion_03_local_algebra_lattice(ring_a):
    with criterion(
        "criterion 03: the order-8 local algebra has 6 ideals and a single non-principal prime"
    ):
        lattice = all_ideals(ring_a)
        assert len(lattice) == 6
        m = ideal_from_members(ring_a, [0, 2, 4, 6])
        assert str(m) == "{0,x,y,x+y}"

        # every additive subgroup of m absorbs multiplication (m*m = 0), so
        # the lattice must be exactly those subgroups plus the whole ring
        oracle = additive_subgroups(ring_a, {0, 2, 4, 6})
        oracle.add(frozenset(range(8)))
        assert {frozenset(i.indices()) for i in lattice.ideals} == oracle

        assert prime_spectrum(ring_a) == [m]
        assert is_principal(ring_a, m) == (False, None)
        ok, witness = is_pprir(ring_a)
        assert not ok
        assert witness == m


def test_criterion_04_nilradical_of_z12(corpus):
    with criterion("criterion 04: the nilradical of Z_12 is {0,6}"):
        z12 = corpus.by_label("Z_12")
        assert radical(z12, zero_ideal(z12)) == ideal_from_members(z12, [0, 6])


def test_criterion_05_primary_with_prime_radical(corpus):
    with criterion("criterion 05: (4) in Z_12 is primary, its radical is the principal prime (2)"):
        z12 = corpus.by_label("Z_12")
        four = principal_ideal(z12, 4)
        two = principal_ideal(z12, 2)
        assert is_primary(z12, four)
        assert not is_prime(z12, four)
        assert radical(z12, four) == two
        assert is_ppri(z12, two)


def test_criterion_06_thm1_and_prime_maximal_coincidence(corpus):
    with criterion("criterion 06: THM1 verified on all rings; primes coincide with maximals"):
        reports = run_claim("THM1", corpus)
        assert len(reports) == len(corpus)
        assert all(r.status == VERIFIED for r in reports)
        for ring in corpus:
            lattice = all_ideals(ring)
            primes = {i for i in lattice.ideals if is_prime(ring, i)}
            maxes = {i for i, maximal in zip(lattice.ideals, lattice.maximal) if maximal}
            assert primes == maxes, ring.label


def test_criterion_07_boolean_spectra(corpus):
    with criterion("criterion 07: in B_k proper PPRI = maximal, and Spec(B_k) has k point complements"):
        for k in range(1, 5):
            ring = corpus.by_label(f"B_{k}")
            lattice = all_ideals(ring)
            for ideal, maximal in zip(lattice.ideals, lattice.maximal):
                if ideal.is_proper:
                    assert is_ppri(ring, ideal) == maximal
            spec = prime_spectrum(ring)
            assert len(spec) == k
            expected_masks = set()
            for atom in range(k):
                mask = 0
                for j in range(ring.order):
                    if not j >> atom & 1:
                        mask |= 1 << j
                expected_masks.add(mask)
            assert {p.members for p in spec} == expected_masks


def test_criterion_08_semiprime_characterisations(corpus):
    with criterion("criterion 08: principal primes are semiprime; semiprime = radical-fixed"):
        for ring in corpus:
            for ideal in all_ideals(ring).ideals:
                if ideal.is_proper and is_prime(ring, ideal) and is_principal(ring, ideal)[0]:
                    assert is_semiprime(ring, ideal), (ring.label, str(ideal))
                assert is_semiprime(ring, ideal) == (radical(ring, ideal) == ideal)


def test_criterion_09_endomorphism_rigidity(corpus):
    with criterion("criterion 09: endos of rings up to order 16 are injective iff surjective"):
        for ring in corpus:
            if ring.order > 16:
                continue
            for f in endomorphisms(ring):
                flags = classify_hom(f)
                assert flags["injective"] == flags["surjective"], (ring.label, f.mapping)
        for n in range(2, 17):
            ring = corpus.by_label(f"Z_{n}")
            endos = endomorphisms(ring)
            assert len(endos) == 1
            assert endos[0].mapping == tuple(range(n))


def test_criterion_10_refutations_localised(corpus):
    with criterion("criterion 10: THM2 and THM5 refuted exactly on the local algebra, CLI exits 1"):
        for claim in ("THM2", "THM5"):
            reports = run_claim(claim, corpus)
            refuted = [r for r in reports if r.status == REFUTED]
            assert [r.ring for r in refuted] == ["A=F2[x,y]/(x,y)^2"], claim
            assert refuted[0].witness == "{0,x,y,x+y}"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["audit", "--claim", "THM2", "--expect-verified", "THM2"])
        assert code == 1


def test_criterion_11_infinite_counterexample():
    with criterion("criterion 11: Z x {0} is a prime principal non-maximal ideal of Z x Z"):
        outcome = audit_ex2()
        assert outcome.status == VERIFIED
        assert outcome.witness == "Z×{0} ⊂ Z×Z_e ⊂ Z×Z"

        prime = ZProductIdeal((1, 0))
        assert z_is_prime(prime)
        assert box_oracle_check(prime, z_principal_witness(prime), bound=10)
        assert not z_is_maximal(prime)
        middle = ZProductIdeal((1, 2))
        whole = ZProductIdeal((1, 1))
        assert z_contains(middle, prime) and middle != prime
        assert z_contains(whole, middle) and whole != middle


def test_criterion_12_audit_determinism():
    with criterion("criterion 12: two full audit runs agree byte for byte up to timings"):
        def run_once():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli_main(["audit", "--json"]) == 0
            return json.loads(buf.getvalue())

        first, second = run_once(), run_once()
        assert len(first) == 11 * 76 + 1
        for doc in (first, second):
            for row in doc:
                row["elapsed_ms"] = None
        assert first == second
