"""Tests of the benchmark itself: seeded inputs, corruption, closed forms.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for entry in (BENCH, ROOT / "src", ROOT / "tests"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import closed_forms  # noqa: E402
import ringfiles  # noqa: E402
from _oracles import brute_force_endos, brute_force_ideals, divisor_count  # noqa: E402
from ringaudit import make_boolean, make_product, make_zn  # noqa: E402
from ringaudit.ringfile import ring_from_document  # noqa: E402
from ringaudit.rings import RingAxiomError  # noqa: E402


def test_same_seed_same_bytes_other_seed_other_bytes():
    first = [f.text for f in ringfiles.ring_files(7)]
    assert first == [f.text for f in ringfiles.ring_files(7)]
    other = [f.text for f in ringfiles.ring_files(8)]
    assert all(a != b for a, b in zip(first, other))


def test_a_quarter_of_the_files_are_corrupted_once_per_product():
    files = ringfiles.ring_files(3)
    assert len(files) == len(ringfiles.PRODUCTS) * ringfiles.CORRUPT_ONE_IN
    bad = Counter(f.factors for f in files if f.corrupted)
    assert bad == Counter(ringfiles.PRODUCTS)
    orders = sorted({json.loads(f.text)["order"] for f in files})
    assert orders[0] >= 24 and orders[-1] <= 128


@pytest.mark.parametrize("seed", [0, 1])
def test_every_corrupted_cell_breaks_an_axiom(seed):
    for f in ringfiles.ring_files(seed):
        doc = json.loads(f.text)
        if f.corrupted:
            with pytest.raises(RingAxiomError):
                ring_from_document(doc)
        else:
            assert ring_from_document(doc).order == math.prod(f.factors)


@pytest.mark.parametrize("factors", ringfiles.PRODUCTS[:3])
def test_generated_tables_are_the_product_ring(factors):
    add, mul, zero, one = ringfiles.product_tables(factors)
    ring = make_product([make_zn(n) for n in factors])
    assert add == ring.add_table.tolist() and mul == ring.mul_table.tolist()
    assert (zero, one) == (ring.zero, ring.one)


@pytest.mark.parametrize("n", range(2, 14))
def test_zn_closed_forms_match_brute_force(n):
    ring = make_zn(n)
    found = brute_force_ideals(ring)
    assert closed_forms.divisor_count(n) == divisor_count(n) == len(found)
    assert closed_forms.ideal_sizes((n,)) == sorted(len(i) for i in found)
    assert closed_forms.omega(n) == len(_brute_force_primes(ring, found))


@pytest.mark.parametrize("factors", [(2, 3), (2, 4), (2, 2, 2), (2, 6), (3, 4), (2, 2, 3)])
def test_product_closed_forms_match_brute_force(factors):
    ring = make_product([make_zn(n) for n in factors])
    found = brute_force_ideals(ring)
    primes = _brute_force_primes(ring, found)
    assert closed_forms.ideal_count(factors) == len(found)
    assert closed_forms.ideal_sizes(factors) == sorted(len(i) for i in found)
    assert closed_forms.containment_pairs(factors) == sum(1 for i in found for j in found if i < j)
    assert closed_forms.prime_sizes(factors) == sorted(len(p) for p in primes)


@pytest.mark.parametrize("k", [1, 2])
def test_boolean_closed_forms_match_brute_force(k):
    ring = make_boolean(k)
    assert closed_forms.ideal_count((2,) * k) == 2**k == len(brute_force_ideals(ring))
    assert closed_forms.field_product_endomorphism_count((2,) * k) == k**k == len(brute_force_endos(ring))


@pytest.mark.parametrize("primes", [(2,), (3,), (2, 2)])
def test_field_product_endomorphisms_match_brute_force(primes):
    ring = make_product([make_zn(p) for p in primes])
    assert closed_forms.field_product_endomorphism_count(primes) == len(brute_force_endos(ring))


def _brute_force_primes(ring, ideals) -> list[frozenset[int]]:
    """Proper ideals P with xy in P forcing x or y in P, from the definition."""
    return [
        p
        for p in ideals
        if len(p) < ring.order
        and all(
            x in p or y in p or ring.mul(x, y) not in p
            for x in range(ring.order)
            for y in range(ring.order)
        )
    ]


@pytest.mark.parametrize("workload", ["corpus-audit", "untrusted-files"])
def test_short_run_is_correct_and_reports_every_metric(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300, cwd=ROOT,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[group]}


def test_golden_is_the_expected_report():
    rows = json.loads((BENCH / "golden" / "corpus-audit.json").read_text())
    assert len(rows) == 837
    assert Counter(r["status"] for r in rows) == {"verified": 786, "skipped": 49, "refuted": 2}
    refuted = {(r["claim"], r["ring"], r["witness"]) for r in rows if r["status"] == "refuted"}
    assert refuted == {(c, "A=F2[x,y]/(x,y)^2", "{0,x,y,x+y}") for c in ("THM2", "THM5")}
    assert {r["elapsed_ms"] for r in rows} == {0}
