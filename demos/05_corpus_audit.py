"""Audit the whole claim catalog over the default 76-ring corpus.

    python3 demos/05_corpus_audit.py
"""

import time
from collections import Counter

from ringaudit import CLAIM_IDS, default_corpus, run_all_claims

start = time.perf_counter()
corpus = default_corpus()
built = time.perf_counter() - start
print(f"corpus: {len(corpus)} rings, built in {built:.2f}s")
print(f"  orders range {min(r.order for r in corpus)}..{max(r.order for r in corpus)}")

start = time.perf_counter()
reports = run_all_claims(corpus)
audited = time.perf_counter() - start
print(f"audit: {len(reports)} reports in {audited:.2f}s")

print()
print(f"{'claim':10} {'verified':>9} {'refuted':>8} {'skipped':>8}")
for claim in CLAIM_IDS:
    counts = Counter(r.status for r in reports if r.claim == claim)
    print(f"{claim:10} {counts['verified']:>9} {counts['refuted']:>8} {counts['skipped']:>8}")

print()
print("refutations, with witnesses:")
for r in reports:
    if r.status == "refuted":
        print(f"  {r.claim} on {r.ring}: witness {r.witness} ({r.detail})")

print()
skipped = [r for r in reports if r.status == "skipped"]
print(f"skips: {len(skipped)}, all THM3 on rings past the endomorphism search cap")
print(f"  e.g. {skipped[0].ring}: {skipped[0].reason}")
print("  (raise RINGAUDIT_ENDO_CAP to push the exhaustive search further)")

print()
print("a refutation is a finding, not a failure: the order-8 local algebra")
print("has a prime ideal no single element can generate, so any claim that")
print("predicts every prime is principal must break exactly there.")
