"""Command-line interface.

Exit codes: 0 success, 1 failed --expect-verified, 2 input errors (bad ring
files, violated axioms, unknown claim ids, an expectation on a claim that
--claim does not run, conflicting flags, malformed ideal literals).
"""

from __future__ import annotations

import argparse
import json
import sys

from .claims import CLAIM_IDS, run_all_claims, run_claim
from .corpus import default_corpus, load_corpus
from .ideals import (
    _match_elements,
    all_ideals,
    classify_ring,
    ideal_generated,
    is_maximal,
    is_ppri,
    is_primary,
    is_prime,
    is_principal,
    is_semiprime,
    prime_spectrum,
    radical,
)
from .quotients import quotient_ring
from .reports import REFUTED, _json_list, render_report
from .ringfile import load_ring_file
from .zmodel import (
    audit_ex2,
    box_oracle_check,
    parse_z_ideal,
    z_is_maximal,
    z_is_prime,
    z_principal_witness,
)

__all__ = ["main"]


def _parse_elements(ring, text: str) -> list[int]:
    """Comma-separated element names or indices; a name wins over an index."""
    out = []
    for index, rest in _match_elements(ring, text):
        if index is None:
            tok = rest.split(",", 1)[0].strip()
            if not tok:
                continue
            try:
                index = int(tok)
            except ValueError:
                raise ValueError(f"unknown element {tok!r} in {ring.label}") from None
        out.append(index)
    return out


def _flags_lines(ring) -> list[str]:
    flags = classify_ring(ring)
    lines = [
        f"is_domain: {flags.is_domain}",
        f"is_field: {flags.is_field}",
        f"is_boolean: {flags.is_boolean}",
        f"is_pprir: {flags.is_pprir}",
    ]
    if flags.witness is not None:
        lines.append(f"non-principal prime: {flags.witness}")
    return lines


def _cmd_describe(args) -> int:
    ring = load_ring_file(args.ringfile)
    print(f"label: {ring.label}")
    print(f"order: {ring.order}")
    print(f"zero: {ring.element_names[ring.zero]}")
    print(f"one: {ring.element_names[ring.one]}")
    for line in _flags_lines(ring):
        print(line)
    return 0


def _ideals_json(label: str, ideals: list[str], pairs: list[tuple[int, int]]) -> str:
    """json.dumps({"ring": label, "ideals": ideals, "containment": pairs},
    indent=2, ensure_ascii=False), byte for byte, filled into the fixed
    shape of that document at C speed: indent selects json's pure-Python
    encoder, which took most of the run on a lattice of thousands of
    ideals."""
    quote = json.encoder.encode_basestring
    ideals_json = _json_list([quote(s) for s in ideals], 2)
    number = [str(i) for i in range(len(ideals))]  # each position formatted once
    pairs_json = _json_list([f"[\n      {number[i]},\n      {number[j]}\n    ]" for i, j in pairs], 2)
    return f'{{\n  "ring": {quote(label)},\n  "ideals": {ideals_json},\n  "containment": {pairs_json}\n}}'


def _cmd_ideals(args) -> int:
    ring = load_ring_file(args.ringfile)
    lattice = all_ideals(ring)
    if args.dot:
        print(lattice.to_dot())
        return 0
    if args.json:
        print(_ideals_json(ring.label, [str(i) for i in lattice.ideals], lattice.containment_edges()))
        return 0
    print(f"{ring.label}: {len(lattice)} ideals")
    for i, ideal in enumerate(lattice.ideals):
        print(f"  [{i}] {ideal}")
    for i, j in lattice.containment_edges():
        print(f"  [{i}] < [{j}]")
    return 0


def _cmd_spectrum(args) -> int:
    ring = load_ring_file(args.ringfile)
    for prime in prime_spectrum(ring):
        print(str(prime))
    return 0


def _cmd_classify_ideal(args) -> int:
    ring = load_ring_file(args.ringfile)
    ideal = ideal_generated(ring, _parse_elements(ring, args.elements))
    principal, generator = is_principal(ring, ideal)
    print(f"ideal: {ideal}")
    print(f"size: {len(ideal)}")
    print(f"proper: {ideal.is_proper}")
    print(f"is_prime: {is_prime(ring, ideal)}")
    print(f"is_maximal: {is_maximal(ring, ideal)}")
    print(f"is_semiprime: {is_semiprime(ring, ideal)}")
    print(f"is_primary: {is_primary(ring, ideal)}")
    print(f"is_principal: {principal}")
    if principal:
        print(f"generator: {ring.element_names[generator]}")
    print(f"is_ppri: {is_ppri(ring, ideal)}")
    print(f"radical: {radical(ring, ideal)}")
    return 0


def _cmd_quotient(args) -> int:
    ring = load_ring_file(args.ringfile)
    ideal = ideal_generated(ring, _parse_elements(ring, args.elements))
    pres = quotient_ring(ring, ideal)
    q = pres.quotient
    if args.json:
        doc = {
            "base": ring.label,
            "ideal": str(ideal),
            "quotient": q.label,
            "order": q.order,
            "cosets": [
                [ring.element_names[b] for b in range(ring.order) if mask >> b & 1]
                for mask in pres.cosets
            ],
        }
        print(json.dumps(doc, indent=2, ensure_ascii=False))
        return 0
    print(f"quotient: {q.label}")
    print(f"order: {q.order}")
    for line in _flags_lines(q):
        print(line)
    return 0


def _cmd_audit(args) -> int:
    for expected in args.expect_verified or []:
        if args.claim != "all" and expected not in ("all", args.claim):
            raise ValueError(f"--expect-verified {expected} names a claim that --claim {args.claim} does not run")
    corpus = default_corpus() if args.corpus == "default" else load_corpus(args.corpus)
    reports = run_all_claims(corpus) if args.claim == "all" else run_claim(args.claim, corpus)
    print(render_report(reports, "json" if args.json else "text"))
    for expected in args.expect_verified or []:
        bad = [r for r in reports if expected in ("all", r.claim) and r.status == REFUTED]
        if bad:
            print("expectation failed:", ", ".join(f"{r.claim} refuted on {r.ring}" for r in bad), file=sys.stderr)
            return 1
    return 0


def _cmd_zmodel(args) -> int:
    if args.zcommand == "example2":
        outcome = audit_ex2()
        print(f"EX2 zmodel {outcome.status} {outcome.witness}")
        return 0
    ideal = parse_z_ideal(args.literal)
    witness = z_principal_witness(ideal)
    print(f"ideal: {ideal}")
    print(f"is_prime: {z_is_prime(ideal)}")
    print(f"is_maximal: {z_is_maximal(ideal)}")
    print(f"principal witness: {witness} (box oracle: {box_oracle_check(ideal, witness)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringaudit",
        description="Ideal lattices, quotients and claim audits for finite commutative rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="order, identities and classification flags of a ring file")
    p.add_argument("ringfile")
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("ideals", help="full ideal lattice of a ring file")
    p.add_argument("ringfile")
    form = p.add_mutually_exclusive_group()
    form.add_argument("--json", action="store_true")
    form.add_argument("--dot", action="store_true", help="emit a DOT digraph of the covering relation")
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("spectrum", help="prime ideals of a ring file, one per line")
    p.add_argument("ringfile")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("classify-ideal", help="predicates for the ideal generated by elements")
    p.add_argument("ringfile")
    p.add_argument("--elements", required=True, help="comma-separated element indices or names")
    p.set_defaults(func=_cmd_classify_ideal)

    p = sub.add_parser("quotient", help="quotient by the ideal generated by elements")
    p.add_argument("ringfile")
    p.add_argument("--elements", required=True, help="comma-separated element indices or names")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("audit", help="run claim checkers over a corpus")
    p.add_argument("--corpus", default="default", help='"default" or a directory of ring files')
    p.add_argument("--claim", default="all", choices=("all",) + CLAIM_IDS)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--expect-verified",
        action="append",
        choices=("all",) + CLAIM_IDS,
        metavar="CLAIM",
        help='exit 1 if this claim, or any claim for "all", has a refuted report (repeatable)',
    )
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("zmodel", help="symbolic ideals of Z^k")
    zsub = p.add_subparsers(dest="zcommand", required=True)
    z = zsub.add_parser("example2", help="the prime, principal, non-maximal chain in Z x Z")
    z.set_defaults(func=_cmd_zmodel)
    z = zsub.add_parser("ideal", help="classify an ideal literal such as Z^2:(1,0)")
    z.add_argument("literal")
    z.set_defaults(func=_cmd_zmodel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # RingFileError and RingAxiomError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
