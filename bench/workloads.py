"""The benchmark's three workloads and their correctness oracles.

Each workload builds fresh rings in every pass: the process-global cache
on all_ideals is keyed on ring identity, so reusing rings would let later
passes skip lattice work that no CLI user skips. Entry points are called
through module attributes, so the tracer's wrappers see them.

A pass returns plain data only (no rings), so that the rings it built can
be counted as dead or alive once it returns. verify() checks that data
against closed forms or a pinned golden, without calling the engine.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import closed_forms
from ringaudit import claims, cli, corpus, ideals, quotients, reports, rings
from ringfiles import RingFile

GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus-audit.json"
_ELAPSED = re.compile(r'"elapsed_ms": [-+.0-9eE]+')


def strip_elapsed(report_json: str) -> str:
    """The report with every elapsed_ms set to 0, all other bytes kept."""
    return _ELAPSED.sub('"elapsed_ms": 0', report_json)


@dataclass
class Op:
    seconds: float
    output: object


@dataclass
class Pass:
    setup_s: float  # building the pass's rings, before its first operation
    run_s: float  # wall time of the operations
    ops: list[Op]
    claim_s: Counter = field(default_factory=Counter)  # program-reported


class CorpusAudit:
    """What `ringaudit audit --json` does. One operation is one pass."""

    name = "corpus-audit"
    tail_percentile = 50  # ~15 passes a run: no higher percentile has 10 beyond
    min_passes = 3

    def __init__(self):
        self.golden = GOLDEN.read_text()

    def run_pass(self) -> Pass:
        start = perf_counter()
        ring_corpus = corpus.default_corpus()
        setup_s = perf_counter() - start
        start = perf_counter()
        rows = claims.run_all_claims(ring_corpus)
        text = reports.render_report(rows, "json")
        run_s = perf_counter() - start
        claim_s = Counter()
        for row in rows:
            claim_s[row.claim] += row.elapsed_ms / 1000.0
        return Pass(setup_s, run_s, [Op(run_s, strip_elapsed(text))], claim_s)

    def verify(self, index: int, output) -> str | None:
        return None if output == self.golden else "report differs from the golden"


# Rings past the default corpus, each rung dominated by one layer:
# Z_192 validation (set-up), all_ideals(B_6) lattice, endomorphisms of
# Z_2^4 x Z_3 (order 48, above the audit's cap of 16), THM1 on Z_128
# quotients, and the lattice and spectrum of Z_4^3. Rungs are sized so that
# a pass takes about a second: many short passes give a steadier median
# than a few long ones on a host whose speed drifts.
ZN_ORDER = 192
LATTICE_ATOMS = 6
ENDO_FACTORS = (2, 2, 2, 2, 3)
THM1_ORDER = 128
PRODUCT_FACTORS = (4, 4, 4)


class ScaleLadder:
    """Fixed rings beyond the corpus. One operation is one pass."""

    name = "scale-ladder"
    tail_percentile = 50  # as for corpus-audit
    min_passes = 3

    def run_pass(self) -> Pass:
        start = perf_counter()
        zn = rings.make_zn(ZN_ORDER)
        boolean_lattice = rings.make_boolean(LATTICE_ATOMS)
        endo_ring = rings.make_product([rings.make_zn(p) for p in ENDO_FACTORS])
        thm1_ring = rings.make_zn(THM1_ORDER)
        product = rings.make_product([rings.make_zn(n) for n in PRODUCT_FACTORS])
        setup_s = perf_counter() - start

        start = perf_counter()
        lattice = ideals.all_ideals(boolean_lattice)
        endos = quotients.endomorphisms(endo_ring, cap=endo_ring.order)
        thm1 = quotients.audit_thm1(thm1_ring)
        thm1_lattice = ideals.all_ideals(thm1_ring)
        thm1_spectrum = ideals.prime_spectrum(thm1_ring)
        product_lattice = ideals.all_ideals(product)
        product_spectrum = ideals.prime_spectrum(product)
        run_s = perf_counter() - start

        output = {
            "zn_mul": zn.mul_table.tolist(),
            "lattice_sizes": sorted(len(i) for i in lattice.ideals),
            "endo_maps": len({h.mapping for h in endos}),
            "endo_count": len(endos),
            "thm1": (thm1.status, thm1.detail),
            "thm1_ideals": len(thm1_lattice),
            "thm1_primes": len(thm1_spectrum),
            "product_sizes": sorted(len(i) for i in product_lattice.ideals),
            "product_prime_sizes": sorted(len(p) for p in product_spectrum),
        }
        return Pass(setup_s, run_s, [Op(run_s, output)])

    def verify(self, index: int, output) -> str | None:
        n = ZN_ORDER
        expected = {
            "zn_mul": [[a * b % n for b in range(n)] for a in range(n)],
            "lattice_sizes": closed_forms.ideal_sizes((2,) * LATTICE_ATOMS),
            "endo_maps": closed_forms.field_product_endomorphism_count(ENDO_FACTORS),
            "endo_count": closed_forms.field_product_endomorphism_count(ENDO_FACTORS),
            # Z_n is a principal ideal ring, so THM1 holds with its hypothesis
            "thm1": ("verified", "all-primes-principal hypothesis: True"),
            "thm1_ideals": closed_forms.divisor_count(THM1_ORDER),
            "thm1_primes": closed_forms.omega(THM1_ORDER),
            "product_sizes": closed_forms.ideal_sizes(PRODUCT_FACTORS),
            "product_prime_sizes": closed_forms.prime_sizes(PRODUCT_FACTORS),
        }
        wrong = [key for key, value in expected.items() if output[key] != value]
        return f"closed form mismatch: {', '.join(wrong)}" if wrong else None


_AXIOM_ERROR = re.compile(r"error: axiom \S+ violated at \([0-9, ]+\)\n")


class UntrustedFiles:
    """Seeded ring files through the CLI. One operation is one file:
    `ringaudit ideals FILE --json` then `ringaudit spectrum FILE`."""

    name = "untrusted-files"
    tail_percentile = 95
    min_passes = 5  # 200 files, so at least 10 lie beyond the 95th percentile

    def __init__(self, files: list[RingFile], paths: list[Path]):
        self.files = files
        self.paths = [str(p) for p in paths]

    def run_pass(self) -> Pass:
        ops = []
        start = perf_counter()
        for path in self.paths:
            op_start = perf_counter()
            output = (_run_cli(["ideals", path, "--json"]), _run_cli(["spectrum", path]))
            ops.append(Op(perf_counter() - op_start, output))
        return Pass(0.0, perf_counter() - start, ops)

    def verify(self, index: int, output) -> str | None:
        spec = self.files[index]
        (code, out, err), (spec_code, spec_out, spec_err) = output
        if spec.corrupted:
            for c, o, e in output:
                if c != 2 or o or not _AXIOM_ERROR.fullmatch(e):
                    return f"{spec.name}: corrupted file gave exit {c}, stderr {e[:120]!r}"
            return None
        if code != 0 or spec_code != 0 or err or spec_err:
            return f"{spec.name}: exit {code}/{spec_code}, stderr {(err or spec_err)[:120]!r}"
        try:
            doc = json.loads(out)
            got = (
                doc["ring"],
                sorted(_ideal_size(i) for i in doc["ideals"]),
                len(doc["containment"]),
                sorted(_ideal_size(line) for line in spec_out.splitlines()),
            )
        except (ValueError, KeyError, TypeError) as exc:
            return f"{spec.name}: unreadable ideals output ({exc})"
        factors = spec.factors
        expected = (
            spec.name,
            closed_forms.ideal_sizes(factors),
            closed_forms.containment_pairs(factors),
            closed_forms.prime_sizes(factors),
        )
        return None if got == expected else f"{spec.name}: lattice or spectrum differs from the closed form"


def _ideal_size(text: str) -> int:
    return text.count(",") + 1


def _run_cli(argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()
