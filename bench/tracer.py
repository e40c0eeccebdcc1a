"""Per-layer spans recorded from outside the package.

A Tracer replaces the layers' public functions with timing wrappers, in
every ringaudit module that binds the name: claims, quotients and cli
import names directly, so patching only the defining module would miss
their calls. The benchmark calls its entry points through module
attributes at call time, so they see the wrappers too.

A span's self time is its duration minus the time of the spans it caused.
The tracer holds rings only weakly, so counting live rings stays honest.
"""

from __future__ import annotations

import sys
import weakref
from time import perf_counter

# (module, function, span name); rings.FiniteRing.__init__ is added apart
SPANS = (
    ("rings", "validate_tables", "rings.validate"),
    ("ringfile", "load_ring_file", "ringfile.parse"),
    ("ideals", "all_ideals", "ideals.lattice"),
    ("ideals", "is_prime", "ideals.is_prime"),
    ("ideals", "is_principal", "ideals.is_principal"),
    ("ideals", "radical", "ideals.radical"),
    ("ideals", "prime_spectrum", "ideals.prime_spectrum"),
    ("ideals", "is_pprir", "ideals.is_pprir"),
    ("ideals", "classify_ring", "ideals.classify_ring"),
    ("ideals", "is_primary", "ideals.is_primary"),
    ("ideals", "is_maximal", "ideals.is_maximal"),
    ("ideals", "is_semiprime", "ideals.is_semiprime"),
    ("ideals", "minimal_primes_over", "ideals.minimal_primes_over"),
    ("quotients", "quotient_ring", "quotients.quotient_ring"),
    ("quotients", "check_hom", "quotients.check_hom"),
    ("quotients", "kernel", "quotients.kernel"),
    ("quotients", "endomorphisms", "quotients.endomorphisms"),
    ("claims", "run_claim", "claims.run_claim"),
    ("reports", "render_report", "reports.render"),
    ("cli", "main", "cli.main"),
)
CONSTRUCT_SPAN = "rings.construct"


class _Span:
    __slots__ = ("calls", "total", "child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


class Tracer:
    """Spans and counts for one traced pass: use as a context manager, which
    installs the wrappers on entry and restores the originals on exit, then
    read metrics()."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.spans = {name: _Span() for _, _, name in SPANS}
        self.spans[CONSTRUCT_SPAN] = _Span()
        self.counts = {
            "rings.validate.cells": 0,
            "ringfile.parse.rejected": 0,
            "ideals.lattice.rings": 0,
            "ideals.lattice.ideals": 0,
            "quotients.endomorphisms.maps": 0,
            "reports.render.bytes": 0,
            "cli.main.exit2": 0,
        }
        self._prime_pairs_seen = 0
        self._spectrum_rings_seen = 0
        self._lattice_rings = weakref.WeakSet()
        self._spectrum_rings = weakref.WeakSet()
        self._prime_pairs = weakref.WeakKeyDictionary()

    def _observe(self, name: str, args, kwargs, result, failed: bool) -> None:
        c = self.counts
        if name == "rings.validate":
            c["rings.validate.cells"] += _arg(args, kwargs, 0, "order") ** 3
        elif name == "ringfile.parse":
            c["ringfile.parse.rejected"] += failed
        elif failed:
            return
        elif name == "ideals.lattice":
            ring = _arg(args, kwargs, 0, "ring")
            if ring not in self._lattice_rings:
                self._lattice_rings.add(ring)
                c["ideals.lattice.rings"] += 1
                c["ideals.lattice.ideals"] += len(result)
        elif name == "ideals.is_prime":
            masks = self._prime_pairs.setdefault(_arg(args, kwargs, 0, "ring"), set())
            members = _arg(args, kwargs, 1, "ideal").members
            if members not in masks:
                masks.add(members)
                self._prime_pairs_seen += 1
        elif name == "ideals.prime_spectrum":
            ring = _arg(args, kwargs, 0, "ring")
            if ring not in self._spectrum_rings:
                self._spectrum_rings.add(ring)
                self._spectrum_rings_seen += 1
        elif name == "quotients.endomorphisms":
            c["quotients.endomorphisms.maps"] += len(result)
        elif name == "reports.render":
            c["reports.render.bytes"] += len(result.encode())
        elif name == "cli.main":
            c["cli.main.exit2"] += result == 2

    def _wrap(self, name: str, fn):
        span = self.spans[name]
        stack = self._stack
        observe = self._observe

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            failed = True
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span.calls += 1
                span.total += elapsed
                span.child += frame[0]
                observe(name, args, kwargs, result, failed)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "ringaudit" or n.startswith("ringaudit.")]
        for home, attr, name in SPANS:
            original = getattr(sys.modules[f"ringaudit.{home}"], attr, None)
            if original is None:
                print(f"tracer: ringaudit.{home}.{attr} is gone; {name} reads 0", file=sys.stderr)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        ring_class = sys.modules["ringaudit.rings"].FiniteRing
        self._patches.append((ring_class, "__init__", ring_class.__init__))
        ring_class.__init__ = self._wrap(CONSTRUCT_SPAN, ring_class.__init__)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer totals of the traced pass."""
        out: dict[str, float] = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.self_s"] = span.total - span.child
        out.update(self.counts)
        out["ideals.is_prime.calls_per_pair"] = _ratio(self.spans["ideals.is_prime"].calls, self._prime_pairs_seen)
        out["ideals.prime_spectrum.calls_per_ring"] = _ratio(
            self.spans["ideals.prime_spectrum"].calls, self._spectrum_rings_seen
        )
        return out


def _arg(args, kwargs, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs[keyword]


def _ratio(calls: int, distinct: int) -> float:
    return calls / distinct if distinct else 0.0
